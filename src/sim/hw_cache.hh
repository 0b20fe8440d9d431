/**
 * @file
 * Timing model of the FRAM controller's hardware read cache
 * (MSP430FR2355: 2-way set associative, four 8-byte lines). The cache
 * stores tags only — data always comes from the flat memory array — so
 * it influences stall cycles and hit/miss statistics, never values.
 */

#ifndef SWAPRAM_SIM_HW_CACHE_HH
#define SWAPRAM_SIM_HW_CACHE_HH

#include <array>
#include <cstdint>

#include "support/platform.hh"

namespace swapram::sim {

/** Tag-only model of the 2-way FRAM read cache. */
class HwCache
{
  public:
    HwCache() { reset(); }

    /** Invalidate every line. */
    void reset();

    /**
     * Look up the line containing @p addr, filling it on a miss.
     * @return true on hit.
     *
     * Inline: this sits on the per-access hot path of both the bus and
     * the threaded fast tier.
     */
    bool
    access(std::uint16_t addr)
    {
        std::uint32_t line = addr >> kLineShift;
        Set &set = sets_[line & (kSets - 1)];
        std::uint32_t tag = line >> 1;
        for (int w = 0; w < kWays; ++w) {
            if (set.ways[w].valid && set.ways[w].tag == tag) {
                // other way is LRU
                set.lru = static_cast<std::uint8_t>(1 - w);
                return true;
            }
        }
        Way &victim = set.ways[set.lru];
        victim.valid = true;
        victim.tag = tag;
        set.lru = static_cast<std::uint8_t>(1 - set.lru);
        return false;
    }

    /** True if the line containing @p addr is present (no state change). */
    bool probe(std::uint16_t addr) const;

  private:
    static constexpr int kSets = platform::kHwCacheSets;
    static constexpr int kWays = platform::kHwCacheWays;
    static constexpr int kLineShift = 3; // 8-byte lines

    struct Way {
        bool valid = false;
        std::uint32_t tag = 0;
    };
    struct Set {
        std::array<Way, kWays> ways{};
        std::uint8_t lru = 0; ///< way to replace next
    };

    std::array<Set, kSets> sets_;
};

} // namespace swapram::sim

#endif // SWAPRAM_SIM_HW_CACHE_HH
