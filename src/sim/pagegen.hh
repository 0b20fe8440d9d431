/**
 * @file
 * Write-generation table backing fast-tier block invalidation.
 *
 * The address space is divided into small pages; every store bumps the
 * generation of the page(s) it touches, and every built block
 * snapshots the generations of the pages its code spans. A block whose
 * snapshot no longer matches has (conservatively) been overwritten —
 * SwapRAM copy-ins, self-modifying stores, or plain data writes that
 * share a page with code — and is rebuilt before dispatch.
 *
 * Pages that hold built code are flagged (markCode(), at block build),
 * and a store into a flagged page also advances one code-write epoch.
 * A block snapshots the epoch too: while it is unchanged, no store has
 * touched any code page since, so the block's page generations cannot
 * have moved either and validation is one compare. Stores into data
 * pages never move the epoch. Flags are never cleared; a stale flag
 * only costs the per-page fallback compare.
 *
 * This piggybacks on the same write paths that drive the predecode
 * cache's 3-slot invalidation: the Bus calls noteWrite() for oracle
 * accesses, the threaded fast tier calls it for direct stores, and
 * writers that bypass both (Machine::load, powerCycle's crt0 re-copy)
 * call bumpAll(), which advances a global generation checked first.
 */

#ifndef SWAPRAM_SIM_PAGEGEN_HH
#define SWAPRAM_SIM_PAGEGEN_HH

#include <array>
#include <cstdint>

namespace swapram::sim {

/** Per-page write generations over the 64 KiB address space. */
class PageGenTable
{
  public:
    /** Page granularity: 64-byte pages, 1024 of them. Small enough
     *  that data writes rarely alias code pages, large enough that a
     *  block (≤ kMaxBlockBytes) spans at most three. */
    static constexpr unsigned kPageShift = 6;
    static constexpr std::uint32_t kPages = 0x10000u >> kPageShift;

    static constexpr std::uint16_t
    pageOf(std::uint16_t addr)
    {
        return static_cast<std::uint16_t>(addr >> kPageShift);
    }

    /** A store of @p bytes bytes landed at @p addr. */
    void
    noteWrite(std::uint16_t addr, unsigned bytes)
    {
        std::uint16_t first = pageOf(addr);
        std::uint16_t last =
            pageOf(static_cast<std::uint16_t>(addr + bytes - 1));
        ++gen_[first];
        std::uint8_t code = code_[first];
        if (last != first) {
            ++gen_[last];
            code |= code_[last];
        }
        epoch_ += code;
    }

    /** Built code now spans @p page: stores into it move the epoch. */
    void markCode(std::uint16_t page) { code_[page] = 1; }

    /** Memory changed wholesale behind the bus (load, power cycle). */
    void bumpAll() { ++global_; }

    std::uint64_t globalGen() const { return global_; }
    std::uint64_t pageGen(std::uint16_t page) const { return gen_[page]; }
    /** Stores into code pages so far. */
    std::uint64_t codeEpoch() const { return epoch_; }

  private:
    std::array<std::uint64_t, kPages> gen_{};
    std::array<std::uint8_t, kPages> code_{};
    std::uint64_t global_ = 0;
    std::uint64_t epoch_ = 0;
};

} // namespace swapram::sim

#endif // SWAPRAM_SIM_PAGEGEN_HH
