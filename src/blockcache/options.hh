/**
 * @file
 * Options for the basic-block software cache baseline (Miller &
 * Agarwal [33], as ported in the paper's §4): fixed-size SRAM slots, a
 * djb2 hash table at 0.5 load factor kept in FRAM, block chaining, and
 * flush-when-full.
 */

#ifndef SWAPRAM_BLOCKCACHE_OPTIONS_HH
#define SWAPRAM_BLOCKCACHE_OPTIONS_HH

#include <cstdint>

#include "ckpt/options.hh"
#include "support/platform.hh"

namespace swapram::bb {

/** Options for one block-cache build. */
struct Options {
    /** First byte of the SRAM slot region. */
    std::uint16_t cache_base = platform::kSramBase;
    /** One past the last byte of the slot region. */
    std::uint16_t cache_end =
        static_cast<std::uint16_t>(platform::kSramEnd);
    /** Fixed slot size in bytes; transformed blocks are split to fit. */
    std::uint16_t slot_bytes = 64;

    /**
     * Have the startup stub call the generated __bb_recover routine
     * before main. The block hash table persists in FRAM across power
     * loss while the SRAM slots it maps to decay; recovery re-runs the
     * flush path so every lookup misses cold. Disable only to
     * demonstrate the stale-mapping crash (regression tests).
     */
    bool boot_recovery = true;

    /**
     * Crash-atomic checkpointing (ISSUE 8), mirroring the SwapRAM
     * runtime's: scheme None reproduces the pre-checkpoint runtime
     * byte for byte; the other schemes generate the uniform
     * __ckpt_commit/__ckpt_restore pair and hook __bb_miss.
     */
    ckpt::Options ckpt;

    std::uint16_t
    slotCount() const
    {
        return static_cast<std::uint16_t>(
            (cache_end - cache_base) / slot_bytes);
    }

    bool operator==(const Options &) const = default;
};

} // namespace swapram::bb

#endif // SWAPRAM_BLOCKCACHE_OPTIONS_HH
