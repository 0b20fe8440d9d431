/**
 * @file
 * Crash-atomic checkpointing options shared by both caching runtimes
 * (swapram/runtime_gen, blockcache/runtime_gen).
 *
 * A checkpoint is a double-buffered FRAM snapshot of everything a
 * resumed execution needs: the runtime's metadata block, the live SRAM
 * image, any FRAM-resident .data/.bss (crt0 reinitialises those on
 * every boot, so they are volatile in effect), and a staged register
 * file. Each buffer carries a [seq, magic] header; the magic word is
 * written last, so a power failure at any intermediate store leaves
 * exactly one committed snapshot — never a blend (the torn-window
 * matrix test injects a fault at every cycle of __ckpt_commit to prove
 * it).
 */

#ifndef SWAPRAM_CKPT_OPTIONS_HH
#define SWAPRAM_CKPT_OPTIONS_HH

#include <cstdint>
#include <string>

#include "support/platform.hh"

namespace swapram::ckpt {

/** When the generated runtime commits a checkpoint. */
enum class Scheme : std::uint8_t {
    /** No checkpoint machinery is generated at all; every power
     *  failure restarts from boot (the pre-checkpoint behaviour,
     *  byte-for-byte). */
    None,
    /** Commit every N cache misses (the hook lives at the miss-handler
     *  entry, the one place every swap passes through). */
    Periodic,
    /** Commit once per low-energy episode: when the MMIO capacitor
     *  register drops below a threshold, with hysteresis so one
     *  draining capacitor triggers one commit, not one per miss. */
    OnLowEnergy,
};

std::string schemeName(Scheme scheme);

/** Parse a scheme name ("none", "periodic", "on-low-energy");
 *  fatal()s on anything else. */
Scheme parseScheme(const std::string &name);

/** Checkpointing options for one runtime build. */
struct Options {
    Scheme scheme = Scheme::None;

    /** Periodic: misses between commits. */
    int period = 64;

    /** OnLowEnergy: commit when the capacitor register (0..0xFFFF of
     *  capacity) drops below this. The default 0x4000 (25%) sits
     *  between the 60% power-on and 20% brown-out defaults, leaving
     *  5% of capacity to finish the commit copy. */
    std::uint16_t low_threshold = 0x4000;

    /** One past the last SRAM byte the checkpoint captures, from
     *  platform::kSramBase. Must cover the stack, the cache region,
     *  and any SRAM-placed .data/.bss — the default captures the whole
     *  4 KiB device SRAM; capacity sweeps override it to the
     *  configured SRAM end. */
    std::uint16_t sram_end = static_cast<std::uint16_t>(
        platform::kSramEnd);

    bool enabled() const { return scheme != Scheme::None; }

    bool operator==(const Options &) const = default;
};

/**
 * Sizes of the FRAM-resident .data/.bss the checkpoint must capture,
 * measured by the builder from a probe assembly (the sections keep
 * their sizes when the runtime is appended; their *bases* are taken at
 * final assembly time through the assembler's __sect_* symbols).
 * Sections that live inside the captured SRAM range are already part
 * of the SRAM segment and must be reported as 0 here.
 */
struct SectionSizes {
    std::uint32_t data_bytes = 0;
    std::uint32_t bss_bytes = 0;
};

} // namespace swapram::ckpt

#endif // SWAPRAM_CKPT_OPTIONS_HH
