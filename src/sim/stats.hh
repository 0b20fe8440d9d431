/**
 * @file
 * Execution statistics collected by the machine model: instruction and
 * cycle counts, per-region access counts, hardware-cache behaviour, and
 * the classifications the paper's evaluation is built on (code vs data
 * space accesses for Table 1; instruction attribution by code owner for
 * Figure 8; FRAM accesses and unstalled cycles for Table 2).
 */

#ifndef SWAPRAM_SIM_STATS_HH
#define SWAPRAM_SIM_STATS_HH

#include <array>
#include <cstdint>
#include <string>

namespace swapram::sim {

/** Who "owns" the code an instruction was fetched from (Figure 8). */
enum class CodeOwner : std::uint8_t {
    AppFram = 0, ///< application code executing from FRAM
    AppSram = 1, ///< application code executing from SRAM (cached)
    Handler = 2, ///< cache-runtime code (miss handler, entry stubs)
    Memcpy = 3,  ///< the runtime's copy loop
};
inline constexpr int kNumOwners = 4;

/** Human-readable owner name. */
std::string ownerName(CodeOwner owner);

/** Fetch/read/write counters for one memory region. */
struct AccessCounts {
    std::uint64_t fetch = 0;
    std::uint64_t read = 0;
    std::uint64_t write = 0;

    std::uint64_t total() const { return fetch + read + write; }
};

/** All counters for one run. */
struct Stats {
    std::uint64_t instructions = 0;
    /** Unstalled CPU cycles (Table 2's "CPU Cycles"). */
    std::uint64_t base_cycles = 0;
    /** FRAM wait-state and contention stalls. */
    std::uint64_t stall_cycles = 0;

    AccessCounts sram, fram, mmio;
    std::uint64_t fram_cache_hits = 0;
    std::uint64_t fram_cache_misses = 0;

    /** Accesses whose target address lies in the .text range. */
    std::uint64_t code_space_accesses = 0;
    /** Accesses to any non-text, non-MMIO address. */
    std::uint64_t data_space_accesses = 0;

    std::array<std::uint64_t, kNumOwners> instr_by_owner{};

    /** Timer interrupts serviced. */
    std::uint64_t interrupts = 0;

    /** Power failures injected (each one is a reboot). */
    std::uint64_t reboots = 0;
    /** Cycles spent inside the registered boot-recovery routine. */
    std::uint64_t recovery_cycles = 0;

    /**
     * Predecode fast-path behaviour (host-side only: these never feed
     * back into simulated timing, which must be identical with the
     * cache disabled). Invalidations count bus writes that dropped at
     * least one potentially-cached slot.
     */
    std::uint64_t predecode_hits = 0;
    std::uint64_t predecode_misses = 0;
    std::uint64_t predecode_invalidations = 0;

    /**
     * The threaded fast tier's block table (host-side only, like the
     * predecode counters: block coverage never feeds back into
     * simulated timing, which must be identical with the fast tier
     * disabled). The names predate the tier's single module.
     */
    std::uint64_t superblock_blocks_built = 0; ///< non-empty builds
    /** Cached block found stale (write generations moved) and rebuilt. */
    std::uint64_t superblock_invalidations = 0;
    // Always 0 since block-stepped dispatch was retired; kept because
    // perfbench reads them. RunReport no longer emits them.
    std::uint64_t superblock_dispatches = 0;
    std::uint64_t superblock_instructions = 0;
    std::uint64_t superblock_bail_operand = 0;
    std::uint64_t superblock_bail_smc = 0;
    std::uint64_t superblock_bail_boundary = 0;

    /**
     * Threaded-code tier behaviour (host-side only, same contract:
     * simulated results are identical with the tier disabled).
     */
    /** Blocks lowered: each build lowers in the same pass, so this
     *  equals superblock_blocks_built. */
    std::uint64_t threaded_blocks_lowered = 0;
    std::uint64_t threaded_dispatches = 0;     ///< blocks executed
    std::uint64_t threaded_instructions = 0;   ///< retired threaded
    /** Mid-block stop: an operand resolved to MMIO/unmapped, so the
     *  instruction was handed to the single-step oracle untouched. */
    std::uint64_t threaded_bail_operand = 0;
    /** Mid-block stop: a store hit the executing block's own code. */
    std::uint64_t threaded_bail_smc = 0;
    /** Dispatch refused: the block's worst-case cycle bound could cross
     *  a fault/timer/max-cycle boundary (single-step until past it). */
    std::uint64_t threaded_bail_boundary = 0;

    std::uint64_t totalCycles() const { return base_cycles + stall_cycles; }
    std::uint64_t framAccesses() const { return fram.total(); }
};

} // namespace swapram::sim

#endif // SWAPRAM_SIM_STATS_HH
