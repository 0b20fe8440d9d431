/**
 * @file
 * Threaded-code execution tier, the simulator's one fast tier: hot
 * superblocks are lowered, once, to computed-goto threaded code over
 * pre-resolved operand closures, then executed as an indirect-goto
 * chain — no per-instruction decode, one live accumulator for the
 * whole chain.
 *
 * Lowering happens lazily at first dispatch of a (already built and
 * validated) superblock. Each instruction is resolved to a specialized
 * kernel plus flattened operands:
 *   - immediate and register sources become a direct uint8_t* into the
 *     op's own immediate cell or the register file;
 *   - Symbolic/Absolute operands become a direct uint8_t* into the flat
 *     memory array, with their region counters, code/data
 *     classification, and FRAM wait-state/contention stalls folded into
 *     static per-block totals at lowering time (only the hardware-cache
 *     hit/miss outcome stays dynamic);
 *   - FRAM fetch streams collapse to at most two hardware-cache line
 *     probes per instruction (three sequential fetch words span at most
 *     two 8-byte lines; the followers are guaranteed hits with zero
 *     stall and fold into the static totals);
 *   - register-dependent operands keep an inline mapped-space pre-check
 *     and fully dynamic accounting (the dyn* helpers in threaded.cc),
 *     which replays the bus's region counting, code/data
 *     classification and FRAM timing model exactly.
 * Whatever does not fit a specialized kernel runs a generic kernel:
 * the shared ExecCore template over a memory policy built from those
 * same helpers, so the semantics stay single-sourced.
 *
 * Block transitions cost a handful of compares. A block entry adds
 * only its static base and stall cycles (the boundary guards read
 * them) and counts one run of its lowered code; the chain end applies
 * runs × the block's other static totals, instruction count and
 * dispatch count. Each op also carries its own static delta so the rare
 * bail-outs can walk the unexecuted suffix and subtract it back. The
 * next block comes from the last block's two successor links, tagged
 * with the block table's slot-replacement count, before the table
 * itself; either way it is revalidated (usually one code-epoch compare,
 * see sim/pagegen.hh). Every case the fast path cannot reproduce is a
 * guard back to the oracle:
 *   - dyn-operand MMIO/unmapped pre-check (nothing committed);
 *   - own-block SMC via the shared page-generation table (committed,
 *     then stop);
 *   - fault/timer/max-cycle worst-case-bound refusal before dispatch;
 *   - observed chains (a trace engine attached) stop at owner
 *     boundaries and checkpoint probe PCs; profilers and metrics
 *     force the oracle entirely.
 *
 * The tier requires the GNU computed-goto extension (available()) and
 * stall costs that fit its 16-bit op fields; without either, the
 * Machine runs every instruction on the predecode oracle. Simulated
 * results are bit-identical either way — the differential fuzz twins
 * and the golden matrix pin this.
 */

#ifndef SWAPRAM_SIM_THREADED_HH
#define SWAPRAM_SIM_THREADED_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/bus.hh"
#include "sim/config.hh"
#include "sim/cpu.hh"
#include "sim/memory.hh"
#include "sim/predecode.hh"
#include "sim/stats.hh"
#include "sim/superblock.hh"

#if defined(__GNUC__) || defined(__clang__)
#define SWAPRAM_THREADED_AVAILABLE 1
#else
#define SWAPRAM_THREADED_AVAILABLE 0
#endif

namespace swapram::sim {

/** Computed-goto dispatch over lowered superblocks. */
class ThreadedEngine
{
  public:
    /** True when the build supports computed goto (GCC/Clang). The
     *  Machine only constructs the engine when this holds. */
    static constexpr bool
    available()
    {
        return SWAPRAM_THREADED_AVAILABLE != 0;
    }

    /** The engine shares the superblock engine's block table,
     *  page-generation invalidation, and recovery boundary; lowered
     *  code hangs off each Block, so every invalidation path (stale
     *  generations, image load, power cycle) drops it for free. */
    ThreadedEngine(Cpu &cpu, Memory &memory, Bus &bus, Stats &stats,
                   const MachineConfig &config, SuperblockEngine &sb);

    /** Predecode cache for the store-invalidation duties of the fast
     *  write path; nullptr detaches. Not owned. */
    void setPredecode(PredecodeCache *cache) { predecode_ = cache; }

    /** Chains must not cross this attribution boundary (mirrors
     *  SuperblockEngine::setRecoveryRange, which already invalidates
     *  every built block — and with them all lowered code). */
    void
    setRecoveryRange(std::uint16_t base, std::uint32_t end)
    {
        recovery_base_ = base;
        recovery_end_ = end;
    }

    /** Cycle boundaries a chain must respect (Machine's per-step
     *  run-loop checks, precomputed once per chain). */
    struct ChainLimits {
        /** Stats::totalCycles() at chain entry. */
        std::uint64_t now = 0;
        /** Blocks must end strictly below this total-cycle count —
         *  min(max_cycles, next scheduled fault). */
        std::uint64_t limit_cycles = UINT64_MAX;
        /** Timer period (0 = no timer) and its pending state. */
        std::uint64_t timer_period = 0;
        std::uint64_t timer_fire = 0;
        bool timer_pending = false;
        /** A trace engine is attached: stop before a block whose owner
         *  differs from the entry block's, and before a block starting
         *  at either probe PC (0 = none), so the Machine emits the
         *  OwnerChange and checkpoint events between chains. */
        bool observed = false;
        std::uint16_t probe_a = 0, probe_b = 0;
    };

    struct ChainResult {
        std::uint64_t instructions = 0; ///< retired by the chain
        std::uint64_t cycles = 0;       ///< base+stall added
        /** The chain stopped before an instruction whose operand
         *  leaves SRAM/FRAM: the oracle must step it next. */
        bool operand_bail = false;
    };

    /**
     * Dispatch consecutive lowered blocks from the current PC until a
     * bail-out, a missing block, or a cycle boundary, updating
     * registers, memory, and Stats exactly as that many oracle steps
     * would. instructions == 0 means the caller must single-step the
     * oracle. Chains never cross the recovery-range boundary (every
     * block's cycles attribute the same way); with a recovery range
     * set, all retired cycles belong to the entry PC's side. Observed
     * chains (limits.observed) never cross an owner boundary either.
     */
    ChainResult runChain(const ChainLimits &limits);

    /**
     * Block transition inside the dispatch loop: accounts the block
     * that just completed, then looks up, guards, lazily lowers, and
     * enters the next block at the current PC. Returns the next
     * block's op array, or nullptr when the chain must end. Takes and
     * returns opaque pointers because the dispatch context and op
     * types are internal to the implementation — this is public only
     * so the file-local dispatch loop can call it from the block-end
     * sentinel without re-entering the (register-heavy) dispatch
     * function once per block.
     */
    void *advanceChain(void *ctx);

  private:
    /** Lower a validated block to threaded code (attached to it). */
    void lower(SuperblockEngine::Block &block);

    Cpu &cpu_;
    Memory &memory_;
    Bus &bus_;
    Stats &stats_;
    const MachineConfig &config_;
    SuperblockEngine &sb_;

    PredecodeCache *predecode_ = nullptr;
    std::uint16_t recovery_base_ = 0;
    std::uint32_t recovery_end_ = 0; ///< 0 = no recovery range

    /** Kernel label table, fetched once from the dispatch function. */
    const void *const *labels_ = nullptr;

    /** Lowered code entered in the running chain (runs > 0), held so
     *  a rebuild of its block mid-chain cannot free it; cleared at
     *  chain end, storage reused across chains. */
    std::vector<std::shared_ptr<ThreadedCode>> chain_codes_;
};

} // namespace swapram::sim

#endif // SWAPRAM_SIM_THREADED_HH
