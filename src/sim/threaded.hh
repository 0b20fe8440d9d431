/**
 * @file
 * The threaded fast tier, the simulator's one fast tier. It keeps a
 * table of straight-line blocks, builds and lowers each block to
 * computed-goto threaded code over pre-resolved operand closures in
 * one pass, and executes blocks as an indirect-goto chain — no
 * per-instruction decode, one live accumulator for the whole chain.
 *
 * Building. A block is built by scanning forward from a word-aligned
 * PC, decoding speculatively until a terminator:
 *   - control flow (any jump, CALL, RETI, or a register destination of
 *     PC), which may leave the block;
 *   - a statically MMIO-or-unmapped operand (Symbolic/Absolute into
 *     device space) — such instructions always run on the oracle;
 *   - a fetch that would leave the block's memory region (or a word
 *     that is not a decodable leading word, or a PC wrap);
 *   - crossing the boot-recovery attribution boundary, a code-owner
 *     boundary, or a checkpoint probe PC;
 *   - the size caps (32 instructions, 120 code bytes).
 * Per block the builder records a worst-case cycle bound, which the
 * tier checks against fault, timer and max-cycles boundaries before
 * entry.
 *
 * Lowering happens in the same pass, as each instruction is decoded.
 * It resolves to a specialized kernel plus flattened operands:
 *   - immediate and register sources become a direct uint8_t* into the
 *     op's own immediate cell or the register file;
 *   - Symbolic/Absolute operands become a direct uint8_t* into the flat
 *     memory array, with their region counters, code/data
 *     classification, and FRAM wait-state/contention stalls folded into
 *     static per-block totals (only the hardware-cache hit/miss outcome
 *     stays dynamic);
 *   - FRAM fetch streams collapse to at most two hardware-cache line
 *     probes per instruction (three sequential fetch words span at most
 *     two 8-byte lines; the followers are guaranteed hits with zero
 *     stall and fold into the static totals);
 *   - register-dependent operands keep an inline mapped-space pre-check
 *     and fully dynamic accounting (the dyn* helpers in threaded.cc),
 *     which replays the bus's region counting, code/data
 *     classification and FRAM timing model exactly.
 * Every kernel takes its instruction semantics from sim/exec.hh: the
 * specialized kernels load their pre-resolved operands, then call the
 * shared ALU, shift, flag and branch rules (fmt1Alu, fmt2Alu,
 * setFlags, branchRule) that ExecCore runs too. Whatever does not fit
 * a specialized kernel runs a generic kernel: the shared ExecCore
 * template over a memory policy built from those same helpers. So the
 * semantics stay single-sourced, and this tier owns only lowering,
 * dispatch and accounting.
 *
 * Invalidation piggybacks on the write paths that already feed the
 * predecode cache's 3-slot invalidation: every store bumps per-page
 * write generations (PageGenTable) which blocks validate at lookup.
 * Stores into pages holding built code also advance a code-write
 * epoch; a block whose epoch snapshot still matches is valid after one
 * compare, and only an epoch mismatch walks its page generations.
 *
 * Block transitions cost a handful of compares. A block entry adds
 * only its static base and stall cycles (the boundary guards read
 * them) and counts one run; the chain end applies runs × the block's
 * other static totals, instruction count and dispatch count. Each op
 * also carries its own static delta so the rare bail-outs can walk
 * the unexecuted suffix and subtract it back. The next block comes
 * from the last block's two successor links, tagged with the table's
 * slot-replacement count, before the table itself; either way it is
 * revalidated. Every case the fast path cannot reproduce is a guard
 * back to the oracle:
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
#include <functional>
#include <memory>
#include <vector>

#include "sim/bus.hh"
#include "sim/config.hh"
#include "sim/cpu.hh"
#include "sim/memory.hh"
#include "sim/pagegen.hh"
#include "sim/predecode.hh"
#include "sim/stats.hh"

#if defined(__GNUC__) || defined(__clang__)
#define SWAPRAM_THREADED_AVAILABLE 1
#else
#define SWAPRAM_THREADED_AVAILABLE 0
#endif

namespace swapram::sim {

/** The block table and computed-goto dispatch over it. */
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

    /** @p predecode is the cache the fast store path invalidates
     *  (nullptr = none; not owned). @p classify names the CodeOwner
     *  of a PC (Machine::classifyPc), read at build time to
     *  pre-attribute instr_by_owner. */
    ThreadedEngine(Cpu &cpu, Memory &memory, Bus &bus, Stats &stats,
                   const MachineConfig &config, PredecodeCache *predecode,
                   std::function<std::uint8_t(std::uint16_t)> classify);
    ~ThreadedEngine();

    /** The write-generation table (the Bus holds a pointer too). */
    PageGenTable &pageGens() { return gens_; }

    /** Memory changed behind the bus (image load, power cycle) or the
     *  static analysis inputs changed (owner ranges): every built
     *  block is suspect. */
    void invalidateAll() { gens_.bumpAll(); }

    /** Blocks and chains must not span this attribution boundary. */
    void
    setRecoveryRange(std::uint16_t base, std::uint32_t end)
    {
        recovery_base_ = base;
        recovery_end_ = end;
        invalidateAll();
    }

    /** Blocks may start at, but never run through, these PCs (the
     *  checkpoint entry probes; 0 = none), and observed chains stop
     *  before them. */
    void
    setProbePcs(std::uint16_t a, std::uint16_t b)
    {
        probe_a_ = a;
        probe_b_ = b;
        invalidateAll();
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
         *  at a probe PC, so the Machine emits the OwnerChange and
         *  checkpoint events between chains. */
        bool observed = false;
    };

    struct ChainResult {
        std::uint64_t instructions = 0; ///< retired by the chain
        std::uint64_t cycles = 0;       ///< base+stall added
        /** The chain stopped before an instruction whose operand
         *  leaves SRAM/FRAM: the oracle must step it next. */
        bool operand_bail = false;
    };

    /**
     * Dispatch consecutive blocks from the current PC until a
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
     * that just completed, then looks up, guards and enters the next
     * block at the current PC. Returns the next block's op array, or
     * nullptr when the chain must end. Takes and returns opaque
     * pointers because the dispatch context and op types are internal
     * to the implementation — this is public only so the file-local
     * dispatch loop can call it from the block-end sentinel without
     * re-entering the (register-heavy) dispatch function once per
     * block.
     */
    void *advanceChain(void *ctx);

    /** A built and lowered block; opaque outside threaded.cc. */
    struct Block;

  private:
    /**
     * The valid block starting at @p pc, building one if needed.
     * Returns nullptr when no block can start here (odd PC, MMIO or
     * unmapped fetch region, undecodable word, or a leading
     * instruction that must single-step).
     */
    Block *lookup(std::uint16_t pc);

    /** True when @p b's code is unchanged since it was built. */
    bool valid(Block &b);

    /** Decode, analyse and lower the block starting at @p pc. */
    std::unique_ptr<Block> build(std::uint16_t pc);

    bool
    inRecovery(std::uint32_t addr) const
    {
        return recovery_end_ && addr >= recovery_base_ &&
               addr < recovery_end_;
    }

    Cpu &cpu_;
    Memory &memory_;
    Bus &bus_;
    Stats &stats_;
    const MachineConfig &config_;
    PredecodeCache *predecode_;
    std::function<std::uint8_t(std::uint16_t)> classify_;

    PageGenTable gens_;
    std::uint16_t recovery_base_ = 0;
    std::uint32_t recovery_end_ = 0; ///< 0 = no recovery range
    std::uint16_t probe_a_ = 0, probe_b_ = 0; ///< 0 = no probe

    /** Kernel label table, fetched once from the dispatch function. */
    const void *const *labels_ = nullptr;

    /** Direct-mapped block table, one slot per word-aligned PC. */
    std::vector<std::unique_ptr<Block>> blocks_;
    /** Occupied slots lookup() has rebuilt so far. A Block pointer
     *  obtained when this read N stays live while it still reads N —
     *  successor links are tagged with it. */
    std::uint64_t replacements_ = 0;

    /** Blocks entered in the running chain (runs > 0); cleared at
     *  chain end, storage reused across chains. */
    std::vector<Block *> chain_blocks_;
    /** Entered blocks whose slot was rebuilt mid-chain, kept alive
     *  until the chain ends. */
    std::vector<std::unique_ptr<Block>> retired_;
};

} // namespace swapram::sim

#endif // SWAPRAM_SIM_THREADED_HH
