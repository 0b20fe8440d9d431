/**
 * @file
 * Superblock execution engine: straight-line groups of predecoded
 * instructions dispatched one block per run-loop iteration.
 *
 * A block is built by scanning forward from a word-aligned PC,
 * decoding speculatively until a terminator:
 *   - control flow (any jump, CALL, RETI, or a register destination of
 *     PC), which may leave the block;
 *   - a statically MMIO-or-unmapped operand (Symbolic/Absolute into
 *     device space) — such instructions always run on the oracle;
 *   - a fetch that would leave the block's memory region (or a word
 *     that is not a decodable leading word, or a PC wrap);
 *   - crossing the boot-recovery attribution boundary, a code-owner
 *     boundary, or a checkpoint probe PC;
 *   - the size caps (kMaxBlockInstrs / kMaxBlockBytes).
 *
 * Execution replays, per instruction, exactly the accounting the
 * bus+cpu oracle would produce: fetch counts and FRAM hardware-cache /
 * wait-state / contention stalls are precomputed per fetch word at
 * build time (line-contention flags are static because fetch addresses
 * are); data accesses run through a direct uint8_t* fast path that
 * inlines the bus's region counting, code/data classification, and
 * FRAM timing model. All counter updates accumulate in registers and
 * flush to Stats once per block.
 *
 * Bail-out keeps the engine byte-identical to the oracle:
 *   - before each instruction, register-dependent operand addresses
 *     are pre-checked; if any would touch MMIO/unmapped space the
 *     block stops *before* that instruction (nothing committed) and
 *     the oracle single-steps it;
 *   - a store into the executing block's own code range stops the
 *     block after the current instruction;
 *   - the Machine refuses to dispatch a block whose worst-case cycle
 *     bound could cross a fault-injection, timer-interrupt, or
 *     max-cycles boundary — it single-steps until past it — so faults
 *     and interrupts land on exactly the same cycle in both modes;
 *   - with a trace engine attached, chains also stop where the code
 *     owner changes and at checkpoint probe PCs, so the Machine can
 *     emit OwnerChange / checkpoint events between chains on the
 *     oracle's cycles (profilers and metrics still disable dispatch).
 *
 * Invalidation piggybacks on the write paths that already feed the
 * predecode cache's 3-slot invalidation: every store bumps per-page
 * write generations (PageGenTable) which blocks validate at lookup.
 * Stores into pages holding built code also advance a code-write
 * epoch; a block whose epoch snapshot still matches is valid after one
 * compare, and only an epoch mismatch walks its page generations.
 */

#ifndef SWAPRAM_SIM_SUPERBLOCK_HH
#define SWAPRAM_SIM_SUPERBLOCK_HH

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "isa/instruction.hh"
#include "sim/bus.hh"
#include "sim/config.hh"
#include "sim/cpu.hh"
#include "sim/memory.hh"
#include "sim/pagegen.hh"
#include "sim/predecode.hh"
#include "sim/stats.hh"

namespace swapram::sim {

/** Lowered (computed-goto) form of one block; owned by the block so
 *  every invalidation path drops it together with the decode. Defined
 *  by the threaded tier (sim/threaded.cc). */
class ThreadedCode;

/** Block-stepped dispatch over straight-line code. */
class SuperblockEngine
{
  public:
    static constexpr std::uint32_t kMaxBlockInstrs = 32;
    static constexpr std::uint32_t kMaxBlockBytes = 120;
    /** kMaxBlockBytes bytes span at most this many gen pages. */
    static constexpr std::uint32_t kMaxBlockPages =
        kMaxBlockBytes / (1u << PageGenTable::kPageShift) + 2;

    /** Per-instruction flags. */
    enum : std::uint8_t {
        /** Some operand address depends on a register: pre-check the
         *  effective addresses before executing. */
        kFlagDynMem = 0x01,
        /** May write SR (GIE): gates dispatch while a timer interrupt
         *  is or may become pending. */
        kFlagWritesSr = 0x02,
    };

    /** One pre-analysed instruction. */
    struct BlockInstr {
        isa::Instr instr{};
        std::uint16_t pc = 0;
        std::uint16_t next_pc = 0;
        std::uint8_t n_words = 1;
        std::uint8_t base_cycles = 0;
        std::uint8_t flags = 0;
        std::uint8_t code_words = 0; ///< fetch words inside .text
        /** FRAM fetch line-contention flags (static: the 2nd+ FRAM
         *  access of an instruction contends iff it changes 8-byte
         *  line; fetches come first and their addresses are fixed). */
        std::array<std::uint8_t, 3> fetch_contends{};
        /** 8-byte line of the last fetch word (seeds the data-access
         *  contention chain when fetching from FRAM). */
        std::uint32_t last_fetch_line = 0;
    };

    /** A built block (instrs empty = tombstone: PC known unblockable,
     *  revalidated by generations like any block). */
    struct Block {
        std::uint16_t start_pc = 0;
        std::uint32_t end_addr = 0; ///< one past the last code byte
        RegionKind fetch_region = RegionKind::Fram;
        std::uint8_t owner = 0; ///< CodeOwner shared by every instr
        bool writes_sr = false;
        /** Upper bound on total cycles one execution can cost. */
        std::uint32_t worst_case_cycles = 0;
        std::vector<BlockInstr> instrs;

        // Invalidation snapshot. code_epoch is refreshed whenever a
        // per-page check passes, so one compare usually decides.
        std::uint64_t global_gen = 0;
        std::uint64_t code_epoch = 0;
        std::uint16_t first_page = 0;
        std::uint16_t last_page = 0;
        std::array<std::uint64_t, kMaxBlockPages> page_gens{};

        /** Lazily lowered threaded code (null until the threaded tier
         *  first dispatches this block; dropped with the block). */
        std::shared_ptr<ThreadedCode> threaded;
    };

    SuperblockEngine(Cpu &cpu, Memory &memory, Bus &bus, Stats &stats,
                     const MachineConfig &config);

    /** Attach the predecode cache so fast-path stores mirror the bus's
     *  3-slot invalidation; nullptr detaches. Not owned. */
    void setPredecode(PredecodeCache *cache) { predecode_ = cache; }

    /** Owner classification used to pre-attribute instr_by_owner
     *  (Machine::classifyPc). Build-time only. */
    void setClassifier(std::function<std::uint8_t(std::uint16_t)> fn)
    {
        classify_ = std::move(fn);
    }

    /** Blocks must not span this attribution boundary. */
    void
    setRecoveryRange(std::uint16_t base, std::uint32_t end)
    {
        recovery_base_ = base;
        recovery_end_ = end;
        invalidateAll();
    }

    /** Blocks may start at, but never run through, these PCs (the
     *  checkpoint entry probes; 0 = none). */
    void
    setProbePcs(std::uint16_t a, std::uint16_t b)
    {
        probe_a_ = a;
        probe_b_ = b;
        invalidateAll();
    }

    /** The write-generation table (the Bus holds a pointer too). */
    PageGenTable &pageGens() { return gens_; }

    /** Memory changed behind the bus (image load, power cycle) or the
     *  static analysis inputs changed (owner ranges): every cached
     *  block is suspect. */
    void invalidateAll() { gens_.bumpAll(); }

    /**
     * The valid block starting at @p pc, building one if needed.
     * Returns nullptr when no block can start here (odd PC, MMIO or
     * unmapped fetch region, undecodable word, or a leading
     * instruction that must single-step). Non-const so the threaded
     * tier can attach lowered code to the block.
     */
    Block *lookup(std::uint16_t pc);

    /** True when @p b's code is unchanged since it was built (a block
     *  that lookup() once returned, revalidated without the table). */
    bool valid(Block &b);

    /** Occupied slots lookup() has rebuilt so far. A Block pointer
     *  obtained when this read N stays live while it still reads N —
     *  the threaded tier tags its successor links with it. */
    std::uint64_t replacements() const { return replacements_; }

    /** True when @p addr lies in plain memory (SRAM or FRAM) — the
     *  only space the fast paths may touch directly. */
    static bool addrMapped(std::uint16_t addr, std::uint32_t sram_size);

    /**
     * Pre-execution check of every register-dependent effective
     * address @p in will touch, reproducing resolve()'s address
     * arithmetic (including @Rn+ post-increments feeding a later
     * operand through the same register, and PUSH/CALL's SP-2 stack
     * slot). False means some access would leave SRAM/FRAM — the
     * caller bails to the oracle with nothing committed. Shared with
     * the threaded tier so both fast paths guard identically.
     */
    static bool
    dynOperandsMapped(const isa::Instr &in,
                      const std::array<std::uint16_t, 16> &regs,
                      std::uint32_t sram_size);

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
    };

    /**
     * Dispatch consecutive blocks starting at the current PC until a
     * bail-out, a missing block, or a cycle boundary, updating
     * registers, memory, and Stats exactly as that many oracle steps
     * would. The accumulator, the direct-memory context, and the
     * executor are shared across the whole chain, so per-block cost is
     * one table lookup plus the boundary guards. instructions == 0
     * means the caller must single-step the oracle. Chains never cross
     * the recovery-range boundary (every block's cycles attribute the
     * same way); with a recovery range set, all retired cycles belong
     * to the entry PC's side. Observed chains (limits.observed) never
     * cross an owner boundary either.
     */
    ChainResult runChain(const ChainLimits &limits);

  private:
    std::unique_ptr<Block> build(std::uint16_t pc);

    Cpu &cpu_;
    Memory &memory_;
    Bus &bus_;
    Stats &stats_;
    const MachineConfig &config_;

    PageGenTable gens_;
    PredecodeCache *predecode_ = nullptr;
    std::function<std::uint8_t(std::uint16_t)> classify_;

    std::uint16_t recovery_base_ = 0;
    std::uint32_t recovery_end_ = 0; ///< 0 = no recovery range
    std::uint16_t probe_a_ = 0, probe_b_ = 0; ///< 0 = no probe

    /** Direct-mapped block table, one slot per word-aligned PC. */
    std::vector<std::unique_ptr<Block>> blocks_;
    std::uint64_t replacements_ = 0;
};

} // namespace swapram::sim

#endif // SWAPRAM_SIM_SUPERBLOCK_HH
