#include "sim/threaded.hh"

#include <utility>

#include "isa/cycles.hh"
#include "isa/decode.hh"
#include "sim/exec.hh"
#include "support/logging.hh"
#include "support/platform.hh"
#include "support/strings.hh"

#if SWAPRAM_THREADED_AVAILABLE

#include <algorithm>
#include <array>
#include <cstring>

namespace swapram::sim {

using isa::Mode;
using isa::Op;
using isa::Operand;

/**
 * One lowered instruction: a kernel label plus flattened operands and
 * the static accounting it contributes. Fields are family-specific:
 *   - sp/dp: source/destination cells. For register and immediate
 *     operands these are native uint16_t cells (the register file, or
 *     the op's own `a` field, pointed at once the block's op array
 *     stops growing); for static memory operands they point into the
 *     flat simulated memory (little-endian bytes).
 *   - a/b: immediate value (the cell sp may point at), jump target,
 *     or the static source/destination address.
 *   - runs/fa0/fa1: dynamic FRAM fetch probes. Three sequential fetch
 *     words span at most two 8-byte lines, so a fetch stream collapses
 *     to at most two hardware-cache probes; same-line followers are
 *     guaranteed hits with zero stall (a hit on the just-used way does
 *     not move the LRU) and fold into the static totals.
 *   - probe/d0_hit/d0_miss: one dynamic data-read probe for a static
 *     FRAM address with the hardware cache on; the line-contention
 *     component of the stall is static (the fetch stream's addresses
 *     are fixed), so both outcomes' stalls are precomputed.
 * The op's share of the block's static totals sits in its TDelta.
 */
struct alignas(64) TOp {
    const void *h = nullptr;
    const std::uint8_t *sp = nullptr;
    std::uint8_t *dp = nullptr;
    std::uint16_t next_pc = 0;
    std::uint16_t a = 0;
    std::uint16_t b = 0; ///< static dst addr; Block::instrs index for generic
    std::uint16_t mask = 0xFFFF; ///< operand width, or a jump's SR mask
    std::uint16_t msb = 0x8000;
    std::uint16_t fa0 = 0, fa1 = 0;
    std::uint16_t fc0 = 0, fm0 = 0; ///< first fetch probe hit/miss stall
    std::uint16_t d0_hit = 0, d0_miss = 0;
    std::uint16_t lastline = 0;
    std::uint8_t byte = 0;
    std::uint8_t runs = 0;
    std::uint8_t probe = 0;
    /** Dyn src reg index / jump polarity (BranchRule::when) / generic:
     *  the operands need the mapped-space pre-check. */
    std::uint8_t ra = 0;
    std::uint8_t rd = 0;  ///< dyn dst reg index
    std::uint8_t inc = 0; ///< @Rn+ post-increment amount
    std::uint8_t smc = 0; ///< static store into the block's own code
    std::uint8_t chain = 0; ///< FRAM fetch words seeding data contention
};
static_assert(sizeof(TOp) == 64, "TOp must stay one cache line");

/** Accumulator indices: one contiguous order shared by the dispatch
 *  context's dynamic accumulators (u64) and each block's static totals
 *  (u32), so the chain-end sweep applies runs × totals with one
 *  vectorizable loop per lowered block. Base and stall come first: they
 *  are the only slots added at block entry. */
enum AccIdx {
    kAccBase = 0,
    kAccStall,
    kAccSramFetch,
    kAccSramRead,
    kAccSramWrite,
    kAccFramFetch,
    kAccFramRead,
    kAccFramWrite,
    kAccHits,
    kAccMisses,
    kAccCode,
    kAccData,
    kAccPreInval,
    kAccOwner0, // + kNumOwners entries
    kNumAcc = kAccOwner0 + kNumOwners
};

/** Per-op static accounting deltas, only touched on a mid-block
 *  bail-out (the suffix walk) and at lowering time — kept out of TOp
 *  so the dispatch loop streams one cache line per op. */
struct TDelta {
    std::uint32_t d_stall = 0;
    std::uint8_t d_base = 0, d_fetch = 0, d_code = 0, d_data = 0;
    std::uint8_t d_sram_r = 0, d_sram_w = 0;
    std::uint8_t d_fram_r = 0, d_fram_w = 0;
    std::uint8_t d_hits = 0, d_misses = 0, d_pre = 0;
};

/** Block-table geometry: one slot per word-aligned PC. */
constexpr std::uint32_t kSlots = 32768;
constexpr std::uint32_t kMaxBlockInstrs = 32;
constexpr std::uint32_t kMaxBlockBytes = 120;
/** kMaxBlockBytes bytes span at most this many gen pages. */
constexpr std::uint32_t kMaxBlockPages =
    kMaxBlockBytes / (1u << PageGenTable::kPageShift) + 2;

/** One block, built and lowered in one pass: its bounds and
 *  invalidation snapshot, the op array (with a trailing block-end
 *  sentinel), the static accounting totals, its entry count in the
 *  current chain, and its successor links. n == 0 is a tombstone: the
 *  PC is known unblockable and revalidated like any block. */
struct ThreadedEngine::Block {
    std::uint16_t start_pc = 0;
    std::uint32_t end_addr = 0; ///< one past the last code byte
    std::uint32_t n = 0;        ///< instructions (ops minus the sentinel)
    bool fram_code = false;     ///< fetched from FRAM (else SRAM)
    std::uint8_t owner = 0;     ///< CodeOwner shared by every instr
    bool writes_sr = false;     ///< some instruction may write SR (GIE)
    /** Upper bound on total cycles one execution can cost. Blocks
     *  exist only when wait states and contention stall fit in 16
     *  bits, so this stays near 32 instructions × 6 accesses ×
     *  0xFFFF and cannot overflow. */
    std::uint32_t worst_case_cycles = 0;

    // Invalidation snapshot. code_epoch is refreshed whenever a
    // per-page check passes, so one compare usually decides.
    std::uint64_t global_gen = 0;
    std::uint64_t code_epoch = 0;
    std::uint16_t first_page = 0;
    std::uint16_t last_page = 0;
    std::array<std::uint64_t, kMaxBlockPages> page_gens{};

    std::vector<TOp> ops;
    std::vector<TDelta> deltas;
    /** Decoded instructions of the generic-kernel ops (TOp::b). */
    std::vector<isa::Instr> instrs;
    /** Entries in the running chain; the chain end applies runs × tot
     *  for every slot past kAccStall, then clears it. */
    std::uint64_t runs = 0;
    /** Static block totals, indexed by AccIdx (the fetch count is
     *  already in the fram/sram slot matching fram_code). */
    alignas(32) std::array<std::uint32_t, kNumAcc> tot{};

    /** The block last entered from this one at @p pc, if no block slot
     *  has been rebuilt since (@p tag = replacements_), else null. */
    Block *
    follow(std::uint16_t pc, std::uint64_t tag) const
    {
        for (const Link &l : links) {
            if (l.pc == pc && l.tag == tag)
                return l.block;
        }
        return nullptr;
    }

    /** Remember @p block as this block's successor at @p pc. */
    void
    link(std::uint16_t pc, Block *block, std::uint64_t tag)
    {
        if (links[0].pc != pc)
            links[1] = links[0];
        links[0] = {tag, block, pc};
    }

  private:
    /** A successor: the slot-replacement count it was made under,
     *  the block, and its start PC (the two exits of a conditional
     *  jump fit). */
    struct Link {
        std::uint64_t tag = UINT64_MAX; ///< never matches: empty
        Block *block = nullptr;
        std::uint16_t pc = 0;
    };
    std::array<Link, 2> links{};
};

namespace {

/** True when @p addr lies in plain memory (SRAM or FRAM) — the only
 *  space the fast tier may touch directly. @p sram_size shapes the
 *  SRAM window exactly as it shapes the bus's regionOf(). */
inline bool
mapped(std::uint16_t addr, std::uint32_t sram_size)
{
    return addr >= platform::kFramBase ||
           static_cast<std::uint16_t>(addr - platform::kSramBase) <
               sram_size;
}

/** Build-time classification of one decoded instruction. */
struct Analysis {
    bool include = true;     ///< false: stop the block before it
    bool terminator = false; ///< include it, then stop
    /** Some operand address depends on a register: pre-check the
     *  effective addresses with dynOperandsMapped before executing. */
    bool dyn_mem = false;
    /** May write SR (GIE): gates dispatch while a timer interrupt is
     *  or may become pending. */
    bool writes_sr = false;
    std::uint32_t max_data = 0; ///< data accesses upper bound
};

Analysis
analyze(const isa::Instr &in, std::uint32_t sram_size)
{
    Analysis a;
    auto static_ok = [sram_size](const Operand &op) {
        // Symbolic/Absolute effective addresses are fixed at decode:
        // reject device/unmapped space once, at build time.
        if (op.mode == Mode::Symbolic || op.mode == Mode::Absolute)
            return mapped(op.value, sram_size);
        return true;
    };
    auto is_dyn = [](const Operand &op) {
        return op.mode == Mode::Indexed || op.mode == Mode::Indirect ||
               op.mode == Mode::IndirectInc;
    };
    auto is_mem = [](const Operand &op) {
        return op.mode != Mode::Register && op.mode != Mode::Immediate;
    };
    switch (isa::opFormat(in.op)) {
      case isa::OpFormat::Jump:
        a.terminator = true;
        return a;
      case isa::OpFormat::DoubleOperand: {
        if (!static_ok(in.src) || !static_ok(in.dst)) {
            a.include = false;
            return a;
        }
        a.dyn_mem = is_dyn(in.src) || is_dyn(in.dst);
        if (in.dst.mode == Mode::Register) {
            a.terminator = in.dst.reg == isa::Reg::PC;
            a.writes_sr = in.dst.reg == isa::Reg::SR;
        }
        a.max_data = (is_mem(in.src) ? 1u : 0u) +
                     (is_mem(in.dst) ? 2u : 0u);
        return a;
      }
      case isa::OpFormat::SingleOperand: {
        if (in.op == Op::Reti) {
            // Pops SR (may set GIE) and PC off a dynamic SP.
            a.terminator = true;
            a.dyn_mem = true;
            a.writes_sr = true;
            a.max_data = 2;
            return a;
        }
        if (!static_ok(in.dst)) {
            a.include = false;
            return a;
        }
        const bool stack = in.op == Op::Push || in.op == Op::Call;
        a.dyn_mem = is_dyn(in.dst) || stack; // PUSH/CALL write the stack
        a.terminator = in.op == Op::Call;
        if (in.dst.mode == Mode::Register && !stack) {
            if (in.dst.reg == isa::Reg::PC)
                a.terminator = true; // e.g. RRA PC
            a.writes_sr = in.dst.reg == isa::Reg::SR;
        }
        a.max_data = 2;
        return a;
      }
    }
    return a;
}

/**
 * Pre-execution check of every register-dependent effective address
 * @p in will touch, reproducing resolve()'s address arithmetic
 * (including @Rn+ post-increments feeding a later operand through the
 * same register, and PUSH/CALL's SP-2 stack slot). MMIO device effects
 * and unmapped fatals must happen exactly as a single step would
 * produce them, so false — some access would leave SRAM/FRAM — sends
 * the whole instruction to the oracle with nothing committed.
 */
bool
dynOperandsMapped(const isa::Instr &in,
                  const std::array<std::uint16_t, 16> &regs,
                  std::uint32_t sram_size)
{
    auto ok = [sram_size](std::uint16_t addr) {
        return mapped(addr, sram_size);
    };
    switch (isa::opFormat(in.op)) {
      case isa::OpFormat::Jump:
        return true;
      case isa::OpFormat::DoubleOperand: {
        int inc_reg = -1;
        std::uint16_t inc = 0;
        const Operand &s = in.src;
        switch (s.mode) {
          case Mode::Indexed:
            if (!ok(static_cast<std::uint16_t>(
                    regs[isa::regIndex(s.reg)] + s.value)))
                return false;
            break;
          case Mode::Indirect:
            if (!ok(regs[isa::regIndex(s.reg)]))
                return false;
            break;
          case Mode::IndirectInc:
            if (!ok(regs[isa::regIndex(s.reg)]))
                return false;
            inc_reg = isa::regIndex(s.reg);
            inc = in.byte ? 1 : 2;
            break;
          default:
            break;
        }
        const Operand &d = in.dst;
        if (d.mode == Mode::Indexed) {
            std::uint16_t base = regs[isa::regIndex(d.reg)];
            if (isa::regIndex(d.reg) == inc_reg)
                base = static_cast<std::uint16_t>(base + inc);
            if (!ok(static_cast<std::uint16_t>(base + d.value)))
                return false;
        }
        return true;
      }
      case isa::OpFormat::SingleOperand: {
        if (in.op == Op::Reti)
            return ok(regs[1]) && ok(static_cast<std::uint16_t>(regs[1] + 2));
        std::uint16_t sp = regs[1];
        const Operand &d = in.dst;
        switch (d.mode) {
          case Mode::Indexed:
            if (!ok(static_cast<std::uint16_t>(
                    regs[isa::regIndex(d.reg)] + d.value)))
                return false;
            break;
          case Mode::Indirect:
            if (!ok(regs[isa::regIndex(d.reg)]))
                return false;
            break;
          case Mode::IndirectInc:
            if (!ok(regs[isa::regIndex(d.reg)]))
                return false;
            if (isa::regIndex(d.reg) == 1)
                sp = static_cast<std::uint16_t>(sp + (in.byte ? 1 : 2));
            break;
          default:
            break;
        }
        if (in.op == Op::Push || in.op == Op::Call)
            return ok(static_cast<std::uint16_t>(sp - 2));
        return true;
      }
    }
    return true;
}

/** Kernel identifiers, in exact label-table order. The four Format I
 *  families are contiguous runs indexed by (op - Op::Mov). */
enum KernelId : int {
    kNRBase = 0,    ///< imm/reg src -> reg dst, fully static accounting
    kMRBase = 12,   ///< static mem src -> reg dst
    kNMBase = 24,   ///< imm/reg src -> static mem dst
    kDRBase = 36,   ///< dynamic mem src -> reg dst
    kNDBase = 48,   ///< imm/reg src -> dynamic Indexed dst
    kRrc = 60,
    kRra,
    kSwpb,
    kSxt,
    kPush,
    kCallImm,
    kJmp,
    kJcc,
    kJSigned,
    kGeneric,
    kBlockEnd,
    kNumKernels,
};

/** Shared chain state + accumulators for one runChain invocation. */
struct DCtx {
    std::uint16_t *regs = nullptr;
    std::array<std::uint16_t, 16> *regs_arr = nullptr;
    std::uint8_t *bytes = nullptr;
    HwCache *hw = nullptr;
    PredecodeCache *pre = nullptr;
    PageGenTable *gens = nullptr;

    // Dynamic accumulators (AccIdx order), flushed to Stats once per
    // chain. Each block entry adds its static base and stall cycles
    // (the boundary guards read them); the chain end adds runs × the
    // other static totals. A bail-out subtracts the unexecuted suffix
    // from every slot (u64 wraparound keeps the sums exact).
    alignas(32) std::array<std::uint64_t, kNumAcc> acc{};

    // Timing-model constants.
    std::uint32_t ws = 0, cstall = 0, ms = 0; ///< ms = max(ws, cstall)
    std::uint32_t sram_size = 0;
    std::uint16_t code_base = 0;
    std::uint32_t code_end = 0;
    bool hw_on = true;

    // Per-block self-modification window.
    std::uint16_t blk_start = 0;
    std::uint32_t blk_end = 0;
    bool smc = false;

    /// The dispatched block's generic-kernel instructions.
    const isa::Instr *instrs = nullptr;

    // Chain state for block transitions inside the dispatch loop
    // (ThreadedEngine::advanceChain).
    ThreadedEngine *eng = nullptr;
    const ThreadedEngine::ChainLimits *limits = nullptr;
    ThreadedEngine::Block *cur = nullptr; ///< the dispatched block
    TOp *cur_ops = nullptr;
    std::uint64_t total = 0;      ///< bail-out corrections to runs × n
    std::uint64_t dispatches = 0; ///< ditto, to the chain's entries
    bool first = true;
    bool chain_in_recovery = false;
    std::uint8_t chain_owner = 0; ///< entry block's owner (observed)

    // Per-instruction FRAM line-contention chain (dynamic paths).
    std::uint32_t fram_count = 0, last_line = 0;

    // Bail-out report: the op the dispatch stopped at, and why.
    TOp *bail_op = nullptr;
    int bail_kind = 0; ///< 0 done, 1 operand (uncommitted), 2 SMC
};

/** Native u16 cell load (register file or the op's immediate cell). */
inline std::uint32_t
cellLoad(const std::uint8_t *sp, std::uint32_t mask)
{
    std::uint16_t v;
    std::memcpy(&v, sp, 2);
    return v & mask;
}

/** Native u16 cell store (register file); byte ops clear the upper
 *  byte, exactly storeLoc's register rule, because mask is 0xFF. */
inline void
cellStore(std::uint8_t *dp, std::uint32_t r, std::uint32_t mask)
{
    std::uint16_t v = static_cast<std::uint16_t>(r & mask);
    std::memcpy(dp, &v, 2);
}

/** Simulated-memory load (little-endian flat array). */
inline std::uint32_t
simLoad(const std::uint8_t *sp, std::uint32_t mask)
{
    if (mask == 0xFF)
        return sp[0];
    return static_cast<std::uint32_t>(sp[0]) |
           (static_cast<std::uint32_t>(sp[1]) << 8);
}

inline void
simStore(std::uint8_t *dp, std::uint32_t r, std::uint32_t mask)
{
    dp[0] = static_cast<std::uint8_t>(r & 0xFF);
    if (mask != 0xFF)
        dp[1] = static_cast<std::uint8_t>((r >> 8) & 0xFF);
}


/** The bus's FRAM read timing model for one dynamic data access;
 *  returns after updating the contention chain and the dynamic
 *  counters. */
inline void
dynFramRead(DCtx *st, std::uint16_t addr)
{
    std::uint32_t line = addr >> 3;
    bool contends = st->fram_count > 0 && line != st->last_line;
    st->last_line = line;
    ++st->fram_count;
    std::uint32_t contention = contends ? st->cstall : 0;
    std::uint32_t stall;
    if (st->hw_on) {
        if (st->hw->access(addr)) {
            ++st->acc[kAccHits];
            stall = contention;
        } else {
            ++st->acc[kAccMisses];
            stall = std::max(st->ws, contention);
        }
    } else {
        ++st->acc[kAccMisses];
        stall = std::max(st->ws, contention);
    }
    st->acc[kAccStall] += stall;
}

/** The bus's FRAM write timing model (writes bypass the hardware
 *  cache). */
inline void
dynFramWrite(DCtx *st, std::uint16_t addr)
{
    std::uint32_t line = addr >> 3;
    bool contends = st->fram_count > 0 && line != st->last_line;
    st->last_line = line;
    ++st->fram_count;
    st->acc[kAccStall] += std::max(st->ws, contends ? st->cstall : 0u);
}

inline void
dynClassify(DCtx *st, std::uint16_t addr)
{
    if (addr >= st->code_base &&
        static_cast<std::uint32_t>(addr) < st->code_end)
        ++st->acc[kAccCode];
    else
        ++st->acc[kAccData];
}

/** Dynamic-address load with the bus's full accounting (the caller
 *  pre-checked the address lies in SRAM/FRAM). */
inline std::uint32_t
dynLoad(DCtx *st, std::uint16_t addr, bool byte)
{
    if (!byte && (addr & 1))
        support::fatal("unaligned word read at ", support::hex16(addr));
    dynClassify(st, addr);
    if (addr >= platform::kFramBase) {
        ++st->acc[kAccFramRead];
        dynFramRead(st, addr);
    } else {
        ++st->acc[kAccSramRead];
    }
    if (byte)
        return st->bytes[addr];
    return static_cast<std::uint32_t>(st->bytes[addr]) |
           (static_cast<std::uint32_t>(
                st->bytes[static_cast<std::uint16_t>(addr + 1)])
            << 8);
}

/** Store-side invalidation duties: predecode 3-slot drop (as the bus
 *  does), page-generation bump, own-block SMC detection. */
inline void
dynNoteStore(DCtx *st, std::uint16_t addr, unsigned nbytes)
{
    if (st->pre) {
        st->pre->invalidateWrite(addr);
        ++st->acc[kAccPreInval];
    }
    st->gens->noteWrite(addr, nbytes);
    std::uint32_t lo = addr;
    if (lo < st->blk_end && lo + nbytes > st->blk_start)
        st->smc = true;
}

/** Dynamic-address store with the bus's full accounting. */
inline void
dynStore(DCtx *st, std::uint16_t addr, std::uint32_t value, bool byte)
{
    if (!byte && (addr & 1))
        support::fatal("unaligned word write at ", support::hex16(addr));
    dynClassify(st, addr);
    if (addr >= platform::kFramBase) {
        ++st->acc[kAccFramWrite];
        dynFramWrite(st, addr);
    } else {
        ++st->acc[kAccSramWrite];
    }
    st->bytes[addr] = static_cast<std::uint8_t>(value & 0xFF);
    if (!byte)
        st->bytes[static_cast<std::uint16_t>(addr + 1)] =
            static_cast<std::uint8_t>((value >> 8) & 0xFF);
    dynNoteStore(st, addr, byte ? 1 : 2);
}

/**
 * Bus-equivalent memory policy over DCtx for the generic kernel's
 * ExecCore, so instructions with no specialized kernel still run the
 * single-sourced semantics with identical accounting.
 */
class ShimMem
{
  public:
    explicit ShimMem(DCtx &st) : st_(&st) {}

    std::uint16_t
    read16(std::uint16_t addr, AccessKind)
    {
        return static_cast<std::uint16_t>(dynLoad(st_, addr, false));
    }

    std::uint8_t
    read8(std::uint16_t addr, AccessKind)
    {
        return static_cast<std::uint8_t>(dynLoad(st_, addr, true));
    }

    void
    write16(std::uint16_t addr, std::uint16_t value)
    {
        dynStore(st_, addr, value, false);
    }

    void
    write8(std::uint16_t addr, std::uint8_t value)
    {
        dynStore(st_, addr, value, true);
    }

  private:
    DCtx *st_;
};

/** Replay the fetch stream's dynamic hardware-cache probes (at most
 *  two line runs; same-line followers are folded statically). The
 *  first probe's stall contributions are per-op (fc0/fm0): normally
 *  0/ws (a leading run never contends), but when cross-op folding
 *  removed the leading run, the surviving probe is a contending line
 *  change and carries cstall/ms instead. */
SWAPRAM_INLINE void
tFetch(DCtx *st, const TOp *op)
{
    if (op->runs) {
        if (st->hw->access(op->fa0)) {
            ++st->acc[kAccHits];
            st->acc[kAccStall] += op->fc0;
        } else {
            ++st->acc[kAccMisses];
            st->acc[kAccStall] += op->fm0;
        }
        if (op->runs > 1) {
            if (st->hw->access(op->fa1)) {
                ++st->acc[kAccHits];
                st->acc[kAccStall] += st->cstall;
            } else {
                ++st->acc[kAccMisses];
                st->acc[kAccStall] += st->ms;
            }
        }
    }
}

/** One dynamic data-read probe of a static FRAM address. */
SWAPRAM_INLINE void
tProbe(DCtx *st, const TOp *op, std::uint16_t addr)
{
    if (op->probe) {
        if (st->hw->access(addr)) {
            ++st->acc[kAccHits];
            st->acc[kAccStall] += op->d0_hit;
        } else {
            ++st->acc[kAccMisses];
            st->acc[kAccStall] += op->d0_miss;
        }
    }
}

/** imm/reg src -> reg dst: no memory, fully static accounting. */
template <Op OP>
SWAPRAM_INLINE int
kernNR(DCtx *st, TOp *op)
{
    tFetch(st, op);
    std::uint16_t *regs = st->regs;
    regs[0] = op->next_pc;
    std::uint32_t src = cellLoad(op->sp, op->mask);
    std::uint32_t dst = 0;
    if constexpr (OP != Op::Mov)
        dst = cellLoad(op->dp, op->mask);
    AluR o = fmt1Alu<OP>(src, dst, regs[2], op->mask, op->msb);
    if constexpr (fmt1Writes<OP>())
        cellStore(op->dp, o.r, op->mask);
    if constexpr (fmt1Flags<OP>())
        setFlags(regs, o);
    return 0;
}

/** Static mem src -> reg dst: at most one dynamic probe. */
template <Op OP>
SWAPRAM_INLINE int
kernMR(DCtx *st, TOp *op)
{
    tFetch(st, op);
    tProbe(st, op, op->a);
    std::uint16_t *regs = st->regs;
    regs[0] = op->next_pc;
    std::uint32_t src = simLoad(op->sp, op->mask);
    std::uint32_t dst = 0;
    if constexpr (OP != Op::Mov)
        dst = cellLoad(op->dp, op->mask);
    AluR o = fmt1Alu<OP>(src, dst, regs[2], op->mask, op->msb);
    if constexpr (fmt1Writes<OP>())
        cellStore(op->dp, o.r, op->mask);
    if constexpr (fmt1Flags<OP>())
        setFlags(regs, o);
    return 0;
}

/** imm/reg src -> static mem dst: probe covers the non-Mov dst read;
 *  the write's stall and the SMC outcome are static. Invalidation
 *  side effects (predecode, page generations) stay dynamic. */
template <Op OP>
SWAPRAM_INLINE int
kernNM(DCtx *st, TOp *op)
{
    tFetch(st, op);
    if constexpr (OP != Op::Mov)
        tProbe(st, op, op->b);
    std::uint16_t *regs = st->regs;
    regs[0] = op->next_pc;
    std::uint32_t src = cellLoad(op->sp, op->mask);
    std::uint32_t dst = 0;
    if constexpr (OP != Op::Mov)
        dst = simLoad(op->dp, op->mask);
    AluR o = fmt1Alu<OP>(src, dst, regs[2], op->mask, op->msb);
    if constexpr (fmt1Writes<OP>()) {
        simStore(op->dp, o.r, op->mask);
        if (st->pre)
            st->pre->invalidateWrite(op->b);
        st->gens->noteWrite(op->b, op->byte ? 1 : 2);
    }
    if constexpr (fmt1Flags<OP>())
        setFlags(regs, o);
    if constexpr (fmt1Writes<OP>()) {
        if (op->smc)
            return 2;
    }
    return 0;
}

/** Dynamic mem src -> reg dst: mapped pre-check, then fully dynamic
 *  source accounting (the contention chain seeds from the fetch). */
template <Op OP>
SWAPRAM_INLINE int
kernDR(DCtx *st, TOp *op)
{
    std::uint16_t *regs = st->regs;
    std::uint16_t addr =
        static_cast<std::uint16_t>(regs[op->ra] + op->a);
    if (!mapped(addr, st->sram_size))
        return 1;
    tFetch(st, op);
    st->fram_count = op->chain;
    st->last_line = op->lastline;
    regs[0] = op->next_pc;
    regs[op->ra] = static_cast<std::uint16_t>(regs[op->ra] + op->inc);
    std::uint32_t src = dynLoad(st, addr, op->byte != 0);
    std::uint32_t dst = 0;
    if constexpr (OP != Op::Mov)
        dst = cellLoad(op->dp, op->mask);
    AluR o = fmt1Alu<OP>(src, dst, regs[2], op->mask, op->msb);
    if constexpr (fmt1Writes<OP>())
        cellStore(op->dp, o.r, op->mask);
    if constexpr (fmt1Flags<OP>())
        setFlags(regs, o);
    return 0;
}

/** imm/reg src -> dynamic Indexed dst: mapped pre-check on the
 *  destination, fully dynamic read-modify-write accounting. */
template <Op OP>
SWAPRAM_INLINE int
kernND(DCtx *st, TOp *op)
{
    std::uint16_t *regs = st->regs;
    std::uint16_t addr =
        static_cast<std::uint16_t>(regs[op->rd] + op->b);
    if (!mapped(addr, st->sram_size))
        return 1;
    tFetch(st, op);
    st->fram_count = op->chain;
    st->last_line = op->lastline;
    regs[0] = op->next_pc;
    std::uint32_t src = cellLoad(op->sp, op->mask);
    std::uint32_t dst = 0;
    if constexpr (OP != Op::Mov)
        dst = dynLoad(st, addr, op->byte != 0);
    AluR o = fmt1Alu<OP>(src, dst, regs[2], op->mask, op->msb);
    if constexpr (fmt1Writes<OP>())
        dynStore(st, addr, o.r, op->byte != 0);
    if constexpr (fmt1Flags<OP>())
        setFlags(regs, o);
    if constexpr (fmt1Writes<OP>()) {
        if (st->smc)
            return 2;
    }
    return 0;
}

/** RRC, RRA, SWPB or SXT on a register destination (mask
 *  distinguishes RRC.B/RRA.B; SWPB and SXT are word-only). */
template <Op OP>
SWAPRAM_INLINE int
kernFmt2(DCtx *st, TOp *op)
{
    tFetch(st, op);
    std::uint16_t *regs = st->regs;
    regs[0] = op->next_pc;
    const std::uint32_t mask = fmt2WordOnly<OP>() ? 0xFFFF : op->mask;
    const std::uint32_t msb = fmt2WordOnly<OP>() ? 0x8000 : op->msb;
    AluR o = fmt2Alu<OP>(cellLoad(op->dp, mask), regs[2], mask, msb);
    cellStore(op->dp, o.r, mask);
    if constexpr (fmt2Flags<OP>())
        setFlags(regs, o);
    return 0;
}

/** PUSH of a register/immediate source: one dynamic stack write. */
SWAPRAM_INLINE int
kernPush(DCtx *st, TOp *op)
{
    std::uint16_t *regs = st->regs;
    std::uint16_t nsp = static_cast<std::uint16_t>(regs[1] - 2);
    if (!mapped(nsp, st->sram_size))
        return 1;
    tFetch(st, op);
    st->fram_count = op->chain;
    st->last_line = op->lastline;
    regs[0] = op->next_pc;
    std::uint32_t v = cellLoad(op->sp, op->mask);
    regs[1] = nsp;
    dynStore(st, nsp, v, op->byte != 0);
    return st->smc ? 2 : 0;
}

/** CALL #imm: static target, one dynamic stack write. Terminator. */
SWAPRAM_INLINE int
kernCallImm(DCtx *st, TOp *op)
{
    std::uint16_t *regs = st->regs;
    std::uint16_t nsp = static_cast<std::uint16_t>(regs[1] - 2);
    if (!mapped(nsp, st->sram_size))
        return 1;
    tFetch(st, op);
    st->fram_count = op->chain;
    st->last_line = op->lastline;
    regs[0] = op->next_pc;
    regs[1] = nsp;
    dynStore(st, nsp, op->next_pc, false);
    regs[0] = op->a;
    return st->smc ? 2 : 0;
}

/** Everything else: the shared ExecCore over the bus-equivalent shim,
 *  pre-checking register-dependent operands like the other kernels. */
SWAPRAM_INLINE int
kernGeneric(DCtx *st, TOp *op, ExecCore<ShimMem> &core)
{
    const isa::Instr &in = st->instrs[op->b];
    if (op->ra && !dynOperandsMapped(in, *st->regs_arr, st->sram_size))
        return 1;
    tFetch(st, op);
    st->fram_count = op->chain;
    st->last_line = op->lastline;
    st->regs[0] = op->next_pc;
    core.execute(in);
    return st->smc ? 2 : 0;
}

/**
 * The dispatch loop: a computed-goto chain over a lowered block.
 * Called with st == nullptr it returns the kernel label table (indexed
 * by KernelId) so lowering can resolve handlers; otherwise it runs ops
 * from @p op until a bail-out or the block-end sentinel, recording the
 * stop point and reason in the context.
 */
const void *const *
dispatchRun(DCtx *st, TOp *op)
{
    static const void *const kLabels[kNumKernels] = {
#define X(N) &&L_nr_##N,
        SWAPRAM_FMT1_OPS(X)
#undef X
#define X(N) &&L_mr_##N,
        SWAPRAM_FMT1_OPS(X)
#undef X
#define X(N) &&L_nm_##N,
        SWAPRAM_FMT1_OPS(X)
#undef X
#define X(N) &&L_dr_##N,
        SWAPRAM_FMT1_OPS(X)
#undef X
#define X(N) &&L_nd_##N,
        SWAPRAM_FMT1_OPS(X)
#undef X
        &&L_rrc,     &&L_rra, &&L_swpb, &&L_sxt,     &&L_push,
        &&L_callimm, &&L_jmp, &&L_jcc,  &&L_jsigned, &&L_generic,
        &&L_end,
    };
    if (!st)
        return kLabels;

    ShimMem shim(*st);
    ExecCore<ShimMem> core(*st->regs_arr, shim);

#define SWAPRAM_NEXT                                                     \
    do {                                                                 \
        ++op;                                                            \
        goto *op->h;                                                     \
    } while (0)
#define SWAPRAM_RUN(call)                                                \
    do {                                                                 \
        int k_ = (call);                                                 \
        if (k_ != 0) {                                                   \
            if (k_ == 1)                                                 \
                goto L_bail_operand;                                     \
            goto L_bail_smc;                                             \
        }                                                                \
    } while (0)

    goto *op->h;

#define X(N)                                                             \
    L_nr_##N : SWAPRAM_RUN(kernNR<Op::N>(st, op));                       \
    SWAPRAM_NEXT;
    SWAPRAM_FMT1_OPS(X)
#undef X
#define X(N)                                                             \
    L_mr_##N : SWAPRAM_RUN(kernMR<Op::N>(st, op));                       \
    SWAPRAM_NEXT;
    SWAPRAM_FMT1_OPS(X)
#undef X
#define X(N)                                                             \
    L_nm_##N : SWAPRAM_RUN(kernNM<Op::N>(st, op));                       \
    SWAPRAM_NEXT;
    SWAPRAM_FMT1_OPS(X)
#undef X
#define X(N)                                                             \
    L_dr_##N : SWAPRAM_RUN(kernDR<Op::N>(st, op));                       \
    SWAPRAM_NEXT;
    SWAPRAM_FMT1_OPS(X)
#undef X
#define X(N)                                                             \
    L_nd_##N : SWAPRAM_RUN(kernND<Op::N>(st, op));                       \
    SWAPRAM_NEXT;
    SWAPRAM_FMT1_OPS(X)
#undef X

L_rrc:
    SWAPRAM_RUN(kernFmt2<Op::Rrc>(st, op));
    SWAPRAM_NEXT;
L_rra:
    SWAPRAM_RUN(kernFmt2<Op::Rra>(st, op));
    SWAPRAM_NEXT;
L_swpb:
    SWAPRAM_RUN(kernFmt2<Op::Swpb>(st, op));
    SWAPRAM_NEXT;
L_sxt:
    SWAPRAM_RUN(kernFmt2<Op::Sxt>(st, op));
    SWAPRAM_NEXT;
L_push:
    SWAPRAM_RUN(kernPush(st, op));
    SWAPRAM_NEXT;
L_callimm:
    SWAPRAM_RUN(kernCallImm(st, op));
    SWAPRAM_NEXT;
L_jmp:
    tFetch(st, op);
    st->regs[0] = op->a;
    SWAPRAM_NEXT;
L_jcc:
    tFetch(st, op);
    st->regs[0] = branchTaken({op->mask, op->ra != 0, false}, st->regs[2])
                      ? op->a
                      : op->next_pc;
    SWAPRAM_NEXT;
L_jsigned:
    tFetch(st, op);
    st->regs[0] = branchTaken({0, op->ra != 0, true}, st->regs[2])
                      ? op->a
                      : op->next_pc;
    SWAPRAM_NEXT;
L_generic:
    SWAPRAM_RUN(kernGeneric(st, op, core));
    SWAPRAM_NEXT;

L_bail_operand:
    st->bail_op = op;
    st->bail_kind = 1;
    return kLabels;
L_bail_smc:
    st->bail_op = op;
    st->bail_kind = 2;
    return kLabels;
L_end:
    // Block completed: hand over to the chain-advance helper, which
    // accounts it and enters the next block (guards, lazy lowering,
    // static totals) — the dispatch function itself is entered once
    // per chain, not once per block.
    op = static_cast<TOp *>(st->eng->advanceChain(st));
    if (op)
        goto *op->h;
    st->bail_op = nullptr;
    st->bail_kind = 0;
    return kLabels;

#undef SWAPRAM_NEXT
#undef SWAPRAM_RUN
}

} // namespace

ThreadedEngine::ThreadedEngine(
    Cpu &cpu, Memory &memory, Bus &bus, Stats &stats,
    const MachineConfig &config, PredecodeCache *predecode,
    std::function<std::uint8_t(std::uint16_t)> classify)
    : cpu_(cpu), memory_(memory), bus_(bus), stats_(stats),
      config_(config), predecode_(predecode),
      classify_(std::move(classify)), blocks_(kSlots)
{
    labels_ = dispatchRun(nullptr, nullptr);
}

ThreadedEngine::~ThreadedEngine() = default;

std::unique_ptr<ThreadedEngine::Block>
ThreadedEngine::build(std::uint16_t pc)
{
    auto b = std::make_unique<Block>();
    b->start_pc = pc;
    b->end_addr = pc;
    const RegionKind region = regionOf(pc, config_.sramEnd());
    const bool fram_code = region == RegionKind::Fram;
    b->fram_code = fram_code;

    const bool hw_on = config_.hw_cache_enabled;
    const std::uint32_t ws = config_.effectiveWaitStates();
    const std::uint32_t cstall = config_.contention_stall;
    const std::uint32_t ms = std::max(ws, cstall);
    const std::uint16_t code_base = bus_.codeBase();
    const std::uint32_t code_end = bus_.codeEnd();
    std::uint16_t *regs = cpu_.regs().data();
    std::uint8_t *bytes = memory_.bytes();

    auto regCell = [regs](isa::Reg r) {
        return reinterpret_cast<std::uint8_t *>(regs + isa::regIndex(r));
    };
    auto inCode = [&](std::uint16_t addr) {
        return addr >= code_base &&
               static_cast<std::uint32_t>(addr) < code_end;
    };
    // Fold one static-address data read into op statics. The fetch
    // stream's addresses are fixed, so the line-contention component
    // is static; with the hardware cache on, only the hit/miss
    // outcome stays a runtime probe.
    auto staticRead = [&](std::uint16_t addr, TOp &t, TDelta &dl) {
        ++(inCode(addr) ? dl.d_code : dl.d_data);
        if (addr >= platform::kFramBase) {
            ++dl.d_fram_r;
            std::uint32_t line = addr >> 3;
            bool contends = t.chain > 0 && line != t.lastline;
            std::uint32_t cont = contends ? cstall : 0;
            if (hw_on) {
                t.probe = 1;
                t.d0_hit = static_cast<std::uint16_t>(cont);
                t.d0_miss = static_cast<std::uint16_t>(std::max(ws, cont));
            } else {
                ++dl.d_misses;
                dl.d_stall += std::max(ws, cont);
            }
        } else {
            ++dl.d_sram_r;
        }
    };
    // Fold one static-address data write: the stall is fully static
    // (after_read: the preceding read of the same cell already seeded
    // the contention chain with this line, so the write never
    // contends). The SMC outcome is static too — both the address and
    // the block's code window are fixed; the window's end is only
    // known once the scan stops, so smc is narrowed there.
    auto staticWrite = [&](std::uint16_t addr, TOp &t, TDelta &dl,
                           bool after_read, unsigned nbytes) {
        ++(inCode(addr) ? dl.d_code : dl.d_data);
        if (addr >= platform::kFramBase) {
            ++dl.d_fram_w;
            std::uint32_t cont = 0;
            if (!after_read) {
                std::uint32_t line = addr >> 3;
                cont = (t.chain > 0 && line != t.lastline) ? cstall : 0;
            }
            dl.d_stall += std::max(ws, cont);
        } else {
            ++dl.d_sram_w;
        }
        if (predecode_)
            ++dl.d_pre;
        t.smc = static_cast<std::uint32_t>(addr) + nbytes > pc;
    };

    // Cross-op fetch-run folding. After an instruction's fetch stream,
    // its last line is the most-recently-used way of its set; if the
    // next instruction starts on that same line and nothing in between
    // could have touched the hardware cache (no data-read probe — FRAM
    // data writes never probe), its leading fetch probe is a guaranteed
    // hit on the MRU way: hits += 1, stall 0, LRU unchanged. Fold it
    // into the statics and drop the runtime probe.
    std::uint32_t fold_line = 0xFFFFFFFF;
    bool fold_clean = false;
    std::uint32_t worst = 0;

    // Lowered into fixed scratch first and copied out once the scan
    // stops, so the block's arrays are allocated once, at their size.
    std::array<TOp, kMaxBlockInstrs + 1> ops;
    std::array<TDelta, kMaxBlockInstrs> deltas;

    const bool scan =
        region == RegionKind::Sram || region == RegionKind::Fram;
    const bool block_in_recovery = inRecovery(pc);
    b->owner = classify_(pc);
    std::uint32_t cur = pc;
    while (scan && b->n < kMaxBlockInstrs && cur - pc < kMaxBlockBytes) {
        if (inRecovery(cur) != block_in_recovery)
            break; // recovery attribution boundary
        const auto cur16 = static_cast<std::uint16_t>(cur);
        if (cur != pc && (cur16 == probe_a_ || cur16 == probe_b_))
            break; // checkpoint probe: only ever a block start
        if (classify_(cur16) != b->owner)
            break; // code-owner boundary
        std::uint16_t w0 = memory_.read16(cur16);
        if (!isa::validLeadingWord(w0))
            break; // garbage: only the oracle may diagnose it
        isa::Shape shape = isa::decodeShape(w0);
        const int n_words = 1 + shape.totalExt();
        const std::uint32_t end =
            cur + 2 * static_cast<std::uint32_t>(n_words);
        if (end > 0x10000)
            break; // instruction would wrap the address space
        bool crosses = false;
        for (int w = 0; w < n_words; ++w) {
            crosses |= regionOf(static_cast<std::uint16_t>(cur + 2 * w),
                                config_.sramEnd()) != region;
        }
        if (crosses)
            break; // region-crossing fetch
        std::uint16_t ext_src =
            shape.src_ext
                ? memory_.read16(static_cast<std::uint16_t>(cur + 2))
                : 0;
        std::uint16_t ext_dst =
            shape.dst_ext ? memory_.read16(static_cast<std::uint16_t>(
                                cur + 2 + (shape.src_ext ? 2 : 0)))
                          : 0;
        const isa::Instr in = isa::decodeWords(w0, ext_src, ext_dst, cur16);
        const Analysis a = analyze(in, config_.sram_size);
        if (!a.include)
            break; // statically MMIO/unmapped operand

        TOp &t = ops[b->n];
        TDelta &dl = deltas[b->n];
        t.next_pc = static_cast<std::uint16_t>(end);
        dl.d_base = static_cast<std::uint8_t>(isa::baseCycles(in));
        t.byte = in.byte ? 1 : 0;
        t.mask = in.byte ? 0xFF : 0xFFFF;
        t.msb = in.byte ? 0x80 : 0x8000;

        // Fetch statics: code/data classification per word, and the
        // FRAM stream collapsed to its line runs. The 2nd+ FRAM fetch
        // of an instruction contends iff it changes 8-byte line (static:
        // fetches come first and their addresses are fixed).
        dl.d_fetch = static_cast<std::uint8_t>(n_words);
        std::uint32_t line = 0; ///< line of the last fetch word
        int runs = 0;
        for (int w = 0; w < n_words; ++w) {
            const auto wa = static_cast<std::uint16_t>(cur + 2 * w);
            ++(inCode(wa) ? dl.d_code : dl.d_data);
            if (!fram_code)
                continue;
            const bool contends = w > 0 && (wa >> 3u) != line;
            line = wa >> 3;
            if (!hw_on) {
                dl.d_stall += contends ? ms : ws;
                ++dl.d_misses;
            } else if (w == 0 || contends) {
                (runs++ == 0 ? t.fa0 : t.fa1) = wa;
            }
        }
        if (fram_code) {
            // Data accesses contend against the fetch stream's lines.
            t.chain = static_cast<std::uint8_t>(n_words);
            t.lastline = static_cast<std::uint16_t>(line);
            if (hw_on) {
                t.fm0 = static_cast<std::uint16_t>(ws);
                if (runs > 0 && fold_clean && (cur >> 3) == fold_line) {
                    // The surviving probe (if any) is the old second
                    // run — a contending line change, not a leading
                    // run — so it keeps run-1 stall contributions.
                    t.fa0 = t.fa1;
                    t.fc0 = static_cast<std::uint16_t>(cstall);
                    t.fm0 = static_cast<std::uint16_t>(ms);
                    --runs;
                }
                t.runs = static_cast<std::uint8_t>(runs);
                dl.d_hits = static_cast<std::uint8_t>(n_words - runs);
            }
        }

        // Kernel selection.
        int kid = kGeneric;
        const Op o = in.op;
        switch (isa::opFormat(o)) {
          case isa::OpFormat::Jump: {
            const BranchRule rule = branchRule(o);
            t.a = in.jump_target;
            t.mask = rule.mask;
            t.ra = rule.when ? 1 : 0;
            kid = o == Op::Jmp     ? kJmp
                  : rule.signed_nv ? kJSigned
                                   : kJcc;
            break;
          }
          case isa::OpFormat::DoubleOperand: {
            const Operand &s = in.src;
            const Operand &d = in.dst;
            const int op_off = static_cast<int>(o) -
                               static_cast<int>(Op::Mov);
            const bool src_nonmem = s.mode == Mode::Register ||
                                    s.mode == Mode::Immediate;
            const bool src_static = s.mode == Mode::Symbolic ||
                                    s.mode == Mode::Absolute;
            const bool dst_reg = d.mode == Mode::Register &&
                                 d.reg != isa::Reg::CG2;
            const bool dst_static = d.mode == Mode::Symbolic ||
                                    d.mode == Mode::Absolute;
            const bool word_ok_src = in.byte || !(s.value & 1);
            const bool word_ok_dst = in.byte || !(d.value & 1);
            if (s.mode == Mode::Immediate) {
                t.a = s.value; // t.sp: set once the ops stop moving
            } else if (s.mode == Mode::Register) {
                t.sp = regCell(s.reg);
            }
            if (src_nonmem && dst_reg) {
                kid = kNRBase + op_off;
                t.dp = regCell(d.reg);
            } else if (src_static && dst_reg && word_ok_src) {
                kid = kMRBase + op_off;
                t.a = s.value;
                t.sp = bytes + s.value;
                t.dp = regCell(d.reg);
                staticRead(s.value, t, dl);
            } else if (src_nonmem && dst_static && word_ok_dst) {
                kid = kNMBase + op_off;
                t.b = d.value;
                t.dp = bytes + d.value;
                const bool reads_dst = o != Op::Mov;
                if (reads_dst)
                    staticRead(d.value, t, dl);
                if (o != Op::Cmp && o != Op::Bit)
                    staticWrite(d.value, t, dl, reads_dst,
                                in.byte ? 1 : 2);
            } else if ((s.mode == Mode::Indexed ||
                        s.mode == Mode::Indirect ||
                        s.mode == Mode::IndirectInc) &&
                       dst_reg) {
                kid = kDRBase + op_off;
                t.ra = isa::regIndex(s.reg);
                t.a = s.mode == Mode::Indexed ? s.value : 0;
                t.inc = s.mode == Mode::IndirectInc
                            ? (in.byte ? 1 : 2)
                            : 0;
                t.dp = regCell(d.reg);
            } else if (src_nonmem && d.mode == Mode::Indexed) {
                kid = kNDBase + op_off;
                t.rd = isa::regIndex(d.reg);
                t.b = d.value;
            }
            break;
          }
          case isa::OpFormat::SingleOperand: {
            const Operand &d = in.dst;
            const bool d_reg = d.mode == Mode::Register &&
                               d.reg != isa::Reg::CG2;
            switch (o) {
              case Op::Rrc:
                if (d_reg) {
                    kid = kRrc;
                    t.dp = regCell(d.reg);
                }
                break;
              case Op::Rra:
                if (d_reg) {
                    kid = kRra;
                    t.dp = regCell(d.reg);
                }
                break;
              case Op::Swpb:
                if (d_reg) {
                    kid = kSwpb;
                    t.dp = regCell(d.reg);
                }
                break;
              case Op::Sxt:
                if (d_reg) {
                    kid = kSxt;
                    t.dp = regCell(d.reg);
                }
                break;
              case Op::Push:
                if (d.mode == Mode::Register) {
                    kid = kPush;
                    t.sp = regCell(d.reg);
                } else if (d.mode == Mode::Immediate) {
                    kid = kPush;
                    t.a = d.value; // t.sp: as for Format I immediates
                }
                break;
              case Op::Call:
                if (d.mode == Mode::Immediate) {
                    kid = kCallImm;
                    t.a = d.value;
                }
                break;
              default:
                break; // RETI and memory-destination forms: generic
            }
            break;
          }
        }
        if (kid == kGeneric) {
            t.b = static_cast<std::uint16_t>(b->instrs.size());
            t.ra = a.dyn_mem ? 1 : 0;
            b->instrs.push_back(in);
        }
        t.h = labels_[kid];

        // Fold state for the next instruction's leading fetch run:
        // dirty when this op can issue a data-read probe (static FRAM
        // read, dynamic-address read, or anything via the generic
        // core). Dynamic and generic writes go through framStall's
        // write path, which never probes, but a dynamic *read* might
        // land in FRAM, so DR / read-modify-write ND / generic all
        // invalidate the MRU assumption.
        fold_line = line;
        const bool may_probe =
            t.probe != 0 || (kid >= kDRBase && kid < kDRBase + 12) ||
            (kid >= kNDBase && kid < kNDBase + 12 && o != Op::Mov) ||
            kid == kGeneric;
        fold_clean = !may_probe;

        b->tot[kAccBase] += dl.d_base;
        b->tot[kAccStall] += dl.d_stall;
        b->tot[fram_code ? kAccFramFetch : kAccSramFetch] += dl.d_fetch;
        b->tot[kAccCode] += dl.d_code;
        b->tot[kAccData] += dl.d_data;
        b->tot[kAccSramRead] += dl.d_sram_r;
        b->tot[kAccSramWrite] += dl.d_sram_w;
        b->tot[kAccFramRead] += dl.d_fram_r;
        b->tot[kAccFramWrite] += dl.d_fram_w;
        b->tot[kAccHits] += dl.d_hits;
        b->tot[kAccMisses] += dl.d_misses;
        b->tot[kAccPreInval] += dl.d_pre;

        b->writes_sr |= a.writes_sr;
        worst += dl.d_base +
                 ms * ((fram_code ? n_words : 0) + a.max_data);
        ++b->n;
        b->end_addr = end;
        if (a.terminator || end >= 0x10000)
            break;
        cur = end;
    }
    b->tot[kAccOwner0 + b->owner] = b->n;
    ops[b->n].h = labels_[kBlockEnd];
    b->ops.assign(ops.begin(), ops.begin() + b->n + 1);
    b->deltas.assign(deltas.begin(), deltas.begin() + b->n);
    // The op array no longer moves: immediate sources may now point
    // at their own op's cell, and a static store is own-block SMC only
    // when it lands below the block's final end.
    for (TOp &t : b->ops) {
        if (!t.sp)
            t.sp = reinterpret_cast<const std::uint8_t *>(&t.a);
        t.smc = t.smc && t.b < b->end_addr;
    }
    b->worst_case_cycles = worst;

    b->global_gen = gens_.globalGen();
    b->first_page = PageGenTable::pageOf(pc);
    b->last_page = PageGenTable::pageOf(static_cast<std::uint16_t>(
        b->end_addr > pc ? b->end_addr - 1 : pc));
    // Tombstones flag their page too: a copy-in there must still move
    // the epoch so the PC gets a real block.
    for (std::uint32_t i = 0;
         i <= static_cast<std::uint32_t>(b->last_page - b->first_page);
         ++i) {
        const auto page = static_cast<std::uint16_t>(b->first_page + i);
        gens_.markCode(page);
        b->page_gens[i] = gens_.pageGen(page);
    }
    b->code_epoch = gens_.codeEpoch();
    return b;
}

bool
ThreadedEngine::valid(Block &b)
{
    if (b.global_gen != gens_.globalGen())
        return false;
    if (b.code_epoch == gens_.codeEpoch())
        return true;
    for (std::uint32_t i = 0;
         i <= static_cast<std::uint32_t>(b.last_page - b.first_page);
         ++i) {
        if (b.page_gens[i] !=
            gens_.pageGen(static_cast<std::uint16_t>(b.first_page + i)))
            return false;
    }
    // Some other code page was written; this block's pages were not.
    b.code_epoch = gens_.codeEpoch();
    return true;
}

ThreadedEngine::Block *
ThreadedEngine::lookup(std::uint16_t pc)
{
    if (pc & 1)
        return nullptr; // the oracle owns the odd-PC fatal
    std::unique_ptr<Block> &slot = blocks_[pc >> 1];
    if (slot) {
        if (valid(*slot))
            return slot->n ? slot.get() : nullptr;
        ++stats_.superblock_invalidations;
        ++replacements_;
        if (slot->runs)
            retired_.push_back(std::move(slot)); // the chain still runs it
    }
    slot = build(pc);
    if (!slot->n)
        return nullptr;
    ++stats_.superblock_blocks_built;
    ++stats_.threaded_blocks_lowered;
    return slot.get();
}

void *
ThreadedEngine::advanceChain(void *p)
{
    DCtx &st = *static_cast<DCtx *>(p);
    const ChainLimits &limits = *st.limits;

    // The next block: the last block's successor link when it is still
    // live and valid, else the block table (which relinks it).
    const std::uint16_t pc = st.regs[0];
    Block *prev = st.cur;
    Block *block = prev ? prev->follow(pc, replacements_) : nullptr;
    if (!block || !valid(*block)) {
        block = lookup(pc);
        if (!block)
            return nullptr;
        if (prev)
            prev->link(pc, block, replacements_);
    }

    // Boundary discipline: a block only runs when its worst-case cycle
    // bound provably keeps every intermediate step short of the run
    // loop's per-step checks (max_cycles, fault injection, timer
    // delivery).
    const std::uint64_t now = limits.now + st.acc[kAccBase] + st.acc[kAccStall];
    const std::uint64_t bound = block->worst_case_cycles;
    if (now + bound >= limits.limit_cycles) {
        ++stats_.threaded_bail_boundary;
        return nullptr;
    }
    if (limits.timer_period) {
        bool gie = cpu_.interruptsEnabled();
        bool pending = limits.timer_pending || now >= limits.timer_fire;
        if (gie) {
            if (pending)
                return nullptr; // interrupt entry happens this step
            if (now + bound >= limits.timer_fire) {
                ++stats_.threaded_bail_boundary;
                return nullptr;
            }
        } else if (block->writes_sr &&
                   (pending || now + bound >= limits.timer_fire)) {
            // GIE is clear, but the block could set it while the timer
            // is (or becomes) due: let the oracle sequence it. (The
            // fire cycle is fixed until delivery and time is monotone,
            // so pending-ness at the next oracle check recomputes to
            // exactly the sticky flag the per-step path would have
            // kept.)
            ++stats_.threaded_bail_boundary;
            return nullptr;
        }
    }
    if (recovery_end_) {
        const bool in = inRecovery(pc);
        if (st.first)
            st.chain_in_recovery = in;
        else if (in != st.chain_in_recovery)
            return nullptr;
    }
    if (limits.observed) {
        if (st.first)
            st.chain_owner = block->owner;
        else if (block->owner != st.chain_owner ||
                 pc == probe_a_ || pc == probe_b_)
            return nullptr;
    }
    st.first = false;

    // Only the cycles the guards read are applied now; the chain end
    // applies runs × the rest.
    st.acc[kAccBase] += block->tot[kAccBase];
    st.acc[kAccStall] += block->tot[kAccStall];
    if (block->runs++ == 0)
        chain_blocks_.push_back(block);

    st.blk_start = block->start_pc;
    st.blk_end = block->end_addr;
    st.smc = false;
    st.instrs = block->instrs.data();
    st.cur = block;
    st.cur_ops = block->ops.data();
    return st.cur_ops;
}

ThreadedEngine::ChainResult
ThreadedEngine::runChain(const ChainLimits &limits)
{
    // A chain that ended in a thrown fatal left its entry counts.
    for (Block *b : chain_blocks_)
        b->runs = 0;
    chain_blocks_.clear();
    retired_.clear();

    DCtx st;
    st.regs_arr = &cpu_.regs();
    st.regs = cpu_.regs().data();
    st.bytes = memory_.bytes();
    st.hw = &bus_.hwCache();
    st.pre = predecode_;
    st.gens = &gens_;
    st.ws = config_.effectiveWaitStates();
    st.cstall = config_.contention_stall;
    st.ms = std::max(st.ws, st.cstall);
    st.sram_size = config_.sram_size;
    st.code_base = bus_.codeBase();
    st.code_end = bus_.codeEnd();
    st.hw_on = config_.hw_cache_enabled;

    st.eng = this;
    st.limits = &limits;

    // Enter the first block; dispatchRun then chains block-to-block
    // through advanceChain until a bail-out or chain end.
    TOp *op0 = static_cast<TOp *>(advanceChain(&st));
    while (op0) {
        dispatchRun(&st, op0);
        if (st.bail_kind == 0)
            break; // chain ended at a block boundary (advanceChain)

        // Mid-block bail-out (dyn operand or own-block SMC): subtract
        // the unexecuted suffix from what the entry and the chain-end
        // sweep count for a whole run of this block.
        const Block &b = *st.cur;
        const std::size_t n = b.n;
        const std::size_t idx =
            static_cast<std::size_t>(st.bail_op - st.cur_ops);
        const std::size_t executed = st.bail_kind == 2 ? idx + 1 : idx;
        if (executed < n) {
            for (std::size_t i = executed; i < n; ++i) {
                const TDelta &t = b.deltas[i];
                st.acc[kAccBase] -= t.d_base;
                st.acc[kAccStall] -= t.d_stall;
                if (b.fram_code)
                    st.acc[kAccFramFetch] -= t.d_fetch;
                else
                    st.acc[kAccSramFetch] -= t.d_fetch;
                st.acc[kAccCode] -= t.d_code;
                st.acc[kAccData] -= t.d_data;
                st.acc[kAccSramRead] -= t.d_sram_r;
                st.acc[kAccSramWrite] -= t.d_sram_w;
                st.acc[kAccFramRead] -= t.d_fram_r;
                st.acc[kAccFramWrite] -= t.d_fram_w;
                st.acc[kAccHits] -= t.d_hits;
                st.acc[kAccMisses] -= t.d_misses;
                st.acc[kAccPreInval] -= t.d_pre;
            }
            st.acc[kAccOwner0 + b.owner] -= n - executed;
            st.total -= n - executed;
        }
        if (st.bail_kind == 1)
            ++stats_.threaded_bail_operand;
        else
            ++stats_.threaded_bail_smc;
        if (!executed)
            --st.dispatches; // no progress: not a dispatch
        if (executed < n)
            break; // bailed mid-block: the oracle decides what's next
        // Committed own-block SMC on the block's last instruction:
        // the block completed, so the chain may continue (the next
        // lookup sees the bumped generations and rebuilds).
        op0 = static_cast<TOp *>(advanceChain(&st));
    }

    // Per-chain accounting: every lowered block that ran adds its
    // static totals once per entry.
    for (Block *b : chain_blocks_) {
        const std::uint64_t runs = b->runs;
        for (int i = kAccStall + 1; i < kNumAcc; ++i)
            st.acc[i] += runs * b->tot[i];
        st.total += runs * b->n;
        st.dispatches += runs;
        b->runs = 0;
    }
    chain_blocks_.clear();
    retired_.clear();

    const std::uint64_t total = st.total;
    stats_.threaded_dispatches += st.dispatches;
    if (total) {
        stats_.instructions += total;
        stats_.base_cycles += st.acc[kAccBase];
        stats_.stall_cycles += st.acc[kAccStall];
        stats_.sram.fetch += st.acc[kAccSramFetch];
        stats_.sram.read += st.acc[kAccSramRead];
        stats_.sram.write += st.acc[kAccSramWrite];
        stats_.fram.fetch += st.acc[kAccFramFetch];
        stats_.fram.read += st.acc[kAccFramRead];
        stats_.fram.write += st.acc[kAccFramWrite];
        stats_.fram_cache_hits += st.acc[kAccHits];
        stats_.fram_cache_misses += st.acc[kAccMisses];
        stats_.code_space_accesses += st.acc[kAccCode];
        stats_.data_space_accesses += st.acc[kAccData];
        stats_.predecode_invalidations += st.acc[kAccPreInval];
        for (int i = 0; i < kNumOwners; ++i)
            stats_.instr_by_owner[i] += st.acc[kAccOwner0 + i];
        stats_.threaded_instructions += total;
    }
    return {total, st.acc[kAccBase] + st.acc[kAccStall],
            st.bail_kind == 1};
}

} // namespace swapram::sim

#else // !SWAPRAM_THREADED_AVAILABLE

namespace swapram::sim {

/** Never built without computed goto; complete for the table's
 *  destructor. */
struct ThreadedEngine::Block {
};

ThreadedEngine::ThreadedEngine(
    Cpu &cpu, Memory &memory, Bus &bus, Stats &stats,
    const MachineConfig &config, PredecodeCache *predecode,
    std::function<std::uint8_t(std::uint16_t)> classify)
    : cpu_(cpu), memory_(memory), bus_(bus), stats_(stats),
      config_(config), predecode_(predecode),
      classify_(std::move(classify))
{
}

ThreadedEngine::~ThreadedEngine() = default;

ThreadedEngine::ChainResult
ThreadedEngine::runChain(const ChainLimits &)
{
    return {};
}

void *
ThreadedEngine::advanceChain(void *)
{
    return nullptr;
}

} // namespace swapram::sim

#endif // SWAPRAM_THREADED_AVAILABLE
