/**
 * @file
 * The MSP430 instruction semantics: the ALU, flag, shift and branch
 * rules, and the execution core that applies them through a memory
 * interface.
 *
 * Every operand-resolution, ALU, and flag rule lives here exactly once.
 * The rules are inline functions templated on isa::Op:
 *   - fmt1Alu<OP> is the Format I ALU (result plus NZCV); fmt1Writes and
 *     fmt1Flags say whether an op stores its result and sets flags;
 *   - fmt2Alu<OP> covers RRC, RRA, SWPB and SXT (fmt2Flags,
 *     fmt2WordOnly);
 *   - setFlags is the one flag setter on the register file;
 *   - branchRule gives each jump op its SR test, and branchTaken
 *     applies it.
 * Callers apply a rule in one order: load, compute, store the result,
 * then set the flags, so a flag-setting op with SR as its destination
 * leaves the new flags over the stored value.
 *
 * Two callers apply the rules:
 *   - ExecCore<MemT>, templated on the memory interface, resolves the
 *     operands and runs the rules. ExecCore<Bus> is the single-step
 *     oracle (sim/cpu.cc), where each access pays full bus dispatch
 *     (region routing, MMIO devices, stall accounting, trace emission).
 *     ExecCore<ShimMem> is the threaded tier's generic kernel, for
 *     instructions with no specialized kernel; accesses are pre-checked
 *     to hit plain SRAM/FRAM and go straight to the flat memory array
 *     with inlined accounting;
 *   - the threaded tier's specialized kernels (sim/threaded.cc) load
 *     their pre-resolved operands and call the same fmt1Alu, fmt2Alu,
 *     setFlags and branch rules.
 * Because every path runs the same rules, semantic equivalence is by
 * construction; the differential suites then pin operand resolution
 * and the accounting.
 *
 * The memory policy must provide:
 *   std::uint16_t read16(std::uint16_t addr, AccessKind kind);
 *   std::uint8_t  read8(std::uint16_t addr, AccessKind kind);
 *   void write16(std::uint16_t addr, std::uint16_t value);
 *   void write8(std::uint16_t addr, std::uint8_t value);
 */

#ifndef SWAPRAM_SIM_EXEC_HH
#define SWAPRAM_SIM_EXEC_HH

#include <array>
#include <cstdint>

#include "isa/instruction.hh"
#include "sim/bus.hh"
#include "support/logging.hh"

/** The rules in this file run inside the threaded tier's kernels, once per
 *  simulated instruction: force them inline there. */
#if defined(__GNUC__)
#define SWAPRAM_INLINE inline __attribute__((always_inline))
#else
#define SWAPRAM_INLINE inline
#endif

namespace swapram::sim {

/** The twelve Format I ops, in opcode order (Op::Mov + i). */
#define SWAPRAM_FMT1_OPS(X)                                              \
    X(Mov) X(Add) X(Addc) X(Subc) X(Sub) X(Cmp) X(Dadd) X(Bit) X(Bic)    \
    X(Bis) X(Xor) X(And)

/** One rule's result: the value to store (already masked to the
 *  operation width) and the N, Z, C, V flags it sets. */
struct AluR {
    std::uint32_t r;
    bool n, z, c, v;
};

/** Replace the N, Z, C and V bits of the status register regs[2] with
 *  @p f's; the other SR bits stay. */
SWAPRAM_INLINE void
setFlags(std::uint16_t *regs, const AluR &f)
{
    namespace sr = isa::sr;
    std::uint16_t s = regs[2];
    s &= static_cast<std::uint16_t>(~(sr::kN | sr::kZ | sr::kC | sr::kV));
    if (f.n)
        s |= sr::kN;
    if (f.z)
        s |= sr::kZ;
    if (f.c)
        s |= sr::kC;
    if (f.v)
        s |= sr::kV;
    regs[2] = s;
}

/** Format I ops that write the destination / that set flags. */
template <isa::Op OP>
constexpr bool
fmt1Writes()
{
    return OP != isa::Op::Cmp && OP != isa::Op::Bit;
}
template <isa::Op OP>
constexpr bool
fmt1Flags()
{
    return OP != isa::Op::Mov && OP != isa::Op::Bic && OP != isa::Op::Bis;
}

/**
 * The Format I ALU. @p src and @p dst are the loaded operands (already
 * masked to the operation width; @p dst is unused by MOV), @p sr_val the
 * status register before the instruction (ADDC, SUBC and DADD read its
 * carry), @p mask/@p msb 0xFF/0x80 for byte ops, 0xFFFF/0x8000 for
 * word ops. Flags the op does not set (fmt1Flags) are left false.
 */
template <isa::Op OP>
SWAPRAM_INLINE AluR
fmt1Alu(std::uint32_t src, std::uint32_t dst, std::uint16_t sr_val,
        std::uint32_t mask, std::uint32_t msb)
{
    using isa::Op;
    const std::uint32_t carry_in = (sr_val & isa::sr::kC) ? 1 : 0;
    AluR o{0, false, false, false, false};
    if constexpr (OP == Op::Mov) {
        o.r = src & mask;
    } else if constexpr (OP == Op::Add || OP == Op::Addc ||
                         OP == Op::Sub || OP == Op::Subc ||
                         OP == Op::Cmp) {
        // Subtraction is dst + ~src + 1 (SUBC: + C), as the hardware
        // does it, so C is "no borrow".
        const bool subtract = OP == Op::Sub || OP == Op::Subc ||
                              OP == Op::Cmp;
        const std::uint32_t a = subtract ? (~src) & mask : src;
        std::uint32_t cin = 1;
        if constexpr (OP == Op::Add)
            cin = 0;
        else if constexpr (OP == Op::Addc || OP == Op::Subc)
            cin = carry_in;
        std::uint32_t sum = a + dst + cin;
        o.r = sum & mask;
        o.c = sum > mask;
        o.v = ((~(a ^ dst)) & (a ^ o.r) & msb) != 0;
    } else if constexpr (OP == Op::Dadd) {
        // Nibble-serial BCD addition with carry in.
        std::uint32_t carry = carry_in;
        const int nibbles = mask == 0xFF ? 2 : 4;
        for (int i = 0; i < nibbles; ++i) {
            std::uint32_t a = (src >> (4 * i)) & 0xF;
            std::uint32_t b = (dst >> (4 * i)) & 0xF;
            std::uint32_t d = a + b + carry;
            carry = d >= 10 ? 1 : 0;
            if (carry)
                d -= 10;
            o.r |= (d & 0xF) << (4 * i);
        }
        o.c = carry != 0;
    } else if constexpr (OP == Op::Bit || OP == Op::And) {
        o.r = src & dst;
        o.c = o.r != 0;
    } else if constexpr (OP == Op::Bic) {
        o.r = dst & ~src & mask;
    } else if constexpr (OP == Op::Bis) {
        o.r = dst | src;
    } else {
        static_assert(OP == Op::Xor, "fmt1Alu: not a Format I op");
        o.r = (dst ^ src) & mask;
        o.c = o.r != 0;
        o.v = ((src & msb) != 0) && ((dst & msb) != 0);
    }
    if constexpr (fmt1Flags<OP>()) {
        o.n = (o.r & msb) != 0;
        o.z = o.r == 0;
    }
    return o;
}

/** SWPB and SXT always read and write the whole word, whatever the
 *  instruction's B/W bit says. */
template <isa::Op OP>
constexpr bool
fmt2WordOnly()
{
    return OP == isa::Op::Swpb || OP == isa::Op::Sxt;
}
/** Format II value rules that set flags (all but SWPB). */
template <isa::Op OP>
constexpr bool
fmt2Flags()
{
    return OP != isa::Op::Swpb;
}

/**
 * The Format II value rules: RRC and RRA (rotate right through carry /
 * arithmetic shift right, at the width @p mask/@p msb give), SWPB and
 * SXT (whole word, fmt2WordOnly). @p v is the loaded operand, @p sr_val
 * the status register before the instruction (RRC reads its carry).
 */
template <isa::Op OP>
SWAPRAM_INLINE AluR
fmt2Alu(std::uint32_t v, std::uint16_t sr_val, std::uint32_t mask,
        std::uint32_t msb)
{
    using isa::Op;
    AluR o{0, false, false, false, false};
    if constexpr (OP == Op::Rrc || OP == Op::Rra) {
        std::uint32_t top;
        if constexpr (OP == Op::Rrc)
            top = (sr_val & isa::sr::kC) ? msb : 0;
        else
            top = v & msb;
        o.r = ((v >> 1) | top) & mask;
        o.n = (o.r & msb) != 0;
        o.z = o.r == 0;
        o.c = (v & 1) != 0;
    } else if constexpr (OP == Op::Swpb) {
        o.r = ((v >> 8) | (v << 8)) & 0xFFFF;
    } else {
        static_assert(OP == Op::Sxt, "fmt2Alu: not a Format II value op");
        o.r = static_cast<std::uint16_t>(static_cast<std::int16_t>(
            static_cast<std::int8_t>(v & 0xFF)));
        o.n = (o.r & 0x8000) != 0;
        o.z = o.r == 0;
        o.c = o.r != 0;
    }
    return o;
}

/**
 * A jump's condition: taken when the tested bit equals @c when. The
 * tested bit is (SR & mask) != 0, or N xor V for the signed pair
 * (JGE, JL). JMP tests SR & 0 against false, so it is always taken.
 */
struct BranchRule {
    std::uint16_t mask;
    bool when;
    bool signed_nv;
};

/** The branch rule of jump op @p op. */
inline BranchRule
branchRule(isa::Op op)
{
    using isa::Op;
    namespace sr = isa::sr;
    switch (op) {
      case Op::Jne: return {sr::kZ, false, false};
      case Op::Jeq: return {sr::kZ, true, false};
      case Op::Jnc: return {sr::kC, false, false};
      case Op::Jc: return {sr::kC, true, false};
      case Op::Jn: return {sr::kN, true, false};
      case Op::Jge: return {0, false, true};
      case Op::Jl: return {0, true, true};
      case Op::Jmp: return {0, false, false};
      default:
        support::panic("branchRule: not a jump op");
    }
}

/** Whether a jump with @p rule is taken under status register
 *  @p sr_val. */
SWAPRAM_INLINE bool
branchTaken(const BranchRule &rule, std::uint16_t sr_val)
{
    namespace sr = isa::sr;
    const bool bit = rule.signed_nv ? ((sr_val & sr::kN) != 0) !=
                                          ((sr_val & sr::kV) != 0)
                                    : (sr_val & rule.mask) != 0;
    return bit == rule.when;
}

/** Register-file + memory instruction executor. Callers must have set
 *  PC past the full instruction (fetch semantics) before execute(). */
template <class MemT>
class ExecCore
{
  public:
    ExecCore(std::array<std::uint16_t, 16> &regs, MemT &mem)
        : regs_(regs), mem_(mem)
    {
    }

    void
    execute(const isa::Instr &instr)
    {
        switch (isa::opFormat(instr.op)) {
          case isa::OpFormat::DoubleOperand:
            executeFormatI(instr);
            return;
          case isa::OpFormat::SingleOperand:
            executeFormatII(instr);
            return;
          case isa::OpFormat::Jump:
            if (branchTaken(branchRule(instr.op), regs_[2]))
                regs_[0] = instr.jump_target;
            return;
        }
    }

    void
    push16(std::uint16_t value)
    {
        regs_[1] = static_cast<std::uint16_t>(regs_[1] - 2);
        mem_.write16(regs_[1], value);
    }

    std::uint16_t
    pop16()
    {
        std::uint16_t value = mem_.read16(regs_[1], AccessKind::Read);
        regs_[1] = static_cast<std::uint16_t>(regs_[1] + 2);
        return value;
    }

  private:
    /** Resolved operand location. */
    struct Loc {
        enum class Kind : std::uint8_t { Reg, Mem, Imm } kind;
        isa::Reg reg;
        std::uint16_t addr;
        std::uint16_t imm;
    };

    Loc
    resolve(const isa::Operand &op, bool byte)
    {
        using isa::Mode;
        using isa::Reg;
        switch (op.mode) {
          case Mode::Register:
            return {Loc::Kind::Reg, op.reg, 0, 0};
          case Mode::Immediate:
            return {Loc::Kind::Imm, Reg::PC, 0, op.value};
          case Mode::Indexed: {
            std::uint16_t addr = static_cast<std::uint16_t>(
                regs_[isa::regIndex(op.reg)] + op.value);
            return {Loc::Kind::Mem, op.reg, addr, 0};
          }
          case Mode::Symbolic:
          case Mode::Absolute:
            return {Loc::Kind::Mem, Reg::PC, op.value, 0};
          case Mode::Indirect:
            return {Loc::Kind::Mem, op.reg,
                    regs_[isa::regIndex(op.reg)], 0};
          case Mode::IndirectInc: {
            std::uint8_t idx = isa::regIndex(op.reg);
            std::uint16_t addr = regs_[idx];
            regs_[idx] = static_cast<std::uint16_t>(addr + (byte ? 1 : 2));
            return {Loc::Kind::Mem, op.reg, addr, 0};
          }
        }
        support::panic("ExecCore::resolve: bad mode");
    }

    std::uint16_t
    loadLoc(const Loc &loc, bool byte)
    {
        switch (loc.kind) {
          case Loc::Kind::Reg: {
            std::uint16_t v = regs_[isa::regIndex(loc.reg)];
            return byte ? static_cast<std::uint16_t>(v & 0xFF) : v;
          }
          case Loc::Kind::Imm:
            return byte ? static_cast<std::uint16_t>(loc.imm & 0xFF)
                        : loc.imm;
          case Loc::Kind::Mem:
            if (byte)
                return mem_.read8(loc.addr, AccessKind::Read);
            return mem_.read16(loc.addr, AccessKind::Read);
        }
        support::panic("ExecCore::loadLoc: bad kind");
    }

    void
    storeLoc(const Loc &loc, bool byte, std::uint16_t value)
    {
        using isa::Reg;
        switch (loc.kind) {
          case Loc::Kind::Reg: {
            if (loc.reg == Reg::CG2)
                return; // writes to the constant generator are discarded
            std::uint8_t idx = isa::regIndex(loc.reg);
            // Byte operations on a register clear the upper byte.
            regs_[idx] = byte ? static_cast<std::uint16_t>(value & 0xFF)
                              : value;
            return;
          }
          case Loc::Kind::Mem:
            if (byte)
                mem_.write8(loc.addr,
                            static_cast<std::uint8_t>(value & 0xFF));
            else
                mem_.write16(loc.addr, value);
            return;
          case Loc::Kind::Imm:
            support::panic("ExecCore::storeLoc: store to immediate");
        }
    }

    void
    executeFormatI(const isa::Instr &instr)
    {
        const bool byte = instr.byte;
        Loc src_loc = resolve(instr.src, byte);
        std::uint32_t src = loadLoc(src_loc, byte);
        Loc dst_loc = resolve(instr.dst, byte);
        // MOV never reads its destination: no access, no stall.
        std::uint32_t dst =
            instr.op != isa::Op::Mov ? loadLoc(dst_loc, byte) : 0;
        switch (instr.op) {
#define X(N)                                                             \
          case isa::Op::N:                                               \
            applyFormatI<isa::Op::N>(dst_loc, byte, src, dst);           \
            return;
            SWAPRAM_FMT1_OPS(X)
#undef X
          default:
            support::panic("executeFormatI: bad op");
        }
    }

    /** Run the ALU on the loaded operands, store, then set flags. */
    template <isa::Op OP>
    void
    applyFormatI(const Loc &dst_loc, bool byte, std::uint32_t src,
                 std::uint32_t dst)
    {
        AluR o = fmt1Alu<OP>(src, dst, regs_[2], byte ? 0xFFu : 0xFFFFu,
                             byte ? 0x80u : 0x8000u);
        if constexpr (fmt1Writes<OP>())
            storeLoc(dst_loc, byte, static_cast<std::uint16_t>(o.r));
        if constexpr (fmt1Flags<OP>())
            setFlags(regs_.data(), o);
    }

    /** Read-modify-write one resolved operand through fmt2Alu. */
    template <isa::Op OP>
    void
    applyFormatII(const Loc &loc, bool byte)
    {
        const bool b = byte && !fmt2WordOnly<OP>();
        AluR o = fmt2Alu<OP>(loadLoc(loc, b), regs_[2], b ? 0xFFu : 0xFFFFu,
                             b ? 0x80u : 0x8000u);
        storeLoc(loc, b, static_cast<std::uint16_t>(o.r));
        if constexpr (fmt2Flags<OP>())
            setFlags(regs_.data(), o);
    }

    void
    executeFormatII(const isa::Instr &instr)
    {
        using isa::Op;
        const bool byte = instr.byte;

        if (instr.op == Op::Reti) {
            regs_[2] = pop16();
            regs_[0] = pop16();
            return;
        }

        Loc loc = resolve(instr.dst, byte);

        switch (instr.op) {
          case Op::Rrc:
            applyFormatII<Op::Rrc>(loc, byte);
            return;
          case Op::Rra:
            applyFormatII<Op::Rra>(loc, byte);
            return;
          case Op::Swpb:
            applyFormatII<Op::Swpb>(loc, byte);
            return;
          case Op::Sxt:
            applyFormatII<Op::Sxt>(loc, byte);
            return;
          case Op::Push: {
            std::uint16_t v = loadLoc(loc, byte);
            regs_[1] = static_cast<std::uint16_t>(regs_[1] - 2);
            if (byte)
                mem_.write8(regs_[1], static_cast<std::uint8_t>(v));
            else
                mem_.write16(regs_[1], v);
            return;
          }
          case Op::Call: {
            std::uint16_t target = loadLoc(loc, false);
            push16(regs_[0]);
            regs_[0] = target;
            return;
          }
          default:
            support::panic("executeFormatII: bad op");
        }
    }

    std::array<std::uint16_t, 16> &regs_;
    MemT &mem_;
};

} // namespace swapram::sim

#endif // SWAPRAM_SIM_EXEC_HH
