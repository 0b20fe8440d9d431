/**
 * @file
 * The MSP430 execution core, templated on the memory interface.
 *
 * Every operand-resolution, ALU, and flag rule lives here exactly once.
 * Two instantiations exist:
 *   - ExecCore<Bus>: the single-step oracle (sim/cpu.cc), where each
 *     access pays full bus dispatch (region routing, MMIO devices,
 *     stall accounting, trace emission);
 *   - ExecCore<ShimMem> (sim/threaded.cc): the threaded tier's generic
 *     kernel, for instructions with no specialized kernel; accesses are
 *     pre-checked to hit plain SRAM/FRAM and go straight to the flat
 *     memory array with inlined accounting.
 * Because both paths run the same template, semantic equivalence is by
 * construction — the differential suites then pin the accounting.
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

namespace swapram::sim {

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
            executeJump(instr);
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

    bool flag(std::uint16_t bit) const { return (regs_[2] & bit) != 0; }

    void
    setFlags(bool n, bool z, bool c, bool v)
    {
        namespace sr = isa::sr;
        std::uint16_t s = regs_[2];
        s &= static_cast<std::uint16_t>(
            ~(sr::kN | sr::kZ | sr::kC | sr::kV));
        if (n)
            s |= sr::kN;
        if (z)
            s |= sr::kZ;
        if (c)
            s |= sr::kC;
        if (v)
            s |= sr::kV;
        regs_[2] = s;
    }

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
        using isa::Op;
        namespace sr = isa::sr;
        const bool byte = instr.byte;
        const std::uint32_t mask = byte ? 0xFFu : 0xFFFFu;
        const std::uint32_t msb = byte ? 0x80u : 0x8000u;

        Loc src_loc = resolve(instr.src, byte);
        std::uint32_t src = loadLoc(src_loc, byte);
        Loc dst_loc = resolve(instr.dst, byte);
        const bool needs_dst_read = instr.op != Op::Mov;
        std::uint32_t dst = needs_dst_read ? loadLoc(dst_loc, byte) : 0;

        auto add_common = [&](std::uint32_t a, std::uint32_t b,
                              std::uint32_t cin, bool writeback) {
            std::uint32_t sum = a + b + cin;
            std::uint32_t r = sum & mask;
            bool c = sum > mask;
            bool z = r == 0;
            bool n = (r & msb) != 0;
            bool v = ((~(a ^ b)) & (a ^ r) & msb) != 0;
            if (writeback)
                storeLoc(dst_loc, byte, static_cast<std::uint16_t>(r));
            setFlags(n, z, c, v);
        };

        switch (instr.op) {
          case Op::Mov:
            storeLoc(dst_loc, byte, static_cast<std::uint16_t>(src));
            return;
          case Op::Add:
            add_common(src, dst, 0, true);
            return;
          case Op::Addc:
            add_common(src, dst, flag(sr::kC) ? 1 : 0, true);
            return;
          case Op::Sub:
            add_common((~src) & mask, dst, 1, true);
            return;
          case Op::Subc:
            add_common((~src) & mask, dst, flag(sr::kC) ? 1 : 0, true);
            return;
          case Op::Cmp:
            add_common((~src) & mask, dst, 1, false);
            return;
          case Op::Dadd: {
            // Nibble-serial BCD addition with carry in.
            std::uint32_t carry = flag(sr::kC) ? 1 : 0;
            std::uint32_t r = 0;
            int nibbles = byte ? 2 : 4;
            for (int i = 0; i < nibbles; ++i) {
                std::uint32_t a = (src >> (4 * i)) & 0xF;
                std::uint32_t b = (dst >> (4 * i)) & 0xF;
                std::uint32_t d = a + b + carry;
                carry = d >= 10 ? 1 : 0;
                if (carry)
                    d -= 10;
                r |= (d & 0xF) << (4 * i);
            }
            storeLoc(dst_loc, byte, static_cast<std::uint16_t>(r));
            setFlags((r & msb) != 0, r == 0, carry != 0, false);
            return;
          }
          case Op::Bit: {
            std::uint32_t r = src & dst;
            setFlags((r & msb) != 0, r == 0, r != 0, false);
            return;
          }
          case Op::And: {
            std::uint32_t r = src & dst;
            storeLoc(dst_loc, byte, static_cast<std::uint16_t>(r));
            setFlags((r & msb) != 0, r == 0, r != 0, false);
            return;
          }
          case Op::Bic:
            storeLoc(dst_loc, byte,
                     static_cast<std::uint16_t>(dst & ~src & mask));
            return;
          case Op::Bis:
            storeLoc(dst_loc, byte,
                     static_cast<std::uint16_t>(dst | src));
            return;
          case Op::Xor: {
            std::uint32_t r = (dst ^ src) & mask;
            bool v = ((src & msb) != 0) && ((dst & msb) != 0);
            storeLoc(dst_loc, byte, static_cast<std::uint16_t>(r));
            setFlags((r & msb) != 0, r == 0, r != 0, v);
            return;
          }
          default:
            support::panic("executeFormatI: bad op");
        }
    }

    void
    executeFormatII(const isa::Instr &instr)
    {
        using isa::Op;
        namespace sr = isa::sr;
        const bool byte = instr.byte;
        const std::uint32_t mask = byte ? 0xFFu : 0xFFFFu;
        const std::uint32_t msb = byte ? 0x80u : 0x8000u;

        if (instr.op == Op::Reti) {
            regs_[2] = pop16();
            regs_[0] = pop16();
            return;
        }

        Loc loc = resolve(instr.dst, byte);

        switch (instr.op) {
          case Op::Rrc: {
            std::uint32_t v = loadLoc(loc, byte);
            std::uint32_t r =
                ((v >> 1) | (flag(sr::kC) ? msb : 0)) & mask;
            storeLoc(loc, byte, static_cast<std::uint16_t>(r));
            setFlags((r & msb) != 0, r == 0, (v & 1) != 0, false);
            return;
          }
          case Op::Rra: {
            std::uint32_t v = loadLoc(loc, byte);
            std::uint32_t r = ((v >> 1) | (v & msb)) & mask;
            storeLoc(loc, byte, static_cast<std::uint16_t>(r));
            setFlags((r & msb) != 0, r == 0, (v & 1) != 0, false);
            return;
          }
          case Op::Swpb: {
            std::uint16_t v = loadLoc(loc, false);
            std::uint16_t r =
                static_cast<std::uint16_t>((v >> 8) | (v << 8));
            storeLoc(loc, false, r);
            return;
          }
          case Op::Sxt: {
            std::uint16_t v = loadLoc(loc, false);
            std::uint16_t r = static_cast<std::uint16_t>(
                static_cast<std::int16_t>(
                    static_cast<std::int8_t>(v & 0xFF)));
            storeLoc(loc, false, r);
            setFlags((r & 0x8000) != 0, r == 0, r != 0, false);
            return;
          }
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

    void
    executeJump(const isa::Instr &instr)
    {
        using isa::Op;
        namespace sr = isa::sr;
        bool taken = false;
        switch (instr.op) {
          case Op::Jne: taken = !flag(sr::kZ); break;
          case Op::Jeq: taken = flag(sr::kZ); break;
          case Op::Jnc: taken = !flag(sr::kC); break;
          case Op::Jc: taken = flag(sr::kC); break;
          case Op::Jn: taken = flag(sr::kN); break;
          case Op::Jge: taken = flag(sr::kN) == flag(sr::kV); break;
          case Op::Jl: taken = flag(sr::kN) != flag(sr::kV); break;
          case Op::Jmp: taken = true; break;
          default:
            support::panic("executeJump: bad op");
        }
        if (taken)
            regs_[0] = instr.jump_target;
    }

    std::array<std::uint16_t, 16> &regs_;
    MemT &mem_;
};

} // namespace swapram::sim

#endif // SWAPRAM_SIM_EXEC_HH
