#include "sim/superblock.hh"

#include <algorithm>

#include "isa/cycles.hh"
#include "isa/decode.hh"
#include "sim/exec.hh"
#include "support/logging.hh"
#include "support/platform.hh"
#include "support/strings.hh"

namespace swapram::sim {

using isa::Mode;
using isa::Op;
using isa::Operand;

namespace {

/** Block-table geometry: one slot per word-aligned PC. */
constexpr std::uint32_t kSlots = 32768;

/** Shorthand for the shared mapped-space predicate. */
inline bool
addrMapped(std::uint16_t addr, std::uint32_t sram_size)
{
    return SuperblockEngine::addrMapped(addr, sram_size);
}

/** Build-time classification of one decoded instruction. */
struct Analysis {
    bool include = true;     ///< false: stop the block before it
    bool terminator = false; ///< include it, then stop
    std::uint8_t flags = 0;
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
            return addrMapped(op.value, sram_size);
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
        if (is_dyn(in.src) || is_dyn(in.dst))
            a.flags |= SuperblockEngine::kFlagDynMem;
        if (in.dst.mode == Mode::Register) {
            if (in.dst.reg == isa::Reg::PC)
                a.terminator = true;
            if (in.dst.reg == isa::Reg::SR)
                a.flags |= SuperblockEngine::kFlagWritesSr;
        }
        a.max_data = (is_mem(in.src) ? 1u : 0u) +
                     (is_mem(in.dst) ? 2u : 0u);
        return a;
      }
      case isa::OpFormat::SingleOperand: {
        if (in.op == Op::Reti) {
            // Pops SR (may set GIE) and PC off a dynamic SP.
            a.terminator = true;
            a.flags = SuperblockEngine::kFlagDynMem |
                      SuperblockEngine::kFlagWritesSr;
            a.max_data = 2;
            return a;
        }
        if (!static_ok(in.dst)) {
            a.include = false;
            return a;
        }
        if (is_dyn(in.dst))
            a.flags |= SuperblockEngine::kFlagDynMem;
        if (in.op == Op::Push || in.op == Op::Call)
            a.flags |= SuperblockEngine::kFlagDynMem; // stack write
        if (in.op == Op::Call)
            a.terminator = true;
        if (in.dst.mode == Mode::Register && in.op != Op::Push &&
            in.op != Op::Call) {
            if (in.dst.reg == isa::Reg::PC)
                a.terminator = true; // e.g. RRA PC
            if (in.dst.reg == isa::Reg::SR)
                a.flags |= SuperblockEngine::kFlagWritesSr;
        }
        a.max_data = 2;
        return a;
      }
    }
    return a;
}

} // namespace

/** MachineConfig's sram_size shapes the mapped window
 *  (capacity-pressure runs shrink or grow the SRAM). */
bool
SuperblockEngine::addrMapped(std::uint16_t addr,
                             std::uint32_t sram_size)
{
    return addr >= platform::kFramBase ||
           static_cast<std::uint16_t>(addr - platform::kSramBase) <
               sram_size;
}

/** MMIO device effects and unmapped fatals must happen exactly as a
 *  single step would produce them, so any register-dependent address
 *  that leaves SRAM/FRAM sends the whole instruction to the oracle. */
bool
SuperblockEngine::dynOperandsMapped(
    const isa::Instr &in, const std::array<std::uint16_t, 16> &regs,
    std::uint32_t sram_size)
{
    auto addrMapped = [sram_size](std::uint16_t addr) {
        return SuperblockEngine::addrMapped(addr, sram_size);
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
            if (!addrMapped(static_cast<std::uint16_t>(
                    regs[isa::regIndex(s.reg)] + s.value)))
                return false;
            break;
          case Mode::Indirect:
            if (!addrMapped(regs[isa::regIndex(s.reg)]))
                return false;
            break;
          case Mode::IndirectInc:
            if (!addrMapped(regs[isa::regIndex(s.reg)]))
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
            if (!addrMapped(static_cast<std::uint16_t>(base + d.value)))
                return false;
        }
        return true;
      }
      case isa::OpFormat::SingleOperand: {
        if (in.op == Op::Reti) {
            return addrMapped(regs[1]) &&
                   addrMapped(static_cast<std::uint16_t>(regs[1] + 2));
        }
        std::uint16_t sp = regs[1];
        const Operand &d = in.dst;
        switch (d.mode) {
          case Mode::Indexed:
            if (!addrMapped(static_cast<std::uint16_t>(
                    regs[isa::regIndex(d.reg)] + d.value)))
                return false;
            break;
          case Mode::Indirect:
            if (!addrMapped(regs[isa::regIndex(d.reg)]))
                return false;
            break;
          case Mode::IndirectInc:
            if (!addrMapped(regs[isa::regIndex(d.reg)]))
                return false;
            if (isa::regIndex(d.reg) == 1)
                sp = static_cast<std::uint16_t>(sp + (in.byte ? 1 : 2));
            break;
          default:
            break;
        }
        if (in.op == Op::Push || in.op == Op::Call) {
            if (!addrMapped(static_cast<std::uint16_t>(sp - 2)))
                return false;
        }
        return true;
      }
    }
    return true;
}

namespace {

/** Block-local counter accumulator, flushed to Stats once per block. */
struct Acc {
    std::uint64_t base = 0, stall = 0;
    std::uint64_t sram_fetch = 0, sram_read = 0, sram_write = 0;
    std::uint64_t fram_fetch = 0, fram_read = 0, fram_write = 0;
    std::uint64_t hits = 0, misses = 0;
    std::uint64_t code = 0, data = 0;
    std::uint64_t pre_inval = 0;
    std::array<std::uint64_t, kNumOwners> owner{};
};

/**
 * Direct-memory access policy for ExecCore: data reads/writes go
 * straight to the flat byte array while reproducing every piece of the
 * bus's accounting — region counters, code/data classification, FRAM
 * hardware-cache lookups, wait-state and line-contention stalls — plus
 * the write-invalidation duties (predecode 3-slot drop, page-gen bump,
 * and detection of stores into the executing block itself). Addresses
 * reaching here are pre-checked to lie in SRAM/FRAM; only alignment
 * can still fatal, with the exact message the bus would produce.
 */
class FastMem
{
  public:
    FastMem(std::uint8_t *bytes, HwCache &hw, Acc &acc,
            const MachineConfig &config, std::uint16_t code_base,
            std::uint32_t code_end, PredecodeCache *predecode,
            PageGenTable &gens)
        : bytes_(bytes), hw_(hw), acc_(acc),
          ws_(config.effectiveWaitStates()),
          contention_stall_(config.contention_stall),
          hw_enabled_(config.hw_cache_enabled), code_base_(code_base),
          code_end_(code_end), predecode_(predecode), gens_(gens)
    {
    }

    /** Switch to the next block in a chain: set the self-modification
     *  detection window and clear the flag. */
    void
    setBlock(std::uint16_t start, std::uint32_t end)
    {
        blk_start_ = start;
        blk_end_ = end;
        smc_ = false;
    }

    /** Seed the per-instruction FRAM contention chain with the fetch
     *  stream the block replay just accounted. */
    void
    beginInstr(std::uint32_t fram_fetches, std::uint32_t last_fetch_line)
    {
        fram_count_ = fram_fetches;
        last_line_ = last_fetch_line;
    }

    bool smc() const { return smc_; }

    std::uint16_t
    read16(std::uint16_t addr, AccessKind)
    {
        if (addr & 1)
            support::fatal("unaligned word read at ",
                           support::hex16(addr));
        accountRead(addr, &Acc::sram_read, &Acc::fram_read);
        return static_cast<std::uint16_t>(
            bytes_[addr] |
            (bytes_[static_cast<std::uint16_t>(addr + 1)] << 8));
    }

    std::uint8_t
    read8(std::uint16_t addr, AccessKind)
    {
        accountRead(addr, &Acc::sram_read, &Acc::fram_read);
        return bytes_[addr];
    }

    void
    write16(std::uint16_t addr, std::uint16_t value)
    {
        if (addr & 1)
            support::fatal("unaligned word write at ",
                           support::hex16(addr));
        accountWrite(addr);
        bytes_[addr] = static_cast<std::uint8_t>(value & 0xFF);
        bytes_[static_cast<std::uint16_t>(addr + 1)] =
            static_cast<std::uint8_t>(value >> 8);
        noteStore(addr, 2);
    }

    void
    write8(std::uint16_t addr, std::uint8_t value)
    {
        accountWrite(addr);
        bytes_[addr] = value;
        noteStore(addr, 1);
    }

  private:
    void
    classify(std::uint16_t addr)
    {
        if (addr >= code_base_ &&
            static_cast<std::uint32_t>(addr) < code_end_)
            ++acc_.code;
        else
            ++acc_.data;
    }

    /** The bus's FRAM timing model for one data access. */
    void
    framStall(std::uint16_t addr, bool is_write)
    {
        std::uint32_t line = addr >> 3;
        bool contends = fram_count_ > 0 && line != last_line_;
        last_line_ = line;
        ++fram_count_;
        std::uint32_t contention = contends ? contention_stall_ : 0;
        std::uint32_t stall;
        if (is_write) {
            stall = std::max(ws_, contention);
        } else if (hw_enabled_) {
            if (hw_.access(addr)) {
                ++acc_.hits;
                stall = contention;
            } else {
                ++acc_.misses;
                stall = std::max(ws_, contention);
            }
        } else {
            ++acc_.misses;
            stall = std::max(ws_, contention);
        }
        acc_.stall += stall;
    }

    void
    accountRead(std::uint16_t addr, std::uint64_t Acc::*sram_counter,
                std::uint64_t Acc::*fram_counter)
    {
        classify(addr);
        if (addr >= platform::kFramBase) {
            ++(acc_.*fram_counter);
            framStall(addr, false);
        } else {
            ++(acc_.*sram_counter);
        }
    }

    void
    accountWrite(std::uint16_t addr)
    {
        classify(addr);
        if (addr >= platform::kFramBase) {
            ++acc_.fram_write;
            framStall(addr, true);
        } else {
            ++acc_.sram_write;
        }
    }

    void
    noteStore(std::uint16_t addr, unsigned bytes)
    {
        if (predecode_) {
            predecode_->invalidateWrite(addr);
            ++acc_.pre_inval;
        }
        gens_.noteWrite(addr, bytes);
        // Store into the executing block's own code: finish this
        // instruction, then stop (the generations just moved, so the
        // block rebuilds before its next dispatch).
        std::uint32_t lo = addr;
        if (lo < blk_end_ && lo + bytes > blk_start_)
            smc_ = true;
    }

    std::uint8_t *bytes_;
    HwCache &hw_;
    Acc &acc_;
    const std::uint32_t ws_;
    const std::uint32_t contention_stall_;
    const bool hw_enabled_;
    const std::uint16_t code_base_;
    const std::uint32_t code_end_;
    PredecodeCache *predecode_;
    PageGenTable &gens_;
    std::uint16_t blk_start_ = 0;
    std::uint32_t blk_end_ = 0;

    std::uint32_t fram_count_ = 0;
    std::uint32_t last_line_ = 0;
    bool smc_ = false;
};

} // namespace

SuperblockEngine::SuperblockEngine(Cpu &cpu, Memory &memory, Bus &bus,
                                   Stats &stats,
                                   const MachineConfig &config)
    : cpu_(cpu), memory_(memory), bus_(bus), stats_(stats),
      config_(config), blocks_(kSlots)
{
}

std::unique_ptr<SuperblockEngine::Block>
SuperblockEngine::build(std::uint16_t pc)
{
    auto b = std::make_unique<Block>();
    b->start_pc = pc;
    b->end_addr = pc;
    b->fetch_region = regionOf(pc, config_.sramEnd());

    const std::uint32_t ws = config_.effectiveWaitStates();
    const std::uint32_t stall_max =
        std::max(ws, config_.contention_stall);
    const std::uint16_t code_base = bus_.codeBase();
    const std::uint32_t code_end = bus_.codeEnd();
    const bool fram_code = b->fetch_region == RegionKind::Fram;
    std::uint32_t worst = 0;

    if (b->fetch_region == RegionKind::Sram ||
        b->fetch_region == RegionKind::Fram) {
        const bool block_in_recovery =
            recovery_end_ && pc >= recovery_base_ &&
            static_cast<std::uint32_t>(pc) < recovery_end_;
        b->owner = classify_ ? classify_(pc) : 0;
        std::uint32_t cur = pc;
        while (b->instrs.size() < kMaxBlockInstrs &&
               cur - pc < kMaxBlockBytes) {
            bool in_recovery =
                recovery_end_ && cur >= recovery_base_ &&
                cur < recovery_end_;
            if (in_recovery != block_in_recovery)
                break; // recovery attribution boundary
            const auto cur16 = static_cast<std::uint16_t>(cur);
            if (cur != pc && (cur16 == probe_a_ || cur16 == probe_b_))
                break; // checkpoint probe: only ever a block start
            if (classify_ && classify_(cur16) != b->owner)
                break; // code-owner boundary
            std::uint16_t w0 =
                memory_.read16(static_cast<std::uint16_t>(cur));
            if (!isa::validLeadingWord(w0))
                break; // garbage: only the oracle may diagnose it
            isa::Shape shape = isa::decodeShape(w0);
            int n_words = 1 + shape.totalExt();
            std::uint32_t end = cur + 2 * static_cast<std::uint32_t>(
                                          n_words);
            if (end > 0x10000)
                break; // instruction would wrap the address space
            bool crosses = false;
            for (int w = 0; w < n_words; ++w) {
                if (regionOf(static_cast<std::uint16_t>(cur + 2 * w),
                             config_.sramEnd()) != b->fetch_region)
                    crosses = true;
            }
            if (crosses)
                break; // region-crossing fetch
            std::uint16_t ext_src =
                shape.src_ext
                    ? memory_.read16(static_cast<std::uint16_t>(cur + 2))
                    : 0;
            std::uint16_t ext_dst =
                shape.dst_ext
                    ? memory_.read16(static_cast<std::uint16_t>(
                          cur + 2 + (shape.src_ext ? 2 : 0)))
                    : 0;
            isa::Instr instr = isa::decodeWords(
                w0, ext_src, ext_dst, static_cast<std::uint16_t>(cur));
            Analysis a = analyze(instr, config_.sram_size);
            if (!a.include)
                break; // statically MMIO/unmapped operand

            BlockInstr bi;
            bi.instr = instr;
            bi.pc = static_cast<std::uint16_t>(cur);
            bi.next_pc = static_cast<std::uint16_t>(end);
            bi.n_words = static_cast<std::uint8_t>(n_words);
            bi.base_cycles =
                static_cast<std::uint8_t>(isa::baseCycles(instr));
            bi.flags = a.flags;
            std::uint32_t prev_line = 0;
            for (int w = 0; w < n_words; ++w) {
                std::uint16_t waddr =
                    static_cast<std::uint16_t>(cur + 2 * w);
                if (waddr >= code_base &&
                    static_cast<std::uint32_t>(waddr) < code_end)
                    ++bi.code_words;
                if (fram_code) {
                    std::uint32_t line = waddr >> 3;
                    bi.fetch_contends[w] =
                        (w > 0 && line != prev_line) ? 1 : 0;
                    prev_line = line;
                    bi.last_fetch_line = line;
                }
            }
            if (a.flags & kFlagWritesSr)
                b->writes_sr = true;
            worst += bi.base_cycles +
                     stall_max * ((fram_code ? n_words : 0) + a.max_data);
            b->instrs.push_back(bi);
            b->end_addr = end;
            if (a.terminator || end >= 0x10000)
                break;
            cur = end;
        }
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
SuperblockEngine::valid(Block &b)
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

SuperblockEngine::Block *
SuperblockEngine::lookup(std::uint16_t pc)
{
    if (pc & 1)
        return nullptr; // the oracle owns the odd-PC fatal
    std::unique_ptr<Block> &slot = blocks_[pc >> 1];
    if (slot) {
        if (valid(*slot))
            return slot->instrs.empty() ? nullptr : slot.get();
        ++stats_.superblock_invalidations;
        ++replacements_;
    }
    slot = build(pc);
    if (slot->instrs.empty())
        return nullptr;
    ++stats_.superblock_blocks_built;
    return slot.get();
}

SuperblockEngine::ChainResult
SuperblockEngine::runChain(const ChainLimits &limits)
{
    Acc acc;
    FastMem mem(memory_.bytes(), bus_.hwCache(), acc, config_,
                bus_.codeBase(), bus_.codeEnd(), predecode_, gens_);
    ExecCore<FastMem> core(cpu_.regs(), mem);
    std::array<std::uint16_t, 16> &regs = cpu_.regs();
    HwCache &hw = bus_.hwCache();
    const bool hw_on = config_.hw_cache_enabled;
    const std::uint32_t ws = config_.effectiveWaitStates();
    const std::uint32_t cstall = config_.contention_stall;

    std::uint64_t total = 0;
    bool first = true;
    bool chain_in_recovery = false;
    std::uint8_t chain_owner = 0;

    for (;;) {
        const std::uint16_t pc = regs[0];
        const Block *block = lookup(pc);
        if (!block)
            break;

        // The run loop re-checks its boundaries (max_cycles, fault
        // injection, timer delivery) every single step; a block may
        // only run if its worst-case cycle cost provably keeps every
        // intermediate step short of them. Unflushed chain cycles are
        // in the accumulator.
        const std::uint64_t now = limits.now + acc.base + acc.stall;
        const std::uint64_t bound = block->worst_case_cycles;
        if (now + bound >= limits.limit_cycles) {
            ++stats_.superblock_bail_boundary;
            break;
        }
        if (limits.timer_period) {
            bool gie = cpu_.interruptsEnabled();
            bool pending =
                limits.timer_pending || now >= limits.timer_fire;
            if (gie) {
                if (pending)
                    break; // interrupt entry happens this step
                if (now + bound >= limits.timer_fire) {
                    ++stats_.superblock_bail_boundary;
                    break;
                }
            } else if (block->writes_sr &&
                       (pending || now + bound >= limits.timer_fire)) {
                // GIE is clear, but the block could set it while the
                // timer is (or becomes) due: let the oracle sequence
                // it. (The fire cycle is fixed until delivery and time
                // is monotone, so pending-ness at the next oracle
                // check recomputes to exactly the sticky flag the
                // per-step path would have kept.)
                ++stats_.superblock_bail_boundary;
                break;
            }
        }
        // Chains never cross the recovery attribution boundary (the
        // caller books the whole chain's cycles to the entry side).
        if (recovery_end_) {
            bool in = pc >= recovery_base_ &&
                      static_cast<std::uint32_t>(pc) < recovery_end_;
            if (first)
                chain_in_recovery = in;
            else if (in != chain_in_recovery)
                break;
        }
        // Observed chains stop where the Machine owes an event.
        if (limits.observed) {
            if (first)
                chain_owner = block->owner;
            else if (block->owner != chain_owner ||
                     pc == limits.probe_a || pc == limits.probe_b)
                break;
        }
        first = false;

        mem.setBlock(block->start_pc, block->end_addr);
        const bool fram_code =
            block->fetch_region == RegionKind::Fram;
        std::uint32_t executed = 0;
        for (const BlockInstr &bi : block->instrs) {
            if ((bi.flags & kFlagDynMem) &&
                !dynOperandsMapped(bi.instr, regs,
                                   config_.sram_size)) {
                // Nothing committed: the oracle single-steps this one.
                ++stats_.superblock_bail_operand;
                break;
            }
            // Replay the fetch stream's accounting (addresses are
            // static; the hardware-cache state transitions are not,
            // so run them).
            if (fram_code) {
                acc.fram_fetch += bi.n_words;
                std::uint16_t a = bi.pc;
                for (int w = 0; w < bi.n_words; ++w,
                         a = static_cast<std::uint16_t>(a + 2)) {
                    std::uint32_t contention =
                        bi.fetch_contends[w] ? cstall : 0;
                    std::uint32_t stall;
                    if (hw_on) {
                        if (hw.access(a)) {
                            ++acc.hits;
                            stall = contention;
                        } else {
                            ++acc.misses;
                            stall = std::max(ws, contention);
                        }
                    } else {
                        ++acc.misses;
                        stall = std::max(ws, contention);
                    }
                    acc.stall += stall;
                }
                mem.beginInstr(bi.n_words, bi.last_fetch_line);
            } else {
                acc.sram_fetch += bi.n_words;
                mem.beginInstr(0, 0);
            }
            acc.code += bi.code_words;
            acc.data += static_cast<std::uint32_t>(bi.n_words) -
                        bi.code_words;
            regs[0] = bi.next_pc;
            core.execute(bi.instr);
            acc.base += bi.base_cycles;
            ++executed;
            if (mem.smc()) {
                // The store already bumped the generations, so the
                // rest of this block's decodes are suspect — but the
                // committed instruction stands, and the next lookup
                // revalidates, so the chain itself may continue.
                ++stats_.superblock_bail_smc;
                break;
            }
        }
        if (executed) {
            ++stats_.superblock_dispatches;
            total += executed;
            acc.owner[block->owner] += executed;
        }
        if (executed < block->instrs.size())
            break; // bailed mid-block: the oracle decides what's next
    }

    if (total) {
        stats_.instructions += total;
        stats_.base_cycles += acc.base;
        stats_.stall_cycles += acc.stall;
        stats_.sram.fetch += acc.sram_fetch;
        stats_.sram.read += acc.sram_read;
        stats_.sram.write += acc.sram_write;
        stats_.fram.fetch += acc.fram_fetch;
        stats_.fram.read += acc.fram_read;
        stats_.fram.write += acc.fram_write;
        stats_.fram_cache_hits += acc.hits;
        stats_.fram_cache_misses += acc.misses;
        stats_.code_space_accesses += acc.code;
        stats_.data_space_accesses += acc.data;
        stats_.predecode_invalidations += acc.pre_inval;
        for (int i = 0; i < kNumOwners; ++i)
            stats_.instr_by_owner[i] += acc.owner[i];
        stats_.superblock_instructions += total;
    }
    return {total, acc.base + acc.stall};
}

} // namespace swapram::sim
