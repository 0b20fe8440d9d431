#include "sim/machine.hh"

#include <algorithm>
#include <utility>

#include "support/logging.hh"
#include "trace/profile.hh"

namespace swapram::sim {

namespace {

/** Stats fields the profiler attributes per instruction. */
struct StatSnapshot {
    std::uint64_t base_cycles, stall_cycles;
    std::uint64_t fram_fetch, fram_read, fram_write;
    std::uint64_t sram_fetch, sram_read, sram_write;

    explicit StatSnapshot(const Stats &s)
        : base_cycles(s.base_cycles), stall_cycles(s.stall_cycles),
          fram_fetch(s.fram.fetch), fram_read(s.fram.read),
          fram_write(s.fram.write), sram_fetch(s.sram.fetch),
          sram_read(s.sram.read), sram_write(s.sram.write)
    {
    }

    trace::StepCosts
    deltaTo(const Stats &s) const
    {
        trace::StepCosts d;
        d.base_cycles = s.base_cycles - base_cycles;
        d.stall_cycles = s.stall_cycles - stall_cycles;
        d.fram_fetch = s.fram.fetch - fram_fetch;
        d.fram_read = s.fram.read - fram_read;
        d.fram_write = s.fram.write - fram_write;
        d.sram_fetch = s.sram.fetch - sram_fetch;
        d.sram_read = s.sram.read - sram_read;
        d.sram_write = s.sram.write - sram_write;
        return d;
    }
};

} // namespace

Machine::Machine(const MachineConfig &config)
    : config_(config), bus_(memory_, mmio_, stats_, config_), cpu_(bus_)
{
    bus_.setCycleProbe(&stats_.base_cycles);
    if (config_.predecode_enabled) {
        predecode_ = std::make_unique<PredecodeCache>();
        cpu_.setPredecode(predecode_.get());
        bus_.setPredecode(predecode_.get());
    }
    // The fast tier. Lowered ops carry per-access stall costs in 16-bit
    // fields, and the same bound keeps the u32 per-block totals and
    // worst-case cycle bounds (at most 32 instructions × 6 accesses ×
    // 0xFFFF) from overflowing, so a config whose stalls do not fit
    // runs every instruction on the oracle.
    const bool stalls_fit = config_.effectiveWaitStates() <= 0xFFFF &&
                            config_.contention_stall <= 0xFFFF;
    if (config_.superblock_enabled && config_.threaded_enabled &&
        stalls_fit && ThreadedEngine::available()) {
        threaded_ = std::make_unique<ThreadedEngine>(
            cpu_, memory_, bus_, stats_, config_, predecode_.get(),
            [this](std::uint16_t pc) {
                return static_cast<std::uint8_t>(classifyPc(pc));
            });
        bus_.setPageGens(&threaded_->pageGens());
    }
}

void
Machine::load(const masm::Image &image, std::uint16_t stack_top)
{
    memory_.loadImage(image);
    bus_.setCodeRange(image.text.base, image.text.end());
    cpu_.reset(image.entry, stack_top);
    image_ = image;
    stack_top_ = stack_top;
    // The loader writes memory directly (not through the bus), so any
    // previously cached decodes are stale.
    if (predecode_)
        predecode_->invalidateAll();
    if (threaded_)
        threaded_->invalidateAll();
}

void
Machine::powerCycle()
{
    std::uint16_t pc_at_failure = cpu_.pc();
    ++stats_.reboots;

    // SRAM decays; FRAM keeps every byte.
    for (std::uint32_t a = platform::kSramBase; a < config_.sramEnd();
         ++a)
        memory_.write8(static_cast<std::uint16_t>(a), 0);
    bus_.hwCache().reset();

    // The crt0 model: re-copy image chunks that live in SRAM (code or
    // data placed there) and the .data initialisers wherever they are;
    // re-zero .bss. .text and .const chunks in FRAM are NOT restored —
    // runtime metadata kept there persists exactly as the failure left
    // it, which is what boot recovery must repair.
    for (const masm::Chunk &chunk : image_.chunks) {
        bool in_sram = chunk.base >= platform::kSramBase &&
                       chunk.base < config_.sramEnd();
        bool is_data = image_.data.size &&
                       chunk.base >= image_.data.base &&
                       chunk.base < image_.data.end();
        if (!in_sram && !is_data)
            continue;
        for (std::size_t i = 0; i < chunk.bytes.size(); ++i) {
            memory_.write8(static_cast<std::uint16_t>(chunk.base + i),
                           chunk.bytes[i]);
        }
    }
    for (std::uint32_t a = image_.bss.base; a < image_.bss.end(); ++a)
        memory_.write8(static_cast<std::uint16_t>(a), 0);

    // Volatile device and CPU state. The SRAM decay and crt0 re-copy
    // above bypassed the bus, so every cached decode is suspect.
    if (predecode_)
        predecode_->invalidateAll();
    if (threaded_)
        threaded_->invalidateAll();
    mmio_.powerCycle();
    cpu_.reset(image_.entry, stack_top_);
    timer_pending_ = false;
    timer_next_fire_ = stats_.totalCycles();
    in_recovery_ = false;
    last_owner_ = 0xFF;

    if (trace_ && trace_->wants(trace::kCatPower)) {
        trace_->emit({stats_.totalCycles(), trace::EventKind::PowerFail,
                      0, pc_at_failure,
                      static_cast<std::uint16_t>(stats_.reboots), 0});
    }
}

void
Machine::addOwnerRange(std::uint16_t base, std::uint32_t end,
                       CodeOwner owner)
{
    owner_ranges_.push_back({base, end, owner});
    // Blocks pre-attribute instr_by_owner at build time.
    if (threaded_)
        threaded_->invalidateAll();
}

void
Machine::setTraceEngine(trace::TraceEngine *engine)
{
    trace_ = engine;
    bus_.setTraceEngine(engine);
}

CodeOwner
Machine::classifyPc(std::uint16_t pc) const
{
    // Later registrations win: scan in reverse.
    for (auto it = owner_ranges_.rbegin(); it != owner_ranges_.rend();
         ++it) {
        if (pc >= it->base && static_cast<std::uint32_t>(pc) < it->end)
            return it->owner;
    }
    return regionOf(pc, config_.sramEnd()) == RegionKind::Sram
               ? CodeOwner::AppSram
               : CodeOwner::AppFram;
}

void
Machine::noteOwner(std::uint16_t pc, std::uint8_t owner)
{
    if (owner == last_owner_)
        return;
    if (trace_->wants(trace::kCatSwap)) {
        trace_->emit({stats_.totalCycles(), trace::EventKind::OwnerChange,
                      0, pc, owner, last_owner_});
    }
    last_owner_ = owner;
}

void
Machine::stepObserved(std::uint16_t pc, CodeOwner owner)
{
    auto owner8 = static_cast<std::uint8_t>(owner);
    if (trace_)
        noteOwner(pc, owner8);
    StatSnapshot pre(stats_);
    cpu_.step(stats_);
    trace::StepCosts costs = pre.deltaTo(stats_);
    if (profiler_)
        profiler_->record(pc, owner8, costs);
    if (trace_ && trace_->wants(trace::kCatInstr)) {
        trace_->emit({stats_.totalCycles(),
                      trace::EventKind::InstrRetire, 0, pc,
                      static_cast<std::uint16_t>(costs.base_cycles),
                      static_cast<std::uint32_t>(costs.stall_cycles)});
    }
}

void
Machine::interruptObserved(std::uint16_t pc)
{
    // Entry costs (pushes, vector fetch) are charged to the
    // interrupted function so profile totals stay exact.
    StatSnapshot pre(stats_);
    cpu_.interrupt(platform::kTimerVector, stats_);
    if (profiler_) {
        profiler_->record(
            pc, static_cast<std::uint8_t>(classifyPc(pc)),
            pre.deltaTo(stats_));
    }
    if (trace_ && trace_->wants(trace::kCatInterrupt)) {
        trace_->emit({stats_.totalCycles(),
                      trace::EventKind::InterruptEnter, 0,
                      platform::kTimerVector, pc, 0});
    }
}

bool
Machine::noteRecovery(std::uint16_t pc, std::uint64_t now)
{
    const bool in = pc >= recovery_base_ &&
                    static_cast<std::uint32_t>(pc) < recovery_end_;
    if (in == in_recovery_)
        return in;
    in_recovery_ = in;
    if (in)
        recovery_enter_cycle_ = now;
    if (trace_ && trace_->wants(trace::kCatPower)) {
        trace_->emit(
            {now,
             in ? trace::EventKind::RecoveryEnter
                : trace::EventKind::RecoveryExit,
             0, pc, 0,
             in ? 0
                : static_cast<std::uint32_t>(now - recovery_enter_cycle_)});
    }
    return in;
}

void
Machine::step()
{
    if (config_.timer_period_cycles) {
        std::uint64_t now = stats_.totalCycles();
        if (now >= timer_next_fire_)
            timer_pending_ = true;
        if (timer_pending_ && cpu_.interruptsEnabled()) {
            timer_pending_ = false;
            while (timer_next_fire_ <= now)
                timer_next_fire_ += config_.timer_period_cycles;
            if (trace_ || profiler_)
                interruptObserved(cpu_.pc());
            else
                cpu_.interrupt(platform::kTimerVector, stats_);
            return; // interrupt entry consumes this step
        }
    }
    CodeOwner owner = classifyPc(cpu_.pc());
    ++stats_.instr_by_owner[static_cast<int>(owner)];
    if (ckpt_commit_entry_ || ckpt_restore_entry_) {
        // Entry-point probe: one event per call of the generated
        // checkpoint routines (their first instruction executes exactly
        // once per invocation).
        std::uint16_t pc = cpu_.pc();
        if (trace_ && trace_->wants(trace::kCatPower)) {
            if (pc == ckpt_commit_entry_) {
                trace_->emit({stats_.totalCycles(),
                              trace::EventKind::CkptCommit, 0, pc, 0,
                              0});
            } else if (pc == ckpt_restore_entry_) {
                trace_->emit({stats_.totalCycles(),
                              trace::EventKind::CkptRestore, 0, pc, 0,
                              0});
            }
        }
    }
    if (recovery_end_) {
        std::uint16_t pc = cpu_.pc();
        if (noteRecovery(pc, stats_.totalCycles())) {
            std::uint64_t before = stats_.totalCycles();
            if (trace_ || profiler_)
                stepObserved(pc, owner);
            else
                cpu_.step(stats_);
            stats_.recovery_cycles += stats_.totalCycles() - before;
            return;
        }
    }
    if (trace_ || profiler_) {
        stepObserved(cpu_.pc(), owner);
        return;
    }
    cpu_.step(stats_);
}

ThreadedEngine::ChainResult
Machine::trySuperblock()
{
    ThreadedEngine::ChainLimits limits;
    limits.now = stats_.totalCycles();
    limits.limit_cycles = config_.max_cycles;
    if (fault_) {
        limits.limit_cycles =
            std::min(limits.limit_cycles, fault_->nextFailureCycle());
    }
    limits.timer_period = config_.timer_period_cycles;
    limits.timer_fire = timer_next_fire_;
    limits.timer_pending = timer_pending_;

    const std::uint16_t pc = cpu_.pc();
    std::uint8_t owner = 0;
    if (trace_) {
        // Observed dispatch: chains only where nobody wants more than
        // the owner-change and power events emitted between them. The
        // copy loop always single-steps (the swap timeline reads its
        // accesses).
        if (trace_->outsideCopyMask() &
            ~(trace::kCatSwap | trace::kCatPower))
            return {};
        owner = static_cast<std::uint8_t>(classifyPc(pc));
        if (owner == static_cast<std::uint8_t>(CodeOwner::Memcpy))
            return {};
        // The events below belong before the next retired instruction,
        // so a timer entry due now (which step() delivers first) and a
        // checkpoint probe (step() emits it first) stay on the oracle.
        if (config_.timer_period_cycles &&
            (timer_pending_ || limits.now >= timer_next_fire_) &&
            cpu_.interruptsEnabled())
            return {};
        if (trace_->wants(trace::kCatPower) &&
            (pc == ckpt_commit_entry_ || pc == ckpt_restore_entry_))
            return {};
        limits.observed = true;
    }

    const bool in = recovery_end_ && noteRecovery(pc, limits.now);
    // Stamped before the chain: if it retires nothing, step() runs an
    // instruction (not an interrupt entry) on this same cycle.
    if (trace_)
        noteOwner(pc, owner);

    ThreadedEngine::ChainResult res = threaded_->runChain(limits);
    // The chain never crosses the recovery boundary, so its whole
    // cycle delta attributes to the entry PC's side.
    if (in && res.instructions)
        stats_.recovery_cycles += res.cycles;
    return res;
}

void
Machine::addWatermarkSkip(std::uint16_t base, std::uint32_t end)
{
    if (end <= base)
        return;
    wm_skip_.push_back({base, end});
    std::sort(wm_skip_.begin(), wm_skip_.end());
}

std::uint64_t
Machine::bootWatermark() const
{
    // FNV-1a over the persistent state a reboot starts from: SRAM is
    // zeroed and .data/.bss re-initialised at every boot, so boot-to-
    // boot progress lives entirely in FRAM; the failure PC pins where
    // the budget ran out. The machine is deterministic, so a repeated
    // watermark under a repeating per-boot budget is an exact replay.
    //
    // Skip ranges hide persistent cells that advance without any real
    // forward progress (lifetime statistics counters, checkpoint
    // sequence numbers): hashing those would make every boot look
    // distinct and blind the livelock watchdog.
    std::uint64_t h = 1469598103934665603ull;
    auto mix = [&h](std::uint8_t byte) {
        h ^= byte;
        h *= 1099511628211ull;
    };
    std::size_t skip = 0;
    for (std::uint32_t a = platform::kFramBase; a < platform::kFramEnd;
         ++a) {
        while (skip < wm_skip_.size() && wm_skip_[skip].second <= a)
            ++skip;
        if (skip < wm_skip_.size() && a >= wm_skip_[skip].first)
            continue;
        mix(memory_.read8(static_cast<std::uint16_t>(a)));
    }
    std::uint16_t pc = cpu_.pc();
    mix(static_cast<std::uint8_t>(pc & 0xFF));
    mix(static_cast<std::uint8_t>(pc >> 8));
    return h;
}

RunResult
Machine::run()
{
    bool after_operand_bail = false;
    while (!mmio_.done()) {
        // A chain that stopped before an instruction whose operand
        // leaves SRAM/FRAM leaves it to the oracle: on the next
        // iteration only, a chain attempt there would just bail again.
        const bool skip_chain = std::exchange(after_operand_bail, false);
        if (stats_.totalCycles() >= config_.max_cycles) {
            return {false, 0, RunResult::Stop::MaxCycles};
        }
        if (fault_ && fault_->shouldFail(stats_.totalCycles())) {
            if (fault_->exhausted())
                return {false, 0, RunResult::Stop::Exhausted};
            if (config_.livelock_boots) {
                // Progress means reaching a state never seen before.
                // A run stuck in a period-k orbit of old states (a
                // torn commit restored every boot, a recovery walk
                // alternating pool slots) revisits the set forever.
                if (seen_watermarks_.insert(bootWatermark()).second) {
                    livelock_streak_ = 0;
                } else if (++livelock_streak_ >= config_.livelock_boots) {
                    return {false, 0, RunResult::Stop::Livelock};
                }
            }
            powerCycle();
            continue;
        }
        // Chained fast path: per-instruction observers (profiler,
        // metrics) need the oracle; an attached trace engine is
        // gated per PC inside trySuperblock().
        if (threaded_ && !skip_chain && !profiler_ && !metrics_) {
            ThreadedEngine::ChainResult res = trySuperblock();
            if (res.instructions) {
                after_operand_bail = res.operand_bail;
                continue;
            }
        }
        step();
    }
    return {true, mmio_.exitCode(), RunResult::Stop::Done};
}

} // namespace swapram::sim
