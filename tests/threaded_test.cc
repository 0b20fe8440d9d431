/**
 * @file
 * Threaded-code tier tests. The tier is the simulator's one fast tier
 * and a host-side optimization only: every simulated observable —
 * registers, memory, checksums, cycle/stall counts, per-region access
 * counts, interrupt and reboot cycles — must be bit-identical with
 * the tier on or off (the single-step oracle is the reference). The
 * host-side threaded_*, superblock_* and predecode hit/miss counters
 * are the only permitted divergence.
 *
 * Coverage concentrates on the bail-out guards: register-dependent
 * MMIO operands, stores into the executing block, fault/timer cycle
 * boundaries, mid-eviction and data-pool swap windows under capacity
 * pressure, harvest brown-outs landing mid-chain, the full golden
 * workload×system×sram_size matrix, the FRAM timing configurations
 * (hardware cache, wait states, contention stall), and the stall-width
 * gate that keeps oversized wait-state configs on the oracle.
 */

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "harness/engine.hh"
#include "harness/report.hh"
#include "masm/parser.hh"
#include "sim/fault.hh"
#include "sim/harvest.hh"
#include "support/logging.hh"
#include "support/platform.hh"
#include "swapram/builder.hh"
#include "testutil.hh"
#include "trace/swap_timeline.hh"
#include "workloads/workload.hh"

namespace {

using namespace swapram;
using isa::Reg;

/** Every simulated Stats field (host-side fast-path counters — the
 *  predecode hit/miss, superblock_*, and threaded_* families —
 *  excluded; the predecode *invalidation* count tracks the write
 *  stream, which is identical in both modes, so it is compared). */
void
expectSimStatsEqual(const sim::Stats &a, const sim::Stats &b,
                    const std::string &ctx)
{
    EXPECT_EQ(a.instructions, b.instructions) << ctx;
    EXPECT_EQ(a.base_cycles, b.base_cycles) << ctx;
    EXPECT_EQ(a.stall_cycles, b.stall_cycles) << ctx;
    EXPECT_EQ(a.sram.fetch, b.sram.fetch) << ctx;
    EXPECT_EQ(a.sram.read, b.sram.read) << ctx;
    EXPECT_EQ(a.sram.write, b.sram.write) << ctx;
    EXPECT_EQ(a.fram.fetch, b.fram.fetch) << ctx;
    EXPECT_EQ(a.fram.read, b.fram.read) << ctx;
    EXPECT_EQ(a.fram.write, b.fram.write) << ctx;
    EXPECT_EQ(a.mmio.fetch, b.mmio.fetch) << ctx;
    EXPECT_EQ(a.mmio.read, b.mmio.read) << ctx;
    EXPECT_EQ(a.mmio.write, b.mmio.write) << ctx;
    EXPECT_EQ(a.fram_cache_hits, b.fram_cache_hits) << ctx;
    EXPECT_EQ(a.fram_cache_misses, b.fram_cache_misses) << ctx;
    EXPECT_EQ(a.code_space_accesses, b.code_space_accesses) << ctx;
    EXPECT_EQ(a.data_space_accesses, b.data_space_accesses) << ctx;
    for (int i = 0; i < sim::kNumOwners; ++i)
        EXPECT_EQ(a.instr_by_owner[i], b.instr_by_owner[i])
            << ctx << " owner " << i;
    EXPECT_EQ(a.interrupts, b.interrupts) << ctx;
    EXPECT_EQ(a.reboots, b.reboots) << ctx;
    EXPECT_EQ(a.recovery_cycles, b.recovery_cycles) << ctx;
    EXPECT_EQ(a.predecode_invalidations, b.predecode_invalidations)
        << ctx;
}

/** Every sink-visible field of two trace events. */
void
expectEventsEqual(const std::vector<trace::Event> &a,
                  const std::vector<trace::Event> &b,
                  const std::string &ctx)
{
    ASSERT_EQ(a.size(), b.size()) << ctx;
    for (std::size_t i = 0; i < a.size(); ++i) {
        std::string at = ctx + " event " + std::to_string(i);
        EXPECT_EQ(a[i].cycle, b[i].cycle) << at;
        EXPECT_EQ(a[i].kind, b[i].kind) << at;
        EXPECT_EQ(a[i].byte, b[i].byte) << at;
        EXPECT_EQ(a[i].addr, b[i].addr) << at;
        EXPECT_EQ(a[i].value, b[i].value) << at;
        EXPECT_EQ(a[i].extra, b[i].extra) << at;
    }
}

/** The swap timeline's whole output — events with their cycle stamps,
 *  occupancy samples, and the summary — agrees field by field. */
void
expectTimelineEqual(const std::vector<trace::SwapEvent> &ea,
                    const std::vector<trace::OccupancySample> &oa,
                    const trace::SwapSummary &sa,
                    const std::vector<trace::SwapEvent> &eb,
                    const std::vector<trace::OccupancySample> &ob,
                    const trace::SwapSummary &sb, const std::string &ctx)
{
    ASSERT_EQ(ea.size(), eb.size()) << ctx;
    for (std::size_t i = 0; i < ea.size(); ++i) {
        std::string at = ctx + " swap event " + std::to_string(i);
        EXPECT_EQ(ea[i].kind, eb[i].kind) << at;
        EXPECT_EQ(ea[i].cycle, eb[i].cycle) << at;
        EXPECT_EQ(ea[i].func, eb[i].func) << at;
        EXPECT_EQ(ea[i].cache_addr, eb[i].cache_addr) << at;
        EXPECT_EQ(ea[i].nvm_addr, eb[i].nvm_addr) << at;
        EXPECT_EQ(ea[i].bytes, eb[i].bytes) << at;
        EXPECT_EQ(ea[i].handler_cycles, eb[i].handler_cycles) << at;
    }
    ASSERT_EQ(oa.size(), ob.size()) << ctx;
    for (std::size_t i = 0; i < oa.size(); ++i) {
        std::string at = ctx + " occupancy " + std::to_string(i);
        EXPECT_EQ(oa[i].cycle, ob[i].cycle) << at;
        EXPECT_EQ(oa[i].resident_bytes, ob[i].resident_bytes) << at;
        EXPECT_EQ(oa[i].resident_functions, ob[i].resident_functions)
            << at;
    }
    EXPECT_EQ(sa.misses, sb.misses) << ctx;
    EXPECT_EQ(sa.copy_ins, sb.copy_ins) << ctx;
    EXPECT_EQ(sa.evictions, sb.evictions) << ctx;
    EXPECT_EQ(sa.bytes_copied, sb.bytes_copied) << ctx;
    EXPECT_EQ(sa.data_swap_ins, sb.data_swap_ins) << ctx;
    EXPECT_EQ(sa.data_swap_outs, sb.data_swap_outs) << ctx;
    EXPECT_EQ(sa.data_bytes_copied, sb.data_bytes_copied) << ctx;
    EXPECT_EQ(sa.handler_cycles, sb.handler_cycles) << ctx;
    EXPECT_EQ(sa.peak_resident_bytes, sb.peak_resident_bytes) << ctx;
    EXPECT_EQ(sa.power_failures, sb.power_failures) << ctx;
    EXPECT_EQ(sa.recovery_cycles, sb.recovery_cycles) << ctx;
    EXPECT_EQ(sa.ckpt_commits, sb.ckpt_commits) << ctx;
    EXPECT_EQ(sa.ckpt_restores, sb.ckpt_restores) << ctx;
}

void
expectTimelineEqual(const harness::Metrics &a, const harness::Metrics &b,
                    const std::string &ctx)
{
    expectTimelineEqual(a.swap_events, a.occupancy, a.swap_summary,
                        b.swap_events, b.occupancy, b.swap_summary, ctx);
}

/** The two execution tiers: threaded chains and the single-step
 *  oracle (fast tier off). */
enum class Tier { Threaded, Oracle };
constexpr Tier kTiers[] = {Tier::Threaded, Tier::Oracle};

void
setTier(harness::RunSpec &spec, Tier tier)
{
    spec.superblock = tier == Tier::Threaded;
}

/** A machine configured for one execution tier. */
sim::MachineConfig
tierConfig(Tier tier)
{
    sim::MachineConfig config;
    config.superblock_enabled = tier == Tier::Threaded;
    return config;
}

/** Records every event it is subscribed to. */
class CaptureSink : public trace::Sink
{
  public:
    void event(const trace::Event &event) override
    {
        events.push_back(event);
    }
    std::vector<trace::Event> events;
};

/** The host-side counters exist and are coherent on a plain run, and
 *  the oracle run builds and dispatches nothing. */
TEST(Threaded, CountersAccountForBlockCoverage)
{
    const char body[] =
        "        MOV #50, R10\n"
        "cloop:  ADD #3, R11\n"
        "        XOR R11, R12\n"
        "        DEC R10\n"
        "        JNZ cloop\n";
    test::MiniRun on = test::runBody(body, tierConfig(Tier::Threaded));
    ASSERT_TRUE(on.result.done);
    const sim::Stats &s = on.stats();
    EXPECT_GT(s.superblock_blocks_built, 0u);
    EXPECT_GT(s.threaded_blocks_lowered, 0u);
    EXPECT_GT(s.threaded_dispatches, 0u);
    EXPECT_GT(s.threaded_instructions, 0u);
    EXPECT_LE(s.threaded_instructions, s.instructions);
    // The loop dominates: most instructions retire in threaded mode.
    EXPECT_GT(s.threaded_instructions, s.instructions / 2);

    test::MiniRun off = test::runBody(body, tierConfig(Tier::Oracle));
    ASSERT_TRUE(off.result.done);
    EXPECT_EQ(off.stats().threaded_dispatches, 0u);
    EXPECT_EQ(off.stats().superblock_blocks_built, 0u);
    expectSimStatsEqual(on.stats(), off.stats(), "counters");
}

/** A register-dependent store into MMIO space: the inline mapped-space
 *  pre-check must bail to the oracle with nothing committed, so the
 *  device sees exactly one write per loop iteration. */
const char kDynMmioBody[] =
    "        MOV #0x0100, R7\n" // console register, via register
    "        MOV #65, R6\n"
    "        MOV #3, R10\n"
    "loop:   MOV.B R6, 0(R7)\n"
    "        ADD #1, R6\n"
    "        DEC R10\n"
    "        JNZ loop\n";

TEST(Threaded, DynamicMmioOperandBailsToOracle)
{
    test::MiniRun on =
        test::runBody(kDynMmioBody, tierConfig(Tier::Threaded));
    test::MiniRun off =
        test::runBody(kDynMmioBody, tierConfig(Tier::Oracle));
    ASSERT_TRUE(on.result.done);
    EXPECT_EQ(on.machine->mmio().console(), "ABC");
    EXPECT_EQ(off.machine->mmio().console(), "ABC");
    expectSimStatsEqual(on.stats(), off.stats(), "dyn-mmio");
    EXPECT_GT(on.stats().threaded_bail_operand, 0u);
}

/** Within-block self-modification: the store lands on the *next*
 *  instruction of the same straight-line block (patching ADD #1 into
 *  ADD #2 before it executes). The page-generation check after the
 *  committed store must stop the chain, not execute the stale lowered
 *  kernel. */
const char kSmcBody[] =
    "        MOV #0, R12\n"
    "        MOV &alt, &patch\n"
    "patch:  ADD #1, R12\n"
    "        JMP fin\n"
    "alt:    ADD #2, R12\n"
    "fin:\n";

TEST(Threaded, SelfModifyingStoreInOwnBlockMatchesOracle)
{
    test::MiniRun on = test::runBody(kSmcBody, tierConfig(Tier::Threaded));
    test::MiniRun off = test::runBody(kSmcBody, tierConfig(Tier::Oracle));
    ASSERT_TRUE(on.result.done);
    ASSERT_TRUE(off.result.done);
    EXPECT_EQ(on.reg(Reg::R12), 2) << "stale lowered kernel executed";
    EXPECT_EQ(off.reg(Reg::R12), 2);
    expectSimStatsEqual(on.stats(), off.stats(), "smc");
    EXPECT_GT(on.stats().threaded_bail_smc, 0u);
}

/** Run @p body on the threaded tier and the oracle, both otherwise
 *  configured as @p config: the threaded run must match the oracle in
 *  every simulated counter, in every register and in all of memory,
 *  and retire no more instructions threaded than in total. Returns the
 *  threaded run's Stats. */
sim::Stats
expectThreadedMatchesOracle(const std::string &body,
                            const std::string &ctx,
                            sim::MachineConfig config = {})
{
    config.superblock_enabled = false;
    test::MiniRun oracle = test::runBody(body, config);
    config.superblock_enabled = true;
    test::MiniRun run = test::runBody(body, config);
    EXPECT_TRUE(oracle.result.done) << ctx;
    EXPECT_TRUE(run.result.done) << ctx;
    expectSimStatsEqual(run.stats(), oracle.stats(), ctx);
    EXPECT_LE(run.stats().threaded_instructions, run.stats().instructions)
        << ctx;
    EXPECT_EQ(run.machine->cpu().regs(), oracle.machine->cpu().regs())
        << ctx;
    const std::uint8_t *mem = run.machine->memory().bytes();
    const std::uint8_t *ref = oracle.machine->memory().bytes();
    std::uint32_t diffs = 0;
    for (std::uint32_t a = 0; a < 0x10000; ++a)
        diffs += mem[a] != ref[a];
    EXPECT_EQ(diffs, 0u) << ctx << ": bytes of memory differ";
    return run.stats();
}

/** Successor links: the hot block `top` links to `tgt`, and another
 *  block rewrites tgt's immediate between two of top's entries. The
 *  rewrite must move the code epoch so top's link revalidates tgt and
 *  finds it stale. Entering tgt from a second predecessor (`top2`)
 *  right after each rewrite rebuilds it there, and `back` — on tgt's
 *  page — is rebuilt next, into freshly allocated memory; top's old
 *  link must then fail on its replacement tag rather than hand back
 *  whatever block now lives where the freed one did. */
const char kLinkSmcBody[] =
    "        MOV #0, R12\n"
    "        MOV #0, R13\n"
    "        MOV #0, R9\n"
    "        MOV #3000, R10\n"
    "        JMP top\n"
    "        .space 64\n"
    "top:    ADD #1, R13\n"
    "        JMP tgt\n"
    "top2:   ADD #3, R13\n"
    "        JMP tgt\n"
    "        .space 64\n"
    "tgt:    ADD #5, R12\n"
    "        JMP back\n"
    "back:   DEC R10\n"
    "        JZ fin\n"
    "        JMP sel\n"
    "        .space 64\n"
    "sel:    XOR #1, R9\n"
    "        JZ top\n"
    "        BIT #0x3E, R10\n"
    "        JNZ top2\n"
    "        INC &tgt+2\n" // tgt: ADD #5 -> ADD #6 -> ...
    "        JMP top2\n"
    "        .space 64\n"
    "fin:\n";

TEST(Threaded, SuccessorLinkTargetRewrittenBetweenEntries)
{
    sim::Stats s = expectThreadedMatchesOracle(kLinkSmcBody, "link-smc");
    EXPECT_GT(s.superblock_invalidations, 40u);
    EXPECT_GT(s.threaded_instructions, s.instructions / 2);
}

/** A SwapRAM eviction plus re-copy into the same SRAM slot: pingpong
 *  at 4 KiB thrashes two functions through one cache slot, so every
 *  link into the slot outlives the code it was made for. */
TEST(Threaded, SuccessorLinksSurviveEvictionRecopy)
{
    const workloads::Workload *pingpong = nullptr;
    for (const workloads::Workload &w : workloads::capacity())
        if (w.name == "pingpong")
            pingpong = &w;
    ASSERT_NE(pingpong, nullptr);
    std::vector<harness::RunSpec> specs;
    for (Tier tier : kTiers) {
        harness::RunSpec spec = harness::capacitySpec(
            *pingpong, harness::System::SwapRam, 4096);
        setTier(spec, tier);
        specs.push_back(spec);
    }
    std::vector<harness::RunOutcome> out =
        harness::Engine().runAll(specs);
    for (const harness::RunOutcome &o : out)
        ASSERT_TRUE(o.ok()) << o.error_text;
    const harness::Metrics &m = out[0].metrics;
    const harness::Metrics &ref = out[1].metrics;
    ASSERT_TRUE(ref.done);
    ASSERT_TRUE(m.done);
    EXPECT_GT(ref.swap_summary.evictions, 20u);
    EXPECT_EQ(m.checksum, ref.checksum);
    EXPECT_EQ(m.data_snapshot, ref.data_snapshot);
    expectSimStatsEqual(m.stats, ref.stats, "pingpong");
    expectTimelineEqual(m, ref, "pingpong");
    EXPECT_LE(m.stats.threaded_instructions, m.stats.instructions);
    EXPECT_GT(m.stats.superblock_invalidations, 20u);
}

/** A store into a code page outside the running block's pages moves
 *  the code epoch, so the loop's blocks take the per-page fallback on
 *  every entry — and pass it: nothing is rebuilt. `other` runs once to
 *  give its page built code; `cell` sits on that page, outside any
 *  block. */
const char kEpochBody[] =
    "        MOV #0, R12\n"
    "        MOV #2000, R10\n"
    "        CALL #other\n"
    "        JMP loop\n"
    "        .space 64\n"
    "loop:   ADD #1, R12\n"
    "        INC &cell\n"
    "        DEC R10\n"
    "        JNZ loop\n"
    "        JMP fin\n"
    "        .space 64\n"
    "other:  ADD #7, R11\n"
    "        RET\n"
    "cell:   .word 0\n"
    "        .space 64\n"
    "fin:\n";

TEST(Threaded, CodePageStoreOutsideBlockTakesEpochFallback)
{
    sim::Stats s = expectThreadedMatchesOracle(kEpochBody, "epoch");
    EXPECT_EQ(s.superblock_invalidations, 0u);
    EXPECT_GT(s.threaded_instructions, 4 * 1900u);
}

/** Mid-block bail-outs inside long chains: the hot loop re-enters its
 *  blocks thousands of times per chain, and every 512th iteration
 *  bails — before op 0 (a register-dependent read of the energy
 *  register at a block's first instruction), at a middle op (the same
 *  read one instruction in), or on the last op (a store into the
 *  block's own code, the 32nd instruction, so the chain goes on). The
 *  per-chain totals must take back exactly the unexecuted suffix, and
 *  an op-0 bail its dispatch. After an operand bail the oracle steps
 *  the read at once: no second chain is tried there, so each of the
 *  eight reads bails exactly once. */
std::string
bailBody(int where)
{
    std::string pre =
        "        MOV #0x2000, R8\n"
        "        MOV #0x1234, 0(R8)\n"
        "        MOV #0, R12\n"
        "        MOV #0, R13\n"
        "        MOV #4096, R10\n";
    if (where == 0) {
        return pre +
               "loop:   MOV #0x010A, R7\n"
               "        BIT #0x1FF, R10\n"
               "        JZ go\n"
               "        MOV R8, R7\n"
               "go:     MOV @R7, R6\n"
               "        ADD R6, R12\n"
               "        DEC R10\n"
               "        JNZ loop\n";
    }
    if (where == 1) {
        return pre +
               "loop:   MOV #0x010A, R7\n"
               "        BIT #0x1FF, R10\n"
               "        JZ mid\n"
               "        MOV R8, R7\n"
               "mid:    ADD #1, R13\n"
               "        MOV @R7, R6\n"
               "        ADD R6, R12\n"
               "        DEC R10\n"
               "        JNZ loop\n";
    }
    std::string body = pre +
                       "        JMP loop\n"
                       "        .space 64\n"
                       "loop:   ADD R8, R12\n"
                       "        DEC R10\n"
                       "        JZ fin\n"
                       "        BIT #0x1FF, R10\n"
                       "        JNZ loop\n"
                       "        JMP smc\n"
                       "        .space 64\n"
                       "smc:\n";
    for (int i = 0; i < 31; ++i)
        body += "        ADD #1, R13\n";
    body += "        ADD #0, &smc\n" // 32nd: rewrites its own block
            "        JMP loop\n"
            "fin:\n";
    return body;
}

TEST(Threaded, MidBlockBailsInLongChainsMatchOracle)
{
    const char *names[] = {"op 0", "middle op", "last op (smc)"};
    for (int where = 0; where < 3; ++where) {
        sim::Stats s =
            expectThreadedMatchesOracle(bailBody(where), names[where]);
        // Eight iterations read the energy register; seven run the
        // self-rewriting block (the last would be the 4096th).
        if (where < 2)
            EXPECT_EQ(s.threaded_bail_operand, 8u) << names[where];
        else
            EXPECT_EQ(s.threaded_bail_smc, 7u) << names[where];
        EXPECT_GT(s.threaded_instructions, 4 * 4000u) << names[where];
    }
}

/** Timer interrupts must land on exactly the same cycle: the chain
 *  must refuse any block whose worst-case bound could reach the fire
 *  cycle, handing back to the single-stepping machine loop. */
const char *kTimerProgram = R"(
        .text
__start:
        MOV #0x3000, SP
        MOV #tick_isr, &0xFFF0
        EINT
        MOV #400, R10
fg_loop:
        MOV #13, R12
        ADD #29, R12
        XOR R12, &fg_acc
        DEC R10
        JNZ fg_loop
        DINT
        MOV &tick_count, R12
        MOV.B #0, &__DONE
__halt: JMP __halt

        .func tick_isr
        ADD #1, &tick_count
        RETI
        .endfunc

        .data
        .align 2
tick_count: .word 0
fg_acc:     .word 0
)";

/** SwapRAM with a blacklisted tick ISR: f_a and f_b cannot share the
 *  32 B cache, so every call misses and runs the copy loop, and a
 *  short timer period lands interrupts inside it. */
const char *kSwapTimerBody = R"(
        .text
        .func main
        PUSH R10
        MOV #tick_isr, &0xFFF0
        EINT
        MOV #40, R10
ml:     CALL #f_a
        CALL #f_b
        DEC R10
        JNZ ml
        DINT
        MOV &acc, R12
        MOV R12, &bench_result
        POP R10
        RET
        .endfunc
        .func f_a
        ADD #5, &acc
        NOP
        NOP
        NOP
        NOP
        NOP
        NOP
        NOP
        NOP
        RET
        .endfunc
        .func f_b
        XOR #0x77, &acc
        NOP
        NOP
        NOP
        NOP
        NOP
        NOP
        NOP
        NOP
        RET
        .endfunc
        .func tick_isr
        ADD #1, &tick_count
        RETI
        .endfunc
        .data
        .align 2
acc: .word 0
tick_count: .word 0
bench_result: .word 0
)";

/** One timed SwapRAM run with the swap timeline attached. */
struct TimelineRun {
    sim::Stats stats;
    std::vector<trace::Event> stream; ///< swap + power categories
    std::vector<trace::SwapEvent> events;
    std::vector<trace::OccupancySample> occupancy;
    trace::SwapSummary summary;
    std::uint64_t copy_loop_interrupts = 0; ///< oracle runs only
};

TimelineRun
runSwapTimed(std::uint64_t period, Tier tier)
{
    std::string source =
        harness::startupSource(0xFF80) + kSwapTimerBody;
    cache::Options opt;
    opt.blacklist = {"main", "__start", "tick_isr"};
    opt.cache_base = 0x2000;
    opt.cache_end = 0x2020;
    cache::BuildInfo info =
        cache::build(masm::parse(source), masm::LayoutSpec{}, opt);

    sim::MachineConfig config = tierConfig(tier);
    config.timer_period_cycles = period;
    sim::Machine machine(config);
    machine.load(info.assembled.image, 0xFF80);
    machine.addOwnerRange(info.handler_addr, info.handler_end,
                          sim::CodeOwner::Handler);
    machine.addOwnerRange(info.memcpy_addr, info.memcpy_end,
                          sim::CodeOwner::Memcpy);

    // Hand-wired like perfbench's decomposition: the timeline is the
    // only access consumer, plus a stream capture that stays within
    // the categories emitted between chains.
    trace::TraceEngine engine(trace::kCatNone, 0);
    CaptureSink stream;
    engine.addSink(&stream, trace::kCatSwap | trace::kCatPower);
    CaptureSink interrupts;
    if (tier == Tier::Oracle)
        engine.addSink(&interrupts, trace::kCatInterrupt);
    trace::SwapTimeline timeline(opt.cache_base, opt.cache_end);
    for (const masm::FunctionInfo &f : info.assembled.functions)
        timeline.addFunction(f.name, f.addr, f.size);
    timeline.setEngine(&engine);
    engine.addSink(&timeline, trace::kCatSwap | trace::kCatAccess |
                                  trace::kCatPower);
    machine.setTraceEngine(&engine);

    sim::RunResult result = machine.run();
    EXPECT_TRUE(result.done);
    engine.finish();

    TimelineRun r;
    r.stats = machine.stats();
    r.stream = stream.events;
    r.events = timeline.events();
    r.occupancy = timeline.occupancy();
    r.summary = timeline.summary();
    for (const trace::Event &e : interrupts.events) {
        // InterruptEnter: value = the interrupted PC.
        if (e.value >= info.memcpy_addr && e.value < info.memcpy_end)
            ++r.copy_loop_interrupts;
    }
    return r;
}

TEST(Threaded, TimerInterruptsLandOnSameCycle)
{
    for (std::uint64_t period : {97ull, 500ull, 1024ull}) {
        sim::MachineConfig on_cfg = tierConfig(Tier::Threaded);
        sim::MachineConfig off_cfg = tierConfig(Tier::Oracle);
        on_cfg.timer_period_cycles = period;
        off_cfg.timer_period_cycles = period;
        test::MiniRun on = test::runSource(kTimerProgram, on_cfg);
        test::MiniRun off = test::runSource(kTimerProgram, off_cfg);
        ASSERT_TRUE(on.result.done);
        ASSERT_TRUE(off.result.done);
        std::string ctx = "timer period " + std::to_string(period);
        EXPECT_GT(on.stats().interrupts, 0u) << ctx;
        EXPECT_EQ(on.reg(Reg::R12), off.reg(Reg::R12)) << ctx;
        expectSimStatsEqual(on.stats(), off.stats(), ctx);
    }

    // With the swap timeline attached, chains run between the copy
    // loops; every owner change, derived event and occupancy sample
    // must still carry the oracle's cycle, interrupts landing inside
    // the copy loop included.
    for (std::uint64_t period : {97ull, 131ull, 500ull}) {
        std::string ctx = "swapram timer period " + std::to_string(period);
        TimelineRun oracle = runSwapTimed(period, Tier::Oracle);
        EXPECT_GT(oracle.summary.evictions, 20u) << ctx;
        EXPECT_GT(oracle.copy_loop_interrupts, 0u) << ctx;
        TimelineRun fast = runSwapTimed(period, Tier::Threaded);
        EXPECT_GT(fast.stats.threaded_instructions, 0u) << ctx;
        expectSimStatsEqual(fast.stats, oracle.stats, ctx);
        expectEventsEqual(fast.stream, oracle.stream, ctx);
        expectTimelineEqual(fast.events, fast.occupancy, fast.summary,
                            oracle.events, oracle.occupancy,
                            oracle.summary, ctx);
    }
}

/** Power failures must hit on exactly the same cycle — the injector's
 *  next-failure cycle bounds every dispatched chain link. Data lives
 *  in FRAM so progress survives the reboots. */
const char *kFaultProgram = R"(
        .text
__start:
        MOV #0x3000, SP
        MOV #300, R10
floop:  ADD #7, &acc
        XOR &acc, &mix
        DEC R10
        JNZ floop
        MOV.B #0, &__DONE
__halt: JMP __halt

        .data
        .align 2
acc:    .word 0
mix:    .word 0
)";

struct FaultRun {
    sim::Stats stats;
    std::uint16_t acc = 0;
    std::uint16_t mix = 0;
};

FaultRun
runFaulted(Tier tier)
{
    masm::LayoutSpec layout;
    layout.data_base = 0x9000;
    auto assembled = masm::assemble(masm::parse(kFaultProgram), layout);
    sim::Machine machine(tierConfig(tier));
    machine.load(assembled.image, 0x3000);
    sim::FaultPlan plan = sim::FaultPlan::periodic(900, 5);
    sim::FaultInjector injector(plan);
    machine.setFaultInjector(&injector);
    auto result = machine.run();
    EXPECT_TRUE(result.done);
    return {machine.stats(), machine.peek16(assembled.symbol("acc")),
            machine.peek16(assembled.symbol("mix"))};
}

TEST(Threaded, InjectedFaultsLandOnSameCycle)
{
    FaultRun on = runFaulted(Tier::Threaded);
    FaultRun off = runFaulted(Tier::Oracle);
    EXPECT_EQ(on.stats.reboots, 5u);
    EXPECT_GT(on.stats.threaded_dispatches, 0u);
    expectSimStatsEqual(on.stats, off.stats, "fault");
    EXPECT_EQ(on.acc, off.acc);
    EXPECT_EQ(on.mix, off.mix);

    // SwapRAM under periodic power failures with the sweep's swap
    // timeline: boot recovery (RecoveryEnter/Exit from the chain path)
    // and, in the second cell, periodic checkpoints (probe PCs where
    // chains must stop). The threaded tier against the oracle.
    workloads::Workload w = workloads::makeCrc();
    harness::RunSpec plain =
        harness::sweepSpec(w, harness::System::SwapRam);
    plain.sram_size = 1024; // small cache: misses in every boot
    plain.intermittent.plan = sim::FaultPlan::periodic(40'000, 6);
    harness::RunSpec ckpt = plain;
    ckpt.placement = harness::Placement::Standard;
    ckpt.swap.ckpt.scheme = ckpt::Scheme::Periodic;
    ckpt.swap.ckpt.period = 1;

    std::vector<harness::RunSpec> specs;
    for (const harness::RunSpec &cell : {plain, ckpt}) {
        for (Tier tier : kTiers) {
            harness::RunSpec spec = cell;
            setTier(spec, tier);
            specs.push_back(spec);
        }
    }
    std::vector<harness::RunOutcome> outcomes =
        harness::Engine().runAll(specs);
    for (std::size_t i = 0; i < outcomes.size(); i += 2) {
        std::string ctx = i ? "faulted ckpt" : "faulted recovery";
        for (std::size_t t = 0; t < 2; ++t)
            ASSERT_TRUE(outcomes[i + t].ok())
                << ctx << " " << outcomes[i + t].error_text;
        const harness::Metrics &fast = outcomes[i].metrics;
        const harness::Metrics &oracle = outcomes[i + 1].metrics;
        ASSERT_TRUE(oracle.done) << ctx;
        EXPECT_EQ(oracle.stats.reboots, 6u) << ctx;
        EXPECT_EQ(oracle.swap_summary.power_failures, 6u) << ctx;
        EXPECT_GT(oracle.swap_summary.recovery_cycles, 0u) << ctx;
        EXPECT_GT(oracle.swap_summary.copy_ins, 0u) << ctx;
        if (i) {
            EXPECT_GT(oracle.swap_summary.ckpt_commits, 0u) << ctx;
        }
        EXPECT_GT(fast.stats.threaded_instructions, 0u) << ctx;
        EXPECT_EQ(fast.checksum, oracle.checksum) << ctx;
        expectSimStatsEqual(fast.stats, oracle.stats, ctx);
        expectTimelineEqual(fast, oracle, ctx);
    }
}

/** Capacity pressure: SRAM sizes where the SwapRAM runtime constantly
 *  evicts (arith_big/crc_big/pingpong) or tiles data through the pool
 *  (rc4_big). Chains repeatedly cross miss-handler entries,
 *  mid-eviction scans, and __swp_din/__swp_dout copy windows; the
 *  lowered code must account every one of them exactly as the oracle
 *  does. */
TEST(Threaded, EvictionAndDataSwapWindowsMatch)
{
    std::vector<harness::RunSpec> specs;
    std::vector<std::string> names;
    for (const workloads::Workload &w : workloads::capacity()) {
        for (std::uint32_t sram : {1024u, 4096u}) {
            harness::RunSpec spec = harness::capacitySpec(
                w, harness::System::SwapRam, sram);
            names.push_back(w.name + "@" + std::to_string(sram));
            for (Tier tier : kTiers) {
                setTier(spec, tier);
                specs.push_back(spec);
            }
        }
    }
    std::vector<harness::RunOutcome> outcomes =
        harness::Engine().runAll(specs);
    for (std::size_t i = 0; i < outcomes.size(); i += 2) {
        const std::string &key = names[i / 2];
        ASSERT_TRUE(outcomes[i].ok()) << key;
        ASSERT_TRUE(outcomes[i + 1].ok()) << key;
        const harness::Metrics &on = outcomes[i].metrics;
        const harness::Metrics &off = outcomes[i + 1].metrics;
        ASSERT_TRUE(on.fits) << key;
        ASSERT_TRUE(on.done) << key;
        EXPECT_EQ(on.checksum, off.checksum) << key;
        EXPECT_EQ(on.data_snapshot, off.data_snapshot) << key;
        EXPECT_EQ(on.swap_summary.copy_ins, off.swap_summary.copy_ins)
            << key;
        EXPECT_EQ(on.swap_summary.evictions, off.swap_summary.evictions)
            << key;
        expectSimStatsEqual(on.stats, off.stats, key);
    }
}

/** Harvest-driven brown-outs land mid-chain: the capacitor model
 *  decides the failure cycle from live consumption, so any divergence
 *  in accounting order would shift every subsequent reboot. Both runs
 *  must brown out, checkpoint, and converge (or honestly livelock)
 *  identically. */
TEST(Threaded, HarvestBrownOutMidChainMatches)
{
    workloads::Workload w = workloads::makeCrc();
    harness::RunSpec spec;
    spec.workload = &w;
    spec.system = harness::System::SwapRam;
    spec.placement = harness::Placement::Standard;
    spec.sram_size = 1024; // starve the cache: misses keep committing
    spec.swap.ckpt.scheme = ckpt::Scheme::Periodic;
    spec.swap.ckpt.period = 1;

    harness::Engine engine;
    harness::RunOutcome ref = engine.runAll({spec}).front();
    ASSERT_TRUE(ref.ok()) << ref.error_text;
    ASSERT_TRUE(ref.metrics.fits) << ref.metrics.fit_note;
    ASSERT_TRUE(ref.metrics.done);

    auto trace = std::make_shared<sim::HarvestTrace>(
        sim::HarvestTrace::fromPoints(
            {{0.0, 30e-6}, {0.002, 80e-6}, {0.004, 20e-6}}));
    sim::CapacitorModel cap;
    cap.brown_out_pj = ref.metrics.energy_pj / 4;
    cap.power_on_pj = cap.brown_out_pj + ref.metrics.energy_pj / 6;
    cap.capacity_pj = cap.power_on_pj * 1.25;
    cap.initial_pj = cap.power_on_pj;
    cap.leak_watts = 1e-6;

    harness::RunSpec faulted = spec;
    faulted.intermittent.plan = sim::FaultPlan::harvest(trace, cap);
    faulted.intermittent.livelock_boots = 16;
    setTier(faulted, Tier::Threaded);
    harness::RunSpec twin = faulted;
    setTier(twin, Tier::Oracle);

    std::vector<harness::RunOutcome> outcomes =
        engine.runAll({faulted, twin});
    ASSERT_TRUE(outcomes[0].ok()) << outcomes[0].error_text;
    ASSERT_TRUE(outcomes[1].ok()) << outcomes[1].error_text;
    const harness::Metrics &on = outcomes[0].metrics;
    const harness::Metrics &off = outcomes[1].metrics;
    // The schedule must actually interrupt the run.
    EXPECT_GT(on.stats.reboots, 0u);
    ASSERT_EQ(on.stop, off.stop);
    ASSERT_EQ(on.done, off.done);
    EXPECT_EQ(on.checksum, off.checksum);
    EXPECT_EQ(on.data_snapshot, off.data_snapshot);
    EXPECT_EQ(on.energy_pj, off.energy_pj);
    EXPECT_EQ(on.harvested_pj, off.harvested_pj);
    expectSimStatsEqual(on.stats, off.stats, "harvest");
}

/** The full golden matrix — the classic nine workloads × three systems
 *  at the platform default plus every capacity-pressure cell — on both
 *  tiers. The sweep spec observes the cache systems through the
 *  swap timeline, so this also pins that observation keeps them on the
 *  threaded tier outside the copy loop. Every simulated observable and
 *  the whole timeline must agree on all 47 keys; golden_test.cc
 *  separately pins the absolute numbers. */
TEST(Threaded, GoldenMatrixStatsEqualAcrossTiers)
{
    const harness::System systems[] = {harness::System::Baseline,
                                       harness::System::SwapRam,
                                       harness::System::BlockCache};
    std::vector<harness::RunSpec> specs;
    std::vector<std::string> names;
    auto push = [&](harness::RunSpec spec, const std::string &name) {
        names.push_back(name);
        for (Tier tier : kTiers) {
            setTier(spec, tier);
            specs.push_back(spec);
        }
    };
    for (const workloads::Workload &w : workloads::all()) {
        for (harness::System system : systems) {
            push(harness::sweepSpec(w, system),
                 w.name + "/" + harness::systemName(system) + "@" +
                     std::to_string(platform::kSramSize));
        }
    }
    const std::size_t n_classic = names.size();
    for (const harness::MatrixCell &mc : harness::capacityMatrix()) {
        push(harness::capacitySpec(*mc.workload, mc.system,
                                   mc.sram_size),
             mc.workload->name + "/" +
                 harness::systemName(mc.system) + "@" +
                 std::to_string(mc.sram_size));
    }

    // Per-instruction observers keep the whole run on the oracle.
    workloads::Workload crc = workloads::makeCrc();
    std::vector<harness::RunSpec> pinned;
    for (int variant = 0; variant < 3; ++variant) {
        harness::RunSpec spec =
            harness::sweepSpec(crc, harness::System::SwapRam);
        setTier(spec, Tier::Threaded);
        if (variant == 0)
            spec.observe.profile = true;
        else if (variant == 1)
            spec.observe.metrics = true;
        else
            spec.observe.categories = trace::kCatAccess;
        pinned.push_back(spec);
    }

    harness::Engine engine;
    std::vector<harness::RunOutcome> outcomes = engine.runAll(specs);
    for (std::size_t i = 0; i < outcomes.size(); i += 2) {
        const std::string &key = names[i / 2];
        ASSERT_TRUE(outcomes[i].ok()) << key;
        ASSERT_TRUE(outcomes[i + 1].ok()) << key;
        const harness::Metrics &on = outcomes[i].metrics;
        const harness::Metrics &ref = outcomes[i + 1].metrics;
        ASSERT_EQ(on.fits, ref.fits) << key;
        if (on.fits) {
            ASSERT_EQ(on.done, ref.done) << key;
            EXPECT_EQ(on.checksum, ref.checksum) << key;
            EXPECT_EQ(on.data_snapshot, ref.data_snapshot) << key;
            EXPECT_EQ(on.console, ref.console) << key;
            EXPECT_EQ(on.energy_pj, ref.energy_pj) << key;
            expectSimStatsEqual(on.stats, ref.stats, key);
            expectTimelineEqual(on, ref, key);
        }
        if (on.fits && specs[i].system != harness::System::Baseline) {
            // Only the copy loop single-steps. In the thrashing
            // capacity cells that loop is most of the run, so there
            // the bound applies to the instructions outside it.
            ASSERT_TRUE(specs[i].observe.swap_timeline) << key;
            const std::uint64_t copy_loop =
                on.stats.instr_by_owner[int(sim::CodeOwner::Memcpy)];
            const std::uint64_t threaded = on.stats.threaded_instructions;
            EXPECT_GE(threaded * 5,
                      (on.stats.instructions - copy_loop) * 4)
                << key << ": observed cell left the threaded tier";
            if (i / 2 < n_classic) {
                EXPECT_GE(threaded * 5, on.stats.instructions * 4)
                    << key << ": " << copy_loop
                    << " instructions in the copy loop";
            }
        }
    }

    std::vector<harness::RunOutcome> pinned_out = engine.runAll(pinned);
    for (std::size_t i = 0; i < pinned_out.size(); ++i) {
        ASSERT_TRUE(pinned_out[i].ok()) << "observer variant " << i;
        EXPECT_GT(pinned_out[i].metrics.stats.instructions, 0u);
        EXPECT_EQ(pinned_out[i].metrics.stats.threaded_instructions, 0u)
            << "observer variant " << i;
    }
}

/** Drop the lines carrying host-side fast-path counters (the permitted
 *  tier divergence) from a dumped RunReport. */
std::string
maskHostCounters(const std::string &json_text)
{
    // "emitted" counts trace events: the oracle also feeds the bus's
    // access events outside the copy loop, which the timeline ignores.
    static const char *kMasked[] = {
        "\"predecode_hits\"",          "\"predecode_misses\"",
        "\"superblock_blocks_built\"", "\"superblock_invalidations\"",
        "\"threaded_",                  "\"emitted\"",
    };
    std::istringstream in(json_text);
    std::string out, line;
    while (std::getline(in, line)) {
        bool masked = false;
        for (const char *key : kMasked)
            if (line.find(key) != std::string::npos)
                masked = true;
        if (!masked) {
            out += line;
            out += '\n';
        }
    }
    return out;
}

/** The machine-readable RunReport of an observed sweep cell must be
 *  byte-identical with the tier on vs off once the host-side counter
 *  lines are dropped — nothing else in the document (stats, swap
 *  events and occupancy, swap summary, energy) may move. */
TEST(Threaded, RunReportByteIdenticalWithHostCountersMasked)
{
    workloads::Workload w = workloads::makeCrc();
    harness::RunSpec on_spec =
        harness::sweepSpec(w, harness::System::SwapRam);
    setTier(on_spec, Tier::Threaded);
    harness::RunSpec off_spec = on_spec;
    setTier(off_spec, Tier::Oracle);

    std::vector<harness::RunOutcome> outcomes =
        harness::Engine().runAll({on_spec, off_spec});
    ASSERT_TRUE(outcomes[0].ok()) << outcomes[0].error_text;
    ASSERT_TRUE(outcomes[1].ok()) << outcomes[1].error_text;

    std::string on_text =
        harness::RunReport::make(on_spec, outcomes[0].metrics)
            .json()
            .dump(2);
    std::string off_text =
        harness::RunReport::make(off_spec, outcomes[1].metrics)
            .json()
            .dump(2);
    EXPECT_NE(on_text, off_text)
        << "host counters should differ across tiers";
    EXPECT_EQ(maskHostCounters(on_text), maskHostCounters(off_text));
}

/** The same Stats without the predecode cache's own counters, for
 *  comparison with the always-decode oracle (which has no cache). */
sim::Stats
withoutPredecode(sim::Stats s)
{
    s.predecode_hits = 0;
    s.predecode_misses = 0;
    s.predecode_invalidations = 0;
    return s;
}

/** One configuration of the fast tier's gate. */
struct GateCase {
    const char *name;
    std::optional<std::uint32_t> wait_states;
    std::uint32_t contention_stall;
    bool threaded_enabled;
    bool fast; ///< the fast tier should run
};

/** Lowered ops hold stall costs in 16-bit fields, so the machine only
 *  builds the fast tier when wait states and contention stall fit; a
 *  wider config, or threaded_enabled off, builds no block and runs
 *  every instruction on the oracle. Every case must match the
 *  always-decode oracle under the same stall config. */
TEST(Threaded, StallGateFallsBackToOracle)
{
    const GateCase cases[] = {
        {"wait states 0x10000", 0x10000u, 2, true, false},
        {"contention 0x10000", std::nullopt, 0x10000u, true, false},
        {"threaded_enabled off", std::nullopt, 0xFFFFu, false, false},
        {"wait states 0xFFFF", 0xFFFFu, 2, true, true},
        {"contention 0xFFFF", std::nullopt, 0xFFFFu, true, true},
    };
    // FRAM code with a distant FRAM data read: fetch misses pay the
    // wait states, and the read contends with the fetch stream's line.
    const char body[] =
        "        MOV #50, R10\n"
        "gloop:  ADD #3, R11\n"
        "        XOR &gfar, R12\n"
        "        DEC R10\n"
        "        JNZ gloop\n"
        "        JMP gend\n"
        "        .space 64\n"
        "gfar:   .word 0x1234\n"
        "gend:\n";
    for (const GateCase &c : cases) {
        sim::MachineConfig config = tierConfig(Tier::Threaded);
        config.fram_wait_states = c.wait_states;
        config.contention_stall = c.contention_stall;
        config.threaded_enabled = c.threaded_enabled;
        sim::MachineConfig oracle_config = config;
        oracle_config.superblock_enabled = false;
        oracle_config.predecode_enabled = false;

        test::MiniRun run = test::runBody(body, config);
        test::MiniRun oracle = test::runBody(body, oracle_config);
        ASSERT_TRUE(run.result.done) << c.name;
        ASSERT_TRUE(oracle.result.done) << c.name;
        const sim::Stats &s = run.stats();
        EXPECT_GE(s.stall_cycles, 0xFFFFu) << c.name;
        if (c.fast) {
            EXPECT_GT(s.threaded_instructions, 0u) << c.name;
        } else {
            EXPECT_EQ(s.threaded_instructions, 0u) << c.name;
            EXPECT_EQ(s.superblock_blocks_built, 0u) << c.name;
        }
        expectSimStatsEqual(withoutPredecode(s), oracle.stats(), c.name);
        EXPECT_EQ(run.machine->cpu().regs(), oracle.machine->cpu().regs())
            << c.name;
    }
}

/** Every FRAM access shape the threaded tier lowers, in FRAM code
 *  with its data and stack on FRAM lines of their own: a static read,
 *  a static read-modify-write, indexed and indirect reads, an indexed
 *  read-modify-write, PUSH and CALL (and RET and POP) on the FRAM
 *  stack, and two generic-kernel ops. */
const char kFramTimingBody[] =
    "        MOV #24, R10\n"
    "        MOV SP, R15\n"
    "        MOV #fstk, SP\n"
    "tloop:  MOV &fvar, R5\n"
    "        ADD R10, &fvar\n"
    "        MOV #fvar, R6\n"
    "        ADD 2(R6), R7\n"
    "        XOR @R6, R8\n"
    "        MOV @R6+, R9\n"
    "        ADD R5, 0(R6)\n"
    "        PUSH R5\n"
    "        CALL #tsub\n"
    "        POP R5\n"
    "        RRC &fvar\n"
    "        MOV @R6+, 2(R6)\n"
    "        DEC R10\n"
    "        JNZ tloop\n"
    "        MOV R15, SP\n"
    "        JMP tend\n"
    "tsub:   ADD #1, R11\n"
    "        RET\n"
    "        .space 64\n"
    "fvar:   .word 0x1234, 0x5678, 0x9ABC, 0xDEF0\n"
    "        .space 32\n"
    "fstk:\n"
    "tend:\n";

/** Run @p built as the runner would, with its owner and recovery
 *  ranges, under @p config. */
std::unique_ptr<sim::Machine>
runBuilt(const harness::BuiltImage &built, sim::MachineConfig config)
{
    config.sram_size = built.inputs.sram_size;
    config.timer_period_cycles =
        built.inputs.workload->timer_period_cycles;
    auto machine = std::make_unique<sim::Machine>(config);
    machine->load(built.image, built.stack_top);
    if (built.handler.size)
        machine->addOwnerRange(built.handler.base, built.handler.end(),
                               sim::CodeOwner::Handler);
    if (built.copy.size)
        machine->addOwnerRange(built.copy.base, built.copy.end(),
                               sim::CodeOwner::Memcpy);
    if (built.datapool.size)
        machine->addOwnerRange(built.datapool.base, built.datapool.end(),
                               sim::CodeOwner::Handler);
    if (built.recover.size)
        machine->setRecoveryRange(built.recover.base, built.recover.end());
    EXPECT_TRUE(machine->run().done);
    return machine;
}

/** The FRAM timing rules under every combination of their inputs —
 *  hardware cache on and off, wait states 0 and 3, contention stall 0
 *  and 2 — on the access-shape body and on the nine workloads' images
 *  for every system. Each case runs threaded and matches the
 *  always-decode oracle in every simulated counter. */
TEST(Threaded, FramTimingMatrixMatchesOracle)
{
    std::vector<std::shared_ptr<const harness::BuiltImage>> images;
    for (const workloads::Workload &w : workloads::all()) {
        for (harness::System system :
             {harness::System::Baseline, harness::System::SwapRam,
              harness::System::BlockCache}) {
            images.push_back(harness::buildImage(
                harness::buildInputs(harness::sweepSpec(w, system))));
            ASSERT_TRUE(images.back()->sizes.fits) << w.name;
        }
    }
    for (const bool hw_cache : {true, false}) {
        for (const std::uint32_t wait_states : {0u, 3u}) {
            for (const std::uint32_t contention : {0u, 2u}) {
                sim::MachineConfig config;
                config.hw_cache_enabled = hw_cache;
                config.fram_wait_states = wait_states;
                config.contention_stall = contention;
                config.predecode_enabled = false;
                const std::string name =
                    std::string(hw_cache ? "cache on" : "cache off") +
                    " ws " + std::to_string(wait_states) +
                    " contention " + std::to_string(contention);

                sim::Stats s = expectThreadedMatchesOracle(
                    kFramTimingBody, name, config);
                EXPECT_GT(s.threaded_instructions, 0u) << name;
                for (const auto &built : images) {
                    const std::string ctx =
                        name + " " + built->inputs.workload->name + "/" +
                        harness::systemName(built->inputs.system);
                    config.superblock_enabled = true;
                    auto fast = runBuilt(*built, config);
                    config.superblock_enabled = false;
                    auto oracle = runBuilt(*built, config);
                    EXPECT_GT(fast->stats().threaded_instructions, 0u)
                        << ctx;
                    expectSimStatsEqual(fast->stats(), oracle->stats(),
                                        ctx);
                    EXPECT_EQ(fast->cpu().regs(), oracle->cpu().regs())
                        << ctx;
                }
            }
        }
    }
}

/** Fast-tier stores at the SRAM end that sram_size sets. At 1024,
 *  kSramBase + 1024 is unmapped: the Absolute store is left out of
 *  every block and the Indexed store fails the mapped-space pre-check,
 *  so the oracle steps each and throws the bus's fatal. At 8192 the
 *  same address is SRAM and both stores run on the fast tier. Either
 *  way the threaded run matches the oracle, which pins the tier's one
 *  mapped-space predicate to the bus's regionOf. */
TEST(Threaded, ShrunkenSramEndMatchesOracle)
{
    struct EndCase {
        const char *name;
        const char *body;
    };
    const EndCase cases[] = {
        {"absolute",
         "        MOV #40, R10\n"
         "warm:   ADD #3, R6\n"
         "        DEC R10\n"
         "        JNZ warm\n"
         "        MOV R6, &0x2400\n"},
        {"indexed",
         "        MOV #0x23E0, R7\n"
         "walk:   MOV R6, 0(R7)\n"
         "        ADD #2, R7\n"
         "        CMP #0x2402, R7\n"
         "        JNE walk\n"},
    };
    static_assert(platform::kSramBase + 1024 == 0x2400);
    struct EndRun {
        std::unique_ptr<sim::Machine> machine;
        bool done = false;
        std::string error; ///< the FatalError text, if run() threw
    };
    for (const std::uint32_t sram_size : {1024u, 8192u}) {
        for (const EndCase &c : cases) {
            const std::string ctx =
                std::string(c.name) + " sram_size " +
                std::to_string(sram_size);
            auto run = [&](Tier tier) {
                sim::MachineConfig config = tierConfig(tier);
                config.sram_size = sram_size;
                EndRun r;
                r.machine = std::make_unique<sim::Machine>(config);
                masm::LayoutSpec layout;
                layout.data_base = platform::kSramBase;
                r.machine->load(
                    masm::assemble(masm::parse(test::wrapBody(c.body)),
                                   layout)
                        .image,
                    0x3000);
                try {
                    r.done = r.machine->run().done;
                } catch (const support::FatalError &e) {
                    r.error = e.what();
                }
                return r;
            };
            EndRun fast = run(Tier::Threaded);
            EndRun oracle = run(Tier::Oracle);
            if (sram_size == 1024) {
                EXPECT_NE(oracle.error, "") << ctx;
                EXPECT_FALSE(fast.done) << ctx;
            } else {
                EXPECT_TRUE(oracle.done) << ctx << ": " << oracle.error;
                EXPECT_TRUE(fast.done) << ctx << ": " << fast.error;
            }
            EXPECT_EQ(fast.error, oracle.error) << ctx;
            EXPECT_GT(fast.machine->stats().threaded_instructions, 0u)
                << ctx;
            expectSimStatsEqual(fast.machine->stats(),
                                oracle.machine->stats(), ctx);
            EXPECT_EQ(fast.machine->cpu().regs(),
                      oracle.machine->cpu().regs())
                << ctx;
        }
    }
}

} // namespace
