/**
 * @file
 * Crash-atomic checkpointing and harvest-trace intermittent execution
 * (ISSUE 8).
 *
 * Covers the HarvestTrace/CapacitorModel energy math, the Trace fault
 * plan's determinism, the zero-uptime guards on the synthetic plans,
 * the torn-checkpoint crash-window matrix (a power failure at EVERY
 * cycle of __ckpt_commit must leave exactly the old or the new
 * checkpoint, never a blend), checkpointed convergence under both
 * cache runtimes, and the forward-progress guarantee: a harvest trace
 * whose per-boot energy can never finish the workload livelocks the
 * checkpoint-free build but converges under periodic-N commits.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "harness/runner.hh"
#include "masm/parser.hh"
#include "sim/fault.hh"
#include "sim/harvest.hh"
#include "sim/machine.hh"
#include "support/logging.hh"
#include "support/platform.hh"
#include "swapram/builder.hh"
#include "workloads/workload.hh"

namespace {

using namespace swapram;

// ---- HarvestTrace / CapacitorModel ----

TEST(HarvestTrace, ParsesCsvAndIntegratesEnergy)
{
    auto trace = sim::HarvestTrace::parse(
        "# a comment\n"
        "0, 0.001\n"
        "\n"
        "0.5, 0.002\n"
        "1.0, 0\n",
        "inline");
    ASSERT_EQ(trace.points().size(), 3u);
    EXPECT_DOUBLE_EQ(trace.powerWatts(0.0), 0.001);
    EXPECT_DOUBLE_EQ(trace.powerWatts(0.4999), 0.001);
    EXPECT_DOUBLE_EQ(trace.powerWatts(0.5), 0.002);
    // The last point extends forever.
    EXPECT_DOUBLE_EQ(trace.powerWatts(100.0), 0.0);
    // 0.5s @ 1mW + 0.5s @ 2mW = 1.5 mJ = 1.5e9 pJ.
    EXPECT_NEAR(trace.energyPj(1.0), 1.5e9, 1.0);
    EXPECT_NEAR(trace.energyPj(10.0), 1.5e9, 1.0);
    EXPECT_NEAR(trace.energyPj(0.25), 0.25e9, 1.0);
}

TEST(HarvestTrace, AcceptsHeaderOnlyAsFirstLine)
{
    auto trace = sim::HarvestTrace::parse(
        "# columns below\n"
        "time_s,power_w\n"
        "0,1e-3\n"
        "0.5,2e-3 # trailing comment\n",
        "inline");
    ASSERT_EQ(trace.points().size(), 2u);
    EXPECT_DOUBLE_EQ(trace.points()[0].t_s, 0.0);
    EXPECT_DOUBLE_EQ(trace.points()[0].watts, 1e-3);
    EXPECT_DOUBLE_EQ(trace.points()[1].t_s, 0.5);

    // A header after data, a second header, and a header-only trace.
    EXPECT_THROW(sim::HarvestTrace::parse("0,1e-3\ntime_s,power_w\n"),
                 support::FatalError);
    EXPECT_THROW(sim::HarvestTrace::parse(
                     "time_s,power_w\ntime_s,power_w\n0,1\n"),
                 support::FatalError);
    EXPECT_THROW(sim::HarvestTrace::parse("time_s,power_w\n"),
                 support::FatalError);
}

TEST(HarvestTrace, RejectsMalformedFieldsNamingTheLine)
{
    struct Bad {
        const char *csv;
        int line; ///< the line the diagnostic must name
    };
    const Bad bad[] = {
        {"0,nan\n", 1},            // non-finite power
        {"inf,1e-3\n", 1},         // non-finite time
        {"0,1e-3\n1,-inf\n", 2},
        {"0,1e400\n", 1},          // overflows to infinity
        {"time,power\n0,1\n", 1}, // some other header
        {"0,1e-3x\n", 1},          // trailing junk
        {"0 1,1e-3\n", 1},
        {"0,\n", 1},               // empty field
        {",1e-3\n", 1},
        {"0,1e-3,2\n", 1},         // a third column
        {"0;1e-3\n", 1},           // wrong separator
    };
    for (const Bad &b : bad) {
        try {
            sim::HarvestTrace::parse(b.csv, "t.csv");
            ADD_FAILURE() << "accepted: " << b.csv;
        } catch (const support::FatalError &e) {
            std::string msg = e.what();
            EXPECT_NE(msg.find("t.csv:" + std::to_string(b.line) + ":"),
                      std::string::npos)
                << msg;
        }
    }
}

TEST(HarvestTrace, CommittedExamplesParseToTheirDataLines)
{
    for (const char *name : {"steady_solar", "cloudy_solar", "bursty_rf",
                             "dim_indoor"}) {
        std::string path =
            std::string(SWAPRAM_HARVEST_DIR) + "/" + name + ".csv";
        sim::HarvestTrace trace = sim::HarvestTrace::load(path);
        // Reference: every non-comment, non-blank line, read plainly.
        std::ifstream in(path);
        std::vector<sim::HarvestTrace::Point> want;
        std::string line;
        while (std::getline(in, line)) {
            if (line.empty() || line[0] == '#')
                continue;
            std::size_t comma = line.find(',');
            want.push_back({std::stod(line.substr(0, comma)),
                            std::stod(line.substr(comma + 1))});
        }
        ASSERT_FALSE(want.empty()) << path;
        ASSERT_EQ(trace.points().size(), want.size()) << path;
        for (std::size_t i = 0; i < want.size(); ++i) {
            EXPECT_EQ(trace.points()[i].t_s, want[i].t_s) << path;
            EXPECT_EQ(trace.points()[i].watts, want[i].watts) << path;
        }
    }
}

TEST(HarvestTrace, RechargeTimeWalksTheProfile)
{
    // 1 mW inflow, 10 uW leak: net 990 uW. Refilling from brown-out
    // (20 uJ) to power-on (60 uJ) needs 40 uJ ~= 40.4 ms.
    auto trace = sim::HarvestTrace::fromPoints({{0.0, 1e-3}});
    sim::CapacitorModel cap;
    auto r = sim::rechargeTime(trace, cap, cap.brown_out_pj, 0.0);
    ASSERT_TRUE(r.reachable);
    EXPECT_NEAR(r.seconds, 40e-6 / (1e-3 - 10e-6), 1e-4);

    // Harvest below the leak can never recharge: exhausted.
    auto weak = sim::HarvestTrace::fromPoints({{0.0, 5e-6}});
    EXPECT_FALSE(
        sim::rechargeTime(weak, cap, cap.brown_out_pj, 0.0).reachable);

    // A later segment can still rescue a currently-dark harvest.
    auto delayed = sim::HarvestTrace::fromPoints({{0.0, 0.0},
                                                  {0.1, 1e-3}});
    auto d = sim::rechargeTime(delayed, cap, cap.brown_out_pj, 0.0);
    ASSERT_TRUE(d.reachable);
    EXPECT_GT(d.seconds, 0.1);
}

// ---- Zero-uptime guards on the synthetic plans ----

TEST(FaultPlan, RandomZeroGapStillAdvancesEveryBoot)
{
    // An all-zero gap range is rejected outright...
    EXPECT_THROW(sim::FaultInjector(sim::FaultPlan::random(0, 0, 42)),
                 support::FatalError);
    // ...and min_gap = 0 must not produce a zero-uptime boot: the
    // injector clamps every drawn gap to >= 1 cycle, so the failure
    // schedule is strictly increasing and a bounded plan terminates.
    sim::FaultInjector fi(sim::FaultPlan::random(0, 1, 42, 50));
    std::uint64_t prev = UINT64_MAX;
    std::uint64_t failures = 0;
    for (std::uint64_t cycle = 0; cycle < 1000 && failures < 50;
         ++cycle) {
        if (fi.shouldFail(cycle)) {
            if (prev != UINT64_MAX) {
                EXPECT_GT(cycle, prev);
            }
            prev = cycle;
            ++failures;
        }
    }
    EXPECT_EQ(failures, 50u);
    EXPECT_GT(fi.nextFailureCycle(), prev);
}

TEST(FaultPlan, PeriodicRejectsZeroPeriod)
{
    EXPECT_THROW(sim::FaultInjector fi(sim::FaultPlan::periodic(0)),
                 support::FatalError);
}

// ---- Torn-checkpoint crash-window matrix ----

/** A workload whose FRAM-visible result depends on call order, built
 *  as a SwapRAM binary with a tiny captured SRAM window so the commit
 *  copy is short enough to fault at every single cycle. */
struct TornRig {
    cache::BuildInfo info;
    std::uint16_t stack_top = 0x2200;

    std::unique_ptr<sim::Machine>
    makeMachine(bool superblock = true) const
    {
        sim::MachineConfig config;
        config.superblock_enabled = superblock;
        auto m = std::make_unique<sim::Machine>(config);
        m->load(info.assembled.image, stack_top);
        m->addOwnerRange(info.handler_addr, info.handler_end,
                         sim::CodeOwner::Handler);
        m->addOwnerRange(info.memcpy_addr, info.memcpy_end,
                         sim::CodeOwner::Memcpy);
        m->addOwnerRange(info.ckpt_addr, info.ckpt_end,
                         sim::CodeOwner::Handler);
        m->setRecoveryRange(info.recover_addr, info.recover_end);
        return m;
    }

    std::uint16_t
    peekSym(const sim::Machine &m, const char *sym) const
    {
        return m.peek16(info.assembled.symbol(sym));
    }
};

TornRig
buildTornRig()
{
    // Stack in [0x2100, 0x2200), cache in [0x2000, 0x2100), checkpoint
    // capturing exactly that 512-byte window. .text/.data stay in FRAM
    // (the default layout), so the checkpoint also carries the FRAM
    // .data segment.
    const char *body = R"(
        .text
        .func main
        CALL #f_add
        CALL #f_mix
        CALL #f_add
        MOV &acc, R12
        MOV R12, &bench_result
        RET
        .endfunc
        .func f_add
        ADD #0x111, &acc
        RET
        .endfunc
        .func f_mix
        XOR #0x3C5A, &acc
        ADD #7, &acc
        RET
        .endfunc
        .data
        .align 2
acc: .word 0x1000
bench_result: .word 0
)";
    TornRig rig;
    cache::Options opt;
    opt.cache_base = 0x2000;
    opt.cache_end = 0x2100;
    opt.ckpt.scheme = ckpt::Scheme::Periodic;
    opt.ckpt.period = 1; // commit on every miss
    opt.ckpt.sram_end = 0x2200;
    std::string source =
        harness::startupSource(rig.stack_top, 1, "__swp_recover") +
        body;
    rig.info = cache::build(masm::parse(source), masm::LayoutSpec{},
                            opt);
    EXPECT_GT(rig.info.ckpt_end, rig.info.ckpt_addr);
    return rig;
}

TEST(TornCheckpoint, FaultAtEveryCommitCycleNeverBlends)
{
    TornRig rig = buildTornRig();

    // Pass 1 (single-step oracle): record the total-cycle stamp of
    // every instruction retired inside __ckpt_commit, for every commit
    // invocation — the first seals buffer 0 cold, later ones alternate
    // while the other buffer holds a valid older snapshot.
    auto probe = rig.makeMachine(/*superblock=*/false);
    std::vector<std::uint64_t> window;
    const std::uint16_t commit = rig.info.assembled.symbol(
        "__ckpt_commit");
    const std::uint16_t commit_end = rig.info.assembled.symbol(
        "__ckpt_restore"); // routines are emitted back to back
    while (!probe->mmio().done()) {
        std::uint16_t pc = probe->cpu().pc();
        if (pc >= commit && pc < commit_end)
            window.push_back(probe->stats().totalCycles());
        probe->step();
        ASSERT_LT(probe->stats().totalCycles(), 200'000u)
            << "probe run did not terminate";
    }
    const std::uint16_t want = rig.peekSym(*probe, "bench_result");
    const std::uint16_t commits = rig.peekSym(*probe, "__ckpt_ncommit");
    ASSERT_GE(commits, 3u); // main, f_add, f_mix each missed once
    ASSERT_GT(window.size(), 100u);

    // Pass 2: power-fail at every cycle stamp inside the commit
    // routine (plus a margin past each end — the seal and the RET).
    std::set<std::uint64_t> cycles(window.begin(), window.end());
    for (std::uint64_t c : window) {
        cycles.insert(c + 1);
        cycles.insert(c + 2);
    }
    int checked = 0;
    for (std::uint64_t c : cycles) {
        auto m = rig.makeMachine();
        sim::FaultInjector fi(sim::FaultPlan::once(c));
        m->setFaultInjector(&fi);
        auto r = m->run();
        ASSERT_TRUE(r.done) << "fault cycle " << c;
        // The final state must be exactly the uninterrupted result:
        // recovery restored a whole checkpoint (old or new), never a
        // mix of the two buffers.
        EXPECT_EQ(rig.peekSym(*m, "bench_result"), want)
            << "fault cycle " << c;
        if (m->stats().reboots) {
            // A crash inside commit always reboots into a restore:
            // at least buffer 0's cold commit completed first... or
            // nothing was sealed yet, in which case the cold path
            // simply reruns from main. Either way the counters stay
            // coherent.
            std::uint16_t n_commit = rig.peekSym(*m, "__ckpt_ncommit");
            std::uint16_t n_restore = rig.peekSym(*m,
                                                  "__ckpt_nrestore");
            // A fault between the magic seal and the INC of the
            // counter leaves a valid checkpoint whose resume skips
            // the increment, so ncommit may undercount by one.
            EXPECT_GE(n_commit + 1u, commits) << "fault cycle " << c;
            EXPECT_LE(n_restore, 1u) << "fault cycle " << c;
        }
        ++checked;
    }
    // The window spans the full metadata + SRAM + .data copy of at
    // least three separate commits.
    EXPECT_GT(checked, 100);
}

// ---- Checkpointed convergence at the harness level ----

harness::RunSpec
ckptSpec(harness::System system, ckpt::Scheme scheme, int period = 1)
{
    static workloads::Workload arith = workloads::makeArith();
    harness::RunSpec spec;
    spec.workload = &arith;
    spec.system = system;
    spec.placement = harness::Placement::Standard;
    // A 1 KiB SRAM keeps the commit copy short (~5k cycles); with the
    // full 4 KiB capture a commit outlasts the fault periods below and
    // every snapshot is torn — correctly, but the convergence tests
    // want sealed checkpoints to restore from.
    spec.sram_size = 1024;
    for (ckpt::Options *o : {&spec.swap.ckpt, &spec.block.ckpt}) {
        o->scheme = scheme;
        o->period = period;
    }
    return spec;
}

TEST(Checkpoint, SwapRamConvergesUnderPeriodicCommits)
{
    auto spec = ckptSpec(harness::System::SwapRam,
                         ckpt::Scheme::Periodic);
    spec.intermittent.plan = sim::FaultPlan::periodic(12'000, 6);
    auto check = harness::checkIntermittent(spec);
    EXPECT_TRUE(check.matchState());
    EXPECT_EQ(check.faulted.stats.reboots, 6u);
    EXPECT_GT(check.faulted.rt_ckpt_commits, 0u);
    EXPECT_GT(check.faulted.rt_ckpt_restores, 0u);
    // The uninterrupted twin commits but never restores.
    EXPECT_GT(check.reference.rt_ckpt_commits, 0u);
    EXPECT_EQ(check.reference.rt_ckpt_restores, 0u);
}

TEST(Checkpoint, BlockCacheConvergesUnderPeriodicCommits)
{
    auto spec = ckptSpec(harness::System::BlockCache,
                         ckpt::Scheme::Periodic);
    spec.intermittent.plan = sim::FaultPlan::periodic(12'000, 6);
    auto check = harness::checkIntermittent(spec);
    EXPECT_TRUE(check.matchState());
    EXPECT_EQ(check.faulted.stats.reboots, 6u);
    EXPECT_GT(check.faulted.rt_ckpt_commits, 0u);
    EXPECT_GT(check.faulted.rt_ckpt_restores, 0u);
}

TEST(Checkpoint, SchemeNoneMatchesThePreCheckpointBuild)
{
    // ckpt scheme none must generate byte-for-byte the pre-checkpoint
    // runtime: same cycles, checksum, and sizes as a spec that never
    // mentions checkpointing.
    auto base = ckptSpec(harness::System::SwapRam, ckpt::Scheme::None);
    harness::RunSpec plain = base;
    plain.swap.ckpt = ckpt::Options{};
    plain.block.ckpt = ckpt::Options{};
    auto a = harness::runOne(base);
    auto b = harness::runOne(plain);
    ASSERT_TRUE(a.done && b.done);
    EXPECT_EQ(a.stats.totalCycles(), b.stats.totalCycles());
    EXPECT_EQ(a.checksum, b.checksum);
    EXPECT_EQ(a.text_bytes, b.text_bytes);
    EXPECT_EQ(a.metadata_bytes, b.metadata_bytes);
    EXPECT_EQ(a.data_snapshot, b.data_snapshot);
    EXPECT_EQ(a.rt_ckpt_commits, 0u);
}

TEST(Checkpoint, FramStackPlacementIsRejected)
{
    auto spec = ckptSpec(harness::System::SwapRam,
                         ckpt::Scheme::Periodic);
    spec.placement = harness::Placement::Unified; // FRAM stack
    EXPECT_THROW(harness::runOne(spec), support::FatalError);

    auto no_rec = ckptSpec(harness::System::SwapRam,
                           ckpt::Scheme::Periodic);
    no_rec.swap.boot_recovery = false;
    EXPECT_THROW(harness::runOne(no_rec), support::FatalError);
}

// ---- Harvest-trace runs: determinism, exhaustion, livelock ----

/** A workload big enough that a small per-boot energy budget cannot
 *  finish it, with a call-heavy inner loop whose functions overflow a
 *  1 KiB SRAM so the miss handler (and the periodic commit hook) keeps
 *  firing for the whole run. */
workloads::Workload
thrashWorkload()
{
    auto func = [](const char *name, const char *op) {
        std::string s = "        .func " + std::string(name) + "\n";
        for (int i = 0; i < 70; ++i)
            s += "        " + std::string(op) + "\n";
        s += "        RET\n        .endfunc\n";
        return s;
    };
    workloads::Workload w;
    w.name = "ckpt_thrash";
    w.display = w.name;
    w.source =
        "        .text\n"
        "        .func main\n"
        "        MOV #120, R10\n"
        "loop:\n"
        "        CALL #f_one\n"
        "        CALL #f_two\n"
        "        CALL #f_three\n"
        "        DEC R10\n"
        "        JNZ loop\n"
        "        MOV &acc, R12\n"
        "        MOV R12, &bench_result\n"
        "        RET\n"
        "        .endfunc\n" +
        func("f_one", "ADD #3, &acc") +
        func("f_two", "XOR #0x1248, &acc") +
        func("f_three", "ADD #1, &acc") +
        "        .data\n        .align 2\n"
        "acc: .word 0\n"
        "bench_result: .word 0\n";
    return w;
}

/** Spec for the thrash workload on SwapRAM at 1 KiB SRAM. */
harness::RunSpec
thrashSpec(const workloads::Workload &w, ckpt::Scheme scheme)
{
    harness::RunSpec spec;
    spec.workload = &w;
    spec.system = harness::System::SwapRam;
    spec.placement = harness::Placement::Standard;
    spec.sram_size = 1024;
    spec.include_lib = false;
    for (ckpt::Options *o : {&spec.swap.ckpt, &spec.block.ckpt}) {
        o->scheme = scheme;
        o->period = 4;
        // capFor() puts the brown-out at ~60% and the power-on at
        // ~80% of capacity; the low-energy commit must trigger in
        // between (the default 25% would never be reached).
        o->low_threshold = 0xB000;
    }
    return spec;
}

/** Capacitor sized from the workload's uninterrupted energy so each
 *  boot gets roughly 1/@p divisor of the run. */
sim::CapacitorModel
capFor(double run_pj, double divisor)
{
    sim::CapacitorModel cap;
    cap.brown_out_pj = run_pj / 4;
    cap.power_on_pj = cap.brown_out_pj + run_pj / divisor;
    cap.capacity_pj = cap.power_on_pj * 1.25;
    cap.initial_pj = cap.power_on_pj; // first boot like any other
    cap.leak_watts = 1e-6;
    return cap;
}

TEST(Harvest, PeriodicCheckpointsConvergeWhereNoneLivelocks)
{
    workloads::Workload w = thrashWorkload();

    // Reference: the checkpointed build, uninterrupted.
    auto ref_spec = thrashSpec(w, ckpt::Scheme::Periodic);
    auto ref = harness::runOne(ref_spec);
    ASSERT_TRUE(ref.fits) << ref.fit_note;
    ASSERT_TRUE(ref.done);
    ASSERT_GT(ref.rt_ckpt_commits, 10u)
        << "the thrash loop should commit throughout the run";

    // A steady but weak harvest: ~1/12 of the run's energy per boot,
    // trickle-charged at 50 uW between boots.
    auto trace = std::make_shared<sim::HarvestTrace>(
        sim::HarvestTrace::fromPoints({{0.0, 50e-6}}));
    sim::CapacitorModel cap = capFor(ref.energy_pj, 12.0);

    // Without checkpoints every boot replays the same prefix and the
    // watchdog calls it: no forward progress.
    auto none_spec = thrashSpec(w, ckpt::Scheme::None);
    none_spec.intermittent.plan = sim::FaultPlan::harvest(trace, cap);
    none_spec.intermittent.livelock_boots = 6;
    auto none = harness::runOne(none_spec);
    ASSERT_TRUE(none.fits) << none.fit_note;
    EXPECT_FALSE(none.done);
    EXPECT_EQ(none.stop, sim::RunResult::Stop::Livelock);
    EXPECT_GE(none.stats.reboots, 4u);

    // With periodic commits the same harvest converges to the
    // uninterrupted result.
    auto ckpt_spec = thrashSpec(w, ckpt::Scheme::Periodic);
    ckpt_spec.intermittent.plan = sim::FaultPlan::harvest(trace, cap);
    ckpt_spec.intermittent.livelock_boots = 6;
    auto got = harness::runOne(ckpt_spec);
    ASSERT_TRUE(got.fits) << got.fit_note;
    ASSERT_TRUE(got.done)
        << "stop=" << static_cast<int>(got.stop)
        << " reboots=" << got.stats.reboots;
    EXPECT_EQ(got.checksum, ref.checksum);
    EXPECT_EQ(got.data_snapshot, ref.data_snapshot);
    EXPECT_GT(got.stats.reboots, 3u);
    EXPECT_GT(got.rt_ckpt_restores, 0u);
    // Harvest accounting flows into the metrics.
    EXPECT_GT(got.harvested_pj, 0.0);
    EXPECT_GT(got.wall_seconds, 0.0);
}

TEST(Harvest, PeriodKOrbitIsDetectedAsLivelock)
{
    // crc_big warms its working set early, so commits cluster at the
    // front of the run; under a small budget the run restores the
    // last checkpoint every boot and orbits a small set of persistent
    // states (the recovery walk alternates pool slots) without ever
    // repeating the SAME state twice in a row. The watchdog must
    // recognise "no NEW state" rather than "identical state".
    const workloads::Workload *w = workloads::find("crc_big");
    ASSERT_NE(w, nullptr);

    harness::RunSpec ref_spec;
    ref_spec.workload = w;
    ref_spec.system = harness::System::SwapRam;
    ref_spec.placement = harness::Placement::Standard;
    ref_spec.sram_size = 1024;
    for (ckpt::Options *o : {&ref_spec.swap.ckpt, &ref_spec.block.ckpt}) {
        o->scheme = ckpt::Scheme::Periodic;
        o->period = 8;
    }
    auto ref = harness::runOne(ref_spec);
    ASSERT_TRUE(ref.fits) << ref.fit_note;
    ASSERT_TRUE(ref.done);

    auto trace = std::make_shared<sim::HarvestTrace>(
        sim::HarvestTrace::fromPoints({{0.0, 50e-6}}));
    auto spec = ref_spec;
    spec.intermittent.plan =
        sim::FaultPlan::harvest(trace, capFor(ref.energy_pj, 7.0));
    spec.intermittent.livelock_boots = 8;
    auto got = harness::runOne(spec);
    ASSERT_TRUE(got.fits) << got.fit_note;
    EXPECT_FALSE(got.done);
    EXPECT_EQ(got.stop, sim::RunResult::Stop::Livelock)
        << "reboots=" << got.stats.reboots;
    // The orbit is a stalled checkpoint cycle, not a cold replay: it
    // sealed at least one commit and then kept restoring it.
    EXPECT_GE(got.rt_ckpt_commits, 1u);
    EXPECT_GT(got.rt_ckpt_restores, got.rt_ckpt_commits);
}

TEST(Harvest, TraceRunsAreDeterministic)
{
    workloads::Workload w = thrashWorkload();
    auto ref = harness::runOne(thrashSpec(w, ckpt::Scheme::Periodic));
    ASSERT_TRUE(ref.done);

    auto trace = std::make_shared<sim::HarvestTrace>(
        sim::HarvestTrace::fromPoints({{0.0, 50e-6}}));
    sim::CapacitorModel cap = capFor(ref.energy_pj, 12.0);

    auto make = [&](bool superblock) {
        auto spec = thrashSpec(w, ckpt::Scheme::Periodic);
        spec.intermittent.plan = sim::FaultPlan::harvest(trace, cap);
        spec.superblock = superblock;
        return harness::runOne(spec);
    };
    auto a = make(true);
    auto b = make(true);
    EXPECT_EQ(a.stats.reboots, b.stats.reboots);
    EXPECT_EQ(a.stats.totalCycles(), b.stats.totalCycles());
    EXPECT_EQ(a.harvested_pj, b.harvested_pj);
    EXPECT_EQ(a.wall_seconds, b.wall_seconds);

    // The threaded tier only evaluates the injector at block
    // boundaries; the brown-outs must still land on the same cycles
    // as the single-step oracle.
    auto c = make(false);
    EXPECT_EQ(a.stats.reboots, c.stats.reboots);
    EXPECT_EQ(a.stats.totalCycles(), c.stats.totalCycles());
    EXPECT_EQ(a.checksum, c.checksum);
    EXPECT_EQ(a.harvested_pj, c.harvested_pj);
}

TEST(Harvest, SubLeakageHarvestExhausts)
{
    workloads::Workload w = thrashWorkload();
    auto ref = harness::runOne(thrashSpec(w, ckpt::Scheme::Periodic));
    ASSERT_TRUE(ref.done);

    // Inflow below the parasitic leak: after the first brown-out the
    // capacitor can never reach the power-on threshold again.
    auto trace = std::make_shared<sim::HarvestTrace>(
        sim::HarvestTrace::fromPoints({{0.0, 0.5e-6}}));
    sim::CapacitorModel cap = capFor(ref.energy_pj, 12.0);

    auto spec = thrashSpec(w, ckpt::Scheme::Periodic);
    spec.intermittent.plan = sim::FaultPlan::harvest(trace, cap);
    auto got = harness::runOne(spec);
    ASSERT_TRUE(got.fits) << got.fit_note;
    EXPECT_FALSE(got.done);
    EXPECT_EQ(got.stop, sim::RunResult::Stop::Exhausted);
    // Exhaustion is detected at the brown-out, before any reboot.
    EXPECT_EQ(got.stats.reboots, 0u);
}

TEST(Harvest, OnLowEnergyCommitsOncePerEpisode)
{
    workloads::Workload w = thrashWorkload();
    auto ref_spec = thrashSpec(w, ckpt::Scheme::OnLowEnergy);
    auto ref = harness::runOne(ref_spec);
    ASSERT_TRUE(ref.done);
    // Mains-powered (levelWord = 0xFFFF): never below the threshold,
    // so the hysteresis latch never fires.
    EXPECT_EQ(ref.rt_ckpt_commits, 0u);

    auto trace = std::make_shared<sim::HarvestTrace>(
        sim::HarvestTrace::fromPoints({{0.0, 50e-6}}));
    sim::CapacitorModel cap = capFor(ref.energy_pj, 12.0);

    auto spec = thrashSpec(w, ckpt::Scheme::OnLowEnergy);
    spec.intermittent.plan = sim::FaultPlan::harvest(trace, cap);
    spec.intermittent.livelock_boots = 8;
    auto got = harness::runOne(spec);
    ASSERT_TRUE(got.fits) << got.fit_note;
    ASSERT_TRUE(got.done)
        << "stop=" << static_cast<int>(got.stop)
        << " reboots=" << got.stats.reboots;
    EXPECT_EQ(got.checksum, ref.checksum);
    EXPECT_EQ(got.data_snapshot, ref.data_snapshot);
    EXPECT_GT(got.rt_ckpt_commits, 0u);
    EXPECT_GT(got.rt_ckpt_restores, 0u);
    // One commit per draining episode, not one per miss: far fewer
    // commits than the periodic scheme would make over this many
    // reboots.
    EXPECT_LE(got.rt_ckpt_commits,
              static_cast<std::uint16_t>(2 * got.stats.reboots + 2));
}

} // namespace
