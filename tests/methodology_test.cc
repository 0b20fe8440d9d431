/**
 * @file
 * Tests for the paper's measurement methodology (§4): each benchmark
 * is run several times in one session so the common case — after
 * SwapRAM has populated the cache — dominates. The first call pays the
 * cold misses; later calls hit warm redirect cells.
 */

#include <gtest/gtest.h>

#include "harness/runner.hh"
#include "masm/assembler.hh"
#include "masm/parser.hh"
#include "workloads/workload.hh"

namespace {

using namespace swapram;

harness::Metrics
runRepeats(const workloads::Workload &w, harness::System system,
           int repeats)
{
    harness::RunSpec spec;
    spec.workload = &w;
    spec.system = system;
    spec.main_repeats = repeats;
    return harness::runOne(spec);
}

TEST(Methodology, RepeatsAmortizeColdMisses)
{
    auto w = workloads::makeCrc();
    auto base1 = runRepeats(w, harness::System::Baseline, 1);
    auto swap1 = runRepeats(w, harness::System::SwapRam, 1);
    auto base10 = runRepeats(w, harness::System::Baseline, 10);
    auto swap10 = runRepeats(w, harness::System::SwapRam, 10);
    ASSERT_TRUE(base1.done && swap1.done && base10.done && swap10.done);

    double cold = static_cast<double>(base1.stats.totalCycles()) /
                  static_cast<double>(swap1.stats.totalCycles());
    double warm = static_cast<double>(base10.stats.totalCycles()) /
                  static_cast<double>(swap10.stats.totalCycles());
    // Steady-state speedup is at least the cold-start speedup.
    EXPECT_GE(warm, cold * 0.999);

    // The handler only runs during the first iteration's misses: its
    // instruction share in the 10x run is under 10x the 1x share.
    auto handler1 =
        swap1.stats.instr_by_owner[int(sim::CodeOwner::Handler)];
    auto handler10 =
        swap10.stats.instr_by_owner[int(sim::CodeOwner::Handler)];
    EXPECT_EQ(handler1, handler10); // no new misses after warm-up
}

TEST(Methodology, RepeatedRunsAgreeAcrossSystems)
{
    // With repeats the checksum differs from the single-run golden
    // (stateful benchmarks chain), but all systems must still agree.
    for (const char *name : {"rc4", "crc", "bitcount"}) {
        const auto *w = workloads::find(name);
        auto base = runRepeats(*w, harness::System::Baseline, 3);
        auto swap = runRepeats(*w, harness::System::SwapRam, 3);
        auto block = runRepeats(*w, harness::System::BlockCache, 3);
        ASSERT_TRUE(base.done && swap.done && block.done) << name;
        EXPECT_EQ(base.checksum, swap.checksum) << name;
        EXPECT_EQ(base.data_snapshot, swap.data_snapshot) << name;
        if (block.fits) {
            EXPECT_EQ(base.checksum, block.checksum) << name;
            EXPECT_EQ(base.data_snapshot, block.data_snapshot) << name;
        }
    }
}

TEST(Methodology, StartupStubShapes)
{
    auto one = harness::startupSource(0x3000, 1);
    EXPECT_EQ(one.find("__start_loop"), std::string::npos);
    auto ten = harness::startupSource(0x3000, 10);
    EXPECT_NE(ten.find("__start_loop"), std::string::npos);
    EXPECT_NE(ten.find("#10, R10"), std::string::npos);
}

/** Standard and Split size .data/.bss with a baseline probe assembly
 *  of the program the cache build will use, which calls a recovery
 *  routine the probe does not define. The runner predefines that
 *  symbol instead of re-parsing the source without the call; both
 *  probes must place .data and .bss identically. */
TEST(Methodology, RecoveryCallLeavesProbeDataLayoutUnchanged)
{
    std::vector<const workloads::Workload *> wls;
    for (const workloads::Workload &w : workloads::all())
        wls.push_back(&w);
    for (const workloads::Workload &w : workloads::capacity())
        wls.push_back(&w);
    int cases = 0;
    for (const workloads::Workload *w : wls) {
        const std::string body = w->source + workloads::libSource();
        for (harness::Placement placement :
             {harness::Placement::Standard, harness::Placement::Split}) {
            const harness::PlacementPlan plan =
                harness::makePlacement(placement);
            for (int repeats : {1, 60}) {
                masm::AssembleResult reparsed = masm::assemble(
                    masm::parse(harness::startupSource(plan.stack_top,
                                                       repeats) +
                                body),
                    plan.layout);
                for (const char *recover :
                     {"__swp_recover", "__bb_recover"}) {
                    masm::LayoutSpec layout = plan.layout;
                    layout.predefined[recover] = plan.layout.text_base;
                    masm::AssembleResult probe = masm::assemble(
                        masm::parse(harness::startupSource(
                                        plan.stack_top, repeats, recover) +
                                    body),
                        layout);
                    const std::string where =
                        w->name + "/" + harness::placementName(placement) +
                        "/" + recover + "/x" + std::to_string(repeats);
                    EXPECT_EQ(probe.image.data.base,
                              reparsed.image.data.base)
                        << where;
                    EXPECT_EQ(probe.image.bss.end(),
                              reparsed.image.bss.end())
                        << where;
                    ++cases;
                }
            }
        }
    }
    EXPECT_EQ(cases, 104);
}

} // namespace
