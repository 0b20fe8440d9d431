/**
 * @file
 * Superblock block-table tests. SuperblockEngine builds, looks up and
 * validates the straight-line blocks the threaded tier lowers from;
 * it no longer executes them itself. These tests pin that contract on
 * the programs that used to exercise block-stepped dispatch:
 *
 *  - the fast tier (block table + threaded chains) matches the
 *    single-step oracle in every simulated observable;
 *  - with superblock_enabled off, every instruction runs on the
 *    oracle and no block is built.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "harness/engine.hh"
#include "sim/fault.hh"
#include "support/platform.hh"
#include "testutil.hh"
#include "workloads/workload.hh"

namespace {

using namespace swapram;
using isa::Reg;

/** The fast tier (@p fast true) or the single-step oracle. */
sim::MachineConfig
withFastTier(bool fast)
{
    sim::MachineConfig config;
    config.superblock_enabled = fast;
    return config;
}

/** Every simulated Stats field (host-side fast-path counters — the
 *  predecode hit/miss, superblock_* and threaded_* families —
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

/** The oracle run built no block and retired nothing outside
 *  single-step. */
void
expectOracleOnly(const sim::Stats &s, const std::string &ctx)
{
    EXPECT_EQ(s.superblock_blocks_built, 0u) << ctx;
    EXPECT_EQ(s.threaded_dispatches, 0u) << ctx;
    EXPECT_EQ(s.threaded_instructions, 0u) << ctx;
}

/**
 * Within-block self-modification: the store lands on the *next*
 * instruction of the same straight-line block (patching ADD #1 into
 * ADD #2 — both constant-generator encodings — before it executes).
 * The oracle refetches and sees the patched word; the block the table
 * handed out is stale after the store and must not run on.
 */
const char kSmcBody[] =
    "        MOV #0, R12\n"
    "        MOV &alt, &patch\n"
    "patch:  ADD #1, R12\n"
    "        JMP fin\n"
    "alt:    ADD #2, R12\n"
    "fin:\n";

TEST(Superblock, SelfModifyingStoreInOwnBlockMatchesOracle)
{
    test::MiniRun on = test::runBody(kSmcBody, withFastTier(true));
    test::MiniRun off = test::runBody(kSmcBody, withFastTier(false));
    ASSERT_TRUE(on.result.done);
    ASSERT_TRUE(off.result.done);
    EXPECT_EQ(on.reg(Reg::R12), 2) << "stale block decode executed";
    EXPECT_EQ(off.reg(Reg::R12), 2);
    expectSimStatsEqual(on.stats(), off.stats(), "smc");
    EXPECT_GT(on.stats().superblock_blocks_built, 0u);
    EXPECT_GT(on.stats().threaded_bail_smc, 0u);
    expectOracleOnly(off.stats(), "smc oracle");
}

/** A register-dependent store into MMIO space: the address pre-check
 *  must bail to the oracle with nothing committed, so the device sees
 *  exactly one write per iteration and the console streams match. */
const char kDynMmioBody[] =
    "        MOV #0x0100, R7\n" // console register, via register
    "        MOV #65, R6\n"
    "        MOV #3, R10\n"
    "loop:   MOV.B R6, 0(R7)\n"
    "        ADD #1, R6\n"
    "        DEC R10\n"
    "        JNZ loop\n";

TEST(Superblock, DynamicMmioOperandBailsToOracle)
{
    test::MiniRun on = test::runBody(kDynMmioBody, withFastTier(true));
    test::MiniRun off = test::runBody(kDynMmioBody, withFastTier(false));
    ASSERT_TRUE(on.result.done);
    ASSERT_TRUE(off.result.done);
    EXPECT_EQ(on.machine->mmio().console(), "ABC");
    EXPECT_EQ(off.machine->mmio().console(), "ABC");
    expectSimStatsEqual(on.stats(), off.stats(), "dyn-mmio");
    EXPECT_GT(on.stats().threaded_bail_operand, 0u);
    expectOracleOnly(off.stats(), "dyn-mmio oracle");
}

/** Timer interrupts must land on exactly the same cycle: no block may
 *  run across the fire cycle, whichever tier consumes it. */
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

TEST(Superblock, TimerInterruptsLandOnSameCycle)
{
    for (std::uint64_t period : {97ull, 500ull, 1024ull}) {
        sim::MachineConfig on_cfg = withFastTier(true);
        sim::MachineConfig off_cfg = withFastTier(false);
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
        EXPECT_GT(on.stats().superblock_blocks_built, 0u) << ctx;
        expectOracleOnly(off.stats(), ctx + " oracle");
    }
}

/** Power failures must hit on exactly the same cycle — the injector's
 *  next-failure cycle bounds every dispatched block. Data lives in
 *  FRAM so progress survives the reboots. */
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
runFaulted(bool fast)
{
    masm::LayoutSpec layout;
    layout.data_base = 0x9000;
    auto assembled = masm::assemble(masm::parse(kFaultProgram), layout);
    sim::Machine machine(withFastTier(fast));
    machine.load(assembled.image, 0x3000);
    sim::FaultPlan plan = sim::FaultPlan::periodic(900, 5);
    sim::FaultInjector injector(plan);
    machine.setFaultInjector(&injector);
    auto result = machine.run();
    EXPECT_TRUE(result.done);
    return {machine.stats(), machine.peek16(assembled.symbol("acc")),
            machine.peek16(assembled.symbol("mix"))};
}

TEST(Superblock, InjectedFaultsLandOnSameCycle)
{
    FaultRun on = runFaulted(true);
    FaultRun off = runFaulted(false);
    EXPECT_EQ(on.stats.reboots, 5u);
    EXPECT_GT(on.stats.superblock_blocks_built, 0u);
    expectSimStatsEqual(on.stats, off.stats, "fault");
    EXPECT_EQ(on.acc, off.acc);
    EXPECT_EQ(on.mix, off.mix);
    expectOracleOnly(off.stats, "fault oracle");
}

/** The block-table counters are coherent on a plain run: every
 *  instruction retired off the oracle came from a built block. */
TEST(Superblock, CountersAccountForBlockCoverage)
{
    const char body[] =
        "        MOV #50, R10\n"
        "cloop:  ADD #3, R11\n"
        "        XOR R11, R12\n"
        "        DEC R10\n"
        "        JNZ cloop\n";
    test::MiniRun on = test::runBody(body, withFastTier(true));
    ASSERT_TRUE(on.result.done);
    const sim::Stats &s = on.stats();
    EXPECT_GT(s.superblock_blocks_built, 0u);
    // No code page is written: nothing goes stale.
    EXPECT_EQ(s.superblock_invalidations, 0u);
    // Every lowered block was first built by the table.
    EXPECT_LE(s.threaded_blocks_lowered, s.superblock_blocks_built);
    EXPECT_LE(s.threaded_instructions, s.instructions);
    // The loop dominates: most instructions retire from built blocks.
    EXPECT_GT(s.threaded_instructions, s.instructions / 2);

    test::MiniRun off = test::runBody(body, withFastTier(false));
    ASSERT_TRUE(off.result.done);
    expectOracleOnly(off.stats(), "counters oracle");
    expectSimStatsEqual(s, off.stats(), "counters");
}

/** Full differential sweep: every workload under every system, run
 *  through the harness with RunSpec::superblock on and off, must agree
 *  on all simulated observables; the off leg builds no block. */
TEST(Superblock, FullMatrixMatchesSingleStepOracle)
{
    const harness::System systems[] = {harness::System::Baseline,
                                       harness::System::SwapRam,
                                       harness::System::BlockCache};
    std::vector<harness::RunSpec> specs;
    std::vector<std::string> names;
    for (const workloads::Workload &w : workloads::all()) {
        for (harness::System system : systems) {
            harness::RunSpec spec = harness::sweepSpec(w, system);
            names.push_back(w.name + "/" + harness::systemName(system));
            spec.superblock = true;
            specs.push_back(spec);
            spec.superblock = false;
            specs.push_back(spec);
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
        ASSERT_EQ(on.fits, off.fits) << key;
        if (!on.fits)
            continue;
        ASSERT_EQ(on.done, off.done) << key;
        EXPECT_EQ(on.checksum, off.checksum) << key;
        EXPECT_EQ(on.data_snapshot, off.data_snapshot) << key;
        EXPECT_EQ(on.console, off.console) << key;
        EXPECT_EQ(on.energy_pj, off.energy_pj) << key;
        expectSimStatsEqual(on.stats, off.stats, key);
        EXPECT_GT(on.stats.superblock_blocks_built, 0u) << key;
        expectOracleOnly(off.stats, key + " oracle");
    }
}

} // namespace
