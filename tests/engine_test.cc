/**
 * @file
 * Harness engine tests: deterministic submission-order results at any
 * worker count, per-run error capture, and byte-identical serialized
 * reports between sequential (--jobs 1) and parallel (--jobs 8)
 * execution of the same batch — the property the sweep tool and CI
 * rely on. The EngineSharedImage tests pin the build-once contract:
 * runs grouped by BuildInputs and executed on one shared image give
 * exactly what a fresh runOne() gives each spec.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "harness/engine.hh"
#include "harness/report.hh"
#include "sim/fault.hh"
#include "support/logging.hh"
#include "support/rng.hh"
#include "workloads/workload.hh"

namespace {

using namespace swapram;
using harness::Engine;
using harness::RunOutcome;
using harness::RunSpec;
using harness::System;

const workloads::Workload &
workload(const std::string &name)
{
    const workloads::Workload *w = workloads::find(name);
    if (!w)
        support::fatal("test workload missing: ", name);
    return *w;
}

/** A batch mixing systems, a faulted run, and an intentional failure. */
std::vector<RunSpec>
mixedBatch()
{
    std::vector<RunSpec> specs;
    specs.push_back(harness::sweepSpec(workload("crc"), System::Baseline));
    specs.push_back(harness::sweepSpec(workload("crc"), System::SwapRam));
    specs.push_back(
        harness::sweepSpec(workload("bitcount"), System::BlockCache));

    // A power-cycled run: schedule depends only on the spec, so it is
    // as deterministic as a clean run. Bounded so the final boot
    // completes (unbounded 40k budgets would livelock this workload).
    RunSpec faulted =
        harness::sweepSpec(workload("rc4"), System::SwapRam);
    faulted.intermittent.plan = sim::FaultPlan::periodic(40'000, 8);
    specs.push_back(faulted);

    specs.push_back(harness::sweepSpec(workload("aes"), System::SwapRam));
    return specs;
}

/** Serialize a batch the way the sweep tool does: one JSON blob. */
std::string
serialize(const std::vector<RunSpec> &specs,
          const std::vector<RunOutcome> &outcomes)
{
    std::string out;
    for (std::size_t i = 0; i < specs.size(); ++i) {
        if (outcomes[i].error) {
            out += "error: " + outcomes[i].error_text + "\n";
            continue;
        }
        out += harness::RunReport::make(specs[i], outcomes[i].metrics)
                   .json()
                   .dump(2);
        out += "\n";
    }
    return out;
}

TEST(Engine, ResultsArriveInSubmissionOrder)
{
    std::vector<RunSpec> specs = mixedBatch();
    std::vector<RunOutcome> outcomes = Engine(8).runAll(specs);
    ASSERT_EQ(outcomes.size(), specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
        ASSERT_TRUE(outcomes[i].ok()) << outcomes[i].error_text;
        // Identity check: result i really is spec i's workload.
        EXPECT_EQ(outcomes[i].metrics.checksum,
                  harness::runOne(specs[i]).checksum)
            << "index " << i;
    }
}

TEST(Engine, SequentialAndParallelBatchesAreByteIdentical)
{
    std::vector<RunSpec> specs = mixedBatch();
    std::vector<RunOutcome> seq = Engine(1).runAll(specs);
    std::vector<RunOutcome> par = Engine(8).runAll(specs);
    // Byte-for-byte on the serialized reports, not just checksums:
    // this is the exact guarantee `sweep --jobs N` gives CI.
    EXPECT_EQ(serialize(specs, seq), serialize(specs, par));
}

TEST(Engine, RepeatedParallelBatchesAreByteIdentical)
{
    std::vector<RunSpec> specs = mixedBatch();
    Engine engine(8);
    std::string first = serialize(specs, engine.runAll(specs));
    std::string second = serialize(specs, engine.runAll(specs));
    EXPECT_EQ(first, second);
}

TEST(Engine, ErrorsAreCapturedPerRunWithoutPoisoningTheBatch)
{
    std::vector<RunSpec> specs;
    specs.push_back(harness::sweepSpec(workload("crc"), System::Baseline));

    RunSpec bad; // null workload: runOne() raises a fatal error
    specs.push_back(bad);

    specs.push_back(
        harness::sweepSpec(workload("bitcount"), System::SwapRam));

    std::vector<RunOutcome> outcomes = Engine(4).runAll(specs);
    ASSERT_EQ(outcomes.size(), 3u);
    EXPECT_TRUE(outcomes[0].ok());
    EXPECT_FALSE(outcomes[1].ok());
    EXPECT_FALSE(outcomes[1].error_text.empty());
    EXPECT_TRUE(outcomes[2].ok());

    // runAllOrThrow surfaces the first failure by submission order.
    EXPECT_THROW(Engine(4).runAllOrThrow(specs), support::FatalError);
}

TEST(Engine, JobCountDefaultsAndClamps)
{
    EXPECT_GE(Engine::defaultJobs(), 1u);
    EXPECT_EQ(Engine(0).jobs(), Engine::defaultJobs());
    EXPECT_EQ(Engine(3).jobs(), 3u);
    EXPECT_TRUE(Engine(16).runAll({}).empty());
}

// ------------------------------------------------ shared built images

/** Every cell of the sweep matrix at both paper clocks, the capacity
 *  matrix, and the default faults campaign (uninterrupted references
 *  plus periodic failures at C/2..C/16 of each reference's cycles),
 *  in a shuffled submission order. */
std::vector<RunSpec>
sharedImageBatch()
{
    std::vector<RunSpec> specs;
    for (const workloads::Workload &w : workloads::all()) {
        for (System system :
             {System::Baseline, System::SwapRam, System::BlockCache}) {
            for (std::uint32_t clock : {24'000'000u, 8'000'000u}) {
                specs.push_back(harness::sweepSpec(
                    w, system, harness::Placement::Unified, clock));
            }
        }
    }
    for (const harness::MatrixCell &mc : harness::capacityMatrix()) {
        specs.push_back(
            harness::capacitySpec(*mc.workload, mc.system, mc.sram_size));
    }
    for (const workloads::Workload &w : workloads::all()) {
        for (System system : {System::SwapRam, System::BlockCache}) {
            RunSpec reference;
            reference.workload = &w;
            reference.system = system;
            specs.push_back(reference);
            std::uint64_t c =
                harness::runOne(reference).stats.totalCycles();
            for (std::uint64_t div : {2, 4, 8, 16}) {
                if (c / div < 100)
                    continue;
                RunSpec faulted = reference;
                faulted.intermittent.plan =
                    sim::FaultPlan::periodic(c / div, 8);
                specs.push_back(faulted);
            }
        }
    }
    support::Rng rng(14);
    for (std::size_t i = specs.size(); i > 1; --i)
        std::swap(specs[i - 1],
                  specs[rng.below(static_cast<std::uint32_t>(i))]);
    return specs;
}

/** Outcome of a fresh per-spec runOne(), captured like the engine
 *  captures it. */
RunOutcome
freshOutcome(const RunSpec &spec)
{
    RunOutcome out;
    try {
        out.metrics = harness::runOne(spec);
    } catch (const std::exception &e) {
        out.error = true;
        out.error_text = e.what();
    }
    return out;
}

/** Everything a run reports must match: the RunReport document (stats
 *  including the host tier counters, which a deterministic run
 *  repeats exactly, swap events and occupancy, sizes, console), the
 *  checksum, and the final .data/.bss. */
void
expectSameOutcome(const RunSpec &spec, const RunOutcome &got,
                  const RunOutcome &want, const std::string &label)
{
    ASSERT_EQ(got.error, want.error) << label << ": " << got.error_text
                                     << " / " << want.error_text;
    EXPECT_EQ(got.error_text, want.error_text) << label;
    if (got.error)
        return;
    const harness::Metrics &g = got.metrics;
    const harness::Metrics &w = want.metrics;
    EXPECT_EQ(g.checksum, w.checksum) << label;
    EXPECT_EQ(g.data_snapshot, w.data_snapshot) << label;
    EXPECT_EQ(g.stats.totalCycles(), w.stats.totalCycles()) << label;
    EXPECT_EQ(g.swap_events.size(), w.swap_events.size()) << label;
    EXPECT_EQ(harness::RunReport::make(spec, g).json().dump(2),
              harness::RunReport::make(spec, w).json().dump(2))
        << label;
}

std::string
label(const RunSpec &spec)
{
    return spec.workload->name + "/" + harness::systemName(spec.system) +
           "/" + std::to_string(spec.sram_size) + "@" +
           std::to_string(spec.clock_hz) +
           (spec.intermittent.enabled()
                ? "/period" +
                      std::to_string(spec.intermittent.plan.period)
                : "");
}

TEST(EngineSharedImage, GroupedBatchesMatchPerSpecRunOne)
{
    std::vector<RunSpec> specs = sharedImageBatch();
    std::vector<RunOutcome> fresh;
    for (const RunSpec &spec : specs)
        fresh.push_back(freshOutcome(spec));

    // The batch really shares: fewer distinct images than runs.
    std::vector<harness::BuildInputs> distinct;
    for (const RunSpec &spec : specs) {
        harness::BuildInputs in = harness::buildInputs(spec);
        if (std::find(distinct.begin(), distinct.end(), in) ==
            distinct.end())
            distinct.push_back(in);
    }
    EXPECT_LT(distinct.size() * 3, specs.size() * 2);

    for (unsigned jobs : {1u, 4u}) {
        std::vector<RunOutcome> got = Engine(jobs).runAll(specs);
        ASSERT_EQ(got.size(), specs.size());
        for (std::size_t i = 0; i < specs.size(); ++i) {
            expectSameOutcome(specs[i], got[i], fresh[i],
                              label(specs[i]) + " jobs " +
                                  std::to_string(jobs));
        }
    }
}

TEST(EngineSharedImage, AnyGroupMemberRunsOnAnotherMembersImage)
{
    std::vector<RunSpec> specs = sharedImageBatch();
    std::vector<bool> seen(specs.size(), false);
    std::size_t shared = 0;
    for (std::size_t i = 0; i < specs.size(); ++i) {
        if (seen[i])
            continue;
        harness::BuildInputs in = harness::buildInputs(specs[i]);
        std::vector<std::size_t> group;
        for (std::size_t j = i; j < specs.size(); ++j) {
            if (harness::buildInputs(specs[j]) == in) {
                group.push_back(j);
                seen[j] = true;
            }
        }
        if (group.size() < 2)
            continue;
        // Each member runs on the image built from its neighbour's
        // inputs (a copy of the neighbour's spec, not its own).
        for (std::size_t k = 0; k < group.size(); ++k) {
            const RunSpec &member = specs[group[k]];
            const RunSpec &other = specs[group[(k + 1) % group.size()]];
            std::shared_ptr<const harness::BuiltImage> image =
                harness::buildImage(harness::buildInputs(other));
            RunOutcome got;
            got.metrics = harness::runImage(member, *image);
            expectSameOutcome(member, got, freshOutcome(member),
                              label(member) + " on the image of " +
                                  label(other));
            ++shared;
        }
    }
    EXPECT_GT(shared, 0u);
}

/** Aggregate field count (C++20 aggregate-initialization probe). */
struct AnyField {
    template <typename T> operator T() const;
};

template <typename T, typename... Fields>
constexpr std::size_t
fieldCount()
{
    if constexpr (requires { T{Fields{}..., AnyField{}}; })
        return fieldCount<T, Fields..., AnyField>();
    else
        return sizeof...(Fields);
}

TEST(EngineSharedImage, BuildInputsCoverExactlyTheBuildFields)
{
    // Tripwire: a new RunSpec field must be classified below, as a
    // build input (and added to BuildInputs) or as run-only.
    EXPECT_EQ(fieldCount<RunSpec>(), 15u)
        << "RunSpec gained or lost a field: classify it below";
    EXPECT_EQ(fieldCount<harness::BuildInputs>(), 8u);

    const workloads::Workload &crc = workload("crc");
    RunSpec base = harness::sweepSpec(crc, System::SwapRam);
    const harness::BuildInputs in = harness::buildInputs(base);

    std::vector<std::pair<const char *, void (*)(RunSpec &)>> build = {
        {"workload", [](RunSpec &s) { s.workload = &workload("rc4"); }},
        {"system", [](RunSpec &s) { s.system = System::BlockCache; }},
        {"placement",
         [](RunSpec &s) { s.placement = harness::Placement::Split; }},
        {"swap", [](RunSpec &s) { s.swap.cache_end -= 64; }},
        {"swap.blacklist",
         [](RunSpec &s) { s.swap.blacklist.push_back("main"); }},
        {"swap.ckpt",
         [](RunSpec &s) { s.swap.ckpt.period += 1; }},
        {"block", [](RunSpec &s) { s.block.slot_bytes = 32; }},
        {"block.ckpt",
         [](RunSpec &s) { s.block.ckpt.low_threshold += 1; }},
        {"include_lib", [](RunSpec &s) { s.include_lib = false; }},
        {"sram_size", [](RunSpec &s) { s.sram_size = 2048; }},
        {"main_repeats", [](RunSpec &s) { s.main_repeats = 10; }},
    };
    for (const auto &[name, flip] : build) {
        RunSpec spec = base;
        flip(spec);
        EXPECT_FALSE(harness::buildInputs(spec) == in)
            << name << " must be a build input";
    }

    std::vector<std::pair<const char *, void (*)(RunSpec &)>> run = {
        {"clock_hz", [](RunSpec &s) { s.clock_hz = 8'000'000; }},
        {"max_cycles", [](RunSpec &s) { s.max_cycles = 1000; }},
        {"predecode", [](RunSpec &s) { s.predecode = !s.predecode; }},
        {"superblock",
         [](RunSpec &s) { s.superblock = !s.superblock; }},
        {"threaded", [](RunSpec &s) { s.threaded = !s.threaded; }},
        {"observe",
         [](RunSpec &s) {
             s.observe.profile = true;
             s.observe.swap_timeline = !s.observe.swap_timeline;
         }},
        {"intermittent",
         [](RunSpec &s) {
             s.intermittent.plan = sim::FaultPlan::periodic(5000, 2);
             s.intermittent.livelock_boots = 4;
         }},
    };
    for (const auto &[name, flip] : run) {
        RunSpec spec = base;
        flip(spec);
        EXPECT_TRUE(harness::buildInputs(spec) == in)
            << name << " must stay run-only";
    }
}

TEST(EngineSharedImage, BuildErrorsAndDnfReachEveryMember)
{
    // Checkpointing needs an SRAM stack: under the unified placement
    // the build itself throws, once for the whole group.
    RunSpec ckpt = harness::sweepSpec(workload("crc"), System::SwapRam);
    ckpt.swap.ckpt.scheme = ckpt::Scheme::Periodic;
    // lzfx's block-cache image does not fit when everything is in SRAM.
    RunSpec dnf = harness::sweepSpec(workload("lzfx"), System::BlockCache,
                                     harness::Placement::SramAll);

    std::vector<RunSpec> specs;
    for (const RunSpec &base : {ckpt, dnf}) {
        for (std::uint32_t clock : {24'000'000u, 8'000'000u}) {
            RunSpec spec = base;
            spec.clock_hz = clock;
            specs.push_back(spec);
        }
        RunSpec faulted = base;
        faulted.intermittent.plan = sim::FaultPlan::periodic(20'000, 2);
        specs.push_back(faulted);
    }

    const RunOutcome ckpt_fresh = freshOutcome(ckpt);
    ASSERT_TRUE(ckpt_fresh.error);
    const RunOutcome dnf_fresh = freshOutcome(dnf);
    ASSERT_TRUE(dnf_fresh.ok()) << dnf_fresh.error_text;
    ASSERT_FALSE(dnf_fresh.metrics.fits);
    ASSERT_FALSE(dnf_fresh.metrics.fit_note.empty());

    for (unsigned jobs : {1u, 4u}) {
        std::vector<RunOutcome> got = Engine(jobs).runAll(specs);
        for (std::size_t i = 0; i < 3; ++i) {
            EXPECT_TRUE(got[i].error) << i;
            EXPECT_EQ(got[i].error_text, ckpt_fresh.error_text) << i;
        }
        for (std::size_t i = 3; i < 6; ++i) {
            ASSERT_TRUE(got[i].ok()) << got[i].error_text;
            EXPECT_FALSE(got[i].metrics.fits) << i;
            EXPECT_EQ(got[i].metrics.fit_note, dnf_fresh.metrics.fit_note)
                << i;
        }
    }
}

} // namespace
