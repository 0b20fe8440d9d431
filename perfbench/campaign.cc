#include "campaign.hh"

#include <algorithm>
#include <numeric>

#include "ckpt/options.hh"
#include "sim/fault.hh"
#include "support/logging.hh"
#include "support/platform.hh"
#include "support/rng.hh"
#include "support/strings.hh"
#include "workloads/workload.hh"

namespace perfbench {

namespace ckpt = swapram::ckpt;
namespace sim = swapram::sim;
namespace support = swapram::support;
namespace workloads = swapram::workloads;
using harness::Placement;
using harness::System;

namespace {

/**
 * main() repeats of the steady campaign. The paper repeats main 10x
 * (§4); 60 makes the campaign long enough (~1.8 s on a 4-vCPU Xeon VM)
 * that Machine::run is over 90% of it and build under 3%.
 */
constexpr int kSteadyRepeats = 60;

constexpr std::uint32_t kClocks[] = {24'000'000, 8'000'000};
constexpr System kSystems[] = {System::Baseline, System::SwapRam,
                               System::BlockCache};

/** Failures per periodic faulted run (`swapram_tool faults` default). */
constexpr std::uint64_t kFaultCount = 8;

/** Livelock watchdog of the harvest demo (`--livelock-boots 8`). */
constexpr std::uint32_t kLivelockBoots = 8;

const char *const kHarvestTraces[] = {"steady_solar", "cloudy_solar",
                                      "bursty_rf"};

/** The harvest demo's capacitor (EXPERIMENTS.md): 46 uJ capacity,
 *  37 uJ power-on, 25 uJ brown-out, 1 uW leak. */
sim::CapacitorModel
demoCapacitor()
{
    sim::CapacitorModel cap;
    cap.capacity_pj = 46e6;
    cap.power_on_pj = 37e6;
    cap.brown_out_pj = 25e6;
    cap.leak_watts = 1e-6;
    return cap;
}

Cell
makeCell(harness::RunSpec spec, Expect expect, std::string suffix = "",
         std::size_t ref = 0)
{
    Cell c;
    c.name = support::cat(spec.workload->name, "/",
                          harness::systemName(spec.system), "/",
                          harness::placementName(spec.placement), "/",
                          spec.clock_hz / 1'000'000, "MHz",
                          spec.sram_size != swapram::platform::kSramSize
                              ? support::cat("/sram", spec.sram_size)
                              : std::string(),
                          suffix);
    c.spec = std::move(spec);
    c.expect = expect;
    c.ref = ref;
    return c;
}

/** The harvest demo's base spec: pingpong under SwapRAM with a
 *  standard placement (checkpoint restores need an SRAM stack). */
harness::RunSpec
harvestSpec(ckpt::Scheme scheme)
{
    harness::RunSpec spec;
    spec.workload = workloads::find("pingpong");
    spec.system = System::SwapRam;
    spec.placement = Placement::Standard;
    for (ckpt::Options *o : {&spec.swap.ckpt, &spec.block.ckpt}) {
        o->scheme = scheme;
        o->period = 1;
    }
    return spec;
}

std::vector<Cell>
sweepCells()
{
    std::vector<Cell> cells;
    for (Placement placement :
         {Placement::Unified, Placement::Standard, Placement::Split})
        for (std::uint32_t clock : kClocks)
            for (const workloads::Workload &w : workloads::all())
                for (System system : kSystems)
                    cells.push_back(makeCell(
                        harness::sweepSpec(w, system, placement, clock),
                        Expect::Golden));
    // Figure 1's code-in-SRAM placements exist for the baseline only:
    // the cache runtimes cannot run with their code cache overlapping
    // the application's SRAM-resident code.
    for (Placement placement : {Placement::SramCode, Placement::SramAll})
        for (std::uint32_t clock : kClocks)
            for (const workloads::Workload &w : workloads::all())
                cells.push_back(makeCell(
                    harness::sweepSpec(w, System::Baseline, placement,
                                       clock),
                    Expect::Golden));
    for (const harness::MatrixCell &mc : harness::capacityMatrix())
        cells.push_back(makeCell(harness::capacitySpec(*mc.workload,
                                                       mc.system,
                                                       mc.sram_size),
                                 Expect::Golden));
    return cells;
}

std::vector<Cell>
steadyCells()
{
    std::vector<Cell> cells;
    for (const workloads::Workload &w : workloads::all()) {
        const std::size_t baseline = cells.size();
        for (System system : kSystems) {
            harness::RunSpec spec;
            spec.workload = &w;
            spec.system = system;
            spec.main_repeats = kSteadyRepeats;
            // With main repeated there is no golden checksum (rc4 and
            // fft change theirs); the three systems must agree instead.
            cells.push_back(makeCell(
                spec,
                system == System::Baseline ? Expect::Completes
                                           : Expect::MatchRef,
                "", baseline));
        }
    }
    return cells;
}

std::vector<Cell>
faultReferences(const Inputs &inputs)
{
    std::vector<Cell> cells;
    for (const workloads::Workload &w : workloads::all()) {
        for (System system : {System::SwapRam, System::BlockCache}) {
            harness::RunSpec spec;
            spec.workload = &w;
            spec.system = system;
            cells.push_back(makeCell(spec, Expect::Golden));
        }
    }
    if (!inputs.traces.empty()) {
        for (ckpt::Scheme scheme :
             {ckpt::Scheme::None, ckpt::Scheme::Periodic}) {
            cells.push_back(makeCell(harvestSpec(scheme), Expect::Golden,
                                     "/" + ckpt::schemeName(scheme)));
            cells.back().harvest = true;
        }
    }
    return cells;
}

} // namespace

bool
parseWorkload(const std::string &name, Workload *out)
{
    if (name == "sweep")
        *out = Workload::Sweep;
    else if (name == "steady")
        *out = Workload::Steady;
    else if (name == "faults")
        *out = Workload::Faults;
    else
        return false;
    return true;
}

Inputs
loadInputs(Workload workload, const std::string &harvest_dir)
{
    Inputs inputs;
    if (workload != Workload::Faults)
        return inputs;
    for (const char *name : kHarvestTraces) {
        inputs.traces.push_back(
            std::make_shared<const sim::HarvestTrace>(
                sim::HarvestTrace::load(
                    support::cat(harvest_dir, "/", name, ".csv"))));
        inputs.trace_names.push_back(name);
    }
    return inputs;
}

std::vector<Cell>
phaseOne(Workload workload, const Inputs &inputs)
{
    switch (workload) {
      case Workload::Sweep: return sweepCells();
      case Workload::Steady: return steadyCells();
      case Workload::Faults: return faultReferences(inputs);
    }
    return {};
}

std::vector<Cell>
phaseTwo(Workload workload, const Inputs &inputs,
         const std::vector<Cell> &phase_one,
         const std::vector<harness::RunOutcome> &done)
{
    std::vector<Cell> cells;
    if (workload != Workload::Faults)
        return cells;
    for (std::size_t i = 0; i < phase_one.size(); ++i) {
        const Cell &ref = phase_one[i];
        harness::RunSpec base = ref.spec;
        if (ref.harvest) {
            // Harvest demo: brown-outs from the capacitor model, with
            // the watchdog armed so a livelocked run ends early.
            base.intermittent.livelock_boots = kLivelockBoots;
            const bool ckpt_on =
                ref.spec.swap.ckpt.scheme != ckpt::Scheme::None;
            for (std::size_t t = 0; t < inputs.traces.size(); ++t) {
                harness::RunSpec spec = base;
                spec.intermittent.plan = sim::FaultPlan::harvest(
                    inputs.traces[t], demoCapacitor());
                cells.push_back(makeCell(
                    spec, ckpt_on ? Expect::MatchRef : Expect::Livelock,
                    support::cat("/",
                                 ckpt::schemeName(
                                     ref.spec.swap.ckpt.scheme),
                                 "/", inputs.trace_names[t]),
                    i));
            }
            continue;
        }
        // A reference that failed has no cycle count; its fault cells
        // are still run (at a nominal period) and fail their checks.
        const harness::Metrics &m = done[i].metrics;
        const std::uint64_t c = m.stats.totalCycles();
        std::vector<std::uint64_t> periods;
        for (std::uint64_t div : {2, 4, 8, 16}) {
            if (c / div >= 100)
                periods.push_back(c / div);
        }
        if (periods.empty())
            periods.push_back(std::max<std::uint64_t>(c / 2, 1));
        for (std::uint64_t period : periods) {
            harness::RunSpec spec = base;
            spec.intermittent.plan =
                sim::FaultPlan::periodic(period, kFaultCount);
            cells.push_back(makeCell(spec, Expect::MatchRef,
                                     support::cat("/period", period), i));
        }
    }
    return cells;
}

CampaignRun
runCampaign(Workload workload, const Inputs &inputs,
            std::vector<Cell> first, std::uint32_t seed,
            const BatchFn &batch)
{
    support::Rng rng(seed);
    CampaignRun run;
    auto runPhase = [&](std::vector<Cell> cells) {
        const std::size_t offset = run.cells.size();
        // Fisher-Yates shuffle of the submission order.
        std::vector<std::size_t> order(cells.size());
        std::iota(order.begin(), order.end(), std::size_t{0});
        for (std::size_t i = order.size(); i > 1; --i)
            std::swap(order[i - 1],
                      order[rng.below(static_cast<std::uint32_t>(i))]);
        std::vector<Cell> shuffled;
        shuffled.reserve(cells.size());
        for (std::size_t i : order)
            shuffled.push_back(cells[i]);
        std::vector<harness::RunOutcome> outs = batch(shuffled);
        run.outcomes.resize(offset + cells.size());
        for (std::size_t k = 0; k < order.size(); ++k)
            run.outcomes[offset + order[k]] = std::move(outs[k]);
        for (Cell &c : cells)
            run.cells.push_back(std::move(c));
    };
    runPhase(std::move(first));
    runPhase(phaseTwo(workload, inputs, run.cells, run.outcomes));
    return run;
}

std::vector<std::string>
checkCampaign(const CampaignRun &run, std::size_t corrupt_index)
{
    std::vector<std::string> failures;
    for (std::size_t i = 0; i < run.cells.size(); ++i) {
        const Cell &cell = run.cells[i];
        const harness::RunOutcome &out = run.outcomes[i];
        const harness::Metrics &m = out.metrics;
        auto fail = [&](const std::string &why) {
            failures.push_back(cell.name + ": " + why);
        };
        if (out.error) {
            fail("error: " + out.error_text);
            continue;
        }
        if (!m.fits) {
            fail("did not fit: " + m.fit_note);
            continue;
        }
        if (cell.expect == Expect::Livelock) {
            if (m.stop != swapram::sim::RunResult::Stop::Livelock)
                fail("expected the livelock watchdog to stop the run");
            continue;
        }
        if (!m.done) {
            fail("did not complete");
            continue;
        }
        std::uint16_t want = m.checksum;
        const harness::Metrics *ref = nullptr;
        switch (cell.expect) {
          case Expect::Golden:
            want = cell.spec.workload->expected;
            break;
          case Expect::MatchRef:
            ref = &run.outcomes[cell.ref].metrics;
            want = ref->checksum;
            break;
          case Expect::Completes:
          case Expect::Livelock: break;
        }
        if (i == corrupt_index)
            want ^= 0xFFFF;
        if (m.checksum != want) {
            fail(support::cat("checksum ", support::hex16(m.checksum),
                              ", expected ", support::hex16(want)));
        } else if (ref && m.data_snapshot != ref->data_snapshot) {
            fail(".data/.bss differ from " + run.cells[cell.ref].name);
        }
    }
    return failures;
}

ModelTotals
modelTotals(const CampaignRun &run)
{
    ModelTotals totals;
    for (const harness::RunOutcome &out : run.outcomes) {
        if (out.error || !out.metrics.fits)
            continue;
        totals.cycles += out.metrics.stats.totalCycles();
        totals.energy_uj += out.metrics.energy_pj * 1e-6;
    }
    return totals;
}

} // namespace perfbench
