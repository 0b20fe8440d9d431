/**
 * @file
 * The benchmark's three campaigns (sweep, steady, faults): which cells
 * each one runs, in which order for a given seed, and how every cell's
 * output is checked. Both passes of swapram_perfbench (the untraced
 * campaign through harness::Engine and the traced, decomposed pass)
 * run the cells enumerated here, so they measure exactly the same
 * work.
 */

#ifndef PERFBENCH_CAMPAIGN_HH
#define PERFBENCH_CAMPAIGN_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "harness/engine.hh"
#include "harness/runner.hh"
#include "sim/harvest.hh"

namespace perfbench {

namespace harness = swapram::harness;

enum class Workload { Sweep, Steady, Faults };

/** Parse "sweep" / "steady" / "faults"; false if unknown. */
bool parseWorkload(const std::string &name, Workload *out);

/** What a cell's output must show to count as a correct run. */
enum class Expect {
    Golden,    ///< completes with the workload's golden checksum
    Completes, ///< completes (main repeated: no golden checksum exists)
    MatchRef,  ///< completes with the reference cell's checksum + state
    Livelock,  ///< the livelock watchdog stops it (harvest, no ckpt)
};

/** One run of a campaign. */
struct Cell {
    harness::RunSpec spec;
    std::string name; ///< "crc/swapram/unified/24MHz" etc.
    Expect expect = Expect::Golden;
    /** Index (in campaign order) of the cell MatchRef compares with. */
    std::size_t ref = 0;
    /** A harvest-demo reference: phase two faults it with the harvest
     *  traces instead of fixed periods. */
    bool harvest = false;
};

/** Inputs a campaign is enumerated from (built during set-up). */
struct Inputs {
    /** The committed harvest traces of the faults campaign's demo. */
    std::vector<std::shared_ptr<const swapram::sim::HarvestTrace>> traces;
    std::vector<std::string> trace_names;
};

/** Load the harvest traces from @p harvest_dir (set-up work). */
Inputs loadInputs(Workload workload, const std::string &harvest_dir);

/**
 * The cells of one campaign. Phase 1 is known up front; the faults
 * campaign's phase 2 (fault periods at C/2..C/16 of each reference's
 * cycle count C) is derived from phase 1's outcomes, exactly as
 * `swapram_tool faults` derives it.
 */
std::vector<Cell> phaseOne(Workload workload, const Inputs &inputs);
std::vector<Cell> phaseTwo(Workload workload, const Inputs &inputs,
                           const std::vector<Cell> &phase_one,
                           const std::vector<harness::RunOutcome> &done);

/** Runs a batch of cells; outcome i belongs to cells[i]. */
using BatchFn = std::function<std::vector<harness::RunOutcome>(
    const std::vector<Cell> &)>;

/** A whole campaign's cells and outcomes, in campaign order. */
struct CampaignRun {
    std::vector<Cell> cells;
    std::vector<harness::RunOutcome> outcomes;
};

/**
 * Run @p first (phaseOne's cells) and then phase two through @p batch.
 * Within a phase the cells are
 * submitted in an order shuffled by @p seed; outcomes are stored back
 * in campaign order, so totals and checks do not depend on the seed.
 */
CampaignRun runCampaign(Workload workload, const Inputs &inputs,
                        std::vector<Cell> first, std::uint32_t seed,
                        const BatchFn &batch);

/**
 * Check every cell's output; returns one message per failed cell.
 * @p corrupt_index names a cell whose expected checksum is
 * deliberately wrong (the benchmark's self-test); SIZE_MAX for none.
 */
std::vector<std::string> checkCampaign(const CampaignRun &run,
                                       std::size_t corrupt_index);

/** Simulated totals over every completed run of a campaign. */
struct ModelTotals {
    std::uint64_t cycles = 0;
    double energy_uj = 0;
};
ModelTotals modelTotals(const CampaignRun &run);

} // namespace perfbench

#endif // PERFBENCH_CAMPAIGN_HH
