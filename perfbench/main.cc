/**
 * @file
 * swapram_perfbench: runs one campaign (sweep, steady or faults) in a
 * fresh process and prints one JSON object describing it.
 *
 *   swapram_perfbench --workload sweep|steady|faults --seed N
 *                     [--traced] [--spans FILE] [--harvest-dir DIR]
 *                     [--corrupt-check K]
 *
 * Untraced (default): set-up, then the campaign at jobs 1 through
 * harness::Engine with RunReport serialisation, the way swapram_tool
 * runs it. --traced additionally runs the campaign again at jobs 1 and
 * 2 and the decomposed, span-recording pass (decompose.hh), and adds
 * per-layer metrics under "layers"; --spans writes that pass's spans.
 * --corrupt-check K makes cell K's expected checksum wrong, which must
 * count exactly one failed run.
 *
 * Every run's output is checked; failures are counted, not fatal, so
 * the caller sees "attempted" and "failed" together. Exit status is 2
 * on bad arguments or unreadable inputs.
 */

#include <sys/resource.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <exception>
#include <fstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "campaign.hh"
#include "decompose.hh"
#include "harness/report.hh"
#include "support/json.hh"
#include "workloads/workload.hh"

using namespace perfbench;
namespace json = swapram::support::json;

namespace {

using Clock = std::chrono::steady_clock;

double
since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
cpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + ts.tv_nsec * 1e-9;
}

/** Aggregate /proc/stat CPU ticks: {steal, total}; zeros if absent. */
std::pair<double, double>
cpuTicks()
{
    std::ifstream in("/proc/stat");
    std::string label;
    in >> label;
    if (label != "cpu")
        return {0, 0};
    double total = 0, steal = 0, v = 0;
    // user nice system idle iowait irq softirq steal (guest time is
    // already included in user/nice).
    for (int i = 0; i < 8 && in >> v; ++i) {
        total += v;
        if (i == 7)
            steal = v;
    }
    return {steal, total};
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB -> MiB
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            std::size_t colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(line.find_first_not_of(' ', colon + 1));
        }
    }
    return "unknown";
}

/** The campaign the way swapram_tool runs it: through the engine,
 *  each completed run serialised as a RunReport. */
BatchFn
engineBatch(unsigned jobs)
{
    return [jobs](const std::vector<Cell> &cells) {
        std::vector<harness::RunSpec> specs;
        specs.reserve(cells.size());
        for (const Cell &c : cells)
            specs.push_back(c.spec);
        std::vector<harness::RunOutcome> outs =
            harness::Engine(jobs).runAll(specs);
        for (std::size_t i = 0; i < outs.size(); ++i) {
            if (outs[i].ok() && outs[i].metrics.fits)
                harness::RunReport::make(specs[i], outs[i].metrics)
                    .json()
                    .dump(2);
        }
        return outs;
    };
}

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "swapram_perfbench: %s\n"
                 "usage: swapram_perfbench --workload sweep|steady|faults "
                 "--seed N [--traced] [--spans FILE]\n"
                 "                         [--harvest-dir DIR] "
                 "[--corrupt-check K]\n",
                 why.c_str());
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    const Clock::time_point start = Clock::now();
    // Loader and static-initialiser work happens before main; count it
    // into set-up as the CPU time it took.
    const double pre_main_s = cpuSeconds();

    Workload workload = Workload::Sweep;
    std::string workload_name;
    bool have_seed = false, traced = false;
    std::uint32_t seed = 0;
    std::size_t corrupt = SIZE_MAX;
    std::string harvest_dir = "examples/harvest";
    std::string spans_path;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                usage("missing value for " + a);
            return argv[++i];
        };
        try {
            if (a == "--workload") {
                workload_name = next();
                if (!parseWorkload(workload_name, &workload))
                    usage("unknown workload '" + workload_name + "'");
            } else if (a == "--seed") {
                seed = static_cast<std::uint32_t>(std::stoul(next()));
                have_seed = true;
            } else if (a == "--traced") {
                traced = true;
            } else if (a == "--spans") {
                spans_path = next();
            } else if (a == "--harvest-dir") {
                harvest_dir = next();
            } else if (a == "--corrupt-check") {
                corrupt = std::stoul(next());
            } else {
                usage("unknown argument '" + a + "'");
            }
        } catch (const std::logic_error &) {
            usage("bad number for " + a);
        }
    }
    if (workload_name.empty() || !have_seed)
        usage("--workload and --seed are required");

    try {
        // ---- set-up: everything before the first campaign run.
        const Clock::time_point reg0 = Clock::now();
        swapram::workloads::all();
        swapram::workloads::capacity();
        const double registry_s = since(reg0);
        const Inputs inputs = loadInputs(workload, harvest_dir);
        std::vector<Cell> first = phaseOne(workload, inputs);
        const double setup_s = pre_main_s + since(start);

        // ---- untraced campaign (the end-to-end measurement).
        const double cpu0 = cpuSeconds();
        const auto ticks0 = cpuTicks();
        const Clock::time_point c0 = Clock::now();
        CampaignRun run =
            runCampaign(workload, inputs, first, seed, engineBatch(1));
        const double campaign_s = since(c0);
        const double campaign_cpu_s = cpuSeconds() - cpu0;
        const auto ticks1 = cpuTicks();
        const double steal_frac =
            ticks1.second > ticks0.second
                ? (ticks1.first - ticks0.first) /
                      (ticks1.second - ticks0.second)
                : 0.0;
        const double rss_mb = peakRssMb();

        std::vector<std::string> failures = checkCampaign(run, corrupt);
        std::size_t attempted = run.cells.size();
        const ModelTotals totals = modelTotals(run);

        json::Object layers;
        if (traced) {
            // Engine speed-up at two workers, against a jobs-1 run made
            // just before it so both see the same warm process.
            const Clock::time_point j1 = Clock::now();
            runCampaign(workload, inputs, first, seed, engineBatch(1));
            const double j1_s = since(j1);
            const Clock::time_point j2 = Clock::now();
            runCampaign(workload, inputs, first, seed, engineBatch(2));
            const double j2_s = since(j2);

            Tracer tracer;
            TracedPass pass = runTraced(workload, inputs, seed, tracer);
            attempted += pass.run.cells.size();
            for (std::string &f : checkCampaign(pass.run, SIZE_MAX))
                failures.push_back("traced " + f);
            for (std::string &f : pass.mismatches)
                failures.push_back(std::move(f));

            for (const auto &[name, value] : pass.metrics)
                layers.emplace(name, value);
            layers.emplace("workloads.registry_s", registry_s);
            layers.emplace("harness.engine_speedup_j2", j1_s / j2_s);
            layers.emplace("host.campaign_cpu_s", campaign_cpu_s);
            layers.emplace("host.steal_frac", steal_frac);
            if (!spans_path.empty()) {
                std::ofstream out(spans_path);
                tracer.writeChrome(out);
                if (!out)
                    throw std::runtime_error("cannot write " +
                                             spans_path);
            }
        }

        json::Array failure_list;
        for (std::size_t i = 0; i < failures.size() && i < 20; ++i)
            failure_list.push_back(failures[i]);
        json::Object doc{
            {"workload", workload_name},
            {"seed", seed},
            {"setup_s", setup_s},
            {"campaign_s", campaign_s},
            {"campaign_cpu_s", campaign_cpu_s},
            {"steal_frac", steal_frac},
            {"sim_cycles", totals.cycles},
            {"sim_energy_uj", totals.energy_uj},
            {"peak_rss_mb", rss_mb},
            {"attempted", static_cast<std::uint64_t>(attempted)},
            {"failed", static_cast<std::uint64_t>(failures.size())},
            {"failures", std::move(failure_list)},
            {"fingerprint",
             json::Object{
                 {"nproc", static_cast<std::int64_t>(
                               sysconf(_SC_NPROCESSORS_ONLN))},
                 {"cpu_model", cpuModel()},
                 {"compiler", PERFBENCH_COMPILER},
                 {"build_type", PERFBENCH_BUILD_TYPE},
             }},
        };
        if (traced)
            doc.emplace("layers", std::move(layers));
        std::printf("%s\n", json::Value(std::move(doc)).dump().c_str());
        return 0;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "swapram_perfbench: %s\n", e.what());
        return 2;
    }
}
