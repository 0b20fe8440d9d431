#include "harness/engine.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <deque>
#include <exception>
#include <iterator>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>

#include "isa/opcodes.hh"
#include "support/logging.hh"
#include "workloads/workload.hh"

namespace swapram::harness {

namespace {

/**
 * Touch every lazily-initialized static the run path can reach, so
 * workers never construct one. All of them are C++11 magic statics
 * (construction is race-safe regardless); this is about keeping the
 * cost out of the measured runs and making the shared state easy to
 * audit in one place.
 */
void
warmSharedState()
{
    workloads::all();           // workload registry (sources + goldens)
    workloads::libSource();     // shared helper library source
    isa::parseOp("MOV");        // mnemonic table
    support::logLevel();        // resolves SWAPRAM_LOG once (atomic)
}

/**
 * The runs of one batch that share BuildInputs. The first worker to
 * reach the group builds its image under `built`; later members wait
 * for that build and run on the same image. The last member to finish
 * drops it, so images never outlive their group.
 */
struct ImageGroup {
    BuildInputs inputs;
    std::vector<std::size_t> members; ///< submission indices, in order

    std::once_flag built;
    std::shared_ptr<const BuiltImage> image; ///< null after a failed build
    std::string error;                       ///< the build's error text
    std::atomic<std::size_t> pending{0};     ///< members not yet finished
};

/** Execute @p spec on its group's image, building the image first if
 *  this is the group's first run. A build error becomes every member's
 *  error outcome, with the text runOne() would have thrown. */
RunOutcome
runInGroup(const RunSpec &spec, ImageGroup &group)
{
    std::call_once(group.built, [&] {
        try {
            group.image = buildImage(group.inputs);
        } catch (const std::exception &e) {
            group.error = e.what();
        }
    });
    RunOutcome out;
    if (!group.image) {
        out.error = true;
        out.error_text = group.error;
    } else {
        try {
            out.metrics = runImage(spec, *group.image);
        } catch (const std::exception &e) {
            out.error = true;
            out.error_text = e.what();
        }
    }
    // Every member's read of the image happens before its decrement,
    // so the member that brings the count to zero is the last reader.
    if (group.pending.fetch_sub(1, std::memory_order_acq_rel) == 1)
        group.image.reset();
    return out;
}

/** Group @p specs by build inputs, groups in order of first
 *  appearance. The deque keeps each group at a fixed address. */
std::deque<ImageGroup>
groupByBuildInputs(const std::vector<RunSpec> &specs)
{
    std::deque<ImageGroup> groups;
    for (std::size_t i = 0; i < specs.size(); ++i) {
        BuildInputs inputs = buildInputs(specs[i]);
        auto it = std::find_if(groups.begin(), groups.end(),
                               [&](const ImageGroup &g) {
                                   return g.inputs == inputs;
                               });
        if (it == groups.end()) {
            groups.emplace_back();
            groups.back().inputs = std::move(inputs);
            it = std::prev(groups.end());
        }
        it->members.push_back(i);
    }
    for (ImageGroup &g : groups)
        g.pending.store(g.members.size(), std::memory_order_relaxed);
    return groups;
}

/** Serializes progress callbacks and maintains the rolling counters.
 *  Timing feeds only runs_per_sec; results never depend on it. */
class ProgressReporter
{
  public:
    ProgressReporter(const ProgressFn &fn, std::size_t total)
        : fn_(fn), total_(total),
          start_(std::chrono::steady_clock::now())
    {
    }

    void
    report(std::size_t index, const RunOutcome &outcome)
    {
        if (!fn_)
            return;
        std::lock_guard<std::mutex> lock(mutex_);
        Progress p;
        p.done = ++done_;
        p.total = total_;
        if (outcome.error)
            ++errors_;
        p.errors = errors_;
        double secs = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - start_)
                          .count();
        p.runs_per_sec =
            secs > 0 ? static_cast<double>(p.done) / secs : 0;
        p.index = index;
        p.outcome = &outcome;
        fn_(p);
    }

  private:
    const ProgressFn &fn_;
    std::size_t total_;
    std::chrono::steady_clock::time_point start_;
    std::mutex mutex_;
    std::size_t done_ = 0;
    std::size_t errors_ = 0;
};

} // namespace

unsigned
Engine::defaultJobs()
{
    unsigned hw = std::thread::hardware_concurrency();
    return hw ? hw : 1;
}

Engine::Engine(unsigned jobs) : jobs_(jobs ? jobs : defaultJobs()) {}

std::vector<RunOutcome>
Engine::runAll(const std::vector<RunSpec> &specs,
               const ProgressFn &progress) const
{
    std::vector<RunOutcome> results(specs.size());
    if (specs.empty())
        return results;

    ProgressReporter reporter(progress, specs.size());

    // Tickets run group by group, so a group's members are taken
    // back to back and at most about `jobs` images are alive at once.
    std::deque<ImageGroup> groups = groupByBuildInputs(specs);
    std::vector<std::pair<ImageGroup *, std::size_t>> tickets;
    tickets.reserve(specs.size());
    for (ImageGroup &g : groups) {
        for (std::size_t i : g.members)
            tickets.emplace_back(&g, i);
    }
    auto runTicket = [&](std::size_t t) {
        auto [group, i] = tickets[t];
        results[i] = runInGroup(specs[i], *group);
        reporter.report(i, results[i]);
    };

    unsigned workers = jobs_;
    if (workers > specs.size())
        workers = static_cast<unsigned>(specs.size());

    // Single-job batches run inline: no threads, trivially ordered,
    // and debuggable — the deterministic reference the parallel path
    // is tested against.
    if (workers <= 1) {
        for (std::size_t t = 0; t < tickets.size(); ++t)
            runTicket(t);
        return results;
    }

    warmSharedState();

    // Work-stealing by atomic ticket: completion order is arbitrary,
    // but each worker writes only results[i] for its own tickets, so
    // the outcome vector is in submission order by construction.
    std::atomic<std::size_t> next{0};
    auto worker = [&]() {
        for (;;) {
            std::size_t t = next.fetch_add(1, std::memory_order_relaxed);
            if (t >= tickets.size())
                return;
            runTicket(t);
        }
    };
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (unsigned t = 0; t < workers; ++t)
        pool.emplace_back(worker);
    for (std::thread &t : pool)
        t.join();
    return results;
}

RunSpec
sweepSpec(const workloads::Workload &workload, System system,
          Placement placement, std::uint32_t clock_hz)
{
    RunSpec spec;
    spec.workload = &workload;
    spec.system = system;
    spec.placement = placement;
    spec.clock_hz = clock_hz;
    spec.observe.swap_timeline = system != System::Baseline;
    return spec;
}

RunSpec
capacitySpec(const workloads::Workload &workload, System system,
             std::uint32_t sram_size, std::uint32_t clock_hz)
{
    RunSpec spec =
        sweepSpec(workload, system, Placement::Unified, clock_hz);
    spec.sram_size = sram_size;
    return spec;
}

std::vector<MatrixCell>
capacityMatrix()
{
    std::vector<MatrixCell> cells;
    for (const workloads::Workload &w : workloads::capacity()) {
        // One baseline reference at the platform default, then the
        // SwapRAM hit/thrash curve across the capacity ladder.
        cells.push_back({&w, System::Baseline, platform::kSramSize});
        for (std::uint32_t size : kCapacitySizes)
            cells.push_back({&w, System::SwapRam, size});
    }
    return cells;
}

std::vector<Metrics>
Engine::runAllOrThrow(const std::vector<RunSpec> &specs) const
{
    std::vector<RunOutcome> outcomes = runAll(specs);
    std::vector<Metrics> metrics;
    metrics.reserve(outcomes.size());
    for (RunOutcome &o : outcomes) {
        if (o.error)
            support::fatal("engine run failed: ", o.error_text);
        metrics.push_back(std::move(o.metrics));
    }
    return metrics;
}

} // namespace swapram::harness
