/**
 * @file
 * The traced pass: each campaign cell driven through the layers'
 * public functions (parse, assemble / cache::build / bb::build,
 * Machine construction + load, Machine::run, RunReport), with a span
 * recorded around every call, so per-layer host time and counts can
 * be read off one run. The spans live in the benchmark; the library
 * is measured from outside and is not changed.
 */

#ifndef PERFBENCH_DECOMPOSE_HH
#define PERFBENCH_DECOMPOSE_HH

#include <chrono>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "campaign.hh"

namespace perfbench {

/** In-memory span recorder (written out once, at the end). */
class Tracer
{
  public:
    /** Opens a span on construction and closes it on destruction. */
    class Scope
    {
      public:
        Scope(Tracer &tracer, std::string name, std::string label = "");
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Tracer &tracer_;
        int index_;
    };

    /** Summed duration of every span called @p name. */
    double total(const std::string &name) const;

    /** Number of spans called @p name. */
    std::size_t count(const std::string &name) const;

    /** Chrome trace-event JSON (load in Perfetto or chrome://tracing). */
    void writeChrome(std::ostream &out) const;

  private:
    struct Span {
        std::string name;
        double start_s = 0; ///< seconds since the tracer was created
        double end_s = 0;
        int parent = -1;   ///< index of the enclosing span, -1 = none
        std::string label; ///< the cell a top-level span belongs to
    };

    double now() const;

    std::chrono::steady_clock::time_point epoch_ =
        std::chrono::steady_clock::now();
    std::vector<Span> spans_;
    int open_ = -1; ///< innermost open span
};

/**
 * Run @p spec through the decomposed pipeline, recording one span per
 * layer call under the currently open span. Mirrors harness::runOne
 * (observing through the swap timeline at most), so the Stats must be
 * identical.
 */
harness::Metrics runDecomposed(const harness::RunSpec &spec,
                               Tracer &tracer);

/** Every sim::Stats field equal (host-side tier counters included). */
bool statsEqual(const swapram::sim::Stats &a,
                const swapram::sim::Stats &b);

/** Per-layer results of one traced pass. */
struct TracedPass {
    CampaignRun run;                        ///< decomposed outcomes
    std::map<std::string, double> metrics;  ///< per-layer, by name
    std::vector<std::string> mismatches;    ///< Stats != runOne's
};

/** Run the traced pass over @p workload's campaign. */
TracedPass runTraced(Workload workload, const Inputs &inputs,
                     std::uint32_t seed, Tracer &tracer);

} // namespace perfbench

#endif // PERFBENCH_DECOMPOSE_HH
