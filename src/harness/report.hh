/**
 * @file
 * Reporting: fixed-width text tables, percent deltas, and geometric
 * means shared by the bench binaries (the way the paper reports
 * Table 2 and Figures 7-10) — plus RunReport, the machine-readable
 * record of one experiment (JSON schema "swapram-run-report/v1")
 * consumed by swapram_tool's --json mode and the CI smoke check.
 */

#ifndef SWAPRAM_HARNESS_REPORT_HH
#define SWAPRAM_HARNESS_REPORT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "harness/runner.hh"
#include "support/json.hh"

namespace swapram::harness {

/** A simple fixed-width text table. */
class Table
{
  public:
    explicit Table(std::vector<std::string> headers);

    /** Add one row (cells are printed right-aligned except the first). */
    void addRow(std::vector<std::string> cells);

    /** Render with column widths fitted to the content. */
    std::string text() const;

  private:
    std::vector<std::string> headers_;
    std::vector<std::vector<std::string>> rows_;
};

/** "+12%" / "-65%" style percent delta of value vs reference. */
std::string percentDelta(double value, double reference);

/** Format a count with thousands separators. */
std::string withCommas(std::uint64_t value);

/** Geometric mean of ratios (each > 0). */
double geoMean(const std::vector<double> &ratios);

/** Geometric-mean delta string for value/reference ratio lists. */
std::string geoMeanDelta(const std::vector<double> &ratios);

/**
 * Serialize one run's (or one sweep config's merged) metrics as a
 * "swapram-metrics/v1" object: counters, gauges, histograms (count /
 * sum / min / max / mean / p50 / p95 / p99 plus non-empty log2 buckets
 * as {"le", "count"}), and the address-space heatmap (per-region
 * totals classified with sim::regionOf plus the hottest pages).
 * Invariants consumers may rely on: per-region fetch/read/write totals
 * equal the run's sim::Stats access counts, and the
 * "fram_stall_cycles" histogram sum equals Stats::stall_cycles
 * (tools/check_metrics_json.py pins both).
 */
support::json::Value metricsJson(const metrics::RunMetrics &rm);

/** The name ("sram", "fram", "mmio" or "unmapped") of the platform
 *  region holding @p base — how heatmap pages are classified. */
const char *regionName(std::uint16_t base);

/**
 * Everything one run produced, in serializable form: the configuration
 * that was run plus the Metrics it yielded. Build with make(), then
 * json() for machines or text() for humans.
 */
struct RunReport {
    /** Schema identifier emitted as the "schema" key. */
    static constexpr const char *kSchema = "swapram-run-report/v1";

    std::string workload;
    std::string system;    ///< systemName()
    std::string placement; ///< placementName()
    std::uint32_t clock_hz = 0;
    int main_repeats = 1;
    std::uint32_t sram_size = 0; ///< simulated SRAM bytes
    Metrics metrics;

    /** Capture spec identity + results into a report. */
    static RunReport make(const RunSpec &spec, Metrics metrics);

    /** Full machine-readable report. */
    support::json::Value json() const;

    /** Human-readable summary (stats + top profile rows + swap
     *  summary), for the tool's default non-JSON output. */
    std::string text(std::size_t profile_rows = 20) const;
};

} // namespace swapram::harness

#endif // SWAPRAM_HARNESS_REPORT_HH
