/**
 * @file
 * Energy-harvesting model for trace-driven intermittent execution: a
 * replayable harvesting profile (CSV of time -> incoming power) plus a
 * capacitor that charges from the trace and discharges through the
 * EnergyModel's per-cycle/per-access costs. Fault timing becomes a
 * consequence of energy rather than a synthetic schedule, and is
 * deterministic per trace.
 *
 * The crux of the design is *evaluation-point independence*: the
 * stored-energy function must be a pure function of (Stats, wall time)
 * so that the threaded fast tier — which only evaluates the injector at
 * block boundaries — sees exactly the same brown-out instruction as
 * the single-step oracle. Consumption is a step function that changes
 * only at instruction boundaries and harvest inflow is monotonic, so
 * the stored-energy minimum over any instruction-free interval is at
 * its end; while powered we therefore never clamp at capacity (a
 * clamp would make the value depend on *when* it was computed).
 * Clamping happens only in the off-time recharge walk, which is a
 * closed-form segment scan, not a simulation.
 */

#ifndef SWAPRAM_SIM_HARVEST_HH
#define SWAPRAM_SIM_HARVEST_HH

#include <cstdint>
#include <string>
#include <vector>

namespace swapram::sim {

/**
 * A piecewise-constant harvesting profile: at time t in seconds the
 * source delivers `watts(t)`, where the trace's last point extends
 * forever. Loaded from CSV lines of "time_s,power_w" ('#' comments and
 * blank lines ignored; times strictly increasing, first at 0). Both
 * fields must be finite numbers with nothing else on the line; the
 * literal header line `time_s,power_w` is accepted as the first
 * non-comment line only.
 */
class HarvestTrace
{
  public:
    struct Point {
        double t_s;   ///< segment start, seconds from run start
        double watts; ///< power delivered until the next point
    };

    /** Parse CSV text; fatal on malformed input. @p what names the
     *  source in diagnostics (a file path). */
    static HarvestTrace parse(const std::string &csv,
                              const std::string &what = "harvest trace");

    /** Load and parse a CSV file; fatal if unreadable. */
    static HarvestTrace load(const std::string &path);

    /** Build directly from points (tests). */
    static HarvestTrace fromPoints(std::vector<Point> points);

    bool empty() const { return points_.empty(); }
    const std::vector<Point> &points() const { return points_; }

    /** Instantaneous harvest power at @p t_s, in watts. */
    double powerWatts(double t_s) const;

    /** Energy delivered over [0, t_s], in picojoules (the closed-form
     *  prefix integral of the piecewise-constant profile). */
    double energyPj(double t_s) const;

  private:
    std::vector<Point> points_;
    /** prefix_pj_[i] = energy delivered over [0, points_[i].t_s). */
    std::vector<double> prefix_pj_;

    void buildPrefix();
};

/**
 * The storage element between the harvester and the MCU. All energy
 * values are picojoules (matching EnergyModel); leakage is a constant
 * parasitic draw in watts.
 */
struct CapacitorModel {
    double capacity_pj = 100e6;  ///< 100 uJ usable storage
    double power_on_pj = 60e6;   ///< boot threshold while charging
    double brown_out_pj = 20e6;  ///< power fails below this while on
    double leak_watts = 10e-6;   ///< parasitic drain, on and off
    /** Stored energy at t=0; negative = start full (capacity_pj). */
    double initial_pj = -1.0;

    double startPj() const
    {
        return initial_pj < 0 ? capacity_pj : initial_pj;
    }
};

/**
 * Off-time recharge: starting from @p level_pj at wall time
 * @p wall_s, walk the trace until the capacitor (charging at
 * harvest - leak, clamped to [0, capacity]) reaches
 * @p cap.power_on_pj.
 */
struct RechargeResult {
    bool reachable = false; ///< false = harvest never wins; exhausted
    double seconds = 0;     ///< off time until power-on threshold
};
RechargeResult rechargeTime(const HarvestTrace &trace,
                            const CapacitorModel &cap, double level_pj,
                            double wall_s);

} // namespace swapram::sim

#endif // SWAPRAM_SIM_HARVEST_HH
