#include "sim/harvest.hh"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string_view>

#include "support/logging.hh"
#include "support/strings.hh"

namespace swapram::sim {

namespace {

/** One CSV field: blanks around it allowed, the rest must be a finite
 *  number that strtod consumes entirely. */
bool
parseField(std::string_view field, double &out)
{
    std::string text(support::trim(field));
    if (text.empty())
        return false;
    char *end = nullptr;
    out = std::strtod(text.c_str(), &end);
    return end == text.c_str() + text.size() && std::isfinite(out);
}

} // namespace

HarvestTrace
HarvestTrace::parse(const std::string &csv, const std::string &what)
{
    constexpr std::string_view kHeader = "time_s,power_w";
    std::vector<Point> points;
    std::istringstream in(csv);
    std::string line;
    int lineno = 0;
    bool header_allowed = true;
    while (std::getline(in, line)) {
        ++lineno;
        std::size_t hash = line.find('#');
        if (hash != std::string::npos)
            line.erase(hash);
        std::string_view text = support::trim(line);
        if (text.empty())
            continue;
        if (text == kHeader) {
            if (!header_allowed) {
                support::fatal(what, ":", lineno, ": header \"", kHeader,
                               "\" is only allowed as the first line");
            }
            header_allowed = false;
            continue;
        }
        header_allowed = false;
        std::size_t comma = text.find(',');
        double t = 0, w = 0;
        if (comma == std::string_view::npos ||
            !parseField(text.substr(0, comma), t) ||
            !parseField(text.substr(comma + 1), w)) {
            support::fatal(what, ":", lineno, ": expected \"", kHeader,
                           "\" as two finite numbers, got \"", text,
                           "\"");
        }
        if (t < 0 || w < 0) {
            support::fatal(what, ":", lineno,
                           ": negative time or power");
        }
        if (!points.empty() && t <= points.back().t_s) {
            support::fatal(what, ":", lineno,
                           ": times must be strictly increasing");
        }
        points.push_back({t, w});
    }
    if (points.empty())
        support::fatal(what, ": no data points");
    if (points.front().t_s != 0.0)
        support::fatal(what, ": first point must be at time 0");
    return fromPoints(std::move(points));
}

HarvestTrace
HarvestTrace::load(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        support::fatal("cannot open harvest trace '", path, "'");
    std::ostringstream buf;
    buf << in.rdbuf();
    return parse(buf.str(), path);
}

HarvestTrace
HarvestTrace::fromPoints(std::vector<Point> points)
{
    HarvestTrace t;
    t.points_ = std::move(points);
    t.buildPrefix();
    return t;
}

void
HarvestTrace::buildPrefix()
{
    prefix_pj_.resize(points_.size());
    double acc = 0;
    for (std::size_t i = 0; i < points_.size(); ++i) {
        if (i) {
            acc += points_[i - 1].watts *
                   (points_[i].t_s - points_[i - 1].t_s) * 1e12;
        }
        prefix_pj_[i] = acc;
    }
}

/** Index of the segment containing @p t_s (last whose start <= t). */
static std::size_t
segmentAt(const std::vector<HarvestTrace::Point> &points, double t_s)
{
    // Binary search on segment starts; points are non-empty and start
    // at 0, so there is always a containing segment for t >= 0.
    std::size_t lo = 0, hi = points.size();
    while (hi - lo > 1) {
        std::size_t mid = (lo + hi) / 2;
        if (points[mid].t_s <= t_s)
            lo = mid;
        else
            hi = mid;
    }
    return lo;
}

double
HarvestTrace::powerWatts(double t_s) const
{
    if (t_s < 0)
        return 0;
    return points_[segmentAt(points_, t_s)].watts;
}

double
HarvestTrace::energyPj(double t_s) const
{
    if (t_s <= 0)
        return 0;
    std::size_t i = segmentAt(points_, t_s);
    return prefix_pj_[i] + points_[i].watts * (t_s - points_[i].t_s) * 1e12;
}

RechargeResult
rechargeTime(const HarvestTrace &trace, const CapacitorModel &cap,
             double level_pj, double wall_s)
{
    double level = std::clamp(level_pj, 0.0, cap.capacity_pj);
    double target = std::min(cap.power_on_pj, cap.capacity_pj);
    if (level >= target)
        return {true, 0};

    const auto &points = trace.points();
    std::size_t i = segmentAt(points, wall_s);
    double t = wall_s;
    for (;; ++i) {
        double net_w = points[i].watts - cap.leak_watts;
        bool last = i + 1 == points.size();
        double seg_end = last ? 0 : points[i + 1].t_s;
        if (net_w > 0) {
            double need_s = (target - level) / (net_w * 1e12);
            if (last || t + need_s <= seg_end)
                return {true, t + need_s - wall_s};
            // target not reached inside this segment (and clamping at
            // capacity cannot overshoot it: power_on <= capacity).
            level = std::min(cap.capacity_pj,
                             level + net_w * 1e12 * (seg_end - t));
        } else {
            if (last)
                return {false, 0}; // drains (or holds) forever
            level = std::max(0.0,
                             level + net_w * 1e12 * (seg_end - t));
        }
        t = seg_end;
    }
}

} // namespace swapram::sim
