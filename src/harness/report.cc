#include "harness/report.hh"

#include <cmath>

#include "sim/memory.hh"
#include "support/logging.hh"
#include "support/strings.hh"
#include "trace/event.hh"

namespace swapram::harness {

namespace json = support::json;

Table::Table(std::vector<std::string> headers)
    : headers_(std::move(headers))
{
}

void
Table::addRow(std::vector<std::string> cells)
{
    if (cells.size() != headers_.size())
        support::panic("Table: row width mismatch");
    rows_.push_back(std::move(cells));
}

std::string
Table::text() const
{
    std::vector<size_t> width(headers_.size());
    for (size_t c = 0; c < headers_.size(); ++c)
        width[c] = headers_[c].size();
    for (const auto &row : rows_) {
        for (size_t c = 0; c < row.size(); ++c)
            width[c] = std::max(width[c], row[c].size());
    }
    auto emit_row = [&](const std::vector<std::string> &row) {
        std::string out;
        for (size_t c = 0; c < row.size(); ++c) {
            if (c)
                out += "  ";
            std::string cell = row[c];
            if (c == 0) {
                cell.resize(width[c], ' ');
                out += cell;
            } else {
                out += std::string(width[c] - cell.size(), ' ') + cell;
            }
        }
        out += "\n";
        return out;
    };
    std::string out = emit_row(headers_);
    size_t total = 0;
    for (size_t c = 0; c < width.size(); ++c)
        total += width[c] + (c ? 2 : 0);
    out += std::string(total, '-') + "\n";
    for (const auto &row : rows_)
        out += emit_row(row);
    return out;
}

std::string
percentDelta(double value, double reference)
{
    if (reference == 0)
        return "n/a";
    double pct = (value / reference - 1.0) * 100.0;
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%+.1f%%", pct);
    return buf;
}

std::string
withCommas(std::uint64_t value)
{
    std::string digits = std::to_string(value);
    std::string out;
    int count = 0;
    for (auto it = digits.rbegin(); it != digits.rend(); ++it) {
        if (count && count % 3 == 0)
            out += ',';
        out += *it;
        ++count;
    }
    return {out.rbegin(), out.rend()};
}

double
geoMean(const std::vector<double> &ratios)
{
    if (ratios.empty())
        return 1.0;
    double log_sum = 0;
    for (double r : ratios)
        log_sum += std::log(r);
    return std::exp(log_sum / static_cast<double>(ratios.size()));
}

std::string
geoMeanDelta(const std::vector<double> &ratios)
{
    return percentDelta(geoMean(ratios), 1.0);
}

namespace {

const char *
stopName(sim::RunResult::Stop stop)
{
    switch (stop) {
      case sim::RunResult::Stop::Done: return "done";
      case sim::RunResult::Stop::MaxCycles: return "max-cycles";
      case sim::RunResult::Stop::Livelock: return "livelock";
      case sim::RunResult::Stop::Exhausted: return "exhausted";
    }
    return "unknown";
}

json::Value
accessJson(const sim::AccessCounts &a)
{
    return json::Object{{"fetch", a.fetch},
                        {"read", a.read},
                        {"write", a.write}};
}

json::Value
statsJson(const sim::Stats &s)
{
    json::Object owners;
    for (int i = 0; i < sim::kNumOwners; ++i) {
        owners.emplace(
            sim::ownerName(static_cast<sim::CodeOwner>(i)),
            s.instr_by_owner[static_cast<std::size_t>(i)]);
    }
    return json::Object{
        {"instructions", s.instructions},
        {"base_cycles", s.base_cycles},
        {"stall_cycles", s.stall_cycles},
        {"total_cycles", s.totalCycles()},
        {"sram", accessJson(s.sram)},
        {"fram", accessJson(s.fram)},
        {"mmio", accessJson(s.mmio)},
        {"fram_cache_hits", s.fram_cache_hits},
        {"fram_cache_misses", s.fram_cache_misses},
        {"code_space_accesses", s.code_space_accesses},
        {"data_space_accesses", s.data_space_accesses},
        {"instr_by_owner", std::move(owners)},
        {"interrupts", s.interrupts},
        {"reboots", s.reboots},
        {"recovery_cycles", s.recovery_cycles},
        {"predecode_hits", s.predecode_hits},
        {"predecode_misses", s.predecode_misses},
        {"predecode_invalidations", s.predecode_invalidations},
        {"superblock_blocks_built", s.superblock_blocks_built},
        {"superblock_invalidations", s.superblock_invalidations},
        {"threaded_blocks_lowered", s.threaded_blocks_lowered},
        {"threaded_dispatches", s.threaded_dispatches},
        {"threaded_instructions", s.threaded_instructions},
        {"threaded_bail_operand", s.threaded_bail_operand},
        {"threaded_bail_smc", s.threaded_bail_smc},
        {"threaded_bail_boundary", s.threaded_bail_boundary},
    };
}

json::Value
profileRowJson(const trace::ProfileRow &r)
{
    return json::Object{
        {"name", r.name},
        {"addr", r.addr},
        {"size", r.size},
        {"instructions", r.instructions},
        {"base_cycles", r.base_cycles},
        {"stall_cycles", r.stall_cycles},
        {"total_cycles", r.totalCycles()},
        {"fram_fetch", r.fram_fetch},
        {"fram_read", r.fram_read},
        {"fram_write", r.fram_write},
        {"sram_fetch", r.sram_fetch},
        {"sram_read", r.sram_read},
        {"sram_write", r.sram_write},
        {"sram_resident_instructions", r.sram_resident_instructions},
        {"energy_pj", r.energy_pj},
    };
}

json::Value
swapEventJson(const trace::SwapEvent &e)
{
    json::Object o{{"kind", trace::kindName(e.kind)},
                   {"cycle", e.cycle}};
    switch (e.kind) {
      case trace::EventKind::CopyIn:
      case trace::EventKind::Evict:
        o.emplace("func", e.func);
        o.emplace("cache_addr", e.cache_addr);
        o.emplace("nvm_addr", e.nvm_addr);
        o.emplace("bytes", e.bytes);
        break;
      case trace::EventKind::DataSwapIn:
      case trace::EventKind::DataSwapOut:
        o.emplace("cache_addr", e.cache_addr);
        o.emplace("nvm_addr", e.nvm_addr);
        o.emplace("bytes", e.bytes);
        break;
      case trace::EventKind::MissExit:
        o.emplace("handler_cycles", e.handler_cycles);
        break;
      case trace::EventKind::PowerFail:
        o.emplace("pc", e.cache_addr);
        break;
      case trace::EventKind::RecoveryExit:
        o.emplace("recovery_cycles", e.handler_cycles);
        break;
      default: break;
    }
    return o;
}

json::Value
histogramJson(const metrics::Histogram &h)
{
    json::Array buckets;
    for (int i = 0; i < metrics::Histogram::kBuckets; ++i) {
        std::uint64_t n = h.buckets()[static_cast<std::size_t>(i)];
        if (!n)
            continue;
        buckets.push_back(json::Object{
            {"le", metrics::Histogram::bucketHigh(i)}, {"count", n}});
    }
    return json::Object{
        {"count", h.count()}, {"sum", h.sum()},   {"min", h.min()},
        {"max", h.max()},     {"mean", h.mean()}, {"p50", h.p50()},
        {"p95", h.p95()},     {"p99", h.p99()},
        {"buckets", std::move(buckets)},
    };
}

json::Value
pageCountsJson(const metrics::AddressHeatmap::Page &p)
{
    return json::Object{{"fetch", p.fetch},
                        {"read", p.read},
                        {"write", p.write},
                        {"stall_cycles", p.stall_cycles}};
}

json::Value
heatmapJson(const metrics::AddressHeatmap &hm)
{
    using Heatmap = metrics::AddressHeatmap;
    // Pages classify by their base address: every region boundary in
    // the platform map is 64-byte aligned or alone in its page.
    std::map<std::string, Heatmap::Page> regions;
    for (unsigned i = 0; i < Heatmap::kPages; ++i) {
        const Heatmap::Page &p = hm.page(i);
        if (p.empty())
            continue;
        regions[regionName(Heatmap::baseOf(i))].merge(p);
    }
    json::Object region_obj;
    for (const auto &[name, page] : regions)
        region_obj.emplace(name, pageCountsJson(page));

    constexpr std::size_t kTopPages = 16;
    json::Array top;
    for (unsigned i : hm.topPages(kTopPages)) {
        const Heatmap::Page &p = hm.page(i);
        top.push_back(json::Object{
            {"page", i},
            {"base", Heatmap::baseOf(i)},
            {"region", std::string(regionName(Heatmap::baseOf(i)))},
            {"fetch", p.fetch},
            {"read", p.read},
            {"write", p.write},
            {"stall_cycles", p.stall_cycles},
        });
    }
    return json::Object{
        {"page_bytes", Heatmap::kPageBytes},
        {"totals", pageCountsJson(hm.totals())},
        {"regions", std::move(region_obj)},
        {"top_pages", std::move(top)},
    };
}

} // namespace

const char *
regionName(std::uint16_t base)
{
    switch (sim::regionOf(base)) {
      case sim::RegionKind::Sram: return "sram";
      case sim::RegionKind::Fram: return "fram";
      case sim::RegionKind::Mmio: return "mmio";
      case sim::RegionKind::Unmapped: break;
    }
    return "unmapped";
}

json::Value
metricsJson(const metrics::RunMetrics &rm)
{
    json::Object counters, gauges, histograms;
    for (const auto &[name, c] : rm.registry.counters())
        counters.emplace(name, c.value);
    for (const auto &[name, g] : rm.registry.gauges())
        gauges.emplace(name, g.value);
    for (const auto &[name, h] : rm.registry.histograms())
        histograms.emplace(name, histogramJson(h));
    return json::Object{
        {"schema", "swapram-metrics/v1"},
        {"counters", std::move(counters)},
        {"gauges", std::move(gauges)},
        {"histograms", std::move(histograms)},
        {"heatmap", heatmapJson(rm.heatmap)},
    };
}

RunReport
RunReport::make(const RunSpec &spec, Metrics metrics)
{
    RunReport report;
    report.workload = spec.workload ? spec.workload->name : "";
    report.system = systemName(spec.system);
    report.placement = placementName(spec.placement);
    report.clock_hz = spec.clock_hz;
    report.main_repeats = spec.main_repeats;
    report.sram_size = spec.sram_size;
    report.metrics = std::move(metrics);
    return report;
}

json::Value
RunReport::json() const
{
    const Metrics &m = metrics;
    json::Object root{
        {"schema", kSchema},
        {"workload", workload},
        {"system", system},
        {"placement", placement},
        {"clock_hz", clock_hz},
        {"main_repeats", main_repeats},
        {"sram_size", sram_size},
        {"fits", m.fits},
        {"done", m.done},
        {"stop", stopName(m.stop)},
        {"checksum", m.checksum},
    };
    if (!m.fits) {
        root.emplace("fit_note", m.fit_note);
        return root;
    }
    root.emplace("stats", statsJson(m.stats));
    root.emplace("energy_pj", m.energy_pj);
    root.emplace("seconds", m.seconds);
    if (m.harvested_pj || m.wall_seconds) {
        root.emplace("harvested_pj", m.harvested_pj);
        root.emplace("wall_seconds", m.wall_seconds);
    }
    if (!m.console.empty())
        root.emplace("console", m.console);
    root.emplace(
        "sizes",
        json::Object{
            {"text_bytes", m.text_bytes},
            {"const_bytes", m.const_bytes},
            {"data_bytes", m.data_bytes},
            {"bss_bytes", m.bss_bytes},
            {"app_text_bytes", m.app_text_bytes},
            {"runtime_bytes", m.runtime_bytes},
            {"metadata_bytes", m.metadata_bytes},
            {"handler_bytes", m.handler_bytes},
            {"ram_bytes", m.ram_bytes},
            {"total_nvm_bytes", m.totalNvmBytes()},
            {"n_funcs", m.n_funcs},
            {"reloc_count", m.reloc_count},
        });
    if (!m.profile.empty()) {
        json::Array rows;
        for (const trace::ProfileRow &r : m.profile)
            rows.push_back(profileRowJson(r));
        root.emplace("profile", std::move(rows));
    }
    if (!m.swap_events.empty() || m.swap_summary.misses) {
        json::Array events;
        for (const trace::SwapEvent &e : m.swap_events)
            events.push_back(swapEventJson(e));
        json::Array occupancy;
        for (const trace::OccupancySample &s : m.occupancy) {
            occupancy.push_back(json::Object{
                {"cycle", s.cycle},
                {"resident_bytes", s.resident_bytes},
                {"resident_functions", s.resident_functions}});
        }
        const trace::SwapSummary &sum = m.swap_summary;
        root.emplace(
            "swap",
            json::Object{
                {"misses", sum.misses},
                {"copy_ins", sum.copy_ins},
                {"evictions", sum.evictions},
                {"bytes_copied", sum.bytes_copied},
                {"data_swap_ins", sum.data_swap_ins},
                {"data_swap_outs", sum.data_swap_outs},
                {"data_bytes_copied", sum.data_bytes_copied},
                {"handler_cycles", sum.handler_cycles},
                {"peak_resident_bytes", sum.peak_resident_bytes},
                {"power_failures", sum.power_failures},
                {"recovery_cycles", sum.recovery_cycles},
                {"ckpt_commits", sum.ckpt_commits},
                {"ckpt_restores", sum.ckpt_restores},
                {"events", std::move(events)},
                {"occupancy", std::move(occupancy)},
            });
    }
    if (system == "swapram") {
        // The generated runtime's own bookkeeping cells, read back from
        // the image (cross-checkable against the timeline above).
        root.emplace("runtime_counters",
                     json::Object{{"evictions", m.rt_evictions},
                                  {"retries", m.rt_retries},
                                  {"data_swap_ins", m.rt_data_in},
                                  {"data_swap_outs", m.rt_data_out},
                                  {"data_pool_full", m.rt_data_full}});
    }
    if (m.rt_ckpt_commits || m.rt_ckpt_restores) {
        root.emplace("ckpt",
                     json::Object{{"commits", m.rt_ckpt_commits},
                                  {"restores", m.rt_ckpt_restores}});
    }
    if (m.trace_emitted || m.trace_dropped) {
        root.emplace("trace",
                     json::Object{{"emitted", m.trace_emitted},
                                  {"dropped", m.trace_dropped}});
    }
    if (!m.folded.empty()) {
        json::Array folded;
        for (const trace::FoldedStack &f : m.folded) {
            folded.push_back(json::Object{{"stack", f.stack},
                                          {"cycles", f.cycles}});
        }
        root.emplace("folded_stacks", std::move(folded));
    }
    if (m.run_metrics)
        root.emplace("metrics", metricsJson(*m.run_metrics));
    return root;
}

std::string
RunReport::text(std::size_t profile_rows) const
{
    const Metrics &m = metrics;
    std::string out = support::cat(
        "run: workload=", workload, " system=", system,
        " placement=", placement, " clock=", clock_hz / 1'000'000,
        "MHz repeats=", main_repeats, "\n");
    if (!m.fits)
        return out + "result: DNF (" + m.fit_note + ")\n";
    const char *verdict = "done";
    if (!m.done) {
        switch (m.stop) {
          case sim::RunResult::Stop::MaxCycles: verdict = "TIMEOUT";
              break;
          case sim::RunResult::Stop::Livelock: verdict = "LIVELOCK";
              break;
          case sim::RunResult::Stop::Exhausted: verdict = "EXHAUSTED";
              break;
          case sim::RunResult::Stop::Done: verdict = "TIMEOUT"; break;
        }
    }
    out += support::cat(
        "result: ", verdict,
        " checksum=", support::hex16(m.checksum),
        " cycles=", withCommas(m.stats.totalCycles()),
        " (stall ", withCommas(m.stats.stall_cycles),
        ") instructions=", withCommas(m.stats.instructions),
        " energy=", support::fixed(m.energy_pj / 1e6, 3), "uJ\n");
    if (m.stats.reboots) {
        out += support::cat(
            "power: reboots=", withCommas(m.stats.reboots),
            " recovery_cycles=", withCommas(m.stats.recovery_cycles),
            "\n");
    }
    if (m.rt_ckpt_commits || m.rt_ckpt_restores) {
        out += support::cat(
            "ckpt: commits=", withCommas(m.rt_ckpt_commits),
            " restores=", withCommas(m.rt_ckpt_restores), "\n");
    }
    if (m.harvested_pj) {
        out += support::cat(
            "harvest: energy=",
            support::fixed(m.harvested_pj / 1e6, 3),
            "uJ wall=", support::fixed(m.wall_seconds, 6), "s\n");
    }
    if (m.swap_summary.misses || m.swap_summary.copy_ins) {
        const trace::SwapSummary &s = m.swap_summary;
        out += support::cat(
            "swap: misses=", withCommas(s.misses),
            " copy_ins=", withCommas(s.copy_ins),
            " evictions=", withCommas(s.evictions),
            " bytes_copied=", withCommas(s.bytes_copied),
            " handler_cycles=", withCommas(s.handler_cycles),
            " peak_resident=", s.peak_resident_bytes, "B\n");
        if (s.data_swap_ins || s.data_swap_outs) {
            out += support::cat(
                "data-pool: swap_ins=", withCommas(s.data_swap_ins),
                " swap_outs=", withCommas(s.data_swap_outs),
                " bytes=", withCommas(s.data_bytes_copied), "\n");
        }
    }
    if (m.rt_evictions || m.rt_retries || m.rt_data_in ||
        m.rt_data_out || m.rt_data_full) {
        out += support::cat(
            "runtime-counters: evictions=", withCommas(m.rt_evictions),
            " retries=", withCommas(m.rt_retries),
            " data_ins=", withCommas(m.rt_data_in),
            " data_outs=", withCommas(m.rt_data_out),
            " data_full=", withCommas(m.rt_data_full), "\n");
    }
    if (!m.profile.empty()) {
        Table table({"function", "instrs", "cycles", "stall", "fram",
                     "sram", "energy(nJ)", "cycle%"});
        double total =
            static_cast<double>(m.stats.totalCycles());
        std::size_t shown = 0;
        for (const trace::ProfileRow &r : m.profile) {
            if (profile_rows && shown++ >= profile_rows)
                break;
            double pct =
                total ? 100.0 * static_cast<double>(r.totalCycles()) /
                            total
                      : 0.0;
            table.addRow({r.name, withCommas(r.instructions),
                          withCommas(r.totalCycles()),
                          withCommas(r.stall_cycles),
                          withCommas(r.framAccesses()),
                          withCommas(r.sramAccesses()),
                          support::fixed(r.energy_pj / 1e3, 1),
                          support::fixed(pct, 1)});
        }
        out += "\n" + table.text();
        if (profile_rows && m.profile.size() > profile_rows) {
            out += support::cat("(", m.profile.size() - profile_rows,
                                " more rows; use --json for all)\n");
        }
    }
    return out;
}

} // namespace swapram::harness
