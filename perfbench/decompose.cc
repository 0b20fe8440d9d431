#include "decompose.hh"

#include <algorithm>
#include <exception>
#include <functional>
#include <memory>
#include <utility>

#include "blockcache/builder.hh"
#include "harness/report.hh"
#include "masm/assembler.hh"
#include "masm/parser.hh"
#include "sim/energy.hh"
#include "sim/fault.hh"
#include "sim/machine.hh"
#include "support/json.hh"
#include "support/logging.hh"
#include "support/platform.hh"
#include "swapram/builder.hh"
#include "trace/swap_timeline.hh"
#include "trace/trace.hh"
#include "workloads/workload.hh"

namespace perfbench {

namespace cache = swapram::cache;
namespace bb = swapram::bb;
namespace masm = swapram::masm;
namespace sim = swapram::sim;
namespace support = swapram::support;
namespace plat = swapram::platform;
namespace trace = swapram::trace;
using harness::Placement;
using harness::System;

// ---------------------------------------------------------------- Tracer

Tracer::Scope::Scope(Tracer &tracer, std::string name, std::string label)
    : tracer_(tracer), index_(static_cast<int>(tracer.spans_.size()))
{
    Span span;
    span.name = std::move(name);
    span.label = std::move(label);
    span.parent = tracer.open_;
    span.start_s = tracer.now();
    tracer.spans_.push_back(std::move(span));
    tracer.open_ = index_;
}

Tracer::Scope::~Scope()
{
    Span &span = tracer_.spans_[index_];
    span.end_s = tracer_.now();
    tracer_.open_ = span.parent;
}

double
Tracer::now() const
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
}

double
Tracer::total(const std::string &name) const
{
    double sum = 0;
    for (const Span &s : spans_) {
        if (s.name == name)
            sum += s.end_s - s.start_s;
    }
    return sum;
}

std::size_t
Tracer::count(const std::string &name) const
{
    return static_cast<std::size_t>(
        std::count_if(spans_.begin(), spans_.end(),
                      [&](const Span &s) { return s.name == name; }));
}

void
Tracer::writeChrome(std::ostream &out) const
{
    support::json::Array events;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        support::json::Object args{{"id", static_cast<std::int64_t>(i)},
                                   {"parent", s.parent}};
        if (!s.label.empty())
            args.emplace("cell", s.label);
        events.push_back(support::json::Object{
            {"name", s.name},
            {"ph", "X"},
            {"pid", 1},
            {"tid", 1},
            {"ts", s.start_s * 1e6},
            {"dur", (s.end_s - s.start_s) * 1e6},
            {"args", std::move(args)},
        });
    }
    out << support::json::Value(support::json::Object{
                                    {"traceEvents", std::move(events)}})
               .dump()
        << "\n";
}

// ---------------------------------------------------- decomposed runOne

namespace {

bool
inSram(std::uint16_t base, std::uint32_t sram_end)
{
    return base >= plat::kSramBase && base < sram_end;
}

/** The runner's fit check for one section (true = fits). */
bool
sectionFits(const masm::Range &range, std::uint32_t sram_end)
{
    if (range.size == 0)
        return true;
    if (inSram(range.base, sram_end))
        return range.end() <= sram_end;
    return range.end() <= plat::kVectorsBase;
}

/** Code ranges the machine attributes or probes, from either build. */
struct Ranges {
    std::uint16_t handler_base = 0, handler_end = 0;
    std::uint16_t memcpy_base = 0, memcpy_end = 0;
    std::uint16_t recover_base = 0, recover_end = 0;
    std::uint16_t datapool_base = 0, datapool_end = 0;
    std::uint16_t ckpt_base = 0, ckpt_end = 0;
};

} // namespace

harness::Metrics
runDecomposed(const harness::RunSpec &spec, Tracer &tracer)
{
    harness::Metrics m;
    harness::PlacementPlan plan = harness::makePlacement(spec.placement);

    std::string recover;
    if (spec.system == System::SwapRam && spec.swap.boot_recovery)
        recover = "__swp_recover";
    else if (spec.system == System::BlockCache &&
             spec.block.boot_recovery)
        recover = "__bb_recover";

    if (plan.stack_in_sram &&
        plan.stack_top == static_cast<std::uint16_t>(plat::kSramEnd)) {
        plan.stack_top = static_cast<std::uint16_t>(plat::kSramBase +
                                                    spec.sram_size);
    }

    std::string body = spec.workload->source;
    if (spec.include_lib)
        body += swapram::workloads::libSource();
    auto parse = [&](const std::string &recover_call) {
        std::string source =
            harness::startupSource(plan.stack_top, spec.main_repeats,
                                   recover_call) +
            body;
        Tracer::Scope span(tracer, "masm.parse");
        return masm::parse(source);
    };
    masm::Program program = parse(recover);

    cache::Options swap = spec.swap;
    bb::Options block = spec.block;
    std::uint16_t stack_top = plan.stack_top;
    const std::uint32_t sram_end = plat::kSramBase + spec.sram_size;
    if (spec.sram_size != plat::kSramSize) {
        for (std::uint16_t *end :
             {&swap.cache_end, &block.cache_end, &swap.ckpt.sram_end,
              &block.ckpt.sram_end}) {
            if (*end == plat::kSramEnd)
                *end = static_cast<std::uint16_t>(sram_end);
        }
    }
    if (!swap.data_pool_bytes && spec.workload->data_pool_bytes)
        swap.data_pool_bytes = spec.workload->data_pool_bytes;

    // Standard (for cache systems) and Split carve the cache out of the
    // SRAM a baseline probe assembly leaves free.
    const bool carve_standard = spec.placement == Placement::Standard &&
                                spec.system != System::Baseline;
    if (spec.placement == Placement::Split || carve_standard) {
        masm::Program probe_program =
            recover.empty() ? program : parse("");
        masm::AssembleResult probe;
        {
            Tracer::Scope span(tracer, "masm.assemble");
            probe = masm::assemble(probe_program, plan.layout);
        }
        std::uint32_t bss_end = probe.image.bss.end();
        std::uint32_t base, end;
        if (carve_standard) {
            base = (bss_end + 1) & ~1u;
            end = (sram_end - spec.workload->stack_bytes) & ~1u;
            if (base + 64 > end) {
                m.fits = false;
                return m;
            }
        } else {
            base = (bss_end + spec.workload->stack_bytes + 1) & ~1u;
            end = sram_end;
            if (base >= sram_end) {
                m.fits = false;
                return m;
            }
            stack_top = static_cast<std::uint16_t>(base);
        }
        swap.cache_base = block.cache_base =
            static_cast<std::uint16_t>(base);
        swap.cache_end = block.cache_end =
            static_cast<std::uint16_t>(end);
    }

    masm::AssembleResult assembled;
    Ranges r;
    switch (spec.system) {
      case System::Baseline: {
        Tracer::Scope span(tracer, "masm.assemble");
        assembled = masm::assemble(program, plan.layout);
        break;
      }
      case System::SwapRam: {
        cache::BuildInfo info;
        {
            Tracer::Scope span(tracer, "swapram.build");
            info = cache::build(program, plan.layout, swap);
        }
        assembled = std::move(info.assembled);
        r = {info.handler_addr, info.handler_end, info.memcpy_addr,
             info.memcpy_end,   info.recover_addr, info.recover_end,
             info.datapool_addr, info.datapool_end, info.ckpt_addr,
             info.ckpt_end};
        break;
      }
      case System::BlockCache: {
        bb::BuildInfo info;
        {
            Tracer::Scope span(tracer, "blockcache.build");
            info = bb::build(program, plan.layout, block);
        }
        assembled = std::move(info.assembled);
        r = {info.runtime_addr, info.runtime_end, info.memcpy_addr,
             info.memcpy_end,   info.recover_addr, info.recover_end,
             0,                 0,                 info.ckpt_addr,
             info.ckpt_end};
        break;
      }
    }

    const masm::Image &image = assembled.image;
    bool fits = sectionFits(image.text, sram_end) &&
                sectionFits(image.cnst, sram_end) &&
                sectionFits(image.data, sram_end) &&
                sectionFits(image.bss, sram_end);
    const std::uint32_t data_top =
        std::max(image.data.end(), image.bss.end());
    const std::uint32_t stack_limit =
        stack_top - spec.workload->stack_bytes;
    if (plan.stack_in_sram && spec.placement != Placement::Split) {
        if (inSram(image.data.base, sram_end) && data_top > stack_limit)
            fits = false;
    } else if (!plan.stack_in_sram) {
        if (!inSram(image.data.base, sram_end) && data_top > stack_limit)
            fits = false;
    }
    if (!fits) {
        m.fits = false;
        return m;
    }

    auto symbol = [&](const char *name) -> std::uint16_t {
        auto it = assembled.symbols.find(name);
        return it == assembled.symbols.end() ? 0 : it->second;
    };

    sim::MachineConfig config;
    config.clock_hz = spec.clock_hz;
    config.max_cycles = spec.max_cycles;
    config.timer_period_cycles = spec.workload->timer_period_cycles;
    config.predecode_enabled = spec.predecode;
    config.superblock_enabled = spec.superblock;
    config.threaded_enabled = spec.threaded;
    config.sram_size = spec.sram_size;
    if (spec.intermittent.livelock_boots)
        config.livelock_boots = spec.intermittent.livelock_boots;
    sim::FaultInjector injector(spec.intermittent.plan);
    std::unique_ptr<sim::Machine> machine;
    {
        Tracer::Scope span(tracer, "sim.setup");
        machine = std::make_unique<sim::Machine>(config);
        machine->load(image, stack_top);
        if (r.handler_end > r.handler_base)
            machine->addOwnerRange(r.handler_base, r.handler_end,
                                   sim::CodeOwner::Handler);
        if (r.memcpy_end > r.memcpy_base)
            machine->addOwnerRange(r.memcpy_base, r.memcpy_end,
                                   sim::CodeOwner::Memcpy);
        if (r.datapool_end > r.datapool_base)
            machine->addOwnerRange(r.datapool_base, r.datapool_end,
                                   sim::CodeOwner::Handler);
        if (r.recover_end > r.recover_base)
            machine->setRecoveryRange(r.recover_base, r.recover_end);
        if (r.ckpt_end > r.ckpt_base) {
            machine->addOwnerRange(r.ckpt_base, r.ckpt_end,
                                   sim::CodeOwner::Handler);
            machine->setCkptProbe(symbol("__ckpt_commit"),
                                  symbol("__ckpt_restore"));
        }
        if (config.livelock_boots) {
            // The same persistent counter cells the runner keeps out of
            // the livelock watermark.
            for (const char *name :
                 {"__swp_nevict", "__swp_nretry", "__swp_dnin",
                  "__swp_dnout", "__swp_dnfull", "__ckpt_seq",
                  "__ckpt_ctr", "__ckpt_low", "__ckpt_ncommit",
                  "__ckpt_nrestore", "__ckpt_buf0", "__ckpt_buf1"}) {
                auto it = assembled.symbols.find(name);
                if (it != assembled.symbols.end())
                    machine->addWatermarkSkip(it->second,
                                              it->second + 2);
            }
        }
        if (spec.intermittent.enabled()) {
            if (spec.intermittent.plan.kind ==
                sim::FaultPlan::Kind::Trace) {
                injector.bindEnergy(&machine->stats(),
                                    sim::EnergyModel{}, spec.clock_hz);
            }
            machine->setFaultInjector(&injector);
        }
    }

    // Observation: the campaigns observe only through the swap
    // timeline (sweepSpec turns it on for the cache systems).
    const harness::ObserveSpec &obs = spec.observe;
    if (obs.tracing() || obs.profile || obs.metrics)
        support::fatal("decomposition supports only the swap timeline");
    std::unique_ptr<trace::TraceEngine> engine;
    std::unique_ptr<trace::SwapTimeline> timeline;
    if (obs.swap_timeline) {
        Tracer::Scope span(tracer, "trace.attach");
        engine = std::make_unique<trace::TraceEngine>(obs.categories,
                                                      obs.ring_capacity);
        const bool is_block = spec.system == System::BlockCache;
        timeline = std::make_unique<trace::SwapTimeline>(
            is_block ? block.cache_base : swap.cache_base,
            is_block ? block.cache_end : swap.cache_end);
        for (const masm::FunctionInfo &f : assembled.functions)
            timeline->addFunction(f.name, f.addr, f.size);
        if (!is_block && swap.data_pool_bytes)
            timeline->setDataPool(swap.poolBase(), r.datapool_base,
                                  r.datapool_end);
        timeline->setEngine(engine.get());
        engine->addSink(timeline.get(), trace::kCatSwap |
                                            trace::kCatAccess |
                                            trace::kCatPower);
        machine->setTraceEngine(engine.get());
    }

    sim::RunResult result;
    {
        Tracer::Scope span(tracer, "sim.run");
        result = machine->run();
    }
    if (engine) {
        engine->finish();
        m.swap_summary = timeline->summary();
    }

    m.done = result.done;
    m.stop = result.stop;
    m.console = machine->mmio().console();
    m.stats = machine->stats();
    m.seconds = sim::EnergyModel::seconds(m.stats, spec.clock_hz);
    m.energy_pj = sim::EnergyModel{}.totalPj(m.stats, spec.clock_hz);
    if (spec.intermittent.plan.kind == sim::FaultPlan::Kind::Trace) {
        const std::uint64_t cycles = m.stats.totalCycles();
        m.harvested_pj = injector.harvestedPj(cycles);
        m.wall_seconds = injector.wallSeconds(cycles);
    }
    auto cell = [&](const char *name) -> std::uint16_t {
        const std::uint16_t addr = symbol(name);
        return addr ? machine->peek16(addr) : 0;
    };
    m.checksum = cell("bench_result");
    m.rt_ckpt_commits = cell("__ckpt_ncommit");
    m.rt_ckpt_restores = cell("__ckpt_nrestore");
    if (spec.system == System::SwapRam) {
        m.rt_evictions = cell("__swp_nevict");
        m.rt_retries = cell("__swp_nretry");
        m.rt_data_in = cell("__swp_dnin");
        m.rt_data_out = cell("__swp_dnout");
        m.rt_data_full = cell("__swp_dnfull");
    }
    m.text_bytes = image.text.size;
    m.const_bytes = image.cnst.size;
    m.data_bytes = image.data.size;
    m.bss_bytes = image.bss.size;
    for (const masm::Range &section : {image.data, image.bss})
        for (std::uint32_t a = section.base; a < section.end(); ++a)
            m.data_snapshot.push_back(
                machine->peek8(static_cast<std::uint16_t>(a)));
    return m;
}

bool
statsEqual(const sim::Stats &a, const sim::Stats &b)
{
    auto access = [](const sim::AccessCounts &x,
                     const sim::AccessCounts &y) {
        return x.fetch == y.fetch && x.read == y.read &&
               x.write == y.write;
    };
    return a.instructions == b.instructions &&
           a.base_cycles == b.base_cycles &&
           a.stall_cycles == b.stall_cycles && access(a.sram, b.sram) &&
           access(a.fram, b.fram) && access(a.mmio, b.mmio) &&
           a.fram_cache_hits == b.fram_cache_hits &&
           a.fram_cache_misses == b.fram_cache_misses &&
           a.code_space_accesses == b.code_space_accesses &&
           a.data_space_accesses == b.data_space_accesses &&
           a.instr_by_owner == b.instr_by_owner &&
           a.interrupts == b.interrupts && a.reboots == b.reboots &&
           a.recovery_cycles == b.recovery_cycles &&
           a.predecode_hits == b.predecode_hits &&
           a.predecode_misses == b.predecode_misses &&
           a.predecode_invalidations == b.predecode_invalidations &&
           a.superblock_blocks_built == b.superblock_blocks_built &&
           a.superblock_dispatches == b.superblock_dispatches &&
           a.superblock_instructions == b.superblock_instructions &&
           a.superblock_bail_operand == b.superblock_bail_operand &&
           a.superblock_bail_smc == b.superblock_bail_smc &&
           a.superblock_bail_boundary == b.superblock_bail_boundary &&
           a.superblock_invalidations == b.superblock_invalidations &&
           a.threaded_blocks_lowered == b.threaded_blocks_lowered &&
           a.threaded_dispatches == b.threaded_dispatches &&
           a.threaded_instructions == b.threaded_instructions &&
           a.threaded_bail_operand == b.threaded_bail_operand &&
           a.threaded_bail_smc == b.threaded_bail_smc &&
           a.threaded_bail_boundary == b.threaded_bail_boundary;
}

// ---------------------------------------------------------- traced pass

namespace {

harness::RunOutcome
capture(const std::function<harness::Metrics()> &fn)
{
    harness::RunOutcome out;
    try {
        out.metrics = fn();
    } catch (const std::exception &e) {
        out.error = true;
        out.error_text = e.what();
    }
    return out;
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0;
}

} // namespace

TracedPass
runTraced(Workload workload, const Inputs &inputs, std::uint32_t seed,
          Tracer &tracer)
{
    TracedPass pass;
    double observe_s = 0;
    std::uint64_t swap_ins = 0, evictions = 0;

    BatchFn batch = [&](const std::vector<Cell> &cells) {
        std::vector<harness::RunOutcome> outs;
        for (const Cell &cell : cells) {
            harness::RunOutcome out;
            {
                Tracer::Scope span(tracer, "cell", cell.name);
                out = capture(
                    [&] { return runDecomposed(cell.spec, tracer); });
                if (out.ok() && out.metrics.fits) {
                    Tracer::Scope report(tracer, "harness.report");
                    harness::RunReport::make(cell.spec, out.metrics)
                        .json()
                        .dump(2);
                }
            }

            // The reference: harness::runOne on the same spec.
            auto timed = [&](const char *name,
                             const harness::RunSpec &spec,
                             double *seconds) {
                Tracer::Scope span(tracer, name, cell.name);
                const auto t0 = std::chrono::steady_clock::now();
                harness::RunOutcome o =
                    capture([&] { return harness::runOne(spec); });
                *seconds = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - t0)
                               .count();
                return o;
            };
            double ref_s = 0;
            harness::RunOutcome ref = timed("runOne", cell.spec, &ref_s);
            if (out.error != ref.error ||
                out.metrics.fits != ref.metrics.fits ||
                !statsEqual(out.metrics.stats, ref.metrics.stats)) {
                pass.mismatches.push_back(
                    cell.name + ": decomposed Stats differ from runOne");
            }

            // Observation cost: the same run with observation off.
            if (cell.spec.observe.any()) {
                harness::RunSpec plain = cell.spec;
                plain.observe = harness::ObserveSpec{};
                double plain_s = 0;
                timed("runOne.plain", plain, &plain_s);
                observe_s += ref_s - plain_s;
            }

            // Swap-ins and evictions are reconstructed by the swap
            // timeline; unobserved SwapRAM cells get one extra run
            // with it on.
            if (cell.spec.system == System::SwapRam && out.ok()) {
                trace::SwapSummary summary = out.metrics.swap_summary;
                if (!cell.spec.observe.swap_timeline) {
                    harness::RunSpec observed = cell.spec;
                    observed.observe.swap_timeline = true;
                    double seconds = 0;
                    summary = timed("runOne.timeline", observed, &seconds)
                                  .metrics.swap_summary;
                }
                swap_ins += summary.copy_ins;
                evictions += summary.evictions;
            }
            outs.push_back(std::move(out));
        }
        return outs;
    };
    pass.run = runCampaign(workload, inputs, phaseOne(workload, inputs),
                           seed, batch);

    // Counts from the decomposed runs' simulator statistics.
    double instr = 0, fast = 0, pd_hits = 0, pd_lookups = 0;
    double invalidations = 0, bails = 0, stalls = 0, cycles = 0;
    double fc_hits = 0, fc_lookups = 0, reboots = 0, recovery = 0;
    double swp_instr = 0, swp_sram = 0, swp_runtime = 0, data_swaps = 0;
    double commits = 0, restores = 0;
    for (std::size_t i = 0; i < pass.run.cells.size(); ++i) {
        const harness::RunOutcome &out = pass.run.outcomes[i];
        if (out.error || !out.metrics.fits)
            continue;
        const harness::Metrics &m = out.metrics;
        const sim::Stats &s = m.stats;
        instr += s.instructions;
        fast += s.threaded_instructions + s.superblock_instructions;
        pd_hits += s.predecode_hits;
        pd_lookups += s.predecode_hits + s.predecode_misses;
        invalidations +=
            s.predecode_invalidations + s.superblock_invalidations;
        bails += s.superblock_bail_operand + s.superblock_bail_smc +
                 s.superblock_bail_boundary + s.threaded_bail_operand +
                 s.threaded_bail_smc + s.threaded_bail_boundary;
        stalls += s.stall_cycles;
        cycles += s.totalCycles();
        fc_hits += s.fram_cache_hits;
        fc_lookups += s.fram_cache_hits + s.fram_cache_misses;
        reboots += s.reboots;
        recovery += s.recovery_cycles;
        commits += m.rt_ckpt_commits;
        restores += m.rt_ckpt_restores;
        if (pass.run.cells[i].spec.system == System::SwapRam) {
            auto owner = [&](sim::CodeOwner o) {
                return static_cast<double>(
                    s.instr_by_owner[static_cast<int>(o)]);
            };
            swp_instr += s.instructions;
            swp_sram += owner(sim::CodeOwner::AppSram);
            swp_runtime += owner(sim::CodeOwner::Handler) +
                           owner(sim::CodeOwner::Memcpy);
            data_swaps += m.rt_data_in + m.rt_data_out;
        }
    }

    const double run_s = tracer.total("sim.run");
    pass.metrics = {
        {"masm.parse_s", tracer.total("masm.parse")},
        {"masm.parse_calls",
         static_cast<double>(tracer.count("masm.parse"))},
        {"masm.assemble_s", tracer.total("masm.assemble")},
        {"swapram.build_s", tracer.total("swapram.build")},
        {"swapram.builds",
         static_cast<double>(tracer.count("swapram.build"))},
        {"swapram.sram_instr_frac", ratio(swp_sram, swp_instr)},
        {"swapram.runtime_instr_frac", ratio(swp_runtime, swp_instr)},
        {"swapram.swap_ins", static_cast<double>(swap_ins)},
        {"swapram.evictions", static_cast<double>(evictions)},
        {"swapram.data_swaps", data_swaps},
        {"blockcache.build_s", tracer.total("blockcache.build")},
        {"blockcache.builds",
         static_cast<double>(tracer.count("blockcache.build"))},
        {"ckpt.commits", commits},
        {"ckpt.restores", restores},
        {"sim.setup_s", tracer.total("sim.setup")},
        {"sim.run_s", run_s},
        {"sim.instructions", instr},
        {"sim.mips", ratio(instr, run_s) * 1e-6},
        {"sim.fast_frac", ratio(fast, instr)},
        {"sim.predecode_hit_ratio", ratio(pd_hits, pd_lookups)},
        {"sim.invalidations", invalidations},
        {"sim.bails", bails},
        {"sim.stall_frac", ratio(stalls, cycles)},
        {"sim.fram_cache_hit_ratio", ratio(fc_hits, fc_lookups)},
        {"sim.reboots", reboots},
        {"sim.recovery_cycles", recovery},
        {"trace.observe_s", observe_s},
        {"harness.report_s", tracer.total("harness.report")},
        // Traced over untraced time for the same cells: the decomposed,
        // span-recording cells against runOne on each.
        {"bench.trace_overhead_ratio",
         ratio(tracer.total("cell"), tracer.total("runOne"))},
    };
    return pass;
}

} // namespace perfbench
