/**
 * @file
 * Command-line front end for the SwapRAM toolchain — the equivalent of
 * the instrumentation/transformation scripts the paper releases (§4).
 *
 *   swapram_tool assemble  <file.s|--workload name> [options]
 *   swapram_tool transform <file.s|--workload name> [options]
 *   swapram_tool run       <file.s|--workload name> [options]
 *   swapram_tool profile   <file.s|--workload name> [options]
 *   swapram_tool trace     <file.s|--workload name> [options]
 *   swapram_tool heatmap   <file.s|--workload name> [options]
 *   swapram_tool faults    <file.s|--workload name> [options]
 *   swapram_tool sweep     [--workload LIST] [--systems LIST] [options]
 *   swapram_tool disasm    <file.s|--workload name> --func NAME
 *
 * Common options:
 *   --workload NAME          use a built-in benchmark instead of a file
 *                            (run/sweep: comma list or "all")
 *   --jobs N                 worker threads for batch commands (run
 *                            over several workloads, faults, sweep);
 *                            default: hardware concurrency. Results
 *                            are byte-identical at any job count.
 *   --system baseline|swapram|block      (default baseline; faults
 *                            without --system runs swapram, then block)
 *   --placement unified|standard|sram-code|sram-all|split
 *   --clock MHZ              8 or 24 (default 24)
 *   --cache-base A --cache-end B         SwapRAM/block cache region
 *   --sram-size N            simulated SRAM bytes (default 4096); a
 *                            default cache region re-anchors to the
 *                            new SRAM end
 *   --no-evict               disable SwapRAM eviction: a blocked miss
 *                            falls back to running from FRAM (the
 *                            pre-eviction runtime, bit-identical)
 *   --data-pool N            data-side SwapRAM pool bytes (power of
 *                            two >= 32), carved from the cache top
 *   --policy queue|stack     SwapRAM replacement structure
 *   --blacklist f1,f2        functions excluded from caching
 *   --listing                print the address-annotated listing
 *   --no-superblock          disable the threaded fast tier; execute
 *                            on the single-step (predecode) path.
 *                            Simulated results are identical either
 *                            way — this exists for conformance runs
 *                            and host-performance comparisons.
 *
 * Observability options (run/profile/trace):
 *   --json                   emit a swapram-run-report/v1 JSON document
 *   --trace-categories LIST  comma list (instr,access,stall,hwcache,
 *                            interrupt,swap) or "all"
 *   --trace-out FILE         write the event stream to FILE
 *   --trace-format FMT       text|csv|chrome (default from FILE
 *                            extension: .json=chrome, .csv=csv)
 *   --trace-limit N          stop streaming after N events
 *   --disasm                 annotate instruction events (text format)
 *   --ring-capacity N        trace ring-buffer size in events (default
 *                            65536). When a traced run drops events the
 *                            tool warns on stderr; raise this to keep
 *                            the full history.
 *   --metrics                collect run metrics (address-space
 *                            heatmap, FRAM stall / miss-handler
 *                            histograms); --json embeds them as a
 *                            swapram-metrics/v1 section. With sweep,
 *                            per-run metrics merge per system into the
 *                            sweep document.
 *   --progress               live batch progress on stderr (run over
 *                            several workloads, faults, sweep):
 *                            done/total, error count, rolling runs/s
 *   --flame-out FILE         write profiled runs' folded call stacks
 *                            ("stack cycles" lines) for flamegraph.pl
 *                            / speedscope; implies --profile wiring
 *
 * Heatmap options (heatmap):
 *   --csv FILE               full per-page heat dump
 *                            (page,base,region,fetch,read,write,
 *                            stall_cycles)
 *
 * Fault-injection options (faults; --harvest-trace and --ckpt-* also
 * apply to run/profile/trace single runs):
 *   --fault-periods LIST     comma list of power-failure periods in
 *                            cycles (default: C/2,C/4,C/8,C/16 where C
 *                            is the uninterrupted run's cycle count)
 *   --fault-count N          power failures per run (default 8; the
 *                            final boot always completes)
 *   --fault-seed S           seeded-random gaps in [P/2, 3P/2) instead
 *                            of a fixed period
 *   --no-recovery            disable the generated boot-recovery call
 *                            (demonstrates the stale-metadata crash)
 *   --harvest-trace F,F,...  energy-harvesting CSV profiles
 *                            ("time_s,power_w" lines); fault timing
 *                            becomes a deterministic consequence of the
 *                            capacitor model instead of a synthetic
 *                            period schedule. faults sweeps the
 *                            scheme x trace x workload matrix and
 *                            reports forward progress per harvested
 *                            joule.
 *   --ckpt-scheme LIST       checkpoint commit schemes (comma list of
 *                            none|periodic|on-low-energy; default
 *                            none). Non-none schemes generate the
 *                            crash-atomic __ckpt_commit/__ckpt_restore
 *                            runtime (cache systems only) and need an
 *                            SRAM stack — the default unified placement
 *                            auto-upgrades to standard.
 *   --ckpt-period N          periodic: misses between commits (64)
 *   --ckpt-threshold N       on-low-energy: commit below this MMIO
 *                            capacitor level, 0..0xFFFF (0x4000)
 *   --livelock-boots N       abort a run after N consecutive boots
 *                            without persistent-state progress
 *   --cap-capacity UJ        capacitor capacity in uJ (100)
 *   --cap-power-on UJ        boot threshold in uJ (60)
 *   --cap-brown-out UJ       power-fail threshold in uJ (20)
 *   --cap-leak UW            parasitic leak in uW (10)
 *
 * Sweep options (sweep):
 *   --systems LIST           comma list of baseline,swapram,block or
 *                            "all" (the default)
 *   --capacity               append the capacity-pressure matrix: each
 *                            capacity workload as a baseline reference
 *                            plus SwapRAM runs at 1/2/4/8 KiB SRAM
 *                            (the ISSUE-7 hit/thrash curve)
 *   --update-golden          rewrite the golden conformance
 *                            expectations from this sweep's results
 *   --golden-out FILE        golden file path (default: the source
 *                            tree's tests/golden/expectations.json)
 */

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <type_traits>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "metrics/run_metrics.hh"

#include "blockcache/builder.hh"
#include "ckpt/options.hh"
#include "harness/engine.hh"
#include "sim/harvest.hh"
#include "harness/report.hh"
#include "harness/runner.hh"
#include "masm/parser.hh"
#include "masm/printer.hh"
#include "masm/reimport.hh"
#include "sim/machine.hh"
#include "support/logging.hh"
#include "support/strings.hh"
#include "swapram/builder.hh"
#include "trace/event.hh"
#include "workloads/workload.hh"

using namespace swapram;

namespace {

struct Args {
    std::string command;
    std::string file;
    std::string workload;
    std::string func;
    harness::System system = harness::System::Baseline;
    bool system_set = false; ///< explicit --system given
    harness::Placement placement = harness::Placement::Unified;
    std::uint32_t clock_hz = 24'000'000;
    cache::Options swap;
    bb::Options block;
    std::uint32_t sram_size = platform::kSramSize; ///< --sram-size
    bool capacity = false; ///< sweep: append capacity-pressure rows
    bool listing = false;
    bool json = false;
    bool no_superblock = false; ///< force single-step/predecode path
    bool disasm = false;
    std::uint32_t trace_categories = trace::kCatNone;
    std::string trace_out;
    std::string trace_format;
    std::uint64_t trace_limit = 0;
    std::size_t ring_capacity = 0; ///< 0 = engine default
    bool metrics = false;          ///< collect swapram-metrics/v1
    bool progress = false;         ///< live batch progress on stderr
    std::string flame_out;         ///< folded-stack output file
    std::string heat_csv;          ///< heatmap: per-page CSV dump
    std::vector<std::uint64_t> fault_periods;
    std::uint32_t fault_count = 8;
    std::uint32_t fault_seed = 0; ///< 0 = fixed-period schedule
    bool no_recovery = false;
    bool placement_set = false; ///< explicit --placement given
    std::vector<std::string> harvest_traces; ///< --harvest-trace files
    std::string ckpt_schemes;     ///< --ckpt-scheme comma list
    int ckpt_period = 0;          ///< --ckpt-period (0 = default 64)
    std::uint16_t ckpt_threshold = 0; ///< --ckpt-threshold (0 = default)
    std::uint32_t livelock_boots = 0; ///< --livelock-boots (0 = default)
    double cap_capacity_uj = 0;   ///< --cap-capacity (0 = default 100)
    double cap_power_on_uj = 0;   ///< --cap-power-on (0 = default 60)
    double cap_brown_out_uj = 0;  ///< --cap-brown-out (0 = default 20)
    double cap_leak_uw = -1;      ///< --cap-leak (<0 = default 10)
    unsigned jobs = 0; ///< engine workers; 0 = hardware concurrency
    std::string systems; ///< sweep: comma list or "all"
    bool update_golden = false;
    std::string golden_out;
};

[[noreturn]] void
usage()
{
    std::fprintf(
        stderr,
        "usage: swapram_tool <assemble|transform|run|profile|trace|"
        "heatmap|faults|sweep|disasm>\n"
        "                    <file.s | --workload NAME[,NAME...|all]> "
        "[options]\n"
        "         --jobs N   --systems LIST   --update-golden\n"
        "         --golden-out FILE   --capacity (sweep)\n"
        "         --metrics   --progress   --flame-out FILE\n"
        "         --ring-capacity N   --csv FILE (heatmap)\n"
        "options: --system baseline|swapram|block   --placement "
        "unified|standard|sram-code|sram-all|split\n"
        "         --clock 8|24   --cache-base N --cache-end N\n"
        "         --sram-size N   --no-evict   --data-pool N\n"
        "         --policy queue|stack   --blacklist f1,f2\n"
        "         --func NAME (disasm)   --listing   --json\n"
        "         --no-superblock (single-step execution engine)\n"
        "         --trace-categories LIST   --trace-out FILE\n"
        "         --trace-format text|csv|chrome   --trace-limit N\n"
        "         --disasm\n"
        "         --fault-periods N,N,...   --fault-count N\n"
        "         --fault-seed S   --no-recovery   (faults)\n"
        "         --harvest-trace F,F,...   --ckpt-scheme LIST\n"
        "         --ckpt-period N   --ckpt-threshold N\n"
        "         --livelock-boots N   --cap-capacity UJ\n"
        "         --cap-power-on UJ --cap-brown-out UJ --cap-leak UW\n");
    std::exit(2);
}

/**
 * The value of numeric flag @p flag: @p text must be a number as a
 * whole (no sign, no trailing characters), finite, and within T's
 * range. @p base 0 also accepts 0x-prefixed hex. Anything else is a
 * FatalError naming the flag, never a silent truncation.
 */
template <typename T>
T
parseNumber(const char *flag, const std::string &text, int base = 10)
{
    const char *begin = text.c_str();
    char *end = nullptr;
    errno = 0;
    bool ok = !text.empty() &&
              (std::isdigit(static_cast<unsigned char>(text[0])) ||
               (std::is_floating_point_v<T> && text[0] == '.'));
    if constexpr (std::is_floating_point_v<T>) {
        double v = ok ? std::strtod(begin, &end) : 0;
        if (ok && *end == '\0' && errno == 0 && std::isfinite(v))
            return static_cast<T>(v);
    } else {
        unsigned long long v = ok ? std::strtoull(begin, &end, base) : 0;
        if (ok && *end == '\0' && errno == 0 &&
            v <= static_cast<unsigned long long>(
                     std::numeric_limits<T>::max()))
            return static_cast<T>(v);
    }
    support::fatal(flag, ": '", text, "' is not a ",
                   std::is_floating_point_v<T> ? "finite number"
                                               : "number",
                   " in range");
}

Args
parseArgs(int argc, char **argv)
{
    if (argc < 2)
        usage();
    Args args;
    args.command = argv[1];
    // sweep defaults to the full workload × system matrix, so it is
    // the one command that needs no input argument.
    if (argc < 3 && args.command != "sweep")
        usage();
    for (int i = 2; i < argc; ++i) {
        std::string a = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                support::fatal(a, ": missing value");
            return argv[++i];
        };
        if (a == "--workload") {
            args.workload = next();
        } else if (a == "--system") {
            args.system_set = true;
            std::string v = next();
            if (v == "baseline")
                args.system = harness::System::Baseline;
            else if (v == "swapram")
                args.system = harness::System::SwapRam;
            else if (v == "block")
                args.system = harness::System::BlockCache;
            else
                support::fatal("--system: '", v,
                               "' is not baseline, swapram or block");
        } else if (a == "--placement") {
            args.placement_set = true;
            std::string v = next();
            if (v == "unified")
                args.placement = harness::Placement::Unified;
            else if (v == "standard")
                args.placement = harness::Placement::Standard;
            else if (v == "sram-code")
                args.placement = harness::Placement::SramCode;
            else if (v == "sram-all")
                args.placement = harness::Placement::SramAll;
            else if (v == "split")
                args.placement = harness::Placement::Split;
            else
                support::fatal("--placement: '", v,
                               "' is not unified, standard, sram-code, "
                               "sram-all or split");
        } else if (a == "--clock") {
            auto mhz = parseNumber<std::uint32_t>("--clock", next());
            if (mhz == 0 ||
                mhz > std::numeric_limits<std::uint32_t>::max() /
                          1'000'000u) {
                support::fatal("--clock: ", mhz,
                               " MHz is not a positive clock in range");
            }
            args.clock_hz = mhz * 1'000'000u;
        } else if (a == "--cache-base") {
            args.swap.cache_base =
                parseNumber<std::uint16_t>("--cache-base", next(), 0);
            args.block.cache_base = args.swap.cache_base;
        } else if (a == "--cache-end") {
            args.swap.cache_end =
                parseNumber<std::uint16_t>("--cache-end", next(), 0);
            args.block.cache_end = args.swap.cache_end;
        } else if (a == "--sram-size") {
            args.sram_size =
                parseNumber<std::uint32_t>("--sram-size", next(), 0);
        } else if (a == "--no-evict") {
            args.swap.evict = false;
        } else if (a == "--data-pool") {
            args.swap.data_pool_bytes =
                parseNumber<std::uint16_t>("--data-pool", next(), 0);
        } else if (a == "--capacity") {
            args.capacity = true;
        } else if (a == "--policy") {
            std::string v = next();
            if (v == "queue")
                args.swap.policy = cache::Policy::CircularQueue;
            else if (v == "stack")
                args.swap.policy = cache::Policy::Stack;
            else
                support::fatal("--policy: '", v,
                               "' is not queue or stack");
        } else if (a == "--blacklist") {
            args.swap.blacklist = support::split(next(), ',');
        } else if (a == "--func") {
            args.func = next();
        } else if (a == "--listing") {
            args.listing = true;
        } else if (a == "--json") {
            args.json = true;
        } else if (a == "--no-superblock") {
            args.no_superblock = true;
        } else if (a == "--disasm") {
            args.disasm = true;
        } else if (a == "--trace-categories") {
            args.trace_categories = trace::parseCategories(next());
        } else if (a == "--trace-out") {
            args.trace_out = next();
        } else if (a == "--trace-format") {
            args.trace_format = next();
        } else if (a == "--trace-limit") {
            args.trace_limit =
                parseNumber<std::uint64_t>("--trace-limit", next());
        } else if (a == "--ring-capacity") {
            args.ring_capacity =
                parseNumber<std::size_t>("--ring-capacity", next());
        } else if (a == "--metrics") {
            args.metrics = true;
        } else if (a == "--progress") {
            args.progress = true;
        } else if (a == "--flame-out") {
            args.flame_out = next();
        } else if (a == "--csv") {
            args.heat_csv = next();
        } else if (a == "--fault-periods") {
            for (const std::string &p : support::split(next(), ','))
                args.fault_periods.push_back(
                    parseNumber<std::uint64_t>("--fault-periods", p, 0));
        } else if (a == "--fault-count") {
            args.fault_count =
                parseNumber<std::uint32_t>("--fault-count", next());
        } else if (a == "--fault-seed") {
            args.fault_seed =
                parseNumber<std::uint32_t>("--fault-seed", next(), 0);
        } else if (a == "--no-recovery") {
            args.no_recovery = true;
        } else if (a == "--harvest-trace") {
            for (const std::string &p : support::split(next(), ','))
                args.harvest_traces.push_back(p);
        } else if (a == "--ckpt-scheme") {
            args.ckpt_schemes = next();
        } else if (a == "--ckpt-period") {
            args.ckpt_period =
                parseNumber<int>("--ckpt-period", next(), 0);
        } else if (a == "--ckpt-threshold") {
            args.ckpt_threshold =
                parseNumber<std::uint16_t>("--ckpt-threshold", next(), 0);
        } else if (a == "--livelock-boots") {
            args.livelock_boots =
                parseNumber<std::uint32_t>("--livelock-boots", next());
        } else if (a == "--cap-capacity") {
            args.cap_capacity_uj = parseNumber<double>("--cap-capacity", next());
        } else if (a == "--cap-power-on") {
            args.cap_power_on_uj = parseNumber<double>("--cap-power-on", next());
        } else if (a == "--cap-brown-out") {
            args.cap_brown_out_uj = parseNumber<double>("--cap-brown-out", next());
        } else if (a == "--cap-leak") {
            args.cap_leak_uw = parseNumber<double>("--cap-leak", next());
        } else if (a == "--jobs") {
            args.jobs = parseNumber<unsigned>("--jobs", next());
        } else if (a == "--systems") {
            args.systems = next();
        } else if (a == "--update-golden") {
            args.update_golden = true;
        } else if (a == "--golden-out") {
            args.golden_out = next();
        } else if (!a.empty() && a[0] != '-') {
            if (!args.file.empty())
                support::fatal("input file: '", a, "' given after '",
                               args.file, "'; give one input file");
            args.file = a;
        } else {
            std::fprintf(stderr, "swapram_tool: unknown option '%s'\n",
                         a.c_str());
            usage();
        }
    }
    if (!args.file.empty() && !args.workload.empty())
        support::fatal("--workload: '", args.workload,
                       "' given with input file '", args.file,
                       "'; give one or the other");
    return args;
}

/** Load assembly source from a file or a built-in workload. */
std::string
loadSource(const Args &args, const workloads::Workload **wl_out)
{
    *wl_out = nullptr;
    if (!args.workload.empty()) {
        const auto *w = workloads::find(args.workload);
        if (!w)
            support::fatal("unknown workload '", args.workload, "'");
        *wl_out = w;
        return w->source + workloads::libSource();
    }
    if (args.file.empty())
        usage();
    std::ifstream in(args.file);
    if (!in)
        support::fatal("cannot open '", args.file, "'");
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

/** The full program: startup (if `main` is used as entry) + source. */
masm::Program
buildProgram(const harness::PlacementPlan &plan, const std::string &source)
{
    if (source.find("__start") != std::string::npos)
        return masm::parse(source);
    return masm::parse(harness::startupSource(plan.stack_top) + source);
}

/**
 * The one workload a run/heatmap/faults command takes from a file or a
 * single --workload: its source already carries the library (specs
 * built on it set include_lib false), and a built-in keeps its golden
 * checksum. @p builtin, when given, receives the built-in or nullptr.
 */
workloads::Workload
scratchWorkload(const Args &args,
                const workloads::Workload **builtin = nullptr)
{
    const workloads::Workload *wl = nullptr;
    workloads::Workload scratch;
    scratch.source = loadSource(args, &wl);
    scratch.name = args.file.empty() ? args.workload : args.file;
    scratch.display = scratch.name;
    if (wl)
        scratch.expected = wl->expected;
    if (builtin)
        *builtin = wl;
    return scratch;
}

/** The RunSpec fields every run command takes from the command line. */
harness::RunSpec
specFromArgs(const Args &args, const workloads::Workload *workload)
{
    harness::RunSpec spec;
    spec.workload = workload;
    spec.system = args.system;
    spec.placement = args.placement;
    spec.clock_hz = args.clock_hz;
    spec.swap = args.swap;
    spec.block = args.block;
    spec.sram_size = args.sram_size;
    spec.swap.boot_recovery = !args.no_recovery;
    spec.block.boot_recovery = !args.no_recovery;
    spec.superblock = !args.no_superblock;
    return spec;
}

/** Faults every @p period cycles, or with --fault-seed at random
 *  intervals in [period/2, 3·period/2). */
sim::FaultPlan
periodPlan(const Args &args, std::uint64_t period)
{
    return args.fault_seed
               ? sim::FaultPlan::random(
                     std::max<std::uint64_t>(period / 2, 1),
                     period + period / 2, args.fault_seed,
                     args.fault_count)
               : sim::FaultPlan::periodic(period, args.fault_count);
}

int
cmdAssemble(const Args &args)
{
    const workloads::Workload *wl = nullptr;
    std::string source = loadSource(args, &wl);
    auto plan = harness::makePlacement(args.placement);
    auto program = buildProgram(plan, source);
    auto assembled = masm::assemble(program, plan.layout);
    std::printf("%s", masm::sectionSummary(assembled.image).c_str());
    std::printf("entry %s, %zu symbols, %zu functions\n",
                support::hex16(assembled.image.entry).c_str(),
                assembled.symbols.size(), assembled.functions.size());
    if (args.listing)
        std::printf("\n%s", masm::listing(assembled).c_str());
    return 0;
}

int
cmdTransform(const Args &args)
{
    const workloads::Workload *wl = nullptr;
    std::string source = loadSource(args, &wl);
    auto plan = harness::makePlacement(args.placement);
    auto program = buildProgram(plan, source);
    if (args.system == harness::System::BlockCache) {
        auto info = bb::build(program, plan.layout, args.block);
        std::fprintf(stderr,
                     "block cache: %d blocks, %d stubs, app %u B, "
                     "runtime %u B, metadata %u B\n",
                     info.n_blocks, info.n_stubs, info.app_text_bytes,
                     info.runtime_bytes, info.metadata_bytes);
        std::printf("%s", args.listing
                              ? masm::listing(info.assembled).c_str()
                              : info.assembled.relaxed.text().c_str());
        return 0;
    }
    auto info = cache::build(program, plan.layout, args.swap);
    std::fprintf(stderr,
                 "swapram: %d functions, %d relocatable branches, "
                 "%d call sites; app %u B, runtime %u B, metadata %u B\n",
                 info.funcs.count(), info.reloc_count,
                 info.pass_stats.call_sites_instrumented,
                 info.app_text_bytes, info.runtime_text_bytes,
                 info.metadata_bytes);
    std::printf("%s", args.listing
                          ? masm::listing(info.assembled).c_str()
                          : info.assembled.relaxed.text().c_str());
    return 0;
}

/** Resolve --workload as a comma list or "all" against the registry. */
std::vector<const workloads::Workload *>
resolveWorkloads(const std::string &arg)
{
    std::vector<const workloads::Workload *> out;
    if (arg == "all") {
        for (const workloads::Workload &w : workloads::all())
            out.push_back(&w);
        return out;
    }
    for (const std::string &name : support::split(arg, ',')) {
        const workloads::Workload *w = workloads::find(name);
        if (!w)
            support::fatal("unknown workload '", name, "'");
        out.push_back(w);
    }
    if (out.empty())
        support::fatal("no workloads selected");
    return out;
}

/** Resolve --systems as a comma list or "all" (the default). */
std::vector<harness::System>
resolveSystems(const std::string &arg)
{
    using harness::System;
    if (arg.empty() || arg == "all")
        return {System::Baseline, System::SwapRam, System::BlockCache};
    std::vector<System> out;
    for (const std::string &name : support::split(arg, ',')) {
        if (name == "baseline")
            out.push_back(System::Baseline);
        else if (name == "swapram")
            out.push_back(System::SwapRam);
        else if (name == "block")
            out.push_back(System::BlockCache);
        else
            support::fatal("unknown system '", name,
                           "' (want baseline|swapram|block)");
    }
    if (out.empty())
        support::fatal("no systems selected");
    return out;
}

/**
 * Progress sink for --progress: a live stderr line with done/total,
 * error count, and the rolling rate. A failed run's captured error is
 * printed on its own (persistent) line before the counter refreshes.
 * Everything goes to stderr so JSON documents on stdout stay clean.
 */
harness::ProgressFn
makeProgress(bool enabled, const char *what)
{
    if (!enabled)
        return {};
    return [what](const harness::Progress &p) {
        if (p.outcome && p.outcome->error) {
            std::fprintf(stderr, "\n%s: run %zu failed: %s\n", what,
                         p.index, p.outcome->error_text.c_str());
        }
        std::fprintf(stderr,
                     "\r%s: %zu/%zu done, %zu error%s, %.1f runs/s%s",
                     what, p.done, p.total, p.errors,
                     p.errors == 1 ? "" : "s", p.runs_per_sec,
                     p.done == p.total ? "\n" : "");
        std::fflush(stderr);
    };
}

/** Warn when a traced run overwrote ring entries (ISSUE 6 satellite):
 *  the report only holds the newest --ring-capacity events. */
void
warnDropped(const harness::Metrics &m)
{
    if (!m.trace_dropped)
        return;
    support::warn("trace ring buffer dropped ", m.trace_dropped, " of ",
                  m.trace_emitted,
                  " events (oldest overwritten); re-run with "
                  "--ring-capacity N to keep the full history");
}

/** Write folded call stacks ("stack cycles" lines) for flamegraph.pl
 *  / speedscope. */
void
writeFlame(const std::string &path,
           const std::vector<trace::FoldedStack> &folded)
{
    std::ofstream out(path);
    if (!out)
        support::fatal("cannot write '", path, "'");
    for (const trace::FoldedStack &f : folded)
        out << f.stack << ' ' << f.cycles << '\n';
    support::inform("folded stacks written to ", path, " (",
                    folded.size(), " stacks)");
    std::fprintf(stderr, "folded stacks written to %s (%zu stacks)\n",
                 path.c_str(), folded.size());
}

/** One (workload × system × SRAM size) cell and its outcome. */
struct SweepCell {
    const workloads::Workload *workload = nullptr;
    harness::System system = harness::System::Baseline;
    std::uint32_t sram_size = platform::kSramSize;
    harness::RunOutcome outcome;

    /** Completed with the workload's golden checksum. */
    bool
    ok() const
    {
        return outcome.ok() && outcome.metrics.fits &&
               outcome.metrics.done &&
               outcome.metrics.checksum == workload->expected;
    }
};

/** Run the full matrix through the engine, submission-ordered. The
 *  cache options come from the command line; with no flags they are
 *  default-constructed, so the canonical sweepSpec configuration is
 *  unchanged (--no-evict / --data-pool / --cache-* deliberately flow
 *  into the sweep so variant goldens can be regenerated). */
std::vector<SweepCell>
runMatrix(const std::vector<harness::MatrixCell> &matrix,
          const Args &args, const harness::ProgressFn &progress)
{
    std::vector<SweepCell> cells;
    std::vector<harness::RunSpec> specs;
    for (const harness::MatrixCell &mc : matrix) {
        cells.push_back({mc.workload, mc.system, mc.sram_size, {}});
        harness::RunSpec spec = harness::sweepSpec(
            *mc.workload, mc.system, args.placement, args.clock_hz);
        spec.sram_size = mc.sram_size;
        spec.swap = args.swap;
        spec.block = args.block;
        spec.superblock = !args.no_superblock;
        spec.observe.metrics = args.metrics;
        specs.push_back(spec);
    }
    harness::Engine engine(args.jobs);
    std::vector<harness::RunOutcome> outcomes =
        engine.runAll(specs, progress);
    for (std::size_t i = 0; i < cells.size(); ++i)
        cells[i].outcome = std::move(outcomes[i]);
    return cells;
}

/**
 * Per-system metrics roll-up for the sweep document: every completed
 * run's RunMetrics merged bucket-wise (histograms) and page-wise
 * (heatmap). The merge is associative/commutative and applied in
 * submission order, so this section is as jobs-independent as the rest
 * of the sweep document.
 */
support::json::Value
sweepMetricsSection(const std::vector<SweepCell> &cells,
                    const std::vector<harness::System> &systems)
{
    support::json::Array configs;
    for (harness::System system : systems) {
        metrics::RunMetrics merged;
        std::uint64_t runs = 0;
        for (const SweepCell &cell : cells) {
            if (cell.system != system ||
                !cell.outcome.metrics.run_metrics)
                continue;
            merged.merge(*cell.outcome.metrics.run_metrics);
            ++runs;
        }
        if (!runs)
            continue;
        configs.push_back(support::json::Object{
            {"system", harness::systemName(system)},
            {"runs", runs},
            {"metrics", harness::metricsJson(merged)},
        });
    }
    return support::json::Object{{"configs", std::move(configs)}};
}

/**
 * The aggregated sweep document ("swapram-sweep/v1"). Deliberately
 * excludes the job count and any timing of the host so the document is
 * byte-identical at any --jobs value (the determinism contract CI
 * checks with cmp).
 */
support::json::Value
sweepDocument(const std::vector<SweepCell> &cells,
              harness::Placement placement, std::uint32_t clock_hz,
              support::json::Value metrics_section = {})
{
    support::json::Array runs;
    for (const SweepCell &cell : cells) {
        const harness::Metrics &m = cell.outcome.metrics;
        support::json::Object o{
            {"workload", cell.workload->name},
            {"system", harness::systemName(cell.system)},
            {"sram_size", cell.sram_size},
        };
        if (!cell.outcome.ok()) {
            o.emplace("error", cell.outcome.error_text);
            runs.push_back(std::move(o));
            continue;
        }
        o.emplace("fits", m.fits);
        if (!m.fits) {
            o.emplace("fit_note", m.fit_note);
            runs.push_back(std::move(o));
            continue;
        }
        o.emplace("done", m.done);
        o.emplace("checksum", m.checksum);
        o.emplace("golden_ok", m.checksum == cell.workload->expected);
        o.emplace("instructions", m.stats.instructions);
        o.emplace("base_cycles", m.stats.base_cycles);
        o.emplace("stall_cycles", m.stats.stall_cycles);
        o.emplace("total_cycles", m.stats.totalCycles());
        o.emplace("swap_ins", m.swap_summary.copy_ins);
        o.emplace("evictions", m.swap_summary.evictions);
        o.emplace("energy_pj", m.energy_pj);
        runs.push_back(std::move(o));
    }
    support::json::Object root{
        {"schema", "swapram-sweep/v1"},
        {"placement", harness::placementName(placement)},
        {"clock_hz", clock_hz},
        {"runs", std::move(runs)},
    };
    if (!metrics_section.isNull())
        root.emplace("metrics", std::move(metrics_section));
    return root;
}

/** Golden conformance expectations ("swapram-golden/v1") pin checksum,
 *  cycle totals, FRAM stalls, and swap-in counts per matrix cell. */
support::json::Value
goldenDocument(const std::vector<SweepCell> &cells,
               harness::Placement placement, std::uint32_t clock_hz)
{
    support::json::Array expectations;
    for (const SweepCell &cell : cells) {
        const harness::Metrics &m = cell.outcome.metrics;
        expectations.push_back(support::json::Object{
            {"workload", cell.workload->name},
            {"system", harness::systemName(cell.system)},
            {"sram_size", cell.sram_size},
            {"checksum", m.checksum},
            {"total_cycles", m.stats.totalCycles()},
            {"stall_cycles", m.stats.stall_cycles},
            {"swap_ins", m.swap_summary.copy_ins},
            {"evictions", m.swap_summary.evictions},
        });
    }
    return support::json::Object{
        {"schema", "swapram-golden/v1"},
        {"placement", harness::placementName(placement)},
        {"clock_hz", clock_hz},
        {"expectations", std::move(expectations)},
    };
}

/** Where --update-golden writes without an explicit --golden-out. */
std::string
defaultGoldenPath()
{
#ifdef SWAPRAM_GOLDEN_FILE
    return SWAPRAM_GOLDEN_FILE;
#else
    return "tests/golden/expectations.json";
#endif
}

/** Capacitor model from the --cap-* flags (defaults: 100 uJ capacity,
 *  60 uJ power-on, 20 uJ brown-out, 10 uW leak). */
sim::CapacitorModel
capacitorFrom(const Args &args)
{
    sim::CapacitorModel cap;
    if (args.cap_capacity_uj > 0)
        cap.capacity_pj = args.cap_capacity_uj * 1e6;
    if (args.cap_power_on_uj > 0)
        cap.power_on_pj = args.cap_power_on_uj * 1e6;
    if (args.cap_brown_out_uj > 0)
        cap.brown_out_pj = args.cap_brown_out_uj * 1e6;
    if (args.cap_leak_uw >= 0)
        cap.leak_watts = args.cap_leak_uw * 1e-6;
    return cap;
}

/** Apply one checkpoint scheme (plus the --ckpt-* knobs) to both
 *  runtimes' options in @p spec. */
void
applyCkptScheme(harness::RunSpec &spec, ckpt::Scheme scheme,
                const Args &args)
{
    for (ckpt::Options *o : {&spec.swap.ckpt, &spec.block.ckpt}) {
        o->scheme = scheme;
        if (args.ckpt_period)
            o->period = args.ckpt_period;
        if (args.ckpt_threshold)
            o->low_threshold = args.ckpt_threshold;
    }
}

/**
 * Checkpointing needs an SRAM stack (the restore rolls SRAM back, and
 * an FRAM stack would survive the rollback). The default unified
 * placement keeps the stack in FRAM, so auto-upgrade it to standard;
 * an explicit incompatible --placement is an error.
 */
void
fixPlacementForCkpt(Args &args, const char *what)
{
    if (args.system == harness::System::Baseline) {
        support::fatal("--ckpt-scheme requires --system swapram|block "
                       "(the checkpoint runtime rides the cache "
                       "runtime's miss handler)");
    }
    if (harness::makePlacement(args.placement).stack_in_sram)
        return;
    if (args.placement_set) {
        support::fatal("checkpointing requires the stack in SRAM; use "
                       "--placement standard|sram-all|split");
    }
    args.placement = harness::Placement::Standard;
    std::fprintf(stderr,
                 "%s: checkpoint schemes need an SRAM stack; using "
                 "--placement standard\n",
                 what);
}

/** Load --harvest-trace files; names are basenames without .csv. */
std::vector<std::shared_ptr<const sim::HarvestTrace>>
loadTraces(const Args &args, std::vector<std::string> *names)
{
    std::vector<std::shared_ptr<const sim::HarvestTrace>> traces;
    for (const std::string &path : args.harvest_traces) {
        traces.push_back(std::make_shared<const sim::HarvestTrace>(
            sim::HarvestTrace::load(path)));
        std::string name = path;
        if (std::size_t slash = name.find_last_of('/');
            slash != std::string::npos)
            name = name.substr(slash + 1);
        if (name.size() > 4 && name.ends_with(".csv"))
            name.resize(name.size() - 4);
        names->push_back(name);
    }
    return traces;
}

/** Pick a stream-sink format from --trace-format or the extension. */
harness::ObserveSpec::Format
streamFormat(const Args &args)
{
    using Format = harness::ObserveSpec::Format;
    if (!args.trace_format.empty()) {
        if (args.trace_format == "text")
            return Format::Text;
        if (args.trace_format == "csv")
            return Format::Csv;
        if (args.trace_format == "chrome")
            return Format::Chrome;
        support::fatal("unknown trace format '", args.trace_format,
                       "' (expected text|csv|chrome)");
    }
    if (args.trace_out.size() > 5 &&
        args.trace_out.ends_with(".json"))
        return Format::Chrome;
    if (args.trace_out.size() > 4 && args.trace_out.ends_with(".csv"))
        return Format::Csv;
    return Format::Text;
}

/** `run` over several workloads at once: engine-parallel, one summary
 *  row (or sweep-document entry) per workload. */
int
cmdRunMany(const Args &args)
{
    std::vector<const workloads::Workload *> wls =
        resolveWorkloads(args.workload);
    std::vector<harness::RunSpec> specs;
    for (const workloads::Workload *w : wls) {
        harness::RunSpec spec = specFromArgs(args, w);
        spec.observe.swap_timeline =
            args.system != harness::System::Baseline;
        spec.observe.metrics = args.metrics;
        if (args.ring_capacity)
            spec.observe.ring_capacity = args.ring_capacity;
        specs.push_back(spec);
    }
    harness::Engine engine(args.jobs);
    std::vector<harness::RunOutcome> outcomes =
        engine.runAll(specs, makeProgress(args.progress, "run"));

    std::vector<SweepCell> cells;
    for (std::size_t i = 0; i < wls.size(); ++i)
        cells.push_back({wls[i], args.system, args.sram_size,
                         std::move(outcomes[i])});

    if (args.json) {
        std::vector<harness::System> systems{args.system};
        std::printf("%s\n",
                    sweepDocument(cells, args.placement, args.clock_hz,
                                  args.metrics
                                      ? sweepMetricsSection(cells,
                                                            systems)
                                      : support::json::Value{})
                        .dump(2)
                        .c_str());
    } else {
        harness::Table table({"workload", "cycles", "stalls",
                              "swap_ins", "checksum", "result"});
        for (const SweepCell &cell : cells) {
            const harness::Metrics &m = cell.outcome.metrics;
            std::string result =
                !cell.outcome.ok()
                    ? "ERROR"
                    : (!m.fits ? "DNF"
                               : (!m.done ? "timeout"
                                          : (m.checksum ==
                                                     cell.workload
                                                         ->expected
                                                 ? "ok"
                                                 : "MISMATCH")));
            bool ran = cell.outcome.ok() && m.fits && m.done;
            table.addRow(
                {cell.workload->name,
                 ran ? harness::withCommas(m.stats.totalCycles()) : "-",
                 ran ? harness::withCommas(m.stats.stall_cycles) : "-",
                 ran ? harness::withCommas(m.swap_summary.copy_ins)
                     : "-",
                 ran ? support::hex16(m.checksum) : "-", result});
        }
        std::printf("system=%s placement=%s clock=%u MHz\n%s",
                    harness::systemName(args.system).c_str(),
                    harness::placementName(args.placement).c_str(),
                    args.clock_hz / 1'000'000, table.text().c_str());
    }
    bool any_bad = false;
    for (const SweepCell &cell : cells) {
        warnDropped(cell.outcome.metrics);
        if (cell.ok())
            continue;
        any_bad = true;
        // Surface the engine-captured error text: the table only has
        // room for "ERROR".
        if (cell.outcome.error) {
            std::fprintf(stderr, "run: %s failed: %s\n",
                         cell.workload->name.c_str(),
                         cell.outcome.error_text.c_str());
        }
    }
    return any_bad ? 1 : 0;
}

/** Full (workload × system) matrix; aggregated JSON; golden refresh. */
int
cmdSweep(const Args &args)
{
    std::vector<const workloads::Workload *> wls = resolveWorkloads(
        args.workload.empty() ? "all" : args.workload);
    std::vector<harness::System> systems = resolveSystems(args.systems);
    std::vector<harness::MatrixCell> matrix;
    for (const workloads::Workload *w : wls)
        for (harness::System system : systems)
            matrix.push_back({w, system, args.sram_size});
    if (args.capacity) {
        for (const harness::MatrixCell &mc : harness::capacityMatrix())
            matrix.push_back(mc);
    }
    std::vector<SweepCell> cells =
        runMatrix(matrix, args, makeProgress(args.progress, "sweep"));

    std::printf("%s\n",
                sweepDocument(cells, args.placement, args.clock_hz,
                              args.metrics
                                  ? sweepMetricsSection(cells, systems)
                                  : support::json::Value{})
                    .dump(2)
                    .c_str());

    bool all_ok = true;
    for (const SweepCell &cell : cells) {
        if (!cell.ok()) {
            all_ok = false;
            std::fprintf(
                stderr, "sweep: %s/%s failed: %s\n",
                cell.workload->name.c_str(),
                harness::systemName(cell.system).c_str(),
                !cell.outcome.ok()
                    ? cell.outcome.error_text.c_str()
                    : (!cell.outcome.metrics.fits
                           ? cell.outcome.metrics.fit_note.c_str()
                           : "timeout or checksum mismatch"));
        }
    }

    if (args.update_golden) {
        if (!all_ok)
            support::fatal(
                "refusing to write golden expectations from a sweep "
                "with failures");
        std::string path = args.golden_out.empty()
                               ? defaultGoldenPath()
                               : args.golden_out;
        std::ofstream out(path);
        if (!out)
            support::fatal("cannot write '", path, "'");
        out << goldenDocument(cells, args.placement, args.clock_hz)
                   .dump(2)
            << "\n";
        out.close();
        support::inform("golden expectations written to ", path, " (",
                        cells.size(), " entries)");
        std::fprintf(stderr, "updated %s (%zu entries)\n", path.c_str(),
                     cells.size());
    }
    return all_ok ? 0 : 1;
}

/** Shared driver for run / profile / trace. */
int
cmdRun(const Args &args_in)
{
    Args args = args_in;
    // A workload list (or "all") fans out through the engine; the
    // single-workload / file path keeps the detailed report below.
    if (args.command == "run" && args.file.empty() &&
        (args.workload == "all" ||
         args.workload.find(',') != std::string::npos))
        return cmdRunMany(args);

    // Single-run checkpointing: run/profile/trace take one scheme (the
    // faults subcommand sweeps a scheme list).
    ckpt::Scheme run_scheme = ckpt::Scheme::None;
    if (!args.ckpt_schemes.empty()) {
        run_scheme = ckpt::parseScheme(
            support::split(args.ckpt_schemes, ',').front());
        if (run_scheme != ckpt::Scheme::None)
            fixPlacementForCkpt(args, args.command.c_str());
    }

    const workloads::Workload *wl = nullptr;
    const workloads::Workload scratch = scratchWorkload(args, &wl);
    harness::RunSpec spec = specFromArgs(args, &scratch);
    spec.include_lib = false;
    applyCkptScheme(spec, run_scheme, args);
    spec.intermittent.livelock_boots = args.livelock_boots;
    if (!args.harvest_traces.empty()) {
        // run/profile/trace take a single harvest trace (the faults
        // subcommand sweeps all of them).
        std::vector<std::string> names;
        auto traces = loadTraces(args, &names);
        spec.intermittent.plan = sim::FaultPlan::harvest(
            traces.front(), capacitorFrom(args));
    } else if (!args.fault_periods.empty()) {
        // Likewise a single fault period.
        spec.intermittent.plan =
            periodPlan(args, args.fault_periods.front());
    }

    harness::ObserveSpec &obs = spec.observe;
    obs.categories = args.trace_categories;
    obs.limit = args.trace_limit;
    obs.disasm = args.disasm;
    obs.metrics = args.metrics;
    if (args.ring_capacity)
        obs.ring_capacity = args.ring_capacity;
    if (args.command == "profile" || args.json ||
        !args.flame_out.empty())
        obs.profile = true;
    if (args.command == "trace" && !obs.categories)
        obs.categories = trace::kCatAll;

    // The event stream goes to --trace-out, or stdout for the trace
    // subcommand (report text then goes to stderr to stay separable).
    std::ofstream trace_file;
    bool stream_stdout =
        args.trace_out.empty() &&
        (args.command == "trace" || obs.categories);
    if (!args.trace_out.empty()) {
        // A bad format fails before the file is created.
        obs.format = streamFormat(args);
        trace_file.open(args.trace_out);
        if (!trace_file)
            support::fatal("cannot write '", args.trace_out, "'");
        obs.out = &trace_file;
    } else if (stream_stdout && obs.categories) {
        obs.out = &std::cout;
        obs.format = streamFormat(args);
    }

    auto m = harness::runOne(spec);
    auto report = harness::RunReport::make(spec, std::move(m));
    const harness::Metrics &rm = report.metrics;
    if (trace_file.is_open()) {
        trace_file.close();
        support::inform("trace written to ", args.trace_out, " (",
                        rm.trace_emitted, " events)");
    }
    warnDropped(rm);
    if (!args.flame_out.empty())
        writeFlame(args.flame_out, rm.folded);

    if (args.json) {
        std::printf("%s\n", report.json().dump(2).c_str());
    } else if (!rm.fits) {
        std::printf("DNF: %s\n", rm.fit_note.c_str());
    } else if (args.command == "profile") {
        std::printf("%s", report.text().c_str());
    } else if (args.command == "trace") {
        std::fprintf(stderr, "%s", report.text(0).c_str());
    } else {
        if (!rm.console.empty())
            std::printf("--- console ---\n%s\n--- end ---\n",
                        rm.console.c_str());
        const sim::Stats &stats = rm.stats;
        std::printf(
            "instructions  %llu\n",
            static_cast<unsigned long long>(stats.instructions));
        std::printf(
            "cycles        %llu (base %llu + stalls %llu)\n",
            static_cast<unsigned long long>(stats.totalCycles()),
            static_cast<unsigned long long>(stats.base_cycles),
            static_cast<unsigned long long>(stats.stall_cycles));
        std::printf(
            "fram accesses %llu (cache hits %llu, misses %llu)\n",
            static_cast<unsigned long long>(stats.framAccesses()),
            static_cast<unsigned long long>(stats.fram_cache_hits),
            static_cast<unsigned long long>(stats.fram_cache_misses));
        std::printf("runtime       %.3f ms @ %u MHz\n",
                    rm.seconds * 1e3, args.clock_hz / 1'000'000);
        std::printf("energy        %.2f uJ\n", rm.energy_pj / 1e6);
        for (int o = 0; o < sim::kNumOwners; ++o) {
            std::printf("instr[%s] %llu\n",
                        sim::ownerName(static_cast<sim::CodeOwner>(o))
                            .c_str(),
                        static_cast<unsigned long long>(
                            stats.instr_by_owner[o]));
        }
        std::printf("checksum      0x%04X%s\n", rm.checksum,
                    wl ? (rm.checksum == wl->expected
                              ? " (golden ok)"
                              : " (GOLDEN MISMATCH)")
                       : "");
    }
    if (!rm.fits)
        return 1;
    if (!rm.done) {
        switch (rm.stop) {
          case sim::RunResult::Stop::Livelock:
            std::fprintf(stderr,
                         "livelocked: no persistent progress across "
                         "consecutive boots\n");
            break;
          case sim::RunResult::Stop::Exhausted:
            std::fprintf(stderr,
                         "exhausted: the harvest can never recharge "
                         "the capacitor\n");
            break;
          default:
            std::fprintf(stderr,
                         "did not finish within the cycle budget\n");
            break;
        }
        return 1;
    }
    return wl && rm.checksum != wl->expected ? 1 : 0;
}

/**
 * Sweep power-failure schedules and report recovery behaviour.
 *
 * Two fault sources: a synthetic period sweep (the v1 behaviour), or —
 * with --harvest-trace — deterministic brown-outs from a capacitor
 * charged by energy-harvesting profiles. The matrix is
 * workload x checkpoint-scheme x fault-source; every (workload, scheme)
 * pair gets its own uninterrupted reference run (the checkpoint
 * machinery changes the binary, and data snapshots only compare within
 * one binary). Each faulted run is classified:
 *
 *   converged  — completed; persistent state and console match
 *   degraded   — completed; persistent state matches but the console
 *                differs (a checkpoint resume legitimately replays
 *                console writes made since the last commit)
 *   diverged   — completed with wrong persistent state
 *   livelocked — the watchdog saw no boot-to-boot progress
 *   exhausted  — the harvest can never recharge the capacitor
 *   timeout    — ran out of the cycle budget
 *   crashed    — the simulator faulted (e.g. --no-recovery stale
 *                metadata)
 *
 * Only converged and degraded count as success for the exit code.
 * With @p docs the JSON document is appended there instead of printed.
 */
int
faultCampaign(const Args &args_in, support::json::Array *docs)
{
    Args args = args_in;

    // Workload set: a file is one scratch workload; --workload accepts
    // a comma list or "all".
    workloads::Workload scratch;
    std::vector<const workloads::Workload *> wls;
    const bool from_file = !args.file.empty();
    if (from_file) {
        scratch = scratchWorkload(args);
        wls.push_back(&scratch);
    } else {
        wls = resolveWorkloads(args.workload);
    }

    // Checkpoint schemes (comma list; default none = v1 behaviour).
    std::vector<ckpt::Scheme> schemes;
    for (const std::string &name : support::split(
             args.ckpt_schemes.empty() ? "none" : args.ckpt_schemes,
             ','))
        schemes.push_back(ckpt::parseScheme(name));
    bool any_ckpt = false;
    for (ckpt::Scheme s : schemes)
        any_ckpt |= s != ckpt::Scheme::None;
    if (any_ckpt)
        fixPlacementForCkpt(args, "faults");

    std::vector<std::string> trace_names;
    auto traces = loadTraces(args, &trace_names);
    const bool harvest = !traces.empty();
    const sim::CapacitorModel cap = capacitorFrom(args);

    auto baseSpec = [&](const workloads::Workload *w,
                        ckpt::Scheme scheme) {
        harness::RunSpec spec = specFromArgs(args, w);
        spec.include_lib = !from_file; // files carry their own lib
        applyCkptScheme(spec, scheme, args);
        return spec;
    };

    harness::Engine engine(args.jobs);

    // Phase 1: one uninterrupted reference per (workload, scheme).
    std::vector<harness::RunSpec> clean_specs;
    for (const workloads::Workload *w : wls)
        for (ckpt::Scheme s : schemes)
            clean_specs.push_back(baseSpec(w, s));
    std::vector<harness::RunOutcome> cleans = engine.runAll(
        clean_specs, makeProgress(args.progress, "faults(reference)"));
    auto cleanOf = [&](std::size_t wi,
                       std::size_t si) -> const harness::RunOutcome & {
        return cleans[wi * schemes.size() + si];
    };
    for (std::size_t wi = 0; wi < wls.size(); ++wi) {
        for (std::size_t si = 0; si < schemes.size(); ++si) {
            const harness::RunOutcome &c = cleanOf(wi, si);
            if (c.error) {
                std::fprintf(stderr, "faults: %s/%s reference run "
                             "failed: %s\n",
                             wls[wi]->name.c_str(),
                             ckpt::schemeName(schemes[si]).c_str(),
                             c.error_text.c_str());
                return 1;
            }
            if (!c.metrics.fits) {
                std::printf("DNF: %s\n", c.metrics.fit_note.c_str());
                return 1;
            }
            if (!c.metrics.done) {
                std::fprintf(stderr, "faults: %s/%s uninterrupted run "
                             "did not finish\n",
                             wls[wi]->name.c_str(),
                             ckpt::schemeName(schemes[si]).c_str());
                return 1;
            }
        }
    }

    // Phase 2: the fault matrix.
    struct Cell {
        std::size_t wi = 0, si = 0;
        std::uint64_t period = 0;           ///< period mode
        std::size_t trace = SIZE_MAX;       ///< harvest mode
        harness::Metrics m;
        bool crashed = false;
        std::string verdict;
        bool ok = false; ///< converged or degraded

        std::string
        faultName(const std::vector<std::string> &names) const
        {
            return trace != SIZE_MAX ? names[trace]
                                     : harness::withCommas(period);
        }
    };
    std::vector<Cell> cells;
    std::vector<harness::RunSpec> specs;
    for (std::size_t wi = 0; wi < wls.size(); ++wi) {
        for (std::size_t si = 0; si < schemes.size(); ++si) {
            harness::RunSpec base = baseSpec(wls[wi], schemes[si]);
            // Harvest plans fail forever, so a livelocked run would
            // otherwise burn the whole cycle budget before reporting;
            // arm the watchdog by default there.
            base.intermittent.livelock_boots =
                args.livelock_boots ? args.livelock_boots
                                    : (harvest ? 8 : 0);
            if (harvest) {
                for (std::size_t ti = 0; ti < traces.size(); ++ti) {
                    Cell cell;
                    cell.wi = wi;
                    cell.si = si;
                    cell.trace = ti;
                    cells.push_back(cell);
                    harness::RunSpec spec = base;
                    spec.intermittent.plan =
                        sim::FaultPlan::harvest(traces[ti], cap);
                    specs.push_back(std::move(spec));
                }
                continue;
            }
            const std::uint64_t c =
                cleanOf(wi, si).metrics.stats.totalCycles();
            std::vector<std::uint64_t> periods = args.fault_periods;
            if (periods.empty()) {
                for (std::uint64_t div : {2, 4, 8, 16}) {
                    if (c / div >= 100)
                        periods.push_back(c / div);
                }
                if (periods.empty())
                    periods.push_back(
                        std::max<std::uint64_t>(c / 2, 1));
            }
            for (std::uint64_t period : periods) {
                Cell cell;
                cell.wi = wi;
                cell.si = si;
                cell.period = period;
                cells.push_back(cell);
                harness::RunSpec spec = base;
                spec.intermittent.plan = periodPlan(args, period);
                specs.push_back(std::move(spec));
            }
        }
    }

    // Progress with the per-run intermittent counters rolled up
    // (callbacks are engine-serialized, so plain counters are safe).
    harness::ProgressFn progress;
    std::uint64_t prog_reboots = 0, prog_restores = 0;
    std::size_t prog_livelocked = 0;
    if (args.progress) {
        progress = [&](const harness::Progress &p) {
            if (p.outcome && p.outcome->error) {
                std::fprintf(stderr, "\nfaults: run %zu failed: %s\n",
                             p.index, p.outcome->error_text.c_str());
            } else if (p.outcome) {
                const harness::Metrics &m = p.outcome->metrics;
                prog_reboots += m.stats.reboots;
                prog_restores += m.rt_ckpt_restores;
                if (m.stop == sim::RunResult::Stop::Livelock)
                    ++prog_livelocked;
            }
            std::fprintf(
                stderr,
                "\rfaults: %zu/%zu done, %zu error%s, reboots=%llu "
                "recoveries=%llu livelocked=%zu, %.1f runs/s%s",
                p.done, p.total, p.errors, p.errors == 1 ? "" : "s",
                static_cast<unsigned long long>(prog_reboots),
                static_cast<unsigned long long>(prog_restores),
                prog_livelocked, p.runs_per_sec,
                p.done == p.total ? "\n" : "");
            std::fflush(stderr);
        };
    }
    std::vector<harness::RunOutcome> outcomes =
        engine.runAll(specs, progress);

    for (std::size_t i = 0; i < cells.size(); ++i) {
        Cell &cell = cells[i];
        const harness::Metrics &clean =
            cleanOf(cell.wi, cell.si).metrics;
        if (outcomes[i].error) {
            cell.crashed = true;
            cell.m.fit_note = outcomes[i].error_text;
            cell.verdict = "crashed";
            continue;
        }
        cell.m = std::move(outcomes[i].metrics);
        const bool ckpt_on =
            schemes[cell.si] != ckpt::Scheme::None;
        if (cell.m.done) {
            bool state = cell.m.checksum == clean.checksum &&
                         cell.m.data_snapshot == clean.data_snapshot;
            if (!state) {
                cell.verdict = "diverged";
            } else if (cell.m.console == clean.console) {
                cell.verdict = "converged";
                cell.ok = true;
            } else if (ckpt_on) {
                cell.verdict = "degraded";
                cell.ok = true;
            } else {
                // Without checkpointing every boot restarts main, so a
                // console mismatch is real divergence.
                cell.verdict = "diverged";
            }
        } else {
            switch (cell.m.stop) {
              case sim::RunResult::Stop::Livelock:
                cell.verdict = "livelocked";
                break;
              case sim::RunResult::Stop::Exhausted:
                cell.verdict = "exhausted";
                break;
              default: cell.verdict = "timeout"; break;
            }
        }
    }

    // Forward progress per harvested joule: useful work is the
    // reference run's instruction count (re-executed spans between a
    // crash and its last checkpoint do not count), credited only to
    // runs that completed with correct state.
    auto progressPerJoule = [&](const Cell &cell) -> double {
        double joules = cell.m.harvested_pj * 1e-12;
        if (joules <= 0 || !cell.ok)
            return 0;
        return static_cast<double>(
                   cleanOf(cell.wi, cell.si)
                       .metrics.stats.instructions) /
               joules;
    };

    if (args.json) {
        support::json::Array refs;
        for (std::size_t wi = 0; wi < wls.size(); ++wi) {
            for (std::size_t si = 0; si < schemes.size(); ++si) {
                const harness::Metrics &m = cleanOf(wi, si).metrics;
                refs.push_back(support::json::Object{
                    {"workload", wls[wi]->name},
                    {"ckpt_scheme", ckpt::schemeName(schemes[si])},
                    {"cycles", m.stats.totalCycles()},
                    {"instructions", m.stats.instructions},
                    {"checksum", m.checksum},
                    {"ckpt_commits", m.rt_ckpt_commits},
                });
            }
        }
        support::json::Array runs;
        for (std::size_t i = 0; i < cells.size(); ++i) {
            const Cell &cell = cells[i];
            support::json::Object o{
                {"workload", wls[cell.wi]->name},
                {"ckpt_scheme", ckpt::schemeName(schemes[cell.si])},
                {"crashed", cell.crashed},
                {"converged", cell.ok},
                {"verdict", cell.verdict},
            };
            if (cell.trace != SIZE_MAX)
                o.emplace("trace", trace_names[cell.trace]);
            else
                o.emplace("period", cell.period);
            if (!harvest) {
                o.emplace("fault_count", args.fault_count);
                if (args.fault_seed)
                    o.emplace("fault_seed", args.fault_seed);
            }
            if (cell.crashed) {
                o.emplace("error", cell.m.fit_note);
            } else {
                if (harvest) {
                    o.emplace("harvested_pj", cell.m.harvested_pj);
                    o.emplace("wall_seconds", cell.m.wall_seconds);
                    double joules = cell.m.harvested_pj * 1e-12;
                    o.emplace("instr_per_joule",
                              joules > 0
                                  ? static_cast<double>(
                                        cell.m.stats.instructions) /
                                        joules
                                  : 0.0);
                    o.emplace("progress_per_joule",
                              progressPerJoule(cell));
                }
                auto report = harness::RunReport::make(
                    specs[i], cell.m);
                o.emplace("report", report.json());
            }
            runs.push_back(std::move(o));
        }
        support::json::Object root{
            {"schema", "swapram-fault-sweep/v2"},
            {"mode", harvest ? "harvest" : "periods"},
            {"system", harness::systemName(args.system)},
            {"placement", harness::placementName(args.placement)},
            {"recovery", !args.no_recovery},
            {"references", std::move(refs)},
            {"sweeps", std::move(runs)},
        };
        if (harvest) {
            support::json::Array tn;
            for (const std::string &n : trace_names)
                tn.push_back(n);
            root.emplace("traces", std::move(tn));
            root.emplace(
                "capacitor",
                support::json::Object{
                    {"capacity_pj", cap.capacity_pj},
                    {"power_on_pj", cap.power_on_pj},
                    {"brown_out_pj", cap.brown_out_pj},
                    {"leak_watts", cap.leak_watts}});
        }
        if (docs)
            docs->push_back(std::move(root));
        else
            std::printf("%s\n", support::json::Value(std::move(root))
                                    .dump(2)
                                    .c_str());
    } else {
        std::printf(
            "system=%s placement=%s recovery=%s mode=%s%s\n",
            harness::systemName(args.system).c_str(),
            harness::placementName(args.placement).c_str(),
            args.no_recovery ? "off" : "on",
            harvest ? "harvest" : "periods",
            harvest ? ""
                    : support::cat(" faults/run=", args.fault_count)
                          .c_str());
        std::vector<std::string> headers{
            "workload", "scheme", harvest ? "trace" : "period",
            "reboots", "commits", "restores", "total_cyc"};
        if (harvest)
            headers.push_back("prog/J");
        headers.push_back("result");
        harness::Table table(headers);
        for (const Cell &cell : cells) {
            std::vector<std::string> row{
                wls[cell.wi]->name,
                ckpt::schemeName(schemes[cell.si]),
                cell.faultName(trace_names)};
            if (cell.crashed) {
                row.insert(row.end(), {"-", "-", "-", "-"});
                if (harvest)
                    row.push_back("-");
            } else {
                row.push_back(
                    harness::withCommas(cell.m.stats.reboots));
                row.push_back(
                    harness::withCommas(cell.m.rt_ckpt_commits));
                row.push_back(
                    harness::withCommas(cell.m.rt_ckpt_restores));
                row.push_back(
                    harness::withCommas(cell.m.stats.totalCycles()));
                if (harvest) {
                    row.push_back(support::cat(
                        support::fixed(progressPerJoule(cell) / 1e6,
                                       2),
                        "M"));
                }
            }
            row.push_back(cell.crashed ? "CRASH" : cell.verdict);
            table.addRow(row);
        }
        std::printf("%s", table.text().c_str());
    }

    bool any_bad = false;
    std::size_t livelocked = 0;
    for (const Cell &cell : cells) {
        if (cell.crashed) {
            // The table says CRASH; the captured error says why.
            std::fprintf(stderr, "faults: %s/%s/%s crashed: %s\n",
                         wls[cell.wi]->name.c_str(),
                         ckpt::schemeName(schemes[cell.si]).c_str(),
                         cell.faultName(trace_names).c_str(),
                         cell.m.fit_note.c_str());
        }
        if (cell.verdict == "livelocked")
            ++livelocked;
        if (!cell.ok)
            any_bad = true;
    }
    if (livelocked) {
        std::fprintf(stderr,
                     "faults: %zu run%s livelocked (no forward "
                     "progress across boots)\n",
                     livelocked, livelocked == 1 ? "" : "s");
    }
    return any_bad ? 1 : 0;
}

/**
 * `faults`: with --system, one campaign for that system (baseline
 * included). Without it, the campaign runs for SwapRAM and then the
 * block cache — the systems that have boot-recovery and checkpoint
 * code to exercise. Text output is the two reports one after the
 * other; --json prints a JSON array of the two documents.
 */
int
cmdFaults(const Args &args)
{
    if (args.system_set)
        return faultCampaign(args, nullptr);
    support::json::Array docs;
    int rc = 0;
    for (harness::System system :
         {harness::System::SwapRam, harness::System::BlockCache}) {
        Args one = args;
        one.system = system;
        rc |= faultCampaign(one, args.json ? &docs : nullptr);
    }
    if (args.json)
        std::printf("%s\n",
                    support::json::Value(std::move(docs)).dump(2).c_str());
    return rc;
}

/**
 * Run once with metrics attached and render the address-space heatmap:
 * a 64-column ASCII heat strip over the 64 KiB address space (1 KiB
 * per column, log-scaled " .:-=+*#%@" ramp), per-region access/stall
 * totals, the hottest pages, and the FRAM stall-latency percentiles.
 * --csv dumps every 64-byte page for external plotting.
 */
int
cmdHeatmap(const Args &args)
{
    const workloads::Workload scratch = scratchWorkload(args);
    harness::RunSpec spec = specFromArgs(args, &scratch);
    spec.include_lib = false;
    spec.observe.metrics = true;

    harness::Metrics m = harness::runOne(spec);
    if (!m.fits) {
        std::printf("DNF: %s\n", m.fit_note.c_str());
        return 1;
    }
    const metrics::RunMetrics &rm = *m.run_metrics;
    using Heatmap = metrics::AddressHeatmap;
    const Heatmap &hm = rm.heatmap;

    if (args.json) {
        auto report = harness::RunReport::make(spec, std::move(m));
        std::printf("%s\n", report.json().dump(2).c_str());
        return 0;
    }

    std::printf("heatmap: workload=%s system=%s placement=%s\n",
                scratch.name.c_str(),
                harness::systemName(args.system).c_str(),
                harness::placementName(args.placement).c_str());

    // Heat strip: 64 columns x 1 KiB (16 pages each), log-scaled onto
    // the ramp so one scorching page doesn't flatten everything else.
    constexpr unsigned kCols = 64;
    constexpr unsigned kPagesPerCol = Heatmap::kPages / kCols;
    static const char kRamp[] = " .:-=+*#%@";
    constexpr int kLevels = sizeof(kRamp) - 2; ///< highest ramp index
    std::uint64_t col_heat[kCols] = {};
    std::uint64_t max_heat = 0;
    for (unsigned i = 0; i < Heatmap::kPages; ++i) {
        col_heat[i / kPagesPerCol] += hm.page(i).heat();
        max_heat = std::max(max_heat, col_heat[i / kPagesPerCol]);
    }
    std::string strip;
    for (unsigned c = 0; c < kCols; ++c) {
        int level = 0;
        if (col_heat[c] && max_heat > 1) {
            level = 1 + static_cast<int>(
                            (kLevels - 1) *
                            std::log(static_cast<double>(col_heat[c])) /
                            std::log(static_cast<double>(max_heat)));
            level = std::min(level, kLevels);
        } else if (col_heat[c]) {
            level = kLevels;
        }
        strip += kRamp[level];
    }
    std::printf("0x0000 |%s| 0xffff   (1 KiB/col, heat = "
                "accesses+stall_cycles)\n\n",
                strip.c_str());

    // Per-region totals (page base classifies the page).
    std::map<std::string, Heatmap::Page> regions;
    for (unsigned i = 0; i < Heatmap::kPages; ++i) {
        if (!hm.page(i).empty())
            regions[harness::regionName(Heatmap::baseOf(i))].merge(hm.page(i));
    }
    harness::Table region_table(
        {"region", "fetch", "read", "write", "stall_cyc"});
    for (const auto &[name, p] : regions) {
        region_table.addRow({name, harness::withCommas(p.fetch),
                             harness::withCommas(p.read),
                             harness::withCommas(p.write),
                             harness::withCommas(p.stall_cycles)});
    }
    std::printf("%s\n", region_table.text().c_str());

    harness::Table top_table({"page", "region", "fetch", "read",
                              "write", "stall_cyc"});
    for (unsigned i : hm.topPages(16)) {
        const Heatmap::Page &p = hm.page(i);
        top_table.addRow(
            {support::hex16(Heatmap::baseOf(i)),
             harness::regionName(Heatmap::baseOf(i)),
             harness::withCommas(p.fetch), harness::withCommas(p.read),
             harness::withCommas(p.write),
             harness::withCommas(p.stall_cycles)});
    }
    std::printf("%s", top_table.text().c_str());

    const metrics::Histogram &stalls = rm.fram_stall_cycles;
    std::printf("\nfram stalls: count=%s sum=%s p50=%llu p95=%llu "
                "p99=%llu max=%llu\n",
                harness::withCommas(stalls.count()).c_str(),
                harness::withCommas(stalls.sum()).c_str(),
                static_cast<unsigned long long>(stalls.p50()),
                static_cast<unsigned long long>(stalls.p95()),
                static_cast<unsigned long long>(stalls.p99()),
                static_cast<unsigned long long>(stalls.max()));
    const metrics::Histogram &handler = rm.miss_handler_cycles;
    if (handler.count()) {
        std::printf("miss handler: count=%s p50=%llu p95=%llu "
                    "max=%llu\n",
                    harness::withCommas(handler.count()).c_str(),
                    static_cast<unsigned long long>(handler.p50()),
                    static_cast<unsigned long long>(handler.p95()),
                    static_cast<unsigned long long>(handler.max()));
    }

    if (!args.heat_csv.empty()) {
        std::ofstream csv(args.heat_csv);
        if (!csv)
            support::fatal("cannot write '", args.heat_csv, "'");
        csv << "page,base,region,fetch,read,write,stall_cycles\n";
        for (unsigned i = 0; i < Heatmap::kPages; ++i) {
            const Heatmap::Page &p = hm.page(i);
            csv << i << ',' << Heatmap::baseOf(i) << ','
                << harness::regionName(Heatmap::baseOf(i)) << ',' << p.fetch
                << ',' << p.read << ',' << p.write << ','
                << p.stall_cycles << '\n';
        }
        std::fprintf(stderr, "heatmap CSV written to %s (%u pages)\n",
                     args.heat_csv.c_str(), Heatmap::kPages);
    }
    return m.done ? 0 : 1;
}

int
cmdDisasm(const Args &args)
{
    const workloads::Workload *wl = nullptr;
    std::string source = loadSource(args, &wl);
    auto plan = harness::makePlacement(args.placement);
    auto program = buildProgram(plan, source);
    auto assembled = masm::assemble(program, plan.layout);
    if (args.func.empty()) {
        auto all = masm::reimportAllFunctions(assembled);
        std::printf("%s", all.text().c_str());
        return 0;
    }
    std::unordered_map<std::uint16_t, std::string> names;
    for (const auto &f : assembled.functions)
        names[f.addr] = f.name;
    auto one = masm::reimportFunction(
        assembled.image, assembled.function(args.func), names);
    std::printf("%s", one.text().c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        Args args = parseArgs(argc, argv);
        if (args.command == "assemble")
            return cmdAssemble(args);
        if (args.command == "transform")
            return cmdTransform(args);
        if (args.command == "run" || args.command == "profile" ||
            args.command == "trace")
            return cmdRun(args);
        if (args.command == "heatmap")
            return cmdHeatmap(args);
        if (args.command == "faults")
            return cmdFaults(args);
        if (args.command == "sweep")
            return cmdSweep(args);
        if (args.command == "disasm")
            return cmdDisasm(args);
        usage();
    } catch (const std::exception &e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 1;
    }
}
