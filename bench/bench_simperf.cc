/**
 * @file
 * google-benchmark microbenchmarks of the infrastructure itself:
 * simulator throughput (simulated instructions per wall second) across
 * the host-side execution tiers (oracle / predecode / threaded),
 * assembler speed, and the SwapRAM/block-cache build passes.
 *
 * Benchmark hygiene: Machine construction and image loading happen
 * outside the timed region (PauseTiming/ResumeTiming) — only run() is
 * measured. The fast tier's block table allocation and the assembler
 * would otherwise dominate short iterations.
 *
 * Invoked as `bench_simperf --json[=PATH]` it skips google-benchmark
 * and emits a machine-readable `swapram-bench/v2` document comparing
 * the tiers (checked by bench/check_bench_json.py, which also still
 * accepts the v1 documents with a block-stepped `superblock` tier,
 * such as BENCH_PR9.json).
 */

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>

#include "harness/placement.hh"
#include "harness/runner.hh"
#include "metrics/run_metrics.hh"
#include "blockcache/builder.hh"
#include "masm/assembler.hh"
#include "masm/parser.hh"
#include "sim/machine.hh"
#include "support/json.hh"
#include "swapram/builder.hh"
#include "trace/profile.hh"
#include "trace/trace.hh"
#include "workloads/workload.hh"

using namespace swapram;

namespace {

std::string
crcSource()
{
    static const std::string source =
        harness::startupSource(0xFF80) + workloads::makeCrc().source +
        workloads::libSource();
    return source;
}

const masm::AssembleResult &
crcAssembled()
{
    static const masm::AssembleResult assembled =
        masm::assemble(masm::parse(crcSource()), masm::LayoutSpec{});
    return assembled;
}

/** The three host-side execution tiers under measurement: the
 *  always-decode oracle, predecode, and the threaded fast tier. */
sim::MachineConfig
tierConfig(bool predecode, bool fast_tier)
{
    sim::MachineConfig config;
    config.predecode_enabled = predecode;
    config.superblock_enabled = fast_tier;
    return config;
}

/** Timed run() only; Machine setup is excluded from the measurement. */
void
runThroughput(benchmark::State &state, const sim::MachineConfig &config)
{
    const masm::AssembleResult &assembled = crcAssembled();
    std::uint64_t instructions = 0;
    for (auto _ : state) {
        state.PauseTiming();
        sim::Machine machine(config);
        machine.load(assembled.image, 0xFF80);
        state.ResumeTiming();
        auto result = machine.run();
        benchmark::DoNotOptimize(result.done);
        instructions += machine.stats().instructions;
    }
    state.counters["sim_instr_per_s"] = benchmark::Counter(
        static_cast<double>(instructions), benchmark::Counter::kIsRate);
}

/** Full fast-path stack: predecode + threaded-code dispatch over hot
 *  superblocks (the oracle where computed goto is unavailable). */
void
BM_SimulatorThroughput(benchmark::State &state)
{
    runThroughput(state, tierConfig(true, true));
}

/** Predecode only — the single-step path with decoding cached. */
void
BM_SimulatorThroughputNoSuperblock(benchmark::State &state)
{
    runThroughput(state, tierConfig(true, false));
}

/** The always-decode single-step oracle (both fast paths off). */
void
BM_SimulatorThroughputNoPredecode(benchmark::State &state)
{
    runThroughput(state, tierConfig(false, false));
}

/** Same run with the full observability stack attached, to size the
 *  cost of tracing relative to BM_SimulatorThroughput (the disabled
 *  path is a null-pointer check and must stay within noise of it).
 *  Tracing forces the oracle, so compare against NoSuperblock. */
void
BM_SimulatorThroughputTraced(benchmark::State &state)
{
    const masm::AssembleResult &assembled = crcAssembled();
    std::uint64_t instructions = 0;
    for (auto _ : state) {
        state.PauseTiming();
        sim::Machine machine;
        machine.load(assembled.image, 0xFF80);
        trace::TraceEngine engine(trace::kCatAll);
        trace::FunctionProfiler profiler;
        for (const auto &f : assembled.functions)
            profiler.addFunction(f.name, f.addr, f.size);
        profiler.seal();
        machine.setTraceEngine(&engine);
        machine.setProfiler(&profiler);
        state.ResumeTiming();
        auto result = machine.run();
        benchmark::DoNotOptimize(result.done);
        benchmark::DoNotOptimize(engine.emitted());
        instructions += machine.stats().instructions;
    }
    state.counters["sim_instr_per_s"] = benchmark::Counter(
        static_cast<double>(instructions), benchmark::Counter::kIsRate);
}

/** Same run with a metrics collector attached (heatmap + stall
 *  histogram recorded per bus access). The disabled path — what
 *  BM_SimulatorThroughput measures with metrics compiled in — is one
 *  null-pointer check per access and must stay within noise of it.
 *  Attached metrics force single-step, so compare vs NoSuperblock. */
void
BM_SimulatorThroughputMetrics(benchmark::State &state)
{
    const masm::AssembleResult &assembled = crcAssembled();
    std::uint64_t instructions = 0;
    for (auto _ : state) {
        state.PauseTiming();
        sim::Machine machine;
        machine.load(assembled.image, 0xFF80);
        metrics::RunMetrics rm;
        machine.setMetrics(&rm);
        state.ResumeTiming();
        auto result = machine.run();
        benchmark::DoNotOptimize(result.done);
        benchmark::DoNotOptimize(rm.heatmap.totals().fetch);
        instructions += machine.stats().instructions;
    }
    state.counters["sim_instr_per_s"] = benchmark::Counter(
        static_cast<double>(instructions), benchmark::Counter::kIsRate);
}

void
BM_Assemble(benchmark::State &state)
{
    auto program = masm::parse(crcSource());
    for (auto _ : state) {
        auto result = masm::assemble(program, masm::LayoutSpec{});
        benchmark::DoNotOptimize(result.image.entry);
    }
}

void
BM_Parse(benchmark::State &state)
{
    std::string source = crcSource();
    for (auto _ : state) {
        auto program = masm::parse(source);
        benchmark::DoNotOptimize(program.stmts.size());
    }
}

void
BM_SwapRamBuild(benchmark::State &state)
{
    auto program = masm::parse(crcSource());
    for (auto _ : state) {
        auto info = cache::build(program, masm::LayoutSpec{}, {});
        benchmark::DoNotOptimize(info.reloc_count);
    }
}

void
BM_BlockCacheBuild(benchmark::State &state)
{
    auto program = masm::parse(crcSource());
    for (auto _ : state) {
        auto info = bb::build(program, masm::LayoutSpec{}, {});
        benchmark::DoNotOptimize(info.n_blocks);
    }
}

BENCHMARK(BM_SimulatorThroughput)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SimulatorThroughputNoSuperblock)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SimulatorThroughputNoPredecode)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SimulatorThroughputTraced)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SimulatorThroughputMetrics)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Parse)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Assemble)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SwapRamBuild)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_BlockCacheBuild)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------
// --json mode: the swapram-bench/v2 report.

/** One tier measured for the JSON report: untimed setup, timed run(),
 *  repeated; the fastest repeat is the throughput (least interference
 *  from the host). */
struct TierResult {
    std::uint64_t instructions = 0; ///< per run
    double best_seconds = 0;

    double
    instrPerSec() const
    {
        return best_seconds > 0
                   ? static_cast<double>(instructions) / best_seconds
                   : 0.0;
    }
};

TierResult
measureTier(const sim::MachineConfig &config, int repeats,
            bool with_metrics = false)
{
    TierResult r;
    for (int i = 0; i < repeats; ++i) {
        sim::Machine machine(config);
        machine.load(crcAssembled().image, 0xFF80);
        metrics::RunMetrics rm;
        if (with_metrics)
            machine.setMetrics(&rm);
        auto t0 = std::chrono::steady_clock::now();
        auto result = machine.run();
        auto t1 = std::chrono::steady_clock::now();
        benchmark::DoNotOptimize(result.done);
        if (with_metrics)
            benchmark::DoNotOptimize(rm.heatmap.totals().fetch);
        double s = std::chrono::duration<double>(t1 - t0).count();
        if (i == 0 || s < r.best_seconds)
            r.best_seconds = s;
        r.instructions = machine.stats().instructions;
    }
    return r;
}

int
emitJsonReport(const std::string &path)
{
    namespace json = support::json;
    const int repeats = 7;
    TierResult oracle = measureTier(tierConfig(false, false), repeats);
    TierResult predecode = measureTier(tierConfig(true, false), repeats);
    TierResult threaded = measureTier(tierConfig(true, true), repeats);
    // Metrics attached force single-step, so the honest reference is
    // the predecode tier; disabled-metrics cost is the threaded
    // variant itself (the pointer is compiled in and null there).
    TierResult with_metrics =
        measureTier(tierConfig(true, true), repeats, true);

    auto variant = [](const char *name, const TierResult &r) {
        return json::Value(json::Object{
            {"name", name},
            {"instructions", r.instructions},
            {"best_seconds", r.best_seconds},
            {"instr_per_s", r.instrPerSec()},
        });
    };
    auto ratio = [](const TierResult &a, const TierResult &b) {
        return b.instrPerSec() > 0 ? a.instrPerSec() / b.instrPerSec()
                                   : 0.0;
    };
    json::Value doc(json::Object{
        {"schema", "swapram-bench/v2"},
        {"benchmark", "BM_SimulatorThroughput"},
        {"workload", "crc"},
        {"repeats", repeats},
        {"variants", json::Array{
                         variant("no_predecode", oracle),
                         variant("predecode", predecode),
                         variant("threaded", threaded),
                         variant("metrics", with_metrics),
                     }},
        {"speedup",
         json::Object{
             {"predecode_vs_no_predecode", ratio(predecode, oracle)},
             {"threaded_vs_predecode", ratio(threaded, predecode)},
             {"threaded_vs_no_predecode", ratio(threaded, oracle)},
             {"metrics_vs_predecode", ratio(with_metrics, predecode)},
         }},
    });
    std::string text = doc.dump(2);
    text.push_back('\n');
    if (path.empty()) {
        std::fputs(text.c_str(), stdout);
        return 0;
    }
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "bench_simperf: cannot write %s\n",
                     path.c_str());
        return 1;
    }
    std::fputs(text.c_str(), f);
    std::fclose(f);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--json") == 0)
            return emitJsonReport("");
        if (std::strncmp(argv[i], "--json=", 7) == 0)
            return emitJsonReport(argv[i] + 7);
    }
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
