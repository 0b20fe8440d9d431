/**
 * @file
 * Ablations of the design choices DESIGN.md calls out:
 *
 *  1. Replacement structure (§3.4): circular queue (least-recently
 *     cached) vs stack (most-recently cached) at several cache sizes —
 *     the paper argues the stack's MRU eviction is counterproductive.
 *  2. Cache-size sweep: speedup vs available SRAM.
 *  3. Blacklist (§3.1): excluding the hottest function from caching.
 */

#include "bench_common.hh"
#include "support/strings.hh"

using namespace swapram;

int
main()
{
    // --- 1. Replacement policy under pressure ---
    std::printf("Ablation 1: circular queue vs stack replacement "
                "(24 MHz, unified)\n\n");
    harness::Table policy({"Benchmark", "Cache (B)", "queue cyc",
                           "stack cyc", "queue vs stack"});
    for (const char *name : {"aes", "fft", "dijkstra"}) {
        const auto *w = workloads::find(name);
        for (std::uint16_t size : {384, 512, 768, 1024}) {
            harness::RunSpec spec;
            spec.workload = w;
            spec.system = harness::System::SwapRam;
            spec.swap.cache_base = 0x2000;
            spec.swap.cache_end =
                static_cast<std::uint16_t>(0x2000 + size);
            spec.swap.policy = cache::Policy::CircularQueue;
            auto queue = harness::runOne(spec);
            spec.swap.policy = cache::Policy::Stack;
            auto stack = harness::runOne(spec);
            bench::requireCorrect(queue, *w, "ablation queue");
            bench::requireCorrect(stack, *w, "ablation stack");
            policy.addRow(
                {w->display, std::to_string(size),
                 harness::withCommas(queue.stats.totalCycles()),
                 harness::withCommas(stack.stats.totalCycles()),
                 bench::times(
                     static_cast<double>(stack.stats.totalCycles()) /
                     static_cast<double>(queue.stats.totalCycles()))});
        }
    }
    std::printf("%s\n", policy.text().c_str());

    // --- 2. Cache-size sweep ---
    std::printf("Ablation 2: SwapRAM speedup vs cache size (FFT, "
                "24 MHz)\n\n");
    const auto *fft = workloads::find("fft");
    auto base = harness::run(*fft, harness::System::Baseline);
    harness::Table sweep({"Cache (B)", "total cycles", "speedup",
                          "FRAM accesses"});
    for (std::uint16_t size :
         {256, 384, 512, 768, 1024, 2048, 3072, 4096}) {
        harness::RunSpec spec;
        spec.workload = fft;
        spec.system = harness::System::SwapRam;
        spec.swap.cache_base = 0x2000;
        spec.swap.cache_end = static_cast<std::uint16_t>(0x2000 + size);
        auto m = harness::runOne(spec);
        bench::requireCorrect(m, *fft, "ablation sweep");
        sweep.addRow(
            {std::to_string(size),
             harness::withCommas(m.stats.totalCycles()),
             bench::times(static_cast<double>(base.stats.totalCycles()) /
                          static_cast<double>(m.stats.totalCycles())),
             harness::withCommas(m.stats.framAccesses())});
    }
    std::printf("%s\n", sweep.text().c_str());

    // --- 3. Blacklist ---
    std::printf("Ablation 3: blacklisting the hot multiply helper "
                "(RSA, 24 MHz)\n\n");
    const auto *rsa = workloads::find("rsa");
    harness::Table bl({"Config", "total cycles", "FRAM accesses"});
    {
        auto m = harness::run(*rsa, harness::System::SwapRam);
        bl.addRow({"all functions cacheable",
                   harness::withCommas(m.stats.totalCycles()),
                   harness::withCommas(m.stats.framAccesses())});
        harness::RunSpec spec;
        spec.workload = rsa;
        spec.system = harness::System::SwapRam;
        spec.swap.blacklist = {"rsa_modmul"};
        auto m2 = harness::runOne(spec);
        bench::requireCorrect(m2, *rsa, "ablation blacklist");
        bl.addRow({"rsa_modmul blacklisted",
                   harness::withCommas(m2.stats.totalCycles()),
                   harness::withCommas(m2.stats.framAccesses())});
    }
    std::printf("%s\n", bl.text().c_str());
    std::printf("Expected: blacklisting the hottest function forfeits "
                "most of the win,\nshowing the runtime redirection is "
                "what moves execution into SRAM.\n\n");

    // --- 4. Thrash mitigation (the paper's §5.4 future-work idea) ---
    std::printf("Ablation 4: freeze-on-thrash extension (AES in a "
                "512 B cache, 24 MHz)\n\n");
    harness::Table fz({"Config", "total cycles", "handler instr",
                       "checksum ok"});
    const auto *aes = workloads::find("aes");
    for (int threshold : {0, 4}) {
        harness::RunSpec spec;
        spec.workload = aes;
        spec.system = harness::System::SwapRam;
        spec.swap.cache_base = 0x2000;
        spec.swap.cache_end = 0x2200;
        spec.swap.freeze_threshold = threshold;
        spec.swap.freeze_window = 48;
        auto m = harness::runOne(spec);
        bench::requireCorrect(m, *aes, "ablation freeze");
        fz.addRow({threshold ? "freeze after 4 aborts" : "paper baseline",
                   harness::withCommas(m.stats.totalCycles()),
                   harness::withCommas(m.stats.instr_by_owner[int(
                       sim::CodeOwner::Handler)]),
                   m.checksum == aes->expected ? "yes" : "NO"});
    }
    std::printf("%s\n", fz.text().c_str());
    std::printf("Freezing pauses eviction after repeated active-caller "
                "aborts (S3.3.3's\npathological case), trading SRAM "
                "residency for far fewer handler scans.\n");
    return 0;
}
