/**
 * @file
 * Reproduces Figure 8: dynamic instruction breakdown per benchmark —
 * application code fetched from FRAM vs SRAM, the cache runtime's miss
 * handler, and the copy loop — normalized to baseline (unified-memory)
 * execution, for SwapRAM and the block-based cache.
 *
 * Paper shape: SwapRAM executes most application instructions from
 * SRAM with <3% runtime contribution and 0-10%% total growth; block
 * caching avoids FRAM app execution entirely but grows the dynamic
 * instruction count by ~36% through runtime entries.
 */

#include "bench_common.hh"
#include "support/strings.hh"

using namespace swapram;

namespace {

std::string
pctOf(std::uint64_t part, double whole)
{
    return support::fixed(100.0 * static_cast<double>(part) / whole, 1);
}

} // namespace

int
main()
{
    std::printf("Figure 8: dynamic instruction breakdown, %% of the "
                "baseline instruction count\n\n");
    for (auto system :
         {harness::System::SwapRam, harness::System::BlockCache}) {
        std::printf("--- %s ---\n",
                    harness::systemName(system).c_str());
        harness::Table table({"Benchmark", "app-FRAM %", "app-SRAM %",
                              "handler %", "memcpy %", "total %"});
        for (const auto &w : workloads::all()) {
            auto base = harness::run(w, harness::System::Baseline);
            auto m = harness::run(w, system);
            bench::requireCorrect(base, w, "fig8 baseline");
            bench::requireCorrect(m, w, "fig8");
            if (!m.fits) {
                table.addRow({w.display, "DNF", "", "", "", ""});
                continue;
            }
            double denom =
                static_cast<double>(base.stats.instructions);
            const auto &owners = m.stats.instr_by_owner;
            table.addRow(
                {w.display,
                 pctOf(owners[int(sim::CodeOwner::AppFram)], denom),
                 pctOf(owners[int(sim::CodeOwner::AppSram)], denom),
                 pctOf(owners[int(sim::CodeOwner::Handler)], denom),
                 pctOf(owners[int(sim::CodeOwner::Memcpy)], denom),
                 pctOf(m.stats.instructions, denom)});
        }
        std::printf("%s\n", table.text().c_str());
    }
    std::printf("Paper shape: SwapRAM: mostly app-SRAM, runtime <3%%, "
                "total 100-110%%;\nblock cache: app-FRAM ~0 but total "
                "~136%% from runtime entries.\n");
    return 0;
}
