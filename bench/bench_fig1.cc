/**
 * @file
 * Reproduces Figure 1: runtime and energy of the arithmetic kernel
 * under the four code/data placements (FRAM/FRAM unified, FRAM code +
 * SRAM data standard, SRAM code + FRAM data, SRAM/SRAM), at 8 and
 * 24 MHz.
 *
 * Paper shape: unified (FRAM/FRAM) is worst even at 8 MHz because of
 * hardware-cache contention; placing code in SRAM beats placing data in
 * SRAM (instruction fetches dominate); SRAM/SRAM is the upper bound.
 */

#include "bench_common.hh"
#include "support/strings.hh"

using namespace swapram;

int
main()
{
    auto w = workloads::makeArith();
    std::printf("Figure 1: code/data placement vs runtime and energy "
                "(arithmetic kernel)\n\n");

    struct Config {
        const char *label;
        harness::Placement placement;
    };
    const Config configs[] = {
        {"code FRAM / data FRAM (unified)", harness::Placement::Unified},
        {"code FRAM / data SRAM (standard)",
         harness::Placement::Standard},
        {"code SRAM / data FRAM", harness::Placement::SramCode},
        {"code SRAM / data SRAM", harness::Placement::SramAll},
    };

    for (std::uint32_t clock : {24'000'000u, 8'000'000u}) {
        std::printf("--- %u MHz ---\n", clock / 1'000'000);
        harness::Table table({"Placement", "Cycles", "Runtime (ms)",
                              "Energy (uJ)", "vs unified"});
        double unified_cycles = 0;
        for (const Config &cfg : configs) {
            auto m = harness::run(w, harness::System::Baseline,
                                  cfg.placement, clock);
            bench::requireCorrect(m, w, "fig1");
            if (cfg.placement == harness::Placement::Unified)
                unified_cycles =
                    static_cast<double>(m.stats.totalCycles());
            table.addRow(
                {cfg.label,
                 harness::withCommas(m.stats.totalCycles()),
                 support::fixed(m.seconds * 1e3, 3),
                 support::fixed(m.energy_pj / 1e6, 1),
                 bench::times(unified_cycles /
                              static_cast<double>(
                                  m.stats.totalCycles()))});
        }
        std::printf("%s\n", table.text().c_str());
    }
    std::printf("Expected shape (paper Figure 1): unified is slowest "
                "even at 8 MHz (cache\ncontention); code-in-SRAM beats "
                "data-in-SRAM; SRAM/SRAM is the bound.\n");
    return 0;
}
