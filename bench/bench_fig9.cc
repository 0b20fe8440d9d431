/**
 * @file
 * Reproduces Figure 9 (and §5.4): end-to-end execution speed and
 * energy at 24 MHz for SwapRAM and block-based caching, normalized to
 * unified-memory baseline execution; plus the 8 MHz summary.
 *
 * Paper reference: SwapRAM +26% average speed (13-46% excluding AES)
 * and -24% energy at 24 MHz; +13% speed and -20% energy at 8 MHz.
 * Block caching degrades speed by 13% on average (marginal wins on RC4
 * and bitcount only) and costs +12% energy.
 */

#include "bench_common.hh"
#include "support/strings.hh"

using namespace swapram;

int
main()
{
    for (std::uint32_t clock : {24'000'000u, 8'000'000u}) {
        std::printf("--- Figure 9 at %u MHz: normalized to unified "
                    "baseline ---\n", clock / 1'000'000);
        harness::Table table({"Benchmark", "SR speedup", "SR energy",
                              "BB speedup", "BB energy"});
        std::vector<double> sr_speed, sr_energy, bb_speed, bb_energy;
        for (const auto &w : workloads::all()) {
            auto base =
                harness::run(w, harness::System::Baseline,
                             harness::Placement::Unified, clock);
            auto swap = harness::run(w, harness::System::SwapRam,
                                     harness::Placement::Unified, clock);
            auto block =
                harness::run(w, harness::System::BlockCache,
                             harness::Placement::Unified, clock);
            bench::requireCorrect(base, w, "fig9 baseline");
            bench::requireCorrect(swap, w, "fig9 swapram");
            bench::requireCorrect(block, w, "fig9 block");

            double base_cyc =
                static_cast<double>(base.stats.totalCycles());
            double sr_sp =
                base_cyc / static_cast<double>(swap.stats.totalCycles());
            double sr_en = swap.energy_pj / base.energy_pj;
            sr_speed.push_back(sr_sp);
            sr_energy.push_back(sr_en);
            std::string bb_sp = "DNF", bb_en = "DNF";
            if (block.fits) {
                double sp = base_cyc /
                            static_cast<double>(
                                block.stats.totalCycles());
                double en = block.energy_pj / base.energy_pj;
                bb_speed.push_back(sp);
                bb_energy.push_back(en);
                bb_sp = bench::times(sp);
                bb_en = harness::percentDelta(en, 1.0);
            }
            table.addRow({w.display, bench::times(sr_sp),
                          harness::percentDelta(sr_en, 1.0), bb_sp,
                          bb_en});
        }
        table.addRow({"Geo. mean",
                      bench::times(harness::geoMean(sr_speed)),
                      harness::geoMeanDelta(sr_energy),
                      bench::times(harness::geoMean(bb_speed)),
                      harness::geoMeanDelta(bb_energy)});
        std::printf("%s\n", table.text().c_str());
    }
    std::printf("Paper: 24 MHz SwapRAM +26%% speed / -24%% energy "
                "(AES the outlier);\n8 MHz +13%% speed / -20%% energy. "
                "Block cache: -13%% speed / +12%% energy at 24 MHz,\n"
                "-21%% speed / +19%% energy at 8 MHz.\n");
    return 0;
}
