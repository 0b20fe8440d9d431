/**
 * @file
 * Reproduces Figure 10 (§5.5): split-SRAM execution. The four
 * benchmarks whose program memory fits in SRAM (CRC, AES, bitcount,
 * RSA in the paper) run with data+stack in low SRAM and the code cache
 * in the remainder, compared against the standard FRAM-code /
 * SRAM-data configuration.
 *
 * Paper reference: SwapRAM gains 22% speed and -26% energy over the
 * standard configuration at 24 MHz (8% / -21% at 8 MHz); the block
 * cache at best matches standard and loses badly on AES.
 */

#include "bench_common.hh"
#include "support/strings.hh"

using namespace swapram;

int
main()
{
    const char *names[] = {"crc", "aes", "bitcount", "rsa"};
    for (std::uint32_t clock : {24'000'000u, 8'000'000u}) {
        std::printf("--- Figure 10 at %u MHz: split SRAM vs the "
                    "standard configuration ---\n",
                    clock / 1'000'000);
        harness::Table table({"Benchmark", "standard cyc", "SR split cyc",
                              "SR speedup", "SR energy", "BB split cyc",
                              "BB speedup"});
        std::vector<double> sr_speed, sr_energy;
        for (const char *name : names) {
            const auto *w = workloads::find(name);
            auto std_cfg = harness::run(*w, harness::System::Baseline,
                                        harness::Placement::Standard,
                                        clock);
            auto swap = harness::run(*w, harness::System::SwapRam,
                                     harness::Placement::Split, clock);
            auto block = harness::run(*w, harness::System::BlockCache,
                                      harness::Placement::Split, clock);
            bench::requireCorrect(std_cfg, *w, "fig10 standard");
            bench::requireCorrect(swap, *w, "fig10 swapram");
            bench::requireCorrect(block, *w, "fig10 block");

            double std_cyc =
                static_cast<double>(std_cfg.stats.totalCycles());
            double sp = swap.fits
                ? std_cyc /
                      static_cast<double>(swap.stats.totalCycles())
                : 0;
            if (swap.fits) {
                sr_speed.push_back(sp);
                sr_energy.push_back(swap.energy_pj / std_cfg.energy_pj);
            }
            table.addRow(
                {w->display, harness::withCommas(std_cfg.stats.totalCycles()),
                 swap.fits
                     ? harness::withCommas(swap.stats.totalCycles())
                     : "DNF",
                 swap.fits ? bench::times(sp) : "-",
                 swap.fits ? harness::percentDelta(
                                 swap.energy_pj / std_cfg.energy_pj, 1.0)
                           : "-",
                 block.fits
                     ? harness::withCommas(block.stats.totalCycles())
                     : "DNF",
                 block.fits
                     ? bench::times(
                           std_cyc /
                           static_cast<double>(
                               block.stats.totalCycles()))
                     : "-"});
        }
        table.addRow({"Geo. mean", "", "",
                      bench::times(harness::geoMean(sr_speed)),
                      harness::geoMeanDelta(sr_energy), "", ""});
        std::printf("%s\n", table.text().c_str());
    }
    std::printf("Paper: SwapRAM split +22%% speed / -26%% energy at "
                "24 MHz; +8%% / -21%% at 8 MHz.\n");
    return 0;
}
