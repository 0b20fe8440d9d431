/**
 * @file
 * Reproduces Table 2: FRAM accesses and unstalled CPU cycles for the
 * baseline, block-based caching, and SwapRAM on every benchmark, with
 * geometric-mean deltas.
 *
 * Paper reference: SwapRAM removes 65% of FRAM accesses (range
 * -40..-81%) for a +6.9% geo-mean cycle increase (worst AES +24%);
 * block caching removes only 34% while adding +52% cycles, and four
 * benchmarks do not fit (DNF).
 */

#include "bench_common.hh"
#include "support/strings.hh"

using namespace swapram;

int
main()
{
    std::printf("Table 2: FRAM accesses and unstalled CPU cycles "
                "(unified memory, simulator counters)\n\n");

    harness::Table fram({"Benchmark", "Baseline", "Block-based", "",
                         "SwapRAM", ""});
    harness::Table cycles({"Benchmark", "Baseline", "Block-based", "",
                           "SwapRAM", ""});
    std::vector<double> bb_fram_ratio, sr_fram_ratio;
    std::vector<double> bb_cycle_ratio, sr_cycle_ratio;

    for (const auto &w : workloads::all()) {
        auto base = harness::run(w, harness::System::Baseline);
        auto block = harness::run(w, harness::System::BlockCache);
        auto swap = harness::run(w, harness::System::SwapRam);
        bench::requireCorrect(base, w, "table2 baseline");
        bench::requireCorrect(block, w, "table2 block");
        bench::requireCorrect(swap, w, "table2 swapram");

        auto base_fram = static_cast<double>(base.stats.framAccesses());
        auto base_cyc = static_cast<double>(base.stats.base_cycles);

        std::string bb_fram = "DNF", bb_fram_d = "";
        std::string bb_cyc = "DNF", bb_cyc_d = "";
        if (block.fits) {
            bb_fram = harness::withCommas(block.stats.framAccesses());
            bb_fram_d = harness::percentDelta(
                static_cast<double>(block.stats.framAccesses()),
                base_fram);
            bb_cyc = harness::withCommas(block.stats.base_cycles);
            bb_cyc_d = harness::percentDelta(
                static_cast<double>(block.stats.base_cycles), base_cyc);
            bb_fram_ratio.push_back(
                static_cast<double>(block.stats.framAccesses()) /
                base_fram);
            bb_cycle_ratio.push_back(
                static_cast<double>(block.stats.base_cycles) / base_cyc);
        }
        sr_fram_ratio.push_back(
            static_cast<double>(swap.stats.framAccesses()) / base_fram);
        sr_cycle_ratio.push_back(
            static_cast<double>(swap.stats.base_cycles) / base_cyc);

        fram.addRow({w.display, harness::withCommas(
                                    base.stats.framAccesses()),
                     bb_fram, bb_fram_d,
                     harness::withCommas(swap.stats.framAccesses()),
                     harness::percentDelta(
                         static_cast<double>(swap.stats.framAccesses()),
                         base_fram)});
        cycles.addRow({w.display,
                       harness::withCommas(base.stats.base_cycles),
                       bb_cyc, bb_cyc_d,
                       harness::withCommas(swap.stats.base_cycles),
                       harness::percentDelta(
                           static_cast<double>(swap.stats.base_cycles),
                           base_cyc)});
    }
    fram.addRow({"Geo. mean", "", "",
                 harness::geoMeanDelta(bb_fram_ratio), "",
                 harness::geoMeanDelta(sr_fram_ratio)});
    cycles.addRow({"Geo. mean", "", "",
                   harness::geoMeanDelta(bb_cycle_ratio), "",
                   harness::geoMeanDelta(sr_cycle_ratio)});

    std::printf("FRAM accesses:\n%s\n", fram.text().c_str());
    std::printf("Unstalled CPU cycles:\n%s\n", cycles.text().c_str());
    std::printf("Paper: SwapRAM -65%% FRAM accesses at +6.9%% cycles "
                "(worst AES +24%%);\nblock-based -34%% at +52%% "
                "cycles.\n");
    return 0;
}
