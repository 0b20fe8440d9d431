/**
 * @file
 * Reproduces Figure 7 (and the §5.2 size discussion): NVM usage of the
 * transformed application code, cache runtime, and metadata for the
 * block-based cache and SwapRAM.
 *
 * Paper reference: block caching grows total NVM usage by 368% on
 * average and four benchmarks (STR, DIJ, FFT, LZFX) do not fit the
 * 32 KiB device; SwapRAM grows binaries by 27% on average, with the
 * miss handler at 972-1844 bytes.
 *
 * Our workloads are scaled down for simulation speed, so absolute
 * sizes are smaller; besides the real 32 KiB platform bound we report
 * DNF against a proportionally scaled budget (8 KiB) to show where the
 * paper's DNFs would land at paper-scale binaries.
 */

#include "bench_common.hh"
#include "support/strings.hh"

using namespace swapram;

namespace {
constexpr std::uint32_t kScaledBudget = 8 * 1024;
}

int
main()
{
    std::printf("Figure 7: NVM usage after transformation "
                "(application + runtime + metadata)\n\n");
    harness::Table table({"Benchmark", "Base app", "BB app", "BB runtime",
                          "BB metadata", "BB total", "BB fits(8K)",
                          "SR app", "SR runtime", "SR metadata",
                          "SR total", "SR vs base"});
    std::vector<double> bb_growth, sr_growth;
    int handler_min = 1 << 30, handler_max = 0;

    for (const auto &w : workloads::all()) {
        auto base = harness::run(w, harness::System::Baseline);
        auto block = harness::run(w, harness::System::BlockCache);
        auto swap = harness::run(w, harness::System::SwapRam);
        bench::requireCorrect(base, w, "fig7");

        std::uint32_t base_total = base.totalNvmBytes();
        std::uint32_t bb_total = block.totalNvmBytes();
        std::uint32_t sr_total = swap.totalNvmBytes();
        bb_growth.push_back(static_cast<double>(bb_total) / base_total);
        sr_growth.push_back(static_cast<double>(sr_total) / base_total);
        handler_min = std::min<int>(handler_min, swap.handler_bytes);
        handler_max = std::max<int>(handler_max, swap.handler_bytes);

        table.addRow(
            {w.display, std::to_string(base_total),
             std::to_string(block.app_text_bytes),
             std::to_string(block.runtime_bytes),
             std::to_string(block.metadata_bytes),
             std::to_string(bb_total),
             bb_total > kScaledBudget ? "DNF" : "yes",
             std::to_string(swap.app_text_bytes),
             std::to_string(swap.runtime_bytes),
             std::to_string(swap.metadata_bytes),
             std::to_string(sr_total),
             harness::percentDelta(sr_total, base_total)});
    }
    std::printf("%s\n", table.text().c_str());
    std::printf("Block-based NVM growth (geo mean): %s   "
                "SwapRAM growth (geo mean): %s\n",
                harness::geoMeanDelta(bb_growth).c_str(),
                harness::geoMeanDelta(sr_growth).c_str());
    std::printf("SwapRAM miss handler size: %d-%d bytes "
                "(paper: 972-1844).\n", handler_min, handler_max);
    std::printf("Paper: block caching +368%% NVM on average with 4 DNF; "
                "SwapRAM +27%% average.\n");
    return 0;
}
