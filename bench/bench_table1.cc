/**
 * @file
 * Reproduces Table 1: binary size, RAM usage, and the code/data access
 * ratio for the nine benchmarks, measured on the baseline system in the
 * unified-memory configuration.
 *
 * Paper reference values: binary sizes 1470-23014 B (ours are smaller —
 * inputs and code are scaled to simulation budgets), RAM usage
 * 332-10794 B, code/data ratios 1.6-4.7 with average 3.035.
 */

#include "bench_common.hh"
#include "support/strings.hh"

using namespace swapram;

int
main()
{
    std::printf("Table 1: benchmark footprint and access mix "
                "(baseline, unified memory)\n\n");
    harness::Table table({"Benchmark", "Binary Size (B)", "RAM Usage (B)",
                          "Code/Data Access Ratio"});
    double ratio_sum = 0;
    int count = 0;
    for (const auto &w : workloads::all()) {
        auto m = harness::run(w, harness::System::Baseline);
        bench::requireCorrect(m, w, "table1 baseline");
        std::uint32_t binary =
            m.text_bytes + m.const_bytes + m.data_bytes;
        double ratio =
            static_cast<double>(m.stats.code_space_accesses) /
            static_cast<double>(m.stats.data_space_accesses);
        ratio_sum += ratio;
        ++count;
        table.addRow({w.display, std::to_string(binary),
                      std::to_string(m.ram_bytes),
                      support::fixed(ratio, 3)});
    }
    table.addRow({"Average", "", "",
                  support::fixed(ratio_sum / count, 3)});
    std::printf("%s\n", table.text().c_str());
    std::printf("Paper: ratios 1.620-4.679, average 3.035 — code-space "
                "accesses dominate,\nwhich is the motivation for caching "
                "instructions rather than data (S2.4).\n");
    return 0;
}
