/**
 * @file
 * Shared helpers for the per-table/figure bench binaries.
 */

#ifndef SWAPRAM_BENCH_BENCH_COMMON_HH
#define SWAPRAM_BENCH_BENCH_COMMON_HH

#include <cstdio>
#include <string>
#include <vector>

#include "harness/report.hh"
#include "harness/runner.hh"
#include "workloads/workload.hh"

namespace swapram::bench {

/** Verify a run finished with the golden checksum; abort loudly if not
 *  (a bench must never report numbers from a wrong execution). */
inline void
requireCorrect(const harness::Metrics &m, const workloads::Workload &w,
               const char *what)
{
    if (!m.fits)
        return; // DNF rows are reported as such
    if (!m.done || m.checksum != w.expected) {
        std::fprintf(stderr,
                     "FATAL: %s on %s produced wrong result "
                     "(done=%d checksum=0x%04X expected=0x%04X)\n",
                     what, w.name.c_str(), m.done, m.checksum,
                     w.expected);
        std::abort();
    }
}

/** Ratio formatted like "1.26x". */
inline std::string
times(double ratio)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.2fx", ratio);
    return buf;
}

} // namespace swapram::bench

#endif // SWAPRAM_BENCH_BENCH_COMMON_HH
