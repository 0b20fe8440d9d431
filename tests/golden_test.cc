/**
 * @file
 * Golden conformance suite: checksum, total cycles, FRAM stall cycles,
 * swap-in count, and eviction count are pinned for every (workload ×
 * system × SRAM size) cell of the evaluation matrix in
 * tests/golden/expectations.json — the classic nine-workload matrix at
 * the platform default plus the capacity-pressure hit/thrash curve
 * (ISSUE 7). Any drift — an ISA timing change, a cache-runtime change,
 * a placement change — fails with a per-field diff and points at the
 * one-command regeneration path:
 *
 *     swapram_tool sweep --capacity --update-golden
 *
 * A second expectation file, tests/golden/expectations_noevict.json,
 * pins the SwapRAM matrix with eviction disabled. Those rows are the
 * pre-eviction runtime's exact numbers: cache::Options::evict = false
 * must generate a byte-for-byte identical runtime, so this suite is
 * the tripwire for any change that leaks into the evict-off image.
 * Regenerate (only when the baseline runtime itself changes) with:
 *
 *     swapram_tool sweep --systems swapram --no-evict \
 *         --update-golden --golden-out tests/golden/expectations_noevict.json
 *
 * The whole matrix runs through the harness engine at hardware
 * concurrency, so this suite also exercises the parallel path on every
 * CI run (including the ASan/UBSan and TSan jobs).
 */

#include <gtest/gtest.h>

#include <fstream>
#include <limits>
#include <map>
#include <sstream>
#include <tuple>

#include "harness/engine.hh"
#include "support/json.hh"
#include "support/logging.hh"
#include "support/platform.hh"
#include "workloads/workload.hh"

namespace {

using namespace swapram;

#ifndef SWAPRAM_GOLDEN_FILE
#error "build must define SWAPRAM_GOLDEN_FILE"
#endif
#ifndef SWAPRAM_GOLDEN_NOEVICT_FILE
#error "build must define SWAPRAM_GOLDEN_NOEVICT_FILE"
#endif

/** One pinned expectation row. */
struct Golden {
    std::uint16_t checksum = 0;
    std::uint64_t total_cycles = 0;
    std::uint64_t stall_cycles = 0;
    std::uint64_t swap_ins = 0;
    std::uint64_t evictions = 0;
};

/** Expectations are keyed by (workload, system, sram_size). */
using Key = std::tuple<std::string, std::string, std::uint32_t>;

std::string
keyName(const Key &key)
{
    return std::get<0>(key) + "/" + std::get<1>(key) + "@" +
           std::to_string(std::get<2>(key));
}

/** Expectation field @p name of @p row as a T: a whole number within
 *  T's range, else a FatalError (a checksum of 70000 must not wrap). */
template <typename T>
T
field(const support::json::Value &row, const char *name)
{
    const std::int64_t v = row[name].asInt();
    if (v < 0 || static_cast<std::uint64_t>(v) >
                     std::numeric_limits<T>::max())
        support::fatal("golden expectation ", name, ": ", v,
                       " is out of range");
    return static_cast<T>(v);
}

std::map<Key, Golden>
loadExpectations(const char *path, const char *regen_hint)
{
    std::ifstream in(path);
    if (!in) {
        ADD_FAILURE() << "cannot open " << path << regen_hint;
        return {};
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    support::json::Value doc = support::json::parse(buf.str());
    EXPECT_EQ(doc["schema"].asString(), "swapram-golden/v1");
    EXPECT_EQ(doc["placement"].asString(), "unified");
    EXPECT_EQ(doc["clock_hz"].asInt(), 24'000'000);

    std::map<Key, Golden> rows;
    for (const support::json::Value &e :
         doc["expectations"].asArray()) {
        Golden g;
        g.checksum = field<std::uint16_t>(e, "checksum");
        g.total_cycles = field<std::uint64_t>(e, "total_cycles");
        g.stall_cycles = field<std::uint64_t>(e, "stall_cycles");
        g.swap_ins = field<std::uint64_t>(e, "swap_ins");
        g.evictions = field<std::uint64_t>(e, "evictions");
        rows[{e["workload"].asString(), e["system"].asString(),
              field<std::uint32_t>(e, "sram_size")}] = g;
    }
    return rows;
}

/** Run @p specs and diff every outcome against its expectation row. */
void
checkAgainst(const std::map<Key, Golden> &expectations,
             const std::vector<Key> &keys,
             const std::vector<harness::RunSpec> &specs,
             const char *regen_hint)
{
    harness::Engine engine; // hardware concurrency
    std::vector<harness::RunOutcome> outcomes = engine.runAll(specs);

    std::string diff;
    auto check = [&](const std::string &key, const char *field,
                     std::uint64_t expected, std::uint64_t got) {
        if (expected == got)
            return;
        diff += support::cat("  ", key, ".", field, ": expected ",
                             expected, ", got ", got, "\n");
    };
    for (std::size_t i = 0; i < keys.size(); ++i) {
        std::string key = keyName(keys[i]);
        auto it = expectations.find(keys[i]);
        if (it == expectations.end()) {
            diff += support::cat("  ", key, ": no expectation row\n");
            continue;
        }
        const harness::RunOutcome &o = outcomes[i];
        ASSERT_TRUE(o.ok()) << key << ": " << o.error_text;
        ASSERT_TRUE(o.metrics.fits) << key << ": "
                                    << o.metrics.fit_note;
        ASSERT_TRUE(o.metrics.done) << key << ": timeout";
        const Golden &g = it->second;
        check(key, "checksum", g.checksum, o.metrics.checksum);
        check(key, "total_cycles", g.total_cycles,
              o.metrics.stats.totalCycles());
        check(key, "stall_cycles", g.stall_cycles,
              o.metrics.stats.stall_cycles);
        check(key, "swap_ins", g.swap_ins,
              o.metrics.swap_summary.copy_ins);
        check(key, "evictions", g.evictions,
              o.metrics.swap_summary.evictions);
    }
    EXPECT_TRUE(diff.empty())
        << "golden conformance drift:\n" << diff << regen_hint;
}

TEST(GoldenConformance, AllWorkloadsAllSystemsMatchExpectations)
{
    const char kRegenHint[] =
        "\nIf this change is intentional, regenerate with:\n"
        "    swapram_tool sweep --capacity --update-golden\n";
    auto expectations =
        loadExpectations(SWAPRAM_GOLDEN_FILE, kRegenHint);
    ASSERT_FALSE(expectations.empty());

    const harness::System systems[] = {harness::System::Baseline,
                                       harness::System::SwapRam,
                                       harness::System::BlockCache};

    // Build the matrix in the same order the sweep tool uses: the
    // classic nine × three systems at the platform default, then the
    // --capacity rows.
    std::vector<Key> keys;
    std::vector<harness::RunSpec> specs;
    for (const workloads::Workload &w : workloads::all()) {
        for (harness::System system : systems) {
            keys.emplace_back(w.name, harness::systemName(system),
                              platform::kSramSize);
            specs.push_back(harness::sweepSpec(w, system));
        }
    }
    for (const harness::MatrixCell &mc : harness::capacityMatrix()) {
        keys.emplace_back(mc.workload->name,
                          harness::systemName(mc.system), mc.sram_size);
        specs.push_back(harness::capacitySpec(*mc.workload, mc.system,
                                              mc.sram_size));
    }
    EXPECT_EQ(keys.size(), expectations.size())
        << "expectation file does not cover the full matrix"
        << kRegenHint;

    checkAgainst(expectations, keys, specs, kRegenHint);
}

/** Evict-off must be the pre-eviction runtime, bit for bit: every
 *  pinned number — including the layout-sensitive cycle totals — has
 *  to match the values the nine workloads produced before eviction
 *  and the data pool existed. */
TEST(GoldenConformance, NoEvictMatchesPreEvictionRuntime)
{
    const char kRegenHint[] =
        "\nThe evict-off runtime drifted from its pre-eviction "
        "baseline.\nIf the baseline itself changed intentionally, "
        "regenerate with:\n"
        "    swapram_tool sweep --systems swapram --no-evict "
        "--update-golden \\\n"
        "        --golden-out tests/golden/expectations_noevict.json\n";
    auto expectations =
        loadExpectations(SWAPRAM_GOLDEN_NOEVICT_FILE, kRegenHint);
    ASSERT_FALSE(expectations.empty());

    std::vector<Key> keys;
    std::vector<harness::RunSpec> specs;
    for (const workloads::Workload &w : workloads::all()) {
        keys.emplace_back(w.name, "swapram", platform::kSramSize);
        harness::RunSpec spec =
            harness::sweepSpec(w, harness::System::SwapRam);
        spec.swap.evict = false;
        specs.push_back(spec);
    }
    EXPECT_EQ(keys.size(), expectations.size())
        << "expectation file does not cover the swapram matrix"
        << kRegenHint;

    checkAgainst(expectations, keys, specs, kRegenHint);
}

/** Expectation fields narrow only when they fit: a 70000 checksum or a
 *  negative count is an error, not a wrapped value. */
TEST(GoldenConformance, ExpectationFieldsRejectOutOfRange)
{
    support::json::Value row = support::json::parse(
        "{\"checksum\": 70000, \"sram_size\": 4294967296, "
        "\"swap_ins\": -1, \"evictions\": 1.5, \"ok\": 65535}");
    EXPECT_THROW(field<std::uint16_t>(row, "checksum"),
                 support::FatalError);
    EXPECT_THROW(field<std::uint32_t>(row, "sram_size"),
                 support::FatalError);
    EXPECT_THROW(field<std::uint64_t>(row, "swap_ins"),
                 support::FatalError);
    EXPECT_THROW(field<std::uint64_t>(row, "evictions"),
                 support::FatalError);
    EXPECT_EQ(field<std::uint16_t>(row, "ok"), 65535);
}

} // namespace
