/**
 * @file
 * Unit tests for the support utilities, the disassembler, the listing
 * printer, the report helpers, and the placement planner.
 */

#include <gtest/gtest.h>

#include "harness/placement.hh"
#include "harness/runner.hh"
#include "harness/report.hh"
#include "isa/disasm.hh"
#include "masm/assembler.hh"
#include "masm/parser.hh"
#include "masm/printer.hh"
#include "support/json.hh"
#include "support/logging.hh"
#include "support/rng.hh"
#include "support/strings.hh"

namespace {

using namespace swapram;

TEST(Strings, Trim)
{
    EXPECT_EQ(support::trim("  abc  "), "abc");
    EXPECT_EQ(support::trim(""), "");
    EXPECT_EQ(support::trim("   "), "");
    EXPECT_EQ(support::trim("x"), "x");
}

TEST(Strings, Case)
{
    EXPECT_EQ(support::toLower("MoV.B"), "mov.b");
    EXPECT_EQ(support::toUpper("r12"), "R12");
}

TEST(Strings, Split)
{
    auto parts = support::split("a,b,,c", ',');
    ASSERT_EQ(parts.size(), 4u);
    EXPECT_EQ(parts[0], "a");
    EXPECT_EQ(parts[2], "");
    EXPECT_EQ(parts[3], "c");
    EXPECT_EQ(support::split("", ',').size(), 1u);
}

TEST(Strings, Hex16AndFixed)
{
    EXPECT_EQ(support::hex16(0xBEEF), "0xBEEF");
    EXPECT_EQ(support::hex16(0), "0x0000");
    EXPECT_EQ(support::fixed(1.2345, 2), "1.23");
}

TEST(Strings, ReplaceAll)
{
    EXPECT_EQ(support::replaceAll("a-b-c", "-", "+"), "a+b+c");
    EXPECT_EQ(support::replaceAll("aaa", "aa", "b"), "ba");
    EXPECT_EQ(support::replaceAll("x", "", "y"), "x");
}

TEST(Rng, DeterministicAndBounded)
{
    support::Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
    support::Rng c(7);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(c.below(13), 13u);
    // Zero seed is remapped, not stuck at zero.
    support::Rng z(0);
    EXPECT_NE(z.next(), 0u);
}

TEST(Rng, LegacyBelowStreamIsFrozen)
{
    // Golden stream: version 1 must keep producing the exact values the
    // recorded fuzz seeds and workload input generators were built on
    // (xorshift32 from seed 42, reduced mod 1000).
    support::Rng legacy(42, support::Rng::kLegacyBelow);
    for (std::uint32_t e : {432u, 348u, 59u, 16u, 556u, 134u, 840u, 334u})
        EXPECT_EQ(legacy.below(1000), e);
}

TEST(Rng, RejectionSamplingRemovesModuloBias)
{
    // With bound = 3 * 2^30, `next() % bound` maps the top quarter of
    // the 32-bit range back onto the first bucket, so the legacy
    // version draws bucket 0 about half the time. The rejection
    // sampler must keep all three buckets near 1/3.
    const std::uint32_t bound = 0xC0000000u; // 3 * 2^30
    const int draws = 30'000;
    auto bucketShare = [&](int version) {
        support::Rng rng(0xB1A5u, version);
        int bucket0 = 0;
        for (int i = 0; i < draws; ++i) {
            if (rng.below(bound) < bound / 3)
                ++bucket0;
        }
        return static_cast<double>(bucket0) / draws;
    };
    double legacy = bucketShare(support::Rng::kLegacyBelow);
    double uniform = bucketShare(support::Rng::kUniformBelow);
    // Legacy: P(bucket 0) = (2^30 + 2^30) / 2^32 = 1/2.
    EXPECT_NEAR(legacy, 0.5, 0.02);
    EXPECT_NEAR(uniform, 1.0 / 3.0, 0.02);
}

TEST(Rng, UniformBelowStaysInRangeForAwkwardBounds)
{
    support::Rng rng(99);
    for (std::uint32_t bound : {1u, 2u, 3u, 7u, 0xFFFFu,
                                0x80000001u, 0xFFFFFFFFu}) {
        for (int i = 0; i < 200; ++i)
            EXPECT_LT(rng.below(bound), bound);
    }
}

TEST(Logging, PanicAndFatalThrowDistinctTypes)
{
    EXPECT_THROW(support::panic("x"), support::PanicError);
    EXPECT_THROW(support::fatal("x"), support::FatalError);
    try {
        support::fatal("value=", 42, " addr=", support::hex16(0x1234));
    } catch (const support::FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("value=42"),
                  std::string::npos);
    }
}

TEST(Disasm, RendersOperandForms)
{
    using isa::Op;
    using isa::Operand;
    using isa::Reg;
    isa::Instr i;
    i.op = Op::Mov;
    i.src = Operand::makeImm(0x1234);
    i.dst = Operand::makeReg(Reg::R5);
    EXPECT_EQ(isa::disasm(i), "MOV #0x1234, R5");
    i.byte = true;
    i.src = Operand::makeIndirect(Reg::R4, true);
    i.dst = Operand::makeIndexed(Reg::R6, 2);
    EXPECT_EQ(isa::disasm(i), "MOV.B @R4+, 0x0002(R6)");
    isa::Instr j;
    j.op = Op::Jne;
    j.jump_target = 0x8010;
    EXPECT_EQ(isa::disasm(j), "JNE 0x8010");
    isa::Instr r;
    r.op = Op::Reti;
    EXPECT_EQ(isa::disasm(r), "RETI");
    isa::Instr p;
    p.op = Op::Push;
    p.dst = Operand::makeAbs(0x2000);
    EXPECT_EQ(isa::disasm(p), "PUSH &0x2000");
}

TEST(Printer, SectionSummaryMentionsEverySection)
{
    auto r = masm::assemble(masm::parse("        NOP\n"),
                            masm::LayoutSpec{});
    std::string text = masm::sectionSummary(r.image);
    for (const char *name : {".text", ".const", ".data", ".bss"})
        EXPECT_NE(text.find(name), std::string::npos) << name;
}

TEST(Report, TableFormatsAndPads)
{
    harness::Table t({"Name", "Value"});
    t.addRow({"a", "1"});
    t.addRow({"longer-name", "12345"});
    std::string text = t.text();
    EXPECT_NE(text.find("longer-name"), std::string::npos);
    EXPECT_NE(text.find("12345"), std::string::npos);
    // Header separator present.
    EXPECT_NE(text.find("---"), std::string::npos);
}

TEST(Report, PercentDeltaAndCommas)
{
    EXPECT_EQ(harness::percentDelta(1.5, 1.0), "+50.0%");
    EXPECT_EQ(harness::percentDelta(0.75, 1.0), "-25.0%");
    EXPECT_EQ(harness::percentDelta(1.0, 0.0), "n/a");
    EXPECT_EQ(harness::withCommas(1234567), "1,234,567");
    EXPECT_EQ(harness::withCommas(12), "12");
    EXPECT_EQ(harness::withCommas(0), "0");
}

TEST(Report, GeoMean)
{
    EXPECT_DOUBLE_EQ(harness::geoMean({4.0, 1.0}), 2.0);
    EXPECT_DOUBLE_EQ(harness::geoMean({}), 1.0);
    EXPECT_EQ(harness::geoMeanDelta({0.5, 0.5}), "-50.0%");
}

TEST(Placement, PlansMatchMemoryMap)
{
    using harness::Placement;
    auto unified = harness::makePlacement(Placement::Unified);
    EXPECT_EQ(unified.layout.text_base, 0x8000);
    EXPECT_FALSE(unified.stack_in_sram);
    EXPECT_EQ(unified.stack_top, 0xFF80);

    auto standard = harness::makePlacement(Placement::Standard);
    EXPECT_EQ(*standard.layout.data_base, 0x2000);
    EXPECT_TRUE(standard.stack_in_sram);

    auto sram_code = harness::makePlacement(Placement::SramCode);
    EXPECT_EQ(sram_code.layout.text_base, 0x2000);
    EXPECT_EQ(*sram_code.layout.const_base, 0x8000);

    for (auto p : {Placement::Unified, Placement::Standard,
                   Placement::SramCode, Placement::SramAll,
                   Placement::Split}) {
        EXPECT_FALSE(harness::placementName(p).empty());
    }
}

TEST(Placement, DnfWhenProgramTooBig)
{
    // A text section bigger than SRAM cannot use the SramAll placement.
    std::string big = "        .text\n        .func main\n";
    for (int i = 0; i < 1200; ++i)
        big += "        MOV #0x1234, R5\n"; // 4 bytes each: ~4.8 KiB
    big += "        RET\n        .endfunc\n"
           "        .data\n        .align 2\nbench_result: .word 0\n";
    workloads::Workload w;
    w.name = "big";
    w.display = "BIG";
    w.source = big;
    harness::RunSpec spec;
    spec.workload = &w;
    spec.include_lib = false;
    spec.placement = harness::Placement::SramAll;
    auto m = harness::runOne(spec);
    EXPECT_FALSE(m.fits);
    EXPECT_NE(m.fit_note.find("SRAM"), std::string::npos);
}

TEST(Json, BuildAndDump)
{
    namespace json = support::json;
    json::Value v = json::Object{
        {"int", std::int64_t{1234567890123}},
        {"str", "he\"llo\n"},
        {"arr", json::Array{1, 2.5, true, nullptr}},
        {"obj", json::Object{{"k", "v"}}},
    };
    EXPECT_EQ(v.dump(),
              "{\"arr\":[1,2.5,true,null],\"int\":1234567890123,"
              "\"obj\":{\"k\":\"v\"},\"str\":\"he\\\"llo\\n\"}");
    // Pretty-printing parses back to the same structure.
    json::Value again = json::parse(v.dump(2));
    EXPECT_EQ(again["int"].asInt(), 1234567890123);
    EXPECT_EQ(again["str"].asString(), "he\"llo\n");
    EXPECT_EQ(again["arr"].asArray().size(), 4u);
    EXPECT_TRUE(again["arr"].at(2).asBool());
    EXPECT_TRUE(again["arr"].at(3).isNull());
    EXPECT_EQ(again["obj"]["k"].asString(), "v");
    // Absent keys / out-of-range indices degrade to null.
    EXPECT_TRUE(again["missing"].isNull());
    EXPECT_TRUE(again["arr"].at(99).isNull());
}

TEST(Json, ParseAcceptsEscapesAndNumbers)
{
    namespace json = support::json;
    json::Value v = json::parse(
        "  {\"u\": \"a\\u0041\\t\", \"neg\": -42, \"f\": 1.5e2} ");
    EXPECT_EQ(v["u"].asString(), "aA\t");
    EXPECT_EQ(v["neg"].asInt(), -42);
    EXPECT_DOUBLE_EQ(v["f"].asDouble(), 150.0);
}

TEST(Json, ParseRejectsMalformedInput)
{
    namespace json = support::json;
    EXPECT_THROW(json::parse("{"), support::FatalError);
    EXPECT_THROW(json::parse("[1,]"), support::FatalError);
    EXPECT_THROW(json::parse("{\"a\":1} trailing"),
                 support::FatalError);
    EXPECT_THROW(json::parse("\"unterminated"), support::FatalError);
    EXPECT_THROW(json::parse("nul"), support::FatalError);
    // Numbers follow the JSON grammar and stay finite.
    for (const char *bad : {"01", "-01", "1.", ".5", "-", "1e", "1e+",
                            "1.2.3", "[00]", "{\"a\":1.}", "1e999",
                            "-1e999"})
        EXPECT_THROW(json::parse(bad), support::FatalError) << bad;
    EXPECT_EQ(json::parse("0").asInt(), 0);
    EXPECT_EQ(json::parse("-0.5e1").asDouble(), -5.0);
    EXPECT_EQ(json::parse("2.0").asInt(), 2);
    // asInt never truncates a fraction or casts out of range.
    for (const char *bad : {"1.5", "-0.25", "1e30", "-1e30",
                            "9223372036854775808"})
        EXPECT_THROW(json::parse(bad).asInt(), support::FatalError)
            << bad;
    EXPECT_EQ(json::parse("-9223372036854775808").asInt(), INT64_MIN);
}

TEST(Logging, DebugChannelIsLevelGated)
{
    support::setLogLevel(support::LogLevel::Warn);
    EXPECT_FALSE(support::debugEnabled());
    support::setLogLevel(support::LogLevel::Debug);
    EXPECT_TRUE(support::debugEnabled());
    support::setLogLevel(support::LogLevel::Warn);
}

} // namespace
