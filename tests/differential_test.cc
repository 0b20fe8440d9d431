/**
 * @file
 * Differential tests: the cycle-level machine (encode -> load ->
 * fetch/decode/execute) against the independent AST-level interpreter,
 * once on the default fast tier and once on the single-step oracle.
 * Any divergence in final registers, memory, or console output points
 * at an encoder, decoder, or CPU-semantics bug.
 */

#include <gtest/gtest.h>

#include "ast_interpreter.hh"
#include "fuzz_programs.hh"
#include "harness/runner.hh"
#include "masm/parser.hh"
#include "support/strings.hh"
#include "support/platform.hh"
#include "sim/machine.hh"
#include "workloads/workload.hh"

namespace {

using namespace swapram;

/** Run @p source on the default tier and on the single-step oracle
 *  and compare each run's final state with the AST interpreter's. */
void
compareRuns(const std::string &source, const char *what)
{
    masm::LayoutSpec layout; // unified: everything in FRAM
    auto assembled = masm::assemble(masm::parse(source), layout);

    auto interp = test::interpret(assembled, 0xFF80);
    ASSERT_TRUE(interp.done) << what;

    sim::MachineConfig oracle;
    oracle.superblock_enabled = false;
    for (const sim::MachineConfig &config : {sim::MachineConfig{}, oracle}) {
        const std::string tier =
            std::string(what) +
            (config.superblock_enabled ? " (fast tier)" : " (oracle)");
        sim::Machine machine(config);
        machine.load(assembled.image, 0xFF80);
        auto run = machine.run();
        ASSERT_TRUE(run.done) << tier;

        // Registers R1..R15 (PC is meaningless after halt).
        for (int r = 1; r < 16; ++r) {
            EXPECT_EQ(machine.cpu().reg(isa::regFromIndex(
                          static_cast<std::uint8_t>(r))),
                      interp.regs[r])
                << tier << " R" << r;
        }
        EXPECT_EQ(machine.mmio().console(), interp.console) << tier;

        // Whole memory except the MMIO window (the machine routes MMIO
        // writes to devices, the interpreter treats unknown MMIO as
        // RAM).
        int mismatches = 0;
        for (std::uint32_t a = 0; a < 0x10000 && mismatches < 8; ++a) {
            if (a >= platform::kMmioBase && a < platform::kMmioEnd)
                continue;
            auto m = machine.peek8(static_cast<std::uint16_t>(a));
            auto i = interp.memory[a];
            if (m != i) {
                ++mismatches;
                ADD_FAILURE() << tier << ": memory differs at "
                              << support::hex16(
                                     static_cast<std::uint16_t>(a))
                              << " machine=" << int(m)
                              << " interp=" << int(i);
            }
        }
    }
}

class WorkloadDifferential
    : public ::testing::TestWithParam<std::string>
{
};

TEST_P(WorkloadDifferential, MachineMatchesAstInterpreter)
{
    const auto *w = workloads::find(GetParam());
    ASSERT_NE(w, nullptr);
    std::string source = harness::startupSource(0xFF80) + w->source +
                         workloads::libSource();
    compareRuns(source, w->name.c_str());
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, WorkloadDifferential,
    ::testing::Values("stringsearch", "dijkstra", "crc", "rc4", "fft",
                      "aes", "lzfx", "bitcount", "rsa"),
    [](const ::testing::TestParamInfo<std::string> &info) {
        return info.param;
    });

TEST(Differential, ArithKernel)
{
    auto w = workloads::makeArith();
    compareRuns(harness::startupSource(0xFF80) + w.source,
                "arith");
}

/**
 * Every Format I op, in byte and word form, in each operand family the
 * fast tier has a specialized kernel for: imm/reg -> reg, abs -> reg,
 * imm/reg -> abs, indexed/indirect -> reg, imm/reg -> indexed. Each
 * case loads fresh operands, sets or clears the carry in, and stores
 * the result and SR to the next slot of ts_out (R15), so a wrong value
 * or flag in any case leaves a memory difference.
 */
std::string
formatICases()
{
    static const char *const kOps[] = {"MOV",  "ADD", "ADDC", "SUBC",
                                       "SUB",  "CMP", "DADD", "BIT",
                                       "BIC",  "BIS", "XOR",  "AND"};
    static const char *const kVals[] = {
        "0x0000", "0x0001", "0x7FFF", "0x8000", "0xFFFF", "0x1234",
        "0x0099", "0x8080", "0x00FF", "0x5A5A", "0x4999", "0xFF01"};
    static const char *const kDynSrc[] = {"2(R4)", "@R14", "@R14+"};
    std::string s;
    auto line = [&s](const std::string &text) {
        s += "        " + text + "\n";
    };
    int k = 0;
    for (const char *op : kOps) {
        for (const bool byte : {false, true}) {
            for (int family = 0; family < 5; ++family, ++k) {
                const std::string b = kVals[(5 * k + 3) % 12];
                // Register or immediate source, alternating.
                const std::string nonmem = (k & 2) ? "R6" : "#" + b;
                std::string src = nonmem, dst = "R5", readback;
                line(std::string("MOV #") + kVals[k % 12] + ", R5");
                line("MOV #" + b + ", R6");
                switch (family) {
                  case 0: // imm/reg -> reg
                    break;
                  case 1: // abs -> reg
                    line("MOV R6, &ts_cell");
                    src = "&ts_cell";
                    break;
                  case 2: // imm/reg -> abs
                    line("MOV R5, &ts_cell");
                    dst = readback = "&ts_cell";
                    break;
                  case 3: // indexed/indirect -> reg
                    line("MOV R6, 2(R4)");
                    line("MOV R4, R14");
                    line("INCD R14");
                    src = byte && k % 3 == 0 ? "3(R4)" : kDynSrc[k % 3];
                    break;
                  case 4: // imm/reg -> indexed
                    line("MOV R5, 4(R4)");
                    dst = byte ? "5(R4)" : "4(R4)";
                    readback = "4(R4)";
                    break;
                }
                line(k & 1 ? "SETC" : "CLRC");
                line(std::string(op) + (byte ? ".B " : " ") + src + ", " +
                     dst);
                // MOV leaves the flags alone.
                if (!readback.empty())
                    line("MOV " + readback + ", R5");
                line("MOV SR, 2(R15)");
                line("MOV R5, 0(R15)");
                line("ADD #4, R15");
            }
        }
    }
    return s;
}

TEST(Differential, FlagTortureProgram)
{
    // Dense flag interactions: carries, borrows, BCD, rotates, byte
    // ops, signed comparisons; every Format I op in every specialized
    // operand family; SR as a destination (flag-setting ops store
    // first, then set flags; a byte op clears SR's upper byte).
    const std::string body = R"(
        .text
        .func main
        PUSH R10
        MOV #ts_buf, R4
        MOV #ts_out, R15
)" + formatICases() + R"(
        MOV #0x0105, &ts_cell
        MOV #0x0102, 0(R4)
        MOV R4, R14
        SETC
        AND #0x0107, SR         ; store, then flags over it
        MOV SR, 0(R15)
        XOR.B #0x05, SR         ; byte store clears V, then flags
        MOV SR, 2(R15)
        BIS #0x0100, SR         ; no flags: the stored value stays
        MOV SR, 4(R15)
        BIC R6, SR
        MOV SR, 6(R15)
        MOV &ts_cell, SR        ; abs -> SR
        MOV SR, 8(R15)
        SUB #1, SR
        MOV SR, 10(R15)
        MOV @R14, SR            ; indirect -> SR
        MOV SR, 12(R15)
        ADD.B #1, SR
        MOV SR, 14(R15)
        CMP #0x0102, SR         ; no store
        MOV SR, 16(R15)
        MOV #0x8000, R7
        RRA R7
        RRC R7
        MOV #0x0081, R7
        SETC
        RRC.B R7
        MOV SR, 18(R15)
        RRA.B R7
        MOV SR, 20(R15)
        MOV R7, 22(R15)
        MOV #0x99, R6
        SETC
        DADD.B #0x01, R6        ; BCD with carry in
        MOV #0x00FF, R8
        SXT R8
        ADD.B #1, R8
        SWPB R8
        MOV #0x7FFF, R5
        ADD #1, R5              ; overflow
        SUBC R5, R5
        MOV #10, R10
mt_loop:
        RLA R8
        ADC R8
        DADD R10, R9
        DEC R10
        JNZ mt_loop
        MOV R9, &bench_result
        POP R10
        RET
        .endfunc
        .data
        .align 2
bench_result: .word 0
ts_cell: .word 0
ts_buf: .space 8
ts_out: .space 520
)";
    compareRuns(harness::startupSource(0xFF80) + body, "flag-torture");
}

class RandomDifferential : public ::testing::TestWithParam<std::uint32_t>
{
};

TEST_P(RandomDifferential, MachineMatchesAstInterpreter)
{
    auto w = test::randomProgram(GetParam());
    compareRuns(harness::startupSource(0xFF80) + w.source,
                w.name.c_str());
}

INSTANTIATE_TEST_SUITE_P(RandomPrograms, RandomDifferential,
                         ::testing::Range(100u, 140u));

} // namespace
