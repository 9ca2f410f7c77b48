/**
 * Tests for the static schedule verifier (verify/verifier.h) and its
 * fault injector (verify/faults.h).
 *
 * Two layers: every benchmark x configuration pair must verify clean
 * (the simulator emits only legal schedules), and on a hand-built
 * program with at least one injection site per fault class, every
 * mutated schedule must be flagged with the expected diagnostic (the
 * checks are live, not vacuously green).
 */

#include <gtest/gtest.h>

#include "compiler/lower.h"
#include "sim/simulator.h"
#include "verify/faults.h"
#include "verify/verifier.h"
#include "workloads/benchmarks.h"

namespace cl {
namespace {

// --- Clean verification across the benchmark suite -------------------

using BenchConfig = std::tuple<std::string, std::string>;

class VerifyBenchmarks : public ::testing::TestWithParam<BenchConfig>
{
};

TEST_P(VerifyBenchmarks, ScheduleIsLegal)
{
    const auto &[bench, config] = GetParam();
    const ChipConfig cfg = ChipConfig::byName(config);
    Lowering lower(cfg);
    const Program prog = lower.lower(
        benchmarkByName(bench, SecurityConfig::bits80()));
    prog.validate();

    Simulator sim(cfg);
    TraceRecorder rec;
    const SimStats stats = sim.run(prog, &rec);
    const VerifyReport report = ScheduleVerifier(cfg, prog).verify(
        rec.insts(), rec.residency(), stats);
    EXPECT_TRUE(report.ok()) << report.summary();
    EXPECT_EQ(report.instsChecked, prog.size());
}

INSTANTIATE_TEST_SUITE_P(
    AllBenchmarks, VerifyBenchmarks,
    ::testing::Combine(
        ::testing::ValuesIn(benchmarkNames()),
        ::testing::Values("craterlake", "f1plus", "no-kshgen")),
    [](const ::testing::TestParamInfo<BenchConfig> &info) {
        std::string s = std::get<0>(info.param) + "_" +
                        std::get<1>(info.param);
        for (char &c : s)
            if (c == '-')
                c = '_';
        return s;
    });

// --- Fault injection --------------------------------------------------

/** 4096-word register file, 256 words/cycle (see exactConfig in
 *  test_simulator.cpp). */
ChipConfig
smallRfConfig()
{
    ChipConfig cfg = ChipConfig::craterLake();
    cfg.rfBytes = static_cast<std::uint64_t>(4096 * 3.5);
    cfg.hbmPhys = 2;
    cfg.hbmGBpsPerPhy = 448.0;
    cfg.freqGhz = 1.0;
    return cfg;
}

/**
 * A program whose schedule contains an injection site for every fault
 * class: a producer->consumer dependency (T: i0 -> i3), a spill of T
 * and a clean eviction of A at i1 (both reloaded later), network
 * traffic on two instructions, FU claims and RF ports everywhere.
 */
Program
faultSiteProgram()
{
    Program p;
    p.name = "fault-sites";
    p.n = 1 << 16;
    const auto A = p.addValue(ValueKind::Input, 1024, "A");
    const auto T = p.addValue(ValueKind::Intermediate, 2560, "T");
    const auto K = p.addValue(ValueKind::KeySwitchHint, 2560, "K");
    const auto B = p.addValue(ValueKind::Input, 2560, "B");
    const auto o1 = p.addValue(ValueKind::Output, 256, "o1");
    const auto o2 = p.addValue(ValueKind::Output, 256, "o2");

    auto inst = [&](std::vector<std::uint32_t> reads,
                    std::vector<std::uint32_t> writes,
                    const char *mnemonic, std::uint64_t net) {
        PolyInst i;
        i.stage = mnemonic;
        i.n = p.n;
        i.fus = {{FuType::Add, 1, 16}};
        i.reads.assign(reads.begin(), reads.end());
        i.writes.assign(writes.begin(), writes.end());
        i.duration = 10;
        i.rfPorts = 2;
        i.networkWords = net;
        p.addInst(std::move(i));
    };
    inst({A}, {T}, "i0", 512);   // A loads; T produced.
    inst({K}, {}, "i1", 0);      // evicts A (clean), spills T.
    inst({B}, {}, "i2", 512);    // K dead-freed; B loads.
    inst({T}, {o1}, "i3", 0);    // T reloaded after its spill.
    inst({A}, {o2}, "i4", 0);    // A reloaded after its eviction.
    p.validate();
    return p;
}

class VerifyFaults : public ::testing::TestWithParam<FaultClass>
{
};

TEST_P(VerifyFaults, InjectedFaultIsCaught)
{
    const FaultClass fault = GetParam();
    const ChipConfig cfg = smallRfConfig();
    const Program prog = faultSiteProgram();

    Simulator sim(cfg);
    TraceRecorder rec;
    const SimStats stats = sim.run(prog, &rec);
    const ScheduleVerifier verifier(cfg, prog);
    ASSERT_TRUE(
        verifier.verify(rec.insts(), rec.residency(), stats).ok())
        << "clean schedule must verify before injection";

    auto insts = rec.insts();
    auto events = rec.residency();
    SimStats mutated = stats;
    ASSERT_TRUE(
        injectFault(fault, prog, cfg, insts, events, mutated))
        << faultClassName(fault) << " found no injection site";

    const VerifyReport report =
        verifier.verify(insts, events, mutated);
    EXPECT_FALSE(report.ok());
    EXPECT_TRUE(report.has(expectedViolation(fault)))
        << faultClassName(fault) << " expected "
        << violationKindName(expectedViolation(fault)) << ", got:\n"
        << report.summary();
}

INSTANTIATE_TEST_SUITE_P(
    AllClasses, VerifyFaults,
    ::testing::ValuesIn(allFaultClasses),
    [](const ::testing::TestParamInfo<FaultClass> &info) {
        std::string s = faultClassName(info.param);
        for (char &c : s)
            if (c == '-')
                c = '_';
        return s;
    });

// --- API odds and ends ------------------------------------------------

TEST(Verifier, ConvenienceWrapperRunsEndToEnd)
{
    const ChipConfig cfg = ChipConfig::craterLake();
    Lowering lower(cfg);
    const Program prog = lower.lower(
        benchmarkByName("lola-mnist", SecurityConfig::bits80()));
    SimStats stats;
    const VerifyReport report = verifySchedule(cfg, prog, &stats);
    EXPECT_TRUE(report.ok()) << report.summary();
    EXPECT_GT(stats.cycles, 0u);
}

TEST(Verifier, TamperedStatsAreAnAccountingMismatch)
{
    const ChipConfig cfg = smallRfConfig();
    const Program prog = faultSiteProgram();
    Simulator sim(cfg);
    TraceRecorder rec;
    SimStats stats = sim.run(prog, &rec);
    stats.intermLoadWords += 1; // claim traffic that never moved
    const VerifyReport report = ScheduleVerifier(cfg, prog).verify(
        rec.insts(), rec.residency(), stats);
    EXPECT_TRUE(report.has(ViolationKind::AccountingMismatch));
}

TEST(Verifier, SummaryListsKindCounts)
{
    const ChipConfig cfg = smallRfConfig();
    const Program prog = faultSiteProgram();
    Simulator sim(cfg);
    TraceRecorder rec;
    const SimStats stats = sim.run(prog, &rec);
    auto insts = rec.insts();
    insts.front().finish += 7;
    const VerifyReport report = ScheduleVerifier(cfg, prog).verify(
        insts, rec.residency(), stats);
    EXPECT_FALSE(report.ok());
    EXPECT_NE(report.summary().find("duration-mismatch"),
              std::string::npos);
}

} // namespace
} // namespace cl
