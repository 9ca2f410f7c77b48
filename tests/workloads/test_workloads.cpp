/** Tests for the benchmark generators and end-to-end compile+simulate
 *  integration on the CraterLake and F1+ configurations. */

#include <gtest/gtest.h>

#include "baseline/cpumodel.h"
#include "core/craterlake.h"
#include "workloads/benchmarks.h"

namespace cl {
namespace {

TEST(Workloads, PackedBootstrappingStructure)
{
    const HomProgram p = packedBootstrapping();
    EXPECT_EQ(p.logN, 16u);
    EXPECT_EQ(p.lMax, 57u);
    EXPECT_EQ(p.countKind(HomOpKind::ModRaise), 1u);
    EXPECT_EQ(p.countKind(HomOpKind::Input), 1u);
    EXPECT_EQ(p.countKind(HomOpKind::Output), 1u);
    // Sec 8: bootstrapping consumes 35 levels (57 -> 22 usable).
    const HomOp &out = p.ops[p.ops.size() - 1];
    EXPECT_NEAR(out.level, 22.0, 3.0);
}

TEST(Workloads, UnpackedBootstrappingIsShallower)
{
    const HomProgram packed = packedBootstrapping();
    const HomProgram unpacked = unpackedBootstrapping();
    EXPECT_LE(unpacked.lMax, 23u);
    EXPECT_LT(unpacked.ops.size(), packed.ops.size() / 3);
}

TEST(Workloads, LstmBootstrapsOncePerStep)
{
    const SecurityConfig sec = SecurityConfig::bits80();
    const HomProgram p = lstm(sec, 10);
    // 10 steps -> ~10-13 bootstraps (one per step, phases may split).
    const std::size_t raises = p.countKind(HomOpKind::ModRaise);
    EXPECT_GE(raises, 5u);
    EXPECT_LE(raises, 14u);
}

TEST(Workloads, Lstm128BitBootstrapsMoreOften)
{
    const HomProgram p80 = lstm(SecurityConfig::bits80(), 10);
    const HomProgram p128 = lstm(SecurityConfig::bits128(), 10);
    EXPECT_GT(p128.countKind(HomOpKind::ModRaise),
              p80.countKind(HomOpKind::ModRaise));
}

TEST(Workloads, ResNetHasTwentyConvLayers)
{
    const HomProgram p = resnet20();
    // conv1 + 18 block convs + fc: >= 20 linear transforms worth of
    // plaintext mults; bootstraps throughout.
    EXPECT_GT(p.countKind(HomOpKind::ModRaise), 10u);
    EXPECT_GT(p.countKind(HomOpKind::MulPlain), 500u);
    EXPECT_GT(p.countKind(HomOpKind::Mul), 200u); // poly ReLU
}

TEST(Workloads, ShallowProgramsHaveNoBootstrapping)
{
    for (const HomProgram &p :
         {lolaMnist(false), lolaMnist(true), lolaCifar()}) {
        EXPECT_EQ(p.countKind(HomOpKind::ModRaise), 0u) << p.name;
        EXPECT_LE(p.lMax, 8u) << p.name;
        EXPECT_EQ(p.logN, 14u) << p.name;
    }
}

TEST(Workloads, EncryptedWeightsUseCtCtMults)
{
    const HomProgram uw = lolaMnist(false);
    const HomProgram ew = lolaMnist(true);
    EXPECT_GT(ew.countKind(HomOpKind::Mul), uw.countKind(HomOpKind::Mul));
    EXPECT_GT(uw.countKind(HomOpKind::MulPlain),
              ew.countKind(HomOpKind::MulPlain));
}

TEST(Workloads, SuiteHasEightBenchmarks)
{
    auto suite = benchmarkSuite();
    ASSERT_EQ(suite.size(), 8u);
    int deep = 0;
    for (const auto &b : suite)
        deep += b.deep ? 1 : 0;
    EXPECT_EQ(deep, 4);
}

TEST(Workloads, SyntheticGraphsScaleWithWidth)
{
    const HomProgram narrow = multiplicationChain(45, 10);
    const HomProgram wide = wideMultiplyGraph(45, 10, 50);
    // Both share the bootstrap muls; the wide graph adds ~width x
    // depth application multiplies on top.
    EXPECT_GE(wide.countKind(HomOpKind::Mul),
              narrow.countKind(HomOpKind::Mul) + 45 * 10);
}

class EndToEnd : public ::testing::Test
{
};

TEST_F(EndToEnd, PackedBootstrappingOnAllConfigs)
{
    const HomProgram p = packedBootstrapping();
    for (const ChipConfig &cfg :
         {ChipConfig::craterLake(), ChipConfig::f1plus(),
          ChipConfig::noCrbNoChain(), ChipConfig::noKshGen(),
          ChipConfig::crossbarNetwork()}) {
        Accelerator accel(cfg);
        const RunResult r = accel.execute(p);
        EXPECT_GT(r.stats.cycles, 0u) << cfg.name;
        EXPECT_GT(r.instructions, 100u) << cfg.name;
        EXPECT_LE(r.stats.fuUtilization(cfg), 1.0) << cfg.name;
        EXPECT_LE(r.stats.memUtilization(), 1.0) << cfg.name;
    }
}

TEST_F(EndToEnd, CraterLakeBeatsF1PlusOnDeep)
{
    const SecurityConfig sec = SecurityConfig::bits80();
    SecurityConfig sec_f1 = sec;
    sec_f1.policy = f1plusPolicy(sec.policy);

    const HomProgram p = packedBootstrapping(sec);
    const HomProgram p_f1 = packedBootstrapping(sec_f1);
    const double t_cl =
        Accelerator(ChipConfig::craterLake()).execute(p).seconds();
    const double t_f1 =
        Accelerator(ChipConfig::f1plus()).execute(p_f1).seconds();
    // Table 3: 14.9x on packed bootstrapping; require a wide margin.
    EXPECT_GT(t_f1 / t_cl, 4.0);
}

TEST_F(EndToEnd, CrbAblationHurtsDeep)
{
    const HomProgram p = packedBootstrapping();
    const double base =
        Accelerator(ChipConfig::craterLake()).execute(p).seconds();
    const double nocrb =
        Accelerator(ChipConfig::noCrbNoChain()).execute(p).seconds();
    EXPECT_GT(nocrb / base, 2.0); // Table 4: 27.4x in the paper
}

TEST_F(EndToEnd, DeterministicSimulation)
{
    const HomProgram p = lolaMnist(false);
    Accelerator accel(ChipConfig::craterLake());
    const RunResult a = accel.execute(p);
    const RunResult b = accel.execute(p);
    EXPECT_EQ(a.stats.cycles, b.stats.cycles);
    EXPECT_EQ(a.stats.totalTrafficWords(), b.stats.totalTrafficWords());
}

TEST_F(EndToEnd, TrafficBreakdownSumsToTotal)
{
    const HomProgram p = lolaCifar();
    Accelerator accel(ChipConfig::craterLake());
    const SimStats s = accel.execute(p).stats;
    EXPECT_EQ(s.totalTrafficWords(),
              s.kshLoadWords + s.inputLoadWords + s.plainLoadWords +
                  s.intermLoadWords + s.intermStoreWords +
                  s.outputStoreWords);
}

TEST(CpuModel, ScalesWithProgramSize)
{
    const CpuKernelRates rates{3e8, 6e8, 6e8};
    const CpuModel cpu(rates);
    const double small = cpu.run(lolaMnist(false));
    const double big = cpu.run(lolaCifar());
    EXPECT_GT(big, 10 * small);
}

TEST(CpuModel, KernelMeasurementSane)
{
    const CpuKernelRates r = measureCpuKernels();
    EXPECT_GT(r.modmulPerSec, 1e7);
    EXPECT_GT(r.nttButterflyPerSec, 1e7);
    EXPECT_GT(r.macPerSec, 1e7);
}

TEST(CpuModel, PinnedOnEveryBenchmark)
{
    // Table 3's CPU column and Fig 3's multiply counts at fixed kernel
    // rates, captured before the model moved onto util/opcost.h. A
    // change to any cost term the model reads moves these.
    struct Pin
    {
        const char *name;
        double seconds;
        double multiplies;
    };
    const Pin pins[] = {
        {"resnet20", 307.47914524446247, 3270786351104},
        {"logreg", 288.15948158873886, 3064586829824},
        {"lstm", 404.78186377705555, 4355037331456},
        {"boot-packed", 9.688814526984153, 102961053696},
        {"boot-unpacked", 0.17662406208112874, 1921318912},
        {"lola-cifar", 5.0529968874779909, 58871349248},
        {"lola-mnist", 0.041356077601410954, 470122496},
        {"lola-mnist-ew", 0.057060876190476215, 618430464},
    };
    ASSERT_EQ(benchmarkNames().size(), std::size(pins));
    const CpuModel cpu(CpuKernelRates{4e8, 9e8, 7e8});
    for (const Pin &p : pins) {
        const HomProgram hp = benchmarkByName(p.name);
        EXPECT_DOUBLE_EQ(cpu.run(hp), p.seconds) << p.name;
        EXPECT_DOUBLE_EQ(CpuModel::scalarMultiplies(hp), p.multiplies)
            << p.name;
    }
}

TEST(KeyswitchCost, BoostedBeatsStandardAtHighL)
{
    // Sec 8: boosted keyswitching wins for L > 14.
    const std::size_t n = 1 << 16;
    // Digits of alpha towers: alpha = l is boosted 1-digit, alpha = 1
    // the standard algorithm.
    auto mults = [&](unsigned l, unsigned alpha) {
        const opcost::KeySwitch k = opcost::keySwitch(l, alpha, n);
        return k.chipNtts() * 8.0 * n +
               static_cast<double>(k.chipCrbMacs() + k.chipMuls()) * n;
    };
    const double b30 = mults(30, 30);
    const double s30 = mults(30, 1);
    EXPECT_LT(b30, s30);
    const double b6 = mults(6, 6);
    const double s6 = mults(6, 1);
    EXPECT_LT(s6, b6 * 2); // comparable at low L
}

} // namespace
} // namespace cl
