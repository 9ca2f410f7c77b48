/** Tests for the hom-op builder and lowering pass. */

#include <gtest/gtest.h>

#include "compiler/lower.h"
#include "sim/simulator.h"

namespace cl {
namespace {

TEST(HomBuilder, LevelTracking)
{
    HomBuilder b("t", 12, 10);
    auto a = b.input(10);
    auto c = b.mul(a, a, 2);
    EXPECT_EQ(c.level, 8u);
    auto d = b.mulPlain(c, "w", 1);
    EXPECT_EQ(d.level, 7u);
    auto e = b.rotate(d, 3);
    EXPECT_EQ(e.level, 7u);
    b.output(e);
    const HomProgram p = b.take();
    EXPECT_EQ(p.countKind(HomOpKind::Mul), 1u);
    EXPECT_EQ(p.countKind(HomOpKind::Rotate), 1u);
}

TEST(HomBuilder, RotateByZeroIsNoOp)
{
    HomBuilder b("t", 12, 10);
    auto a = b.input(10);
    auto r = b.rotate(a, 0);
    EXPECT_EQ(r.op, a.op);
    EXPECT_EQ(b.program().countKind(HomOpKind::Rotate), 0u);
}

TEST(HomBuilder, DigitPolicyAppliedPerLevel)
{
    HomBuilder b("t", 16, 57, digitPolicy80());
    auto a = b.input(57);
    auto m1 = b.mul(a, a, 2); // at level 57 > 52: 2 digits
    auto m2 = b.mul(m1, m1, 2); // at 55 > 52: 2 digits
    b.levelDrop(m2, 40);
    const HomProgram p = b.program();
    EXPECT_EQ(p.ops[1].digits, 2u);
    auto low = b.input(40);
    auto m3 = b.mul(low, low, 2); // below 52: 1 digit
    EXPECT_EQ(b.program().ops[m3.op].digits, 1u);
}

TEST(HomBuilder, BootstrapRestoresBudget)
{
    HomBuilder b("t", 16, 57);
    auto a = b.input(3);
    auto r = b.bootstrap(a);
    EXPECT_GT(r.level, 15u);
    EXPECT_LE(r.level, 57u - b.bootLevels() + b.shape.stcStages * 2 + 4);
    // The graph contains ModRaise, rotations, and multiplies.
    const HomProgram p = b.program();
    EXPECT_EQ(p.countKind(HomOpKind::ModRaise), 1u);
    EXPECT_GT(p.countKind(HomOpKind::Rotate), 20u);
    EXPECT_GT(p.countKind(HomOpKind::Mul), 5u);
}

TEST(HomBuilder, BudgetExhaustionDies)
{
    HomBuilder b("t", 12, 4);
    auto a = b.input(2);
    EXPECT_DEATH(b.mul(a, a, 2), "budget");
}

TEST(Lowering, ProgramValidates)
{
    HomBuilder b("t", 14, 12);
    auto a = b.input(12);
    auto c = b.mul(a, a, 2);
    auto d = b.rotate(c, 5);
    b.output(d);
    Lowering lower(ChipConfig::craterLake());
    Program p = lower.lower(b.take());
    EXPECT_GT(p.size(), 5u);
    p.validate(); // dies on inconsistency
    EXPECT_EQ(lower.stats().keyswitches, 2u);
}

TEST(Lowering, Table1OpCountsAtL60)
{
    // A single ct-ct multiply at L=60 with a 1-digit hint must show
    // Table 1's boosted keyswitching counts: 3L^2 CRB MACs, 6L NTTs.
    HomBuilder b("t", 16, 60, [](unsigned) { return 1u; });
    auto a = b.input(60);
    b.mul(a, a, 2);
    Lowering lower(ChipConfig::craterLake());
    lower.lower(b.take());
    const LowerStats &s = lower.stats();
    EXPECT_EQ(s.crbMacVectors, 3u * 60 * 60);
    // 6L keyswitch NTTs plus the rescale's: 2 dropped towers to
    // coefficient form and the correction into the 58 kept ones, per
    // polynomial.
    EXPECT_EQ(s.nttVectors, 6u * 60 + 2u * 2 + 2u * 58);
}

TEST(Lowering, KshFootprintHalvedByKshGen)
{
    HomBuilder b("t", 14, 12, [](unsigned) { return 1u; });
    auto a = b.input(12);
    b.rotate(a, 1);
    auto count_ksh_words = [&](const ChipConfig &cfg) {
        Lowering lower(cfg);
        Program p = lower.lower(b.program());
        std::uint64_t words = 0;
        for (const auto &v : p.values) {
            if (v.kind == ValueKind::KeySwitchHint)
                words += v.words;
        }
        return words;
    };
    const auto with = count_ksh_words(ChipConfig::craterLake());
    const auto without = count_ksh_words(ChipConfig::noKshGen());
    EXPECT_EQ(without, 2 * with);
}

TEST(Lowering, HintSharedAcrossUses)
{
    HomBuilder b("t", 14, 12, [](unsigned) { return 1u; });
    auto a = b.input(12);
    auto r1 = b.rotate(a, 1);
    auto r2 = b.rotate(r1, 1); // same key
    b.rotate(r2, 2);           // different key
    Lowering lower(ChipConfig::craterLake());
    Program p = lower.lower(b.take());
    std::size_t hints = 0;
    for (const auto &v : p.values)
        hints += v.kind == ValueKind::KeySwitchHint ? 1 : 0;
    EXPECT_EQ(hints, 2u);
}

TEST(Lowering, UnchainedConfigEmitsPortHungryMacs)
{
    HomBuilder b("t", 14, 12, [](unsigned) { return 1u; });
    auto a = b.input(12);
    b.mul(a, a, 2);
    Lowering chained(ChipConfig::craterLake());
    Lowering unchained(ChipConfig::noCrbNoChain());
    Program pc = chained.lower(b.program());
    Program pu = unchained.lower(b.program());
    // The unchained program has more instructions (split stages).
    EXPECT_GT(pu.size(), pc.size());
    // And its MAC instructions request 3 ports per parallel stream.
    bool found_wide = false;
    for (const auto &inst : pu.insts)
        found_wide |= inst.rfPorts >= 9;
    EXPECT_TRUE(found_wide);
}

TEST(Lowering, StandardKeyswitchSkipsCrbMacs)
{
    // t = l (single-prime digits) is the standard algorithm: only
    // the mod-down conversion uses MACs.
    HomBuilder b("t", 14, 8, [](unsigned l) { return l; });
    auto a = b.input(8);
    b.rotate(a, 1);
    Lowering lower(ChipConfig::craterLake());
    lower.lower(b.take());
    EXPECT_EQ(lower.stats().crbMacVectors, 2u * 1 * 8); // mod-down only
}

TEST(Lowering, StatsDescribeOnlyTheLastProgram)
{
    HomBuilder ba("a", 14, 12, [](unsigned) { return 1u; });
    auto a = ba.input(12);
    ba.output(ba.rotate(ba.mul(a, a, 2), 1));
    HomBuilder bb("b", 14, 12, [](unsigned) { return 1u; });
    auto x = bb.input(12);
    bb.output(bb.mulPlain(bb.rotate(x, 3), "w", 1));

    Lowering fresh(ChipConfig::craterLake(), ScheduleMode::List);
    fresh.lower(bb.program());
    Lowering reused(ChipConfig::craterLake(), ScheduleMode::List);
    reused.lower(ba.program());
    reused.lower(bb.program());
    EXPECT_EQ(reused.stats(), fresh.stats());
    EXPECT_EQ(reused.stats().keyswitches, 1u);
    EXPECT_EQ(reused.scheduleStats().depEdges,
              fresh.scheduleStats().depEdges);
    EXPECT_EQ(reused.scheduleStats().criticalPathCycles,
              fresh.scheduleStats().criticalPathCycles);
}

TEST(Lowering, ExplicitRescaleCountsLikeTheFusedOne)
{
    // mul(a, a, 1) folds the rescale that rescale(mul(a, a, 0), 1)
    // emits explicitly; both execute the same vectors.
    auto stats_of = [](bool fused) {
        HomBuilder b("t", 14, 12, [](unsigned) { return 1u; });
        auto a = b.input(12);
        b.output(fused ? b.mul(a, a, 1) : b.rescale(b.mul(a, a, 0), 1));
        Lowering lower(ChipConfig::craterLake());
        lower.lower(b.take());
        return lower.stats();
    };
    const LowerStats fused = stats_of(true);
    const LowerStats lazy = stats_of(false);
    EXPECT_EQ(lazy, fused);
    EXPECT_GT(lazy.nttVectors, 0u);
}

TEST(Lowering, MulPlainRescaleCountsCorrectionAdds)
{
    auto adds_of = [](unsigned drop) {
        HomBuilder b("t", 14, 12);
        b.mulPlain(b.input(12), "w", drop);
        Lowering lower(ChipConfig::craterLake());
        lower.lower(b.take());
        return lower.stats().addVectors;
    };
    EXPECT_EQ(adds_of(0), 0u);
    EXPECT_EQ(adds_of(1), 2u * 11); // 2 * outLevel correction adds
}

TEST(Lowering, NamesRenderOpIdAndStage)
{
    HomBuilder b("t", 14, 12, [](unsigned) { return 1u; });
    auto a = b.input(12);
    b.output(b.mulPlain(b.rotate(a, 1), "w", 1));
    Lowering lower(ChipConfig::craterLake());
    const Program p = lower.lower(b.take());
    std::vector<std::string> insts, values;
    for (const PolyInst &inst : p.insts)
        insts.push_back(instName(inst));
    for (const Value &v : p.values)
        values.push_back(valueName(v));
    EXPECT_EQ(insts, (std::vector<std::string>{
                         "op1.auto", "op1.ksw.modup", "op1.ksw.mac",
                         "op1.ksw.moddown", "op2.mulp", "op3.store"}));
    EXPECT_EQ(values, (std::vector<std::string>{
                          "op0.in", "op1.rot", "op1.out", "rot.1.t1#d1",
                          "op1.raised", "op1.acc", "op2.prod", "w@l12",
                          "op3.out"}));
}

namespace {

/**
 * Audit every emitted instruction against the throughput invariant:
 * an FU stage of V vectors on U acquired units cannot finish in fewer
 * than ceil(V/U) vector-issue slots, and no stage may request more
 * units than the configuration has. Catches any site that computes
 * `duration` from more parallelism than its FuUse actually acquires.
 */
void
checkThroughputInvariant(const ChipConfig &cfg, const Program &p)
{
    const std::uint64_t vc = cfg.vectorCycles(p.n);
    const std::uint64_t bfly =
        static_cast<std::uint64_t>(p.n) * log2Exact(p.n) / 2;
    for (const PolyInst &inst : p.insts) {
        for (const FuUse &use : inst.fus) {
            EXPECT_LE(use.units, cfg.fuCount(use.type))
                << instName(inst) << " oversubscribes "
                << fuTypeName(use.type);
            std::uint64_t vecs = 0;
            switch (use.type) {
              case FuType::Ntt:
                vecs = use.laneOps / bfly;
                break;
              case FuType::Multiply:
              case FuType::Add:
              case FuType::Automorphism:
                vecs = use.laneOps / p.n;
                break;
              default:
                continue; // CRB/KSHGen/transpose: pipelined units
            }
            EXPECT_GE(inst.duration, ceilDiv(vecs, use.units) * vc)
                << instName(inst) << " underestimates "
                << fuTypeName(use.type) << " (" << vecs << " vecs on "
                << use.units << " units)";
        }
    }
}

/** Workload covering every lowering path: adds, plaintext ops, fused
 *  and explicit rescales, keyswitches, and a mod-raise. */
HomProgram
auditProgram()
{
    HomBuilder b("audit", 14, 16, [](unsigned l) { return l > 10 ? 2u
                                                                 : 1u; });
    auto a = b.input(14);
    auto c = b.mul(a, a, 2);
    auto d = b.addPlain(c, "w0");
    auto e = b.mulPlain(d, "w1", 1);
    auto f = b.rotate(e, 3);
    auto g = b.add(f, b.levelDrop(c, f.level));
    auto low = b.levelDrop(g, 2);
    auto raised = b.modRaise(low, 12);
    b.output(raised);
    return b.take();
}

} // namespace

TEST(Lowering, ThroughputInvariantAcrossConfigs)
{
    const HomProgram hp = auditProgram();
    std::vector<ChipConfig> cfgs = {
        ChipConfig::craterLake(), ChipConfig::noCrbNoChain(),
        ChipConfig::f1plus()};
    ChipConfig one_mul = ChipConfig::craterLake();
    one_mul.name = "craterlake-1mul";
    one_mul.mulUnits = 1;
    cfgs.push_back(one_mul);
    ChipConfig one_add = ChipConfig::craterLake();
    one_add.name = "craterlake-1add";
    one_add.addUnits = 1;
    cfgs.push_back(one_add);
    for (const ChipConfig &cfg : cfgs) {
        SCOPED_TRACE(cfg.name);
        Lowering lower(cfg);
        checkThroughputInvariant(cfg, lower.lower(hp));
    }
}

TEST(Lowering, HintMacDurationMatchesAcquiredUnits)
{
    // On a 1-multiplier chained config the hint MAC can only acquire
    // one multiply unit, so its latency is the full mac_vecs sweep —
    // not the 2-way-split wish the chained dataflow would prefer.
    ChipConfig cfg = ChipConfig::craterLake();
    cfg.mulUnits = 1;
    HomBuilder b("t", 14, 12, [](unsigned) { return 1u; });
    auto a = b.input(12);
    b.rotate(a, 1);
    Lowering lower(cfg);
    const Program p = lower.lower(b.take());
    const std::uint64_t vc = cfg.vectorCycles(p.n);
    bool found = false;
    for (const PolyInst &inst : p.insts) {
        if (instName(inst).find(".ksw.mac") == std::string::npos)
            continue;
        found = true;
        std::uint64_t mac_vecs = 0;
        for (const FuUse &use : inst.fus) {
            if (use.type == FuType::Multiply) {
                EXPECT_EQ(use.units, 1u);
                mac_vecs = use.laneOps / p.n;
            }
        }
        ASSERT_GT(mac_vecs, 0u);
        EXPECT_EQ(inst.duration, ceilDiv(mac_vecs, 1) * vc);
    }
    EXPECT_TRUE(found);
}

TEST(Lowering, HintCacheKeysOnDigitCount)
{
    // The same key identity used with different digit counts needs
    // differently shaped hints; caching on the key alone would hand
    // the second keyswitch a hint of the wrong size.
    HomProgram hp;
    hp.name = "ksh-digits";
    hp.logN = 14;
    hp.lMax = 12;
    HomOp in;
    in.id = 0;
    in.kind = HomOpKind::Input;
    in.level = in.outLevel = 12;
    hp.ops.push_back(in);
    HomOp r1;
    r1.id = 1;
    r1.kind = HomOpKind::Rotate;
    r1.args = {0};
    r1.level = r1.outLevel = 12;
    r1.rotateBy = 1;
    r1.keyId = "k";
    r1.digits = 2;
    hp.ops.push_back(r1);
    HomOp r2 = r1;
    r2.id = 2;
    r2.args = {1};
    r2.digits = 1;
    hp.ops.push_back(r2);

    const ChipConfig cfg = ChipConfig::craterLake();
    Lowering lower(cfg);
    const Program p = lower.lower(hp);

    // Two distinct hints: t=2 -> dnum 2, ext 18; t=1 -> dnum 1,
    // ext 24. With KSHGen, dnum*ext*N words each (b-halves only).
    const std::uint64_t n = p.n;
    std::vector<std::uint64_t> hint_words;
    for (const Value &v : p.values) {
        if (v.kind == ValueKind::KeySwitchHint)
            hint_words.push_back(v.words);
    }
    ASSERT_EQ(hint_words.size(), 2u);
    EXPECT_EQ(hint_words[0], 2u * 18 * n);
    EXPECT_EQ(hint_words[1], 1u * 24 * n);

    // The corrected hint traffic: each hint loaded exactly once.
    Simulator sim(cfg);
    const SimStats stats = sim.run(p);
    EXPECT_EQ(stats.kshLoadWords, 2u * 18 * n + 1u * 24 * n);
}

TEST(Lowering, NetworkWordsMatchSec43)
{
    // A homomorphic mult at level l moves ~8 N l words between lane
    // groups; a rotation ~10 N l (Sec 4.3).
    const unsigned l = 12;
    HomBuilder b("t", 14, l, [](unsigned) { return 1u; });
    auto a = b.input(l);
    b.mul(a, a, 2);
    Lowering lower(ChipConfig::craterLake());
    Program p = lower.lower(b.take());
    std::uint64_t net = 0;
    for (const auto &inst : p.insts)
        net += inst.networkWords;
    const double nl = static_cast<double>(p.n) * l;
    EXPECT_GT(net, 6.0 * nl);
    EXPECT_LT(net, 11.0 * nl);
}

} // namespace
} // namespace cl
