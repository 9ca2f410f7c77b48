/**
 * Cross-checks the one op-cost model (util/opcost.h) in both
 * directions:
 *
 *  - host: every Evaluator stage, run over a grid of (level, digit
 *    size), moves the kernel counters (util/instrument.h) by exactly
 *    the host terms, and charges the OpCounter the same;
 *  - chip: lowering a one-op program of every HomOpKind yields
 *    LowerStats equal to the chip terms, with and without the CRB
 *    and chaining.
 *
 * The expected sums are written out here from the stage fields, not
 * taken from homOpCost(), so a consumer that drops or adds a term is
 * caught.
 */

#include <gtest/gtest.h>

#include <memory>

#include "ckks/encryptor.h"
#include "ckks/evaluator.h"
#include "compiler/lower.h"
#include "util/instrument.h"
#include "util/opcost.h"

namespace cl {
namespace {

using opcost::Counts;

Counts
operator+(const Counts &a, const Counts &b)
{
    return {a.ntts + b.ntts, a.mults + b.mults, a.adds + b.adds,
            a.automorphisms + b.automorphisms};
}

Counts
times(unsigned k, const Counts &c)
{
    return {k * c.ntts, k * c.mults, k * c.adds, k * c.automorphisms};
}

// ---------------------------------------------------------------------
// Host side.

class HostOpCostTest : public ::testing::Test
{
  protected:
    static constexpr unsigned kL = 6;
    /** Digit sizes: the standard algorithm, a short last digit
     *  (6 = 4 + 2) and one digit. */
    static constexpr unsigned kAlphas[] = {1, 4, kL};

    static void
    SetUpTestSuite()
    {
        // logN 14: an extended basis of 8 or more towers reaches
        // Evaluator::kTileMinBytes, so the grid runs both inner
        // product paths.
        CkksParams p;
        p.logN = 14;
        p.l = kL;
        p.alpha = kL;
        ctx_ = new CkksContext(p);
        enc_ = new CkksEncoder(*ctx_);
        keygen_ = new KeyGenerator(*ctx_);
        pk_ = new PublicKey(keygen_->genPublicKey());
        eval_ = new Evaluator(*ctx_);
        for (unsigned i = 0; i < std::size(kAlphas); ++i) {
            relin_[i] = keygen_->genRelinKey(kAlphas[i]);
            rot_[i] = keygen_->genRotationKey(1, kAlphas[i]);
        }
    }

    static void
    TearDownTestSuite()
    {
        delete eval_;
        delete pk_;
        delete keygen_;
        delete enc_;
        delete ctx_;
    }

    Ciphertext
    encryptAt(unsigned level) const
    {
        std::vector<Complex> v(ctx_->slots(), Complex(0.25, 0));
        const double scale = ctx_->params().scale();
        Encryptor encryptor(*ctx_, *pk_, 7 + level);
        return encryptor.encrypt(enc_->encode(v, scale, level), scale);
    }

    /** Runs @p body and checks that the kernel counters moved by
     *  @p want and that the OpCounter charged the same. */
    template <class F>
    void
    expectCounts(const Counts &want, F &&body, const std::string &what)
    {
        const OpCounter before = ctx_->ops();
        const KernelCounts k0 = kernelCounters().snapshot();
        body();
        const KernelCounts meas = kernelCounters().snapshot() - k0;
        EXPECT_EQ(meas.ntts, want.ntts) << what;
        EXPECT_EQ(meas.mults, want.mults) << what;
        EXPECT_EQ(meas.adds, want.adds) << what;
        EXPECT_EQ(meas.automorphisms, want.automorphisms) << what;
        const OpCounter &after = ctx_->ops();
        EXPECT_EQ(after.ntts - before.ntts, meas.ntts) << what;
        EXPECT_EQ(after.polyMults - before.polyMults, meas.mults) << what;
        EXPECT_EQ(after.polyAdds - before.polyAdds, meas.adds) << what;
        EXPECT_EQ(after.automorphisms - before.automorphisms,
                  meas.automorphisms)
            << what;
    }

    static CkksContext *ctx_;
    static CkksEncoder *enc_;
    static KeyGenerator *keygen_;
    static PublicKey *pk_;
    static Evaluator *eval_;
    static SwitchKey relin_[std::size(kAlphas)];
    static SwitchKey rot_[std::size(kAlphas)];
};

CkksContext *HostOpCostTest::ctx_ = nullptr;
CkksEncoder *HostOpCostTest::enc_ = nullptr;
KeyGenerator *HostOpCostTest::keygen_ = nullptr;
PublicKey *HostOpCostTest::pk_ = nullptr;
Evaluator *HostOpCostTest::eval_ = nullptr;
SwitchKey HostOpCostTest::relin_[std::size(kAlphas)];
SwitchKey HostOpCostTest::rot_[std::size(kAlphas)];

TEST_F(HostOpCostTest, KeyswitchStagesMatchKernelCounters)
{
    const std::size_t n = ctx_->n();
    const std::size_t galois = eval_->galoisFromSteps(1);
    unsigned tiled = 0, untiled = 0;
    for (unsigned i = 0; i < std::size(kAlphas); ++i) {
        const unsigned alpha = kAlphas[i];
        for (unsigned l : {kL, kL - 1, 3u, 1u}) {
            const std::string what = "l=" + std::to_string(l) +
                                     " alpha=" + std::to_string(alpha);
            const opcost::KeySwitch k = opcost::keySwitch(l, alpha, n);
            const Ciphertext ct = encryptAt(l);
            const bool tile =
                u64{k.ext} * n * 8 >= Evaluator::kTileMinBytes;
            (tile ? tiled : untiled)++;

            KeySwitchDigits digits;
            expectCounts(
                k.hostModUp(),
                [&] { digits = eval_->decompose(ct.c1, alpha); },
                what + " decompose");
            expectCounts(
                k.hostInnerProduct(),
                [&] { eval_->innerProduct(digits, relin_[i]); },
                what + " innerProduct");
            std::pair<RnsPoly, RnsPoly> acc;
            expectCounts(
                k.hostInnerProduct(),
                [&] { acc = eval_->innerProduct(digits, relin_[i], 1); },
                what + " innerProduct galois 1");
            expectCounts(
                k.hostInnerProduct() + k.hostDigitRotation(),
                [&] { eval_->innerProduct(digits, rot_[i], galois); },
                what + " innerProduct galois " + std::to_string(galois));
            expectCounts(
                k.hostDigitRotation(),
                [&] { eval_->automorphismDigits(digits, galois); },
                what + " automorphismDigits");
            expectCounts(
                k.hostModDown(), [&] { eval_->modDown(acc.first); },
                what + " modDown");

            const Counts ksw = k.hostModUp() + k.hostInnerProduct() +
                               times(2, k.hostModDown());
            const Counts combine{0, 0, k.combineAdds, 0};
            expectCounts(
                opcost::tensor(l).host() + ksw + combine,
                [&] { eval_->multiply(ct, ct, relin_[i]); },
                what + " multiply");
            expectCounts(
                opcost::square(l).host() + ksw + combine,
                [&] { eval_->square(ct, relin_[i]); }, what + " square");
            expectCounts(
                opcost::rotation(l).host() + ksw + k.hostDigitRotation(),
                [&] { eval_->rotateByGalois(ct, galois, rot_[i]); },
                what + " rotate");
        }
    }
    EXPECT_GT(tiled, 0u);
    EXPECT_GT(untiled, 0u);
}

TEST_F(HostOpCostTest, RescaleAndModRaiseMatchKernelCounters)
{
    for (unsigned l : {kL, 3u, 2u}) {
        Ciphertext ct = encryptAt(l);
        // The chip's algorithm: per polynomial, one INTT of the dropped
        // tower and one NTT per kept tower.
        EXPECT_EQ(opcost::rescale(l, l - 1).host().ntts, 2u * l);
        expectCounts(opcost::rescale(l, l - 1).host(),
                     [&] { eval_->rescale(ct); },
                     "rescale l=" + std::to_string(l));
    }
    for (unsigned l : {1u, 2u, 5u}) {
        const Ciphertext ct = encryptAt(l);
        for (unsigned lo = l + 1; lo <= kL; lo += 2) {
            expectCounts(opcost::modRaise(l, lo).host(),
                         [&] { eval_->modRaise(ct, lo); },
                         "modRaise " + std::to_string(l) + " -> " +
                             std::to_string(lo));
        }
    }
}

// ---------------------------------------------------------------------
// Chip side.

struct ChipCase
{
    HomOpKind kind;
    unsigned level;
    unsigned digits; ///< Keyswitch digit count t.
    unsigned out;    ///< Output level (drop or raise target).
};

std::string
describe(const ChipCase &c)
{
    return "kind=" + std::to_string(static_cast<int>(c.kind)) +
           " l=" + std::to_string(c.level) +
           " t=" + std::to_string(c.digits) +
           " out=" + std::to_string(c.out);
}

/** One op of @p c's kind on an input at its level. */
HomProgram
oneOpProgram(const ChipCase &c, unsigned logn)
{
    const unsigned t = c.digits;
    HomBuilder b("one-op", logn, 60, [t](unsigned) { return t; });
    const HomBuilder::Ct a = b.input(c.level);
    const unsigned drop = c.level - std::min(c.out, c.level);
    switch (c.kind) {
      case HomOpKind::Input:
        break;
      case HomOpKind::Add:
        b.add(a, a);
        break;
      case HomOpKind::AddPlain:
        b.addPlain(a, "p");
        break;
      case HomOpKind::MulPlain:
        b.mulPlain(a, "p", drop);
        break;
      case HomOpKind::Mul:
        b.mul(a, a, drop);
        break;
      case HomOpKind::Rotate:
        b.rotate(a, 3);
        break;
      case HomOpKind::Conjugate:
        b.conjugate(a);
        break;
      case HomOpKind::Rescale:
        b.rescale(a, drop);
        break;
      case HomOpKind::LevelDrop:
        b.levelDrop(a, c.out);
        break;
      case HomOpKind::ModRaise:
        b.modRaise(a, c.out);
        break;
      case HomOpKind::Output:
        b.output(a);
        break;
    }
    HomProgram hp = b.take();
    EXPECT_EQ(hp.ops.back().kind, c.kind) << describe(c);
    return hp;
}

/** LowerStats the chip terms predict for @p c. */
LowerStats
chipStats(const ChipCase &c, std::size_t n)
{
    const unsigned l = c.level;
    LowerStats s;
    const bool keyswitch = c.kind == HomOpKind::Mul ||
                           c.kind == HomOpKind::Rotate ||
                           c.kind == HomOpKind::Conjugate;
    if (keyswitch) {
        // The chip's digit size: ceil(l / t) towers.
        const opcost::KeySwitch k = opcost::keySwitch(
            l, static_cast<unsigned>(ceilDiv(l, c.digits)), n);
        s.keyswitches = 1;
        s.nttVectors += k.modUpIntts + k.modUpNtts + k.modDownNtts;
        // Single-prime digits lift by broadcast: no CRB MACs.
        s.crbMacVectors += k.modUpMacs + k.modDownMacs;
        s.mulVectors += k.hintMacs + k.pInvMuls;
        s.addVectors += k.hintMacs + k.subAdds + k.combineAdds;
    }
    const opcost::Rescale r =
        c.out < l ? opcost::rescale(l, c.out) : opcost::Rescale{};
    switch (c.kind) {
      case HomOpKind::Mul:
        s.mulVectors += opcost::tensor(l).muls + r.muls;
        s.addVectors += opcost::tensor(l).adds + r.adds;
        s.nttVectors += r.droppedIntts + r.keptNtts;
        break;
      case HomOpKind::Rescale:
        s.mulVectors += r.muls;
        s.addVectors += r.adds;
        s.nttVectors += r.droppedIntts + r.keptNtts;
        break;
      case HomOpKind::MulPlain:
        // The fused rescale's correction multiply rides the plaintext
        // multiply.
        s.mulVectors += 2ull * l;
        s.addVectors += r.adds;
        s.nttVectors += r.droppedIntts + r.keptNtts;
        break;
      case HomOpKind::Add:
        s.addVectors += 2ull * l;
        break;
      case HomOpKind::AddPlain:
        s.addVectors += l;
        break;
      case HomOpKind::ModRaise: {
        const opcost::ModRaise m = opcost::modRaise(l, c.out);
        s.nttVectors += m.ntts;
        s.crbMacVectors += m.macs;
        break;
      }
      default:
        break;
    }
    return s;
}

TEST(ChipOpCost, LowerStatsMatchChipTermsForEveryKind)
{
    const unsigned logn = 14;
    std::vector<ChipCase> cases;
    // (l, t): one digit, t | l, ceil(l/t)-tower digits that need fewer
    // than t digits (12 towers in 4 digits of 3 for t = 5), a short
    // last digit, and the standard algorithm.
    const std::pair<unsigned, unsigned> ksw[] = {
        {12, 1}, {12, 3}, {12, 5}, {11, 2}, {8, 8}};
    for (auto [l, t] : ksw) {
        for (HomOpKind k : {HomOpKind::Rotate, HomOpKind::Conjugate})
            cases.push_back({k, l, t, l});
        cases.push_back({HomOpKind::Mul, l, t, l});     // lazy
        cases.push_back({HomOpKind::Mul, l, t, l - 2}); // rescaled
    }
    for (unsigned l : {1u, 7u, 12u}) {
        for (HomOpKind k : {HomOpKind::Input, HomOpKind::Add,
                            HomOpKind::AddPlain, HomOpKind::Output})
            cases.push_back({k, l, 1, l});
        cases.push_back({HomOpKind::MulPlain, l, 1, l});
        cases.push_back({HomOpKind::ModRaise, l, 1, l + 9});
        if (l > 1) {
            cases.push_back({HomOpKind::MulPlain, l, 1, l - 1});
            cases.push_back({HomOpKind::Rescale, l, 1, l - 1});
            cases.push_back({HomOpKind::LevelDrop, l, 1, 1});
        }
    }
    cases.push_back({HomOpKind::Rescale, 12, 1, 9});

    unsigned kinds_seen = 0;
    for (const ChipCase &c : cases) {
        kinds_seen |= 1u << static_cast<unsigned>(c.kind);
        const HomProgram hp = oneOpProgram(c, logn);
        const LowerStats want = chipStats(c, hp.n());
        for (const ChipConfig &cfg :
             {ChipConfig::craterLake(), ChipConfig::noCrbNoChain()}) {
            Lowering lowering(cfg);
            lowering.lower(hp);
            const LowerStats &got = lowering.stats();
            const std::string what = describe(c) + " on " + cfg.name;
            EXPECT_EQ(got.keyswitches, want.keyswitches) << what;
            EXPECT_EQ(got.nttVectors, want.nttVectors) << what;
            EXPECT_EQ(got.mulVectors, want.mulVectors) << what;
            EXPECT_EQ(got.addVectors, want.addVectors) << what;
            EXPECT_EQ(got.crbMacVectors, want.crbMacVectors) << what;
        }
    }
    EXPECT_EQ(kinds_seen,
              (1u << (static_cast<unsigned>(HomOpKind::Output) + 1)) - 1)
        << "every HomOpKind is covered";
}

} // namespace
} // namespace cl
