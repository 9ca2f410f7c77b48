/** Tests for boosted keyswitching across digit variants (Sec 3). */

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "ckks/encryptor.h"
#include "ckks/evaluator.h"
#include "rns/simd/kernels.h"

#include "../rns/kernel_test_util.h"

namespace cl {
namespace {

/**
 * Parameter: digit size alphaKs. alphaKs = L is 1-digit boosted;
 * alphaKs = 1 degenerates to standard keyswitching; intermediate
 * values are the t-digit variants of Sec 3.1.
 */
class KeySwitchTest : public ::testing::TestWithParam<unsigned>
{
  protected:
    void
    SetUp() override
    {
        CkksParams p = CkksParams::testSmall();
        p.l = 6;
        p.alpha = 6; // enough special moduli for every digit size
        p.firstModBits = 55;
        p.scaleBits = 40;
        p.specialBits = 55;
        ctx_ = std::make_unique<CkksContext>(p);
        enc_ = std::make_unique<CkksEncoder>(*ctx_);
        keygen_ = std::make_unique<KeyGenerator>(*ctx_);
        pk_ = keygen_->genPublicKey();
        encryptor_ = std::make_unique<Encryptor>(*ctx_, pk_);
        decryptor_ =
            std::make_unique<Decryptor>(*ctx_, keygen_->secretKey());
        eval_ = std::make_unique<Evaluator>(*ctx_);
    }

    std::vector<Complex>
    randomReals(std::uint64_t seed)
    {
        FastRng rng(seed);
        std::vector<Complex> v(ctx_->slots());
        for (auto &z : v)
            z = Complex(rng.nextDouble() * 2 - 1, 0);
        return v;
    }

    double
    maxError(const std::vector<Complex> &a, const std::vector<Complex> &b)
    {
        double m = 0;
        for (std::size_t i = 0; i < a.size(); ++i)
            m = std::max(m, std::abs(a[i] - b[i]));
        return m;
    }

    std::unique_ptr<CkksContext> ctx_;
    std::unique_ptr<CkksEncoder> enc_;
    std::unique_ptr<KeyGenerator> keygen_;
    PublicKey pk_;
    std::unique_ptr<Encryptor> encryptor_;
    std::unique_ptr<Decryptor> decryptor_;
    std::unique_ptr<Evaluator> eval_;
};

TEST_P(KeySwitchTest, MultiplicationCorrectUnderVariant)
{
    const unsigned alpha_ks = GetParam();
    auto a = randomReals(1), b = randomReals(2);
    const double s = ctx_->params().scale();
    auto rlk = keygen_->genRelinKey(alpha_ks);
    EXPECT_EQ(rlk.alphaKs, alpha_ks);
    EXPECT_EQ(rlk.digits(), ceilDiv(ctx_->l(), alpha_ks));

    auto ca = encryptor_->encryptValues(*enc_, a, s, ctx_->l());
    auto cb = encryptor_->encryptValues(*enc_, b, s, ctx_->l());
    auto prod = eval_->multiply(ca, cb, rlk);
    eval_->rescale(prod);
    auto back = decryptor_->decryptValues(*enc_, prod);
    std::vector<Complex> expect(a.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        expect[i] = a[i] * b[i];
    EXPECT_LT(maxError(expect, back), 1e-3);
}

TEST_P(KeySwitchTest, RotationCorrectUnderVariant)
{
    const unsigned alpha_ks = GetParam();
    auto a = randomReals(3);
    const double s = ctx_->params().scale();
    auto key = keygen_->genRotationKey(3, alpha_ks);
    auto ct = encryptor_->encryptValues(*enc_, a, s, ctx_->l());
    auto rot = eval_->rotateByGalois(ct, eval_->galoisFromSteps(3), key);
    auto back = decryptor_->decryptValues(*enc_, rot);
    const std::size_t n = ctx_->slots();
    std::vector<Complex> expect(n);
    for (std::size_t i = 0; i < n; ++i)
        expect[i] = a[(i + 3) % n];
    EXPECT_LT(maxError(expect, back), 1e-3);
}

TEST_P(KeySwitchTest, WorksAtReducedLevels)
{
    // The same hint serves every level: digits shrink with the basis.
    const unsigned alpha_ks = GetParam();
    auto a = randomReals(4), b = randomReals(5);
    const double s = ctx_->params().scale();
    auto rlk = keygen_->genRelinKey(alpha_ks);
    auto ca = encryptor_->encryptValues(*enc_, a, s, ctx_->l());
    auto cb = encryptor_->encryptValues(*enc_, b, s, ctx_->l());
    eval_->levelDrop(ca, 3);
    eval_->levelDrop(cb, 3);
    auto prod = eval_->multiply(ca, cb, rlk);
    eval_->rescale(prod);
    auto back = decryptor_->decryptValues(*enc_, prod);
    std::vector<Complex> expect(a.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        expect[i] = a[i] * b[i];
    EXPECT_LT(maxError(expect, back), 1e-3);
}

TEST_P(KeySwitchTest, HintFootprintMatchesPaperFormula)
{
    // Sec 3.1: a t-digit hint takes t+1 ciphertexts. In words:
    // dnum pairs over (L + alpha) moduli ≈ (t+1) * (2 L N) when
    // alpha = L/t.
    const unsigned alpha_ks = GetParam();
    auto rlk = keygen_->genRelinKey(alpha_ks);
    const unsigned l = ctx_->l();
    const unsigned t = rlk.digits();
    const std::size_t words = rlk.storedWords(false);
    const std::size_t expect =
        2ull * t * (l + alpha_ks) * ctx_->n();
    EXPECT_EQ(words, expect);
    // KSHGen halves stored hint data.
    EXPECT_EQ(rlk.storedWords(true), expect / 2);
}

TEST_P(KeySwitchTest, SeededHalvesRegenerateExactly)
{
    // Every tower of every a_j re-expands from (seed, domain) through
    // the scalar RejectionSampler — the KSHGen property (Sec 5.2) —
    // whichever kernel table's Keccak lanes generated it. The
    // extended bases here hold 7, 8, 9 and 12 towers, so the last
    // Keccak group is often partly empty.
    const unsigned alpha_ks = GetParam();
    test::TableGuard table_guard;
    for (test::TableId id : test::availableTables(true)) {
        setKernelTable(*test::tableFor(id));
        const SwitchKey keys[] = {keygen_->genRelinKey(alpha_ks),
                                  keygen_->genRotationKey(3, alpha_ks)};
        for (const SwitchKey &key : keys) {
            ASSERT_EQ(key.digits(), ceilDiv(ctx_->l(), alpha_ks));
            for (unsigned j = 0; j < key.digits(); ++j) {
                const RnsPoly &a = key.a[j];
                ASSERT_EQ(a.towers(), ctx_->l() + alpha_ks);
                for (std::size_t t = 0; t < a.towers(); ++t) {
                    // KeyGenerator's domain layout: the key's domain,
                    // the digit, then the tower's chain index.
                    RejectionSampler sampler(
                        key.seed,
                        ((key.domain << 8) + j) * 0x10000 + a.modIdx()[t],
                        a.modulus(t));
                    std::vector<u64> regen(ctx_->n());
                    sampler.fill(regen.data(), ctx_->n());
                    EXPECT_TRUE(std::ranges::equal(regen, a.residue(t)))
                        << test::tableName(id) << " domain " << key.domain
                        << " digit " << j << " tower " << t;
                }
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(DigitSizes, KeySwitchTest,
                         ::testing::Values(1u, 2u, 3u, 6u));

} // namespace
} // namespace cl
