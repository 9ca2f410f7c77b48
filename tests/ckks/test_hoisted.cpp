/**
 * @file
 * Hoisted keyswitching and lazy-accumulation linear-transform tests.
 *
 * Contracts pinned here:
 *  - rotateByGaloisHoisted over shared digits is bit-identical to
 *    rotateByGalois (which lifts the digits freshly) for every digit
 *    variant, SIMD backend, and worker count;
 *  - the hoisted lazy linear transform pays exactly one digit
 *    decompose and two mod-downs per factored DFT stage that has a
 *    rotated diagonal, and one inner product per rotated diagonal;
 *  - it decrypts to the stages' cleartext product applied to the
 *    decrypted input, and is deterministic across backends and worker
 *    counts;
 *  - whole-ring rotations are identity at zero cost.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <set>

#include "ckks/bootstrap.h"
#include "ckks/encryptor.h"
#include "rns/simd/kernels.h"
#include "util/threadpool.h"

namespace cl {
namespace {

std::vector<SimdBackend>
availableBackends()
{
    std::vector<SimdBackend> v{SimdBackend::Scalar};
    for (SimdBackend b : {SimdBackend::Avx2, SimdBackend::Avx512}) {
        if (kernelTableFor(b))
            v.push_back(b);
    }
    return v;
}

class BackendGuard
{
  public:
    BackendGuard() : saved_(activeSimdBackend()) {}
    ~BackendGuard() { setSimdBackend(saved_); }

  private:
    SimdBackend saved_;
};

bool
sameCiphertext(const Ciphertext &a, const Ciphertext &b)
{
    return a.c0.data() == b.c0.data() && a.c1.data() == b.c1.data() &&
           a.scale == b.scale;
}

/** Parameter: digit size alphaKs, covering the boosted variants. */
class HoistedRotationTest : public ::testing::TestWithParam<unsigned>
{
  protected:
    void
    SetUp() override
    {
        CkksParams p = CkksParams::testSmall();
        p.l = 6;
        p.alpha = 6;
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

    void
    TearDown() override
    {
        ThreadPool::setGlobalThreads(1);
    }

    Ciphertext
    encryptRandom(std::uint64_t seed)
    {
        FastRng rng(seed);
        std::vector<Complex> v(ctx_->slots());
        for (auto &z : v)
            z = Complex(rng.nextDouble() * 2 - 1, 0);
        return encryptor_->encryptValues(*enc_, v,
                                         ctx_->params().scale(),
                                         ctx_->l());
    }

    std::unique_ptr<CkksContext> ctx_;
    std::unique_ptr<CkksEncoder> enc_;
    std::unique_ptr<KeyGenerator> keygen_;
    PublicKey pk_;
    std::unique_ptr<Encryptor> encryptor_;
    std::unique_ptr<Decryptor> decryptor_;
    std::unique_ptr<Evaluator> eval_;
};

TEST_P(HoistedRotationTest, MatchesFreshRotationBitExact)
{
    const unsigned alpha_ks = GetParam();
    const Ciphertext ct = encryptRandom(7);
    const KeySwitchDigits digits = eval_->decompose(ct.c1, alpha_ks);

    for (int steps : {1, 3, 5}) {
        auto key = keygen_->genRotationKey(steps, alpha_ks);
        const std::size_t g = eval_->galoisFromSteps(steps);
        const Ciphertext fresh = eval_->rotateByGalois(ct, g, key);
        const Ciphertext hoisted =
            eval_->rotateByGaloisHoisted(ct, g, key, digits);
        EXPECT_TRUE(sameCiphertext(fresh, hoisted)) << "steps=" << steps;
    }
}

TEST_P(HoistedRotationTest, DecryptsToRotatedSlots)
{
    const unsigned alpha_ks = GetParam();
    FastRng rng(11);
    std::vector<Complex> v(ctx_->slots());
    for (auto &z : v)
        z = Complex(rng.nextDouble() * 2 - 1, 0);
    const double s = ctx_->params().scale();
    const Ciphertext ct =
        encryptor_->encryptValues(*enc_, v, s, ctx_->l());
    const KeySwitchDigits digits = eval_->decompose(ct.c1, alpha_ks);

    const int steps = 3;
    auto key = keygen_->genRotationKey(steps, alpha_ks);
    const Ciphertext rot = eval_->rotateByGaloisHoisted(
        ct, eval_->galoisFromSteps(steps), key, digits);
    const auto back = decryptor_->decryptValues(*enc_, rot);
    const std::size_t n = ctx_->slots();
    double err = 0;
    for (std::size_t i = 0; i < n; ++i)
        err = std::max(err, std::abs(back[i] - v[(i + steps) % n]));
    EXPECT_LT(err, 1e-3);
}

TEST_P(HoistedRotationTest, SavesOneDecomposePerExtraRotation)
{
    const unsigned alpha_ks = GetParam();
    const Ciphertext ct = encryptRandom(13);
    const std::vector<int> rotations{1, 2, 3, 5};
    std::vector<SwitchKey> keys;
    for (int steps : rotations)
        keys.push_back(keygen_->genRotationKey(steps, alpha_ks));

    OpCounter &ops = ctx_->ops();

    // Per-decompose cost at this level, measured once.
    ops.reset();
    const KeySwitchDigits digits = eval_->decompose(ct.c1, alpha_ks);
    const OpCounter per_decompose = ops;
    ASSERT_EQ(per_decompose.decomposes, 1u);
    ASSERT_GT(per_decompose.ntts, 0u);

    // Naive: every rotation lifts the digits itself.
    ops.reset();
    for (std::size_t i = 0; i < rotations.size(); ++i) {
        eval_->rotateByGalois(ct, eval_->galoisFromSteps(rotations[i]),
                              keys[i]);
    }
    const OpCounter naive = ops;

    // Hoisted: one shared lift.
    ops.reset();
    const KeySwitchDigits shared = eval_->decompose(ct.c1, alpha_ks);
    for (std::size_t i = 0; i < rotations.size(); ++i) {
        eval_->rotateByGaloisHoisted(
            ct, eval_->galoisFromSteps(rotations[i]), keys[i], shared);
    }
    const OpCounter hoisted = ops;

    // The savings are exactly (rotations - 1) decompose stages — the
    // mod-up NTTs and base-conversion multiplies — and nothing else.
    const auto extra = static_cast<std::uint64_t>(rotations.size() - 1);
    EXPECT_EQ(naive.decomposes - hoisted.decomposes, extra);
    EXPECT_EQ(naive.ntts - hoisted.ntts, extra * per_decompose.ntts);
    EXPECT_EQ(naive.polyMults - hoisted.polyMults,
              extra * per_decompose.polyMults);
    EXPECT_EQ(naive.polyAdds - hoisted.polyAdds,
              extra * per_decompose.polyAdds);
    EXPECT_EQ(naive.innerProducts, hoisted.innerProducts);
    EXPECT_EQ(naive.modDowns, hoisted.modDowns);
    EXPECT_EQ(naive.automorphisms, hoisted.automorphisms);
}

TEST_P(HoistedRotationTest, BitIdenticalAcrossBackendsAndThreads)
{
    const unsigned alpha_ks = GetParam();
    const Ciphertext ct = encryptRandom(17);
    auto key = keygen_->genRotationKey(2, alpha_ks);
    const std::size_t g = eval_->galoisFromSteps(2);

    BackendGuard guard;
    ASSERT_TRUE(setSimdBackend(SimdBackend::Scalar));
    ThreadPool::setGlobalThreads(1);
    const KeySwitchDigits d0 = eval_->decompose(ct.c1, alpha_ks);
    const Ciphertext baseline =
        eval_->rotateByGaloisHoisted(ct, g, key, d0);

    for (SimdBackend b : availableBackends()) {
        for (unsigned threads : {1u, 4u}) {
            ASSERT_TRUE(setSimdBackend(b));
            ThreadPool::setGlobalThreads(threads);
            const KeySwitchDigits d = eval_->decompose(ct.c1, alpha_ks);
            for (std::size_t j = 0; j < d.u.size(); ++j) {
                EXPECT_TRUE(d.u[j].data() == d0.u[j].data())
                    << "digit " << j << " diverged on "
                    << simdBackendName(b) << "/" << threads;
            }
            const Ciphertext rot =
                eval_->rotateByGaloisHoisted(ct, g, key, d);
            EXPECT_TRUE(sameCiphertext(baseline, rot))
                << simdBackendName(b) << "/" << threads;
        }
    }
}

TEST_P(HoistedRotationTest, WholeRingRotationIsIdentityAtZeroCost)
{
    const unsigned alpha_ks = GetParam();
    const Ciphertext ct = encryptRandom(19);
    auto key = keygen_->genRotationKey(1, alpha_ks);
    const KeySwitchDigits digits = eval_->decompose(ct.c1, alpha_ks);
    const auto slots = static_cast<int>(ctx_->slots());

    OpCounter &ops = ctx_->ops();
    ops.reset();
    GaloisKeys gk;
    gk.keys.emplace(eval_->galoisFromSteps(1), key);
    for (int steps : {0, slots, -slots, 2 * slots}) {
        const Ciphertext r = eval_->rotate(ct, steps, gk);
        EXPECT_TRUE(sameCiphertext(ct, r)) << "steps=" << steps;
    }
    const Ciphertext r1 = eval_->rotateByGalois(ct, 1, key);
    const Ciphertext r2 = eval_->rotateByGaloisHoisted(ct, 1, key, digits);
    EXPECT_TRUE(sameCiphertext(ct, r1));
    EXPECT_TRUE(sameCiphertext(ct, r2));
    EXPECT_EQ(ops.decomposes, 0u);
    EXPECT_EQ(ops.innerProducts, 0u);
    EXPECT_EQ(ops.modDowns, 0u);
    EXPECT_EQ(ops.ntts, 0u);
    EXPECT_EQ(ops.automorphisms, 0u);
}

INSTANTIATE_TEST_SUITE_P(DigitSizes, HoistedRotationTest,
                         ::testing::Values(1u, 2u, 3u, 6u));

/** Linear-transform equivalence on the real bootstrap stages. */
class HoistedTransformTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        CkksParams p;
        p.logN = 9;
        p.l = 20;
        p.alpha = 20;
        p.firstModBits = 50;
        p.scaleBits = 55;
        p.specialBits = 55;
        p.secretHamming = 16;
        ctx_ = std::make_unique<CkksContext>(p);
        enc_ = std::make_unique<CkksEncoder>(*ctx_);
        keygen_ = std::make_unique<KeyGenerator>(*ctx_);
        pk_ = keygen_->genPublicKey();
        encryptor_ = std::make_unique<Encryptor>(*ctx_, pk_);
        decryptor_ =
            std::make_unique<Decryptor>(*ctx_, keygen_->secretKey());
        boot_ = std::make_unique<Bootstrapper>(*ctx_, *enc_, *keygen_);
    }

    void
    TearDown() override
    {
        ThreadPool::setGlobalThreads(1);
    }

    Ciphertext
    encryptRandom(std::uint64_t seed)
    {
        FastRng rng(seed);
        std::vector<Complex> v(ctx_->slots());
        for (auto &z : v)
            z = Complex(rng.nextDouble() - 0.5, rng.nextDouble() - 0.5);
        return encryptor_->encryptValues(*enc_, v,
                                         ctx_->params().scale(),
                                         ctx_->l());
    }

    std::unique_ptr<CkksContext> ctx_;
    std::unique_ptr<CkksEncoder> enc_;
    std::unique_ptr<KeyGenerator> keygen_;
    PublicKey pk_;
    std::unique_ptr<Encryptor> encryptor_;
    std::unique_ptr<Decryptor> decryptor_;
    std::unique_ptr<Bootstrapper> boot_;
};

TEST_F(HoistedTransformTest, HoistingSavesOneDecomposePerRotatedBaby)
{
    // Every nonzero diagonal offset of a stage is a rotation; they all
    // share one digit decompose, and their inner products accumulate
    // in the extended basis until one mod-down per component.
    const Ciphertext ct = encryptRandom(29);
    const auto stages = coeffToSlotStages(*enc_, BootstrapShape{}.ctsStages);
    std::uint64_t rotated_stages = 0, rotations = 0;
    for (const DftStage &st : stages) {
        std::set<std::size_t> rotated(st.offsets.begin(), st.offsets.end());
        rotated.erase(0);
        rotated_stages += rotated.empty() ? 0 : 1;
        rotations += rotated.size();
    }
    ASSERT_GT(rotations, rotated_stages);

    // Warm the diagonal cache so the measured pass sees cache hits.
    const LinearTransformMode lt = BootstrapParams{}.ltMode;
    boot_->applyCoeffToSlot(ct, lt);

    OpCounter &ops = ctx_->ops();
    ops.reset();
    boot_->applyCoeffToSlot(ct, lt);
    EXPECT_EQ(ops.decomposes, rotated_stages);
    EXPECT_EQ(ops.modDowns, 2 * rotated_stages);
    EXPECT_EQ(ops.innerProducts, rotations);
}

TEST_F(HoistedTransformTest, LazyDecryptsToSameTransform)
{
    // The homomorphic CoeffToSlot against its stages applied in
    // cleartext to the decrypted input, each as DftStage defines it:
    // out[j] = sum_i diags[i][j] * in[(j + offsets[i]) mod n].
    const Ciphertext ct = encryptRandom(31);
    const Ciphertext out =
        boot_->applyCoeffToSlot(ct, BootstrapParams{}.ltMode);

    std::vector<Complex> expect = decryptor_->decryptValues(*enc_, ct);
    const std::size_t n = expect.size();
    for (const DftStage &st :
         coeffToSlotStages(*enc_, BootstrapShape{}.ctsStages)) {
        std::vector<Complex> next(n);
        for (std::size_t i = 0; i < st.offsets.size(); ++i)
            for (std::size_t j = 0; j < n; ++j)
                next[j] += st.diags[i][j] * expect[(j + st.offsets[i]) % n];
        expect = std::move(next);
    }

    const auto got = decryptor_->decryptValues(*enc_, out);
    ASSERT_EQ(got.size(), n);
    double err = 0;
    for (std::size_t j = 0; j < n; ++j)
        err = std::max(err, std::abs(got[j] - expect[j]));
    EXPECT_LT(err, 1e-3);
}

TEST_F(HoistedTransformTest, LazyBitIdenticalAcrossBackendsAndThreads)
{
    const Ciphertext ct = encryptRandom(37);
    BackendGuard guard;
    ASSERT_TRUE(setSimdBackend(SimdBackend::Scalar));
    ThreadPool::setGlobalThreads(1);
    const LinearTransformMode lt = BootstrapParams{}.ltMode;
    const Ciphertext baseline = boot_->applyCoeffToSlot(ct, lt);

    for (SimdBackend b : availableBackends()) {
        for (unsigned threads : {1u, 4u}) {
            if (b == SimdBackend::Scalar && threads == 1)
                continue; // the baseline itself
            ASSERT_TRUE(setSimdBackend(b));
            ThreadPool::setGlobalThreads(threads);
            const Ciphertext out = boot_->applyCoeffToSlot(ct, lt);
            EXPECT_TRUE(sameCiphertext(baseline, out))
                << simdBackendName(b) << "/" << threads;
        }
    }
}

} // namespace
} // namespace cl
