/** Functional bootstrapping tests: the unbounded-computation core. */

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <memory>
#include <thread>

#include "ckks/bootstrap.h"
#include "runtime/hostrun.h"
#include "util/threadpool.h"

namespace cl {
namespace {

class BootstrapTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        CkksParams p;
        p.logN = 9; // small ring: the math is size-generic
        p.l = 20;
        p.alpha = 20;
        p.firstModBits = 50; // 2K*q0 == 2^55 == prime size: no scale drift
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
        eval_ = std::make_unique<Evaluator>(*ctx_);
        boot_ = std::make_unique<Bootstrapper>(*ctx_, *enc_, *keygen_);
    }

    void
    TearDown() override
    {
        ThreadPool::setGlobalThreads(1); // leave no workers behind
    }

    /** A fresh Bootstrapper (empty diagonal cache) with the fixture's
     *  exact keys: key generation is seeded from the parameters, so
     *  replaying the fixture's key-generation calls reproduces them. */
    std::unique_ptr<Bootstrapper>
    freshBootstrapper()
    {
        KeyGenerator kg(*ctx_);
        kg.genPublicKey();
        return std::make_unique<Bootstrapper>(*ctx_, *enc_, kg);
    }

    Ciphertext
    encryptAt(std::uint64_t seed, unsigned level)
    {
        return encryptor_->encrypt(
            enc_->encode(randomReals(seed, 0.5), appScale, level),
            appScale);
    }

    static std::uint64_t
    digest(const Ciphertext &ct)
    {
        return digestCiphertext(1469598103934665603ull, ct);
    }

    std::vector<Complex>
    randomReals(std::uint64_t seed, double mag)
    {
        FastRng rng(seed);
        std::vector<Complex> v(ctx_->slots());
        for (auto &z : v)
            z = Complex((rng.nextDouble() * 2 - 1) * mag, 0);
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

    static constexpr double appScale = 1099511627776.0; // 2^40

    std::unique_ptr<CkksContext> ctx_;
    std::unique_ptr<CkksEncoder> enc_;
    std::unique_ptr<KeyGenerator> keygen_;
    PublicKey pk_;
    std::unique_ptr<Encryptor> encryptor_;
    std::unique_ptr<Decryptor> decryptor_;
    std::unique_ptr<Evaluator> eval_;
    std::unique_ptr<Bootstrapper> boot_;
};

TEST_F(BootstrapTest, RefreshesExhaustedCiphertext)
{
    auto vals = randomReals(1, 0.5);
    // Encrypt at the *bottom* of the chain: multiplicative budget
    // exhausted, exactly the Fig 2 situation.
    auto ct = encryptor_->encrypt(enc_->encode(vals, appScale, 1),
                                  appScale);
    ASSERT_EQ(ct.level(), 1u);

    Ciphertext fresh = boot_->bootstrap(ct);
    EXPECT_GT(fresh.level(), 3u) << "bootstrap must restore budget";

    auto out = decryptor_->decryptValues(*enc_, fresh);
    EXPECT_LT(maxError(vals, out), 0.02);
}

TEST_F(BootstrapTest, RefreshedCiphertextSupportsMultiplication)
{
    // The point of bootstrapping: computation continues after the
    // refresh (unbounded multiplicative depth).
    auto vals = randomReals(2, 0.5);
    auto ct = encryptor_->encrypt(enc_->encode(vals, appScale, 1),
                                  appScale);
    Ciphertext fresh = boot_->bootstrap(ct);
    ASSERT_GT(fresh.level(), 1u);

    auto rlk = keygen_->genRelinKey();
    Ciphertext sq = eval_->square(fresh, rlk);
    eval_->rescale(sq);
    auto out = decryptor_->decryptValues(*enc_, sq);
    std::vector<Complex> expect(vals.size());
    for (std::size_t i = 0; i < vals.size(); ++i)
        expect[i] = vals[i] * vals[i];
    EXPECT_LT(maxError(expect, out), 0.05);
}

TEST_F(BootstrapTest, DepthUsedIsReasonable)
{
    auto vals = randomReals(3, 0.3);
    auto ct = encryptor_->encrypt(enc_->encode(vals, appScale, 1),
                                  appScale);
    boot_->bootstrap(ct);
    // The pipeline burns most of the chain but must leave usable
    // levels on a 20-level chain.
    EXPECT_GE(boot_->depthUsed(), 8u);
    EXPECT_LE(boot_->depthUsed(), 18u);
}

TEST_F(BootstrapTest, BitIdenticalAcrossWorkerCounts)
{
    // Bootstrapping runs its baby steps, giant steps, diagonal
    // encoding and the two EvalMod halves as concurrent tasks, each
    // writing only its own slot: the bytes must not depend on the
    // worker count, nor on running inside a graph worker (where every
    // parallelFor runs inline). Each count gets a fresh Bootstrapper
    // so the diagonal cache is also built at that count.
    const Ciphertext exhausted = encryptAt(4, 1);
    const Ciphertext top = encryptAt(5, ctx_->l());
    const Ciphertext mid = encryptAt(6, ctx_->l() / 2);
    const LinearTransformMode modes[] = {
        LinearTransformMode::Naive, LinearTransformMode::HoistedEager,
        LinearTransformMode::HoistedLazy};

    auto run = [&] {
        const auto boot = freshBootstrapper();
        std::vector<std::uint64_t> d = {digest(boot->bootstrap(exhausted))};
        for (LinearTransformMode mode : modes) {
            d.push_back(digest(boot->applyCoeffToSlot(top, mode)));
            d.push_back(digest(boot->applySlotToCoeff(mid, mode)));
        }
        return d;
    };

    ThreadPool::setGlobalThreads(1);
    const std::vector<std::uint64_t> ref = run();
    for (unsigned threads : {2u, 4u, 8u}) {
        ThreadPool::setGlobalThreads(threads);
        EXPECT_EQ(run(), ref) << "CL_THREADS=" << threads;
    }
    ThreadPool::WorkerScope scope;
    EXPECT_EQ(run(), ref) << "inside a WorkerScope";
}

TEST_F(BootstrapTest, ConcurrentModesShareTheDiagonalCache)
{
    // A Naive and a HoistedLazy transform racing on a fresh cache: the
    // lazy caller upgrades the entry with ext-basis plaintexts while
    // the naive caller may be reading its data-basis plaintexts. The
    // upgrade fills the entry in place, so both see the bytes a
    // serial run produces (and TSan/ASan see no race or stale read).
    // The lazy caller starts a little later so that it usually finds
    // the naive caller's entry and upgrades it mid-transform; the
    // assertions hold in either order.
    const Ciphertext top = encryptAt(7, ctx_->l());
    const auto ref = freshBootstrapper();
    const std::uint64_t naive_ref =
        digest(ref->applyCoeffToSlot(top, LinearTransformMode::Naive));
    const std::uint64_t lazy_ref =
        digest(ref->applyCoeffToSlot(top, LinearTransformMode::HoistedLazy));

    std::uint64_t naive = 0, lazy = 0;
    std::thread t_naive([&] {
        naive = digest(
            boot_->applyCoeffToSlot(top, LinearTransformMode::Naive));
    });
    std::thread t_lazy([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        lazy = digest(
            boot_->applyCoeffToSlot(top, LinearTransformMode::HoistedLazy));
    });
    t_naive.join();
    t_lazy.join();
    EXPECT_EQ(naive, naive_ref);
    EXPECT_EQ(lazy, lazy_ref);
}

TEST(BootstrapUnits, ChebyshevFitApproximatesSine)
{
    // Numerical check of the EvalMod polynomial machinery: evaluate
    // the fitted series directly (Clenshaw) against sin.
    const unsigned k = 16, degree = 159;
    const double a = 2.0 * M_PI * k;
    // Reuse the internals indirectly: fit here with the same method.
    const unsigned m = 4096;
    std::vector<double> c(degree + 1, 0.0);
    for (unsigned i = 0; i < m; ++i) {
        const double theta = M_PI * (i + 0.5) / m;
        const double fv = std::sin(a * std::cos(theta)) / (2 * M_PI);
        for (unsigned j = 0; j <= degree; ++j)
            c[j] += fv * std::cos(j * theta);
    }
    for (unsigned j = 0; j <= degree; ++j)
        c[j] *= (j == 0 ? 1.0 : 2.0) / m;

    for (double u = -0.9; u <= 0.9; u += 0.05) {
        // Clenshaw evaluation.
        double b1 = 0, b2 = 0;
        for (unsigned j = degree; j >= 1; --j) {
            const double b0 = c[j] + 2 * u * b1 - b2;
            b2 = b1;
            b1 = b0;
        }
        const double val = c[0] + u * b1 - b2;
        EXPECT_NEAR(val, std::sin(a * u) / (2 * M_PI), 1e-9)
            << "u=" << u;
    }
}

} // namespace
} // namespace cl
