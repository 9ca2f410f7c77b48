/** Functional bootstrapping tests: the unbounded-computation core. */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <memory>
#include <thread>

#include "ckks/bootstrap.h"
#include "runtime/hostrun.h"
#include "util/threadpool.h"

#include "../rns/kernel_test_util.h"

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

TEST_F(BootstrapTest, DepthIsKnownBeforeTheFirstBootstrap)
{
    // The depth follows from the shape: 4 CoeffToSlot stages, the
    // degree-63 Paterson-Stockmeyer recursion (6 levels: T_32 sits 5
    // down, plus the top product), 2 double angles, 3 SlotToCoeff
    // stages. bootstrap() asserts that it spends exactly this.
    const auto boot = freshBootstrapper();
    const BootstrapShape shape;
    EXPECT_EQ(boot->depthUsed(), shape.ctsStages + 6 + shape.doubleAngles +
                                     shape.stcStages);
    const Ciphertext out = boot->bootstrap(encryptAt(8, 1));
    EXPECT_EQ(out.level(), ctx_->l() - boot->depthUsed());
}

TEST(BootstrapUnits, ChainTooShortForTheShapeIsRejected)
{
    // The shape needs 4 + 6 + 2 + 3 = 15 levels; an L = 12 chain can
    // spend 11 and keep the output at level >= 1.
    CkksParams p;
    p.logN = 9;
    p.l = 12;
    p.alpha = 12;
    p.secretHamming = 16;
    const CkksContext ctx(p);
    const CkksEncoder enc(ctx);
    KeyGenerator kg(ctx);
    EXPECT_DEATH(Bootstrapper(ctx, enc, kg),
                 "needs 15 levels .* chain budget is 11");
}

TEST_F(BootstrapTest, PrecisionFloor)
{
    // The < 0.02 bound above is only ~5.6 bits. The factored pipeline
    // measures 14.7 bits on this input at these parameters (the
    // double angles cost ~4 bits against the old degree-159 sine);
    // pin that minus one bit.
    auto vals = randomReals(9, 0.5);
    const Ciphertext out = boot_->bootstrap(
        encryptor_->encrypt(enc_->encode(vals, appScale, 1), appScale));
    const double bits =
        -std::log2(maxError(vals, decryptor_->decryptValues(*enc_, out)));
    EXPECT_GE(bits, 13.7);
}

TEST_F(BootstrapTest, HalfRingMonomialMultipliesSlotsByI)
{
    // EvalMod's real/imaginary split multiplies by +-i as the scale-1
    // plaintext of +-i in every slot, which is exactly the monomial
    // +-X^(N/2): exact, no level consumed, scale unchanged.
    const std::size_t nh = ctx_->n() / 2;
    const Ciphertext ct = encryptAt(10, 7);
    const auto vals = decryptor_->decryptValues(*enc_, ct);
    for (const double sign : {1.0, -1.0}) {
        const RnsPoly pt = enc_->encode(
            std::vector<Complex>(ctx_->slots(), Complex(0, sign)), 1.0,
            ct.level());
        const std::vector<double> coeffs = enc_->decodeCoeffs(pt, 1.0);
        for (std::size_t j = 0; j < coeffs.size(); ++j)
            ASSERT_EQ(coeffs[j], j == nh ? sign : 0.0) << "coeff " << j;

        const Ciphertext r = eval_->mulPlain(ct, pt, 1.0);
        EXPECT_EQ(r.level(), ct.level());
        EXPECT_EQ(r.scale, ct.scale);
        std::vector<Complex> expect(vals.size());
        for (std::size_t i = 0; i < vals.size(); ++i)
            expect[i] = Complex(0, sign) * vals[i];
        EXPECT_LT(maxError(expect, decryptor_->decryptValues(*enc_, r)),
                  1e-9);
    }
}

TEST_F(BootstrapTest, BitIdenticalAcrossWorkerCounts)
{
    // Bootstrapping runs its stage rotations, diagonal encoding and
    // the two EvalMod halves as concurrent tasks, each writing only its
    // own slot: the bytes must not depend on the worker count, nor on
    // running inside a graph worker (where every parallelFor runs
    // inline). Each count gets a fresh Bootstrapper so the diagonal
    // cache is also built at that count.
    const Ciphertext exhausted = encryptAt(4, 1);
    const Ciphertext top = encryptAt(5, ctx_->l());
    const Ciphertext mid = encryptAt(6, ctx_->l() / 2);
    const LinearTransformMode lt = BootstrapParams{}.ltMode;

    auto run = [&] {
        const auto boot = freshBootstrapper();
        return std::vector<std::uint64_t>{
            digest(boot->bootstrap(exhausted)),
            digest(boot->applyCoeffToSlot(top, lt)),
            digest(boot->applySlotToCoeff(mid, lt))};
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

TEST_F(BootstrapTest, PipelinesMatchPinnedDigests)
{
    // BitIdenticalAcrossWorkerCounts compares runs with each other;
    // this pins the bytes themselves. The digests were taken before
    // the flat EvalMod schedule, the tower-major stage accumulation,
    // the chip-cost rescale and the destination-split base conversion
    // replaced the per-half recursion, the per-diagonal MACs, the
    // round-trip rescale and the single-tile conversion. Every
    // available kernel table must reproduce them, serial and on 4
    // workers: the whole pipeline is each multi-stream kernel's
    // bit-identity check against the scalar table.
    const Ciphertext exhausted = encryptAt(4, 1);
    const Ciphertext top = encryptAt(5, ctx_->l());
    const Ciphertext mid = encryptAt(6, ctx_->l() / 2);
    const LinearTransformMode lt = BootstrapParams{}.ltMode;
    const std::uint64_t pinned[] = {0xace2bbfce6275bb1ull,
                                    0xe497473a2eb46516ull,
                                    0x10188bb86e0846fbull};

    test::TableGuard table_guard;
    for (test::TableId id : test::availableTables(true)) {
        setKernelTable(*test::tableFor(id));
        for (unsigned threads : {1u, 4u}) {
            ThreadPool::setGlobalThreads(threads);
            const auto boot = freshBootstrapper();
            const std::uint64_t got[] = {
                digest(boot->bootstrap(exhausted)),
                digest(boot->applyCoeffToSlot(top, lt)),
                digest(boot->applySlotToCoeff(mid, lt))};
            for (int i = 0; i < 3; ++i)
                EXPECT_EQ(got[i], pinned[i])
                    << "output " << i << " on " << test::tableName(id)
                    << " at " << threads << " workers: 0x" << std::hex
                    << got[i];
        }
    }
}

TEST_F(BootstrapTest, ConcurrentTransformsShareTheDiagonalCache)
{
    // Two transforms racing on a fresh cache: both look up, and one of
    // them builds, every stage's entry while the other may be reading
    // it. Both must see the bytes a serial run produces (and TSan/ASan
    // must see no race or stale read).
    const Ciphertext top = encryptAt(7, ctx_->l());
    const LinearTransformMode lt = BootstrapParams{}.ltMode;
    const std::uint64_t serial =
        digest(freshBootstrapper()->applyCoeffToSlot(top, lt));

    const auto boot = freshBootstrapper();
    std::uint64_t first = 0, second = 0;
    std::thread t_first(
        [&] { first = digest(boot->applyCoeffToSlot(top, lt)); });
    std::thread t_second(
        [&] { second = digest(boot->applyCoeffToSlot(top, lt)); });
    t_first.join();
    t_second.join();
    EXPECT_EQ(first, serial);
    EXPECT_EQ(second, serial);
}

TEST_F(BootstrapTest, DiagonalCacheEncodesEachDiagonalOnce)
{
    // A cold CoeffToSlot builds every stage's diagonals and a warm one
    // only transforms, so the NTT count difference is the cache build.
    // It must transform each diagonal once, over the towers it
    // multiplies: Q_level ∪ P for a rotated diagonal, Q_level alone for
    // the unrotated one.
    const Ciphertext top = encryptAt(8, ctx_->l());
    const LinearTransformMode lt = BootstrapParams{}.ltMode;
    const auto boot = freshBootstrapper();
    const u64 before = ctx_->ops().ntts;
    const std::uint64_t cold = digest(boot->applyCoeffToSlot(top, lt));
    const u64 mid = ctx_->ops().ntts;
    const std::uint64_t warm = digest(boot->applyCoeffToSlot(top, lt));
    const u64 after = ctx_->ops().ntts;
    EXPECT_EQ(cold, warm);

    const std::size_t special = ctx_->specialIdx().size();
    u64 expected = 0;
    unsigned level = ctx_->l(); // each stage consumes one level
    for (const DftStage &st :
         coeffToSlotStages(*enc_, BootstrapShape{}.ctsStages)) {
        for (std::size_t offset : st.offsets)
            expected += offset == 0 ? level : level + special;
        --level;
    }
    EXPECT_EQ((mid - before) - (after - mid), expected);
}

TEST(BootstrapUnits, ChebyshevFitApproximatesSine)
{
    // The EvalMod polynomial: the fitted cosine (Clenshaw) followed by
    // the shape's double-angle squarings must read sin(2 pi K u)/(2 pi)
    // on all of [-1, 1].
    const unsigned k = 16;
    const BootstrapShape shape;
    const std::vector<double> c = evalModCosine(k, shape);
    ASSERT_EQ(c.size(), shape.chebDegree + 1);
    const double a = 2.0 * M_PI * k;
    for (int step = -100; step <= 100; ++step) {
        const double u = step / 100.0;
        double b1 = 0, b2 = 0;
        for (std::size_t j = c.size() - 1; j >= 1; --j) {
            const double b0 = c[j] + 2 * u * b1 - b2;
            b2 = b1;
            b1 = b0;
        }
        double y = c[0] + u * b1 - b2;
        for (unsigned r = 0; r < shape.doubleAngles; ++r)
            y = 2 * y * y - 1;
        EXPECT_NEAR(y / (2 * M_PI), std::sin(a * u) / (2 * M_PI), 1e-9)
            << "u=" << u;
    }
}

TEST(BootstrapUnits, StagesFactorTheSpecialFft)
{
    // In cleartext: the CoeffToSlot stages multiply out to
    // bitReverse ∘ fftSpecialInv and the SlotToCoeff stages to
    // fftSpecial ∘ bitReverse, and a stage of r butterfly levels has
    // at most 2^(r+1) - 1 diagonals.
    CkksParams p;
    p.logN = 9;
    p.l = 4;
    const CkksContext ctx(p);
    const CkksEncoder enc(ctx);
    const std::size_t n = enc.slots();
    const unsigned log_n = static_cast<unsigned>(std::bit_width(n) - 1);

    auto bit_reverse = [&](const std::vector<Complex> &x) {
        std::vector<Complex> y(n);
        for (std::size_t i = 0; i < n; ++i) {
            std::size_t r = 0;
            for (unsigned b = 0; b < log_n; ++b)
                r |= ((i >> b) & 1) << (log_n - 1 - b);
            y[r] = x[i];
        }
        return y;
    };
    auto apply = [&](const std::vector<DftStage> &stages,
                     std::vector<Complex> x) {
        for (const DftStage &st : stages) {
            std::vector<Complex> y(n, Complex(0, 0));
            for (std::size_t i = 0; i < st.offsets.size(); ++i) {
                for (std::size_t j = 0; j < n; ++j)
                    y[j] += st.diags[i][j] * x[(j + st.offsets[i]) % n];
            }
            x = std::move(y);
        }
        return x;
    };
    auto max_diff = [](const std::vector<Complex> &a,
                       const std::vector<Complex> &b) {
        double m = 0;
        for (std::size_t i = 0; i < a.size(); ++i)
            m = std::max(m, std::abs(a[i] - b[i]));
        return m;
    };
    auto check_sizes = [&](const std::vector<DftStage> &stages) {
        const std::size_t count = stages.size();
        for (std::size_t s = 0; s < count; ++s) {
            const std::size_t r =
                log_n / count + (s < log_n % count ? 1 : 0);
            EXPECT_LE(stages[s].offsets.size(), (2u << r) - 1)
                << "stage " << s;
        }
    };

    const BootstrapShape shape;
    const auto cts = coeffToSlotStages(enc, shape.ctsStages);
    const auto stc = slotToCoeffStages(enc, shape.stcStages);
    ASSERT_EQ(cts.size(), shape.ctsStages);
    ASSERT_EQ(stc.size(), shape.stcStages);
    check_sizes(cts);
    check_sizes(stc);

    FastRng rng(11);
    for (int trial = 0; trial < 3; ++trial) {
        std::vector<Complex> x(n);
        for (auto &z : x)
            z = Complex(rng.nextDouble() - 0.5, rng.nextDouble() - 0.5);

        std::vector<Complex> inv = x;
        enc.fftSpecialInv(inv);
        EXPECT_LT(max_diff(apply(cts, x), bit_reverse(inv)), 1e-12);

        std::vector<Complex> fwd = bit_reverse(x);
        enc.fftSpecial(fwd);
        EXPECT_LT(max_diff(apply(stc, x), fwd), 1e-12);

        // The reversals cancel: StC after CtS is the identity.
        EXPECT_LT(max_diff(apply(stc, apply(cts, x)), x), 1e-12);
    }
}

} // namespace
} // namespace cl
