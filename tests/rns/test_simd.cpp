/**
 * @file
 * Property tests for the SIMD kernel backends: every vector backend
 * available on this host must be bit-identical to the scalar
 * reference on every kernel, for every named prime width (28-bit
 * hardware primes, the 40-62-bit CKKS primes, and the 30/31-bit pair
 * either side of the narrow/wide arithmetic switch at 2^30), on
 * random inputs and on the lazy-reduction boundary values q-1, 2q-1,
 * 4q-1.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

#include "poly/rnspoly.h"
#include "rns/ntt.h"
#include "rns/primes.h"
#include "rns/simd/kernels.h"
#include "util/prng.h"

namespace {

using namespace cl;

/** Restores the active backend on scope exit, so a failing test can't
 *  leak its backend override into later tests. */
class BackendGuard
{
  public:
    BackendGuard() : saved_(activeSimdBackend()) {}
    ~BackendGuard() { setSimdBackend(saved_); }

  private:
    SimdBackend saved_;
};

std::vector<SimdBackend>
vectorBackends()
{
    std::vector<SimdBackend> v;
    for (SimdBackend b : {SimdBackend::Avx2, SimdBackend::Avx512}) {
        if (kernelTableFor(b))
            v.push_back(b);
    }
    return v;
}

/** The named prime widths used across the repo: the 28-bit hardware
 *  datapath width, the wide CKKS scale/first/special widths, 30/31
 *  bits (the last narrow and first wide primes), and 61/62 bits, where
 *  4q comes within a factor of two of 2^64. */
const unsigned kPrimeWidths[] = {28, 30, 31, 40, 50, 55, 60, 61, 62};

u64
primeOfWidth(unsigned bits, std::size_t n = 1 << 10)
{
    return generateNttPrimes(bits, n, 1)[0];
}

/** Random values < bound, with the boundary values salted in at the
 *  front so every run exercises them at multiple lane positions. */
std::vector<u64>
randomVec(std::size_t n, u64 bound, u64 seed,
          std::initializer_list<u64> boundary = {})
{
    std::vector<u64> v(n);
    FastRng rng(seed);
    for (auto &x : v)
        x = rng.nextBelow(bound);
    std::size_t i = 0;
    for (u64 b : boundary) {
        if (i < n)
            v[i++] = b;
        // A second copy at an odd offset lands the boundary value in
        // a different vector lane (and in the scalar tail for small n).
        if (i + 5 < n)
            v[i + 5] = b;
    }
    return v;
}

class SimdBackendTest : public ::testing::TestWithParam<SimdBackend>
{
  protected:
    const KernelTable &vec() { return *kernelTableFor(GetParam()); }
    const KernelTable &ref()
    {
        return *kernelTableFor(SimdBackend::Scalar);
    }
};

// Odd lengths force every kernel's scalar tail path.
const std::size_t kLens[] = {1, 7, 64, 259};

TEST_P(SimdBackendTest, AddSubMulNegateMatchScalar)
{
    for (unsigned bits : kPrimeWidths) {
        const u64 q = primeOfWidth(bits);
        for (std::size_t n : kLens) {
            const auto a0 = randomVec(n, q, 11 * bits + n, {0, q - 1});
            const auto b = randomVec(n, q, 13 * bits + n, {q - 1, 0});

            for (int op = 0; op < 4; ++op) {
                auto x = a0, y = a0;
                switch (op) {
                case 0:
                    ref().addModVec(x.data(), b.data(), n, q);
                    vec().addModVec(y.data(), b.data(), n, q);
                    break;
                case 1:
                    ref().subModVec(x.data(), b.data(), n, q);
                    vec().subModVec(y.data(), b.data(), n, q);
                    break;
                case 2:
                    ref().mulModVec(x.data(), b.data(), n, q);
                    vec().mulModVec(y.data(), b.data(), n, q);
                    break;
                case 3:
                    ref().negateVec(x.data(), n, q);
                    vec().negateVec(y.data(), n, q);
                    break;
                }
                ASSERT_EQ(x, y) << "op=" << op << " bits=" << bits
                                << " n=" << n;
            }
        }
    }
}

TEST_P(SimdBackendTest, MulAddMatchesScalar)
{
    // The fused MAC of the keyswitch inner product: acc += a*b mod q,
    // checked against the scalar table and against the unfused
    // mul-then-add composition it must equal bit for bit.
    for (unsigned bits : kPrimeWidths) {
        const u64 q = primeOfWidth(bits);
        for (std::size_t n : kLens) {
            const auto acc0 = randomVec(n, q, 47 * bits + n, {q - 1, 0});
            const auto a = randomVec(n, q, 53 * bits + n, {q - 1, q - 1});
            const auto b = randomVec(n, q, 59 * bits + n, {q - 1, 0});

            auto r1 = acc0, r2 = acc0;
            ref().mulAddModVec(r1.data(), a.data(), b.data(), n, q);
            vec().mulAddModVec(r2.data(), a.data(), b.data(), n, q);
            ASSERT_EQ(r1, r2) << "bits=" << bits << " n=" << n;

            auto prod = a;
            ref().mulModVec(prod.data(), b.data(), n, q);
            auto composed = acc0;
            ref().addModVec(composed.data(), prod.data(), n, q);
            ASSERT_EQ(r1, composed) << "bits=" << bits << " n=" << n;
        }
    }
}

TEST_P(SimdBackendTest, ShoupKernelsMatchScalar)
{
    for (unsigned bits : kPrimeWidths) {
        const u64 q = primeOfWidth(bits);
        for (std::size_t n : kLens) {
            const auto x = randomVec(n, q, 17 * bits + n, {0, q - 1});
            const auto lo = randomVec(n, q, 19 * bits + n, {q - 1, 0});
            for (u64 wv : {u64{1}, q - 1, q / 3 + 1}) {
                const ShoupMul w(wv, q);
                std::vector<u64> r1(n), r2(n);

                ref().mulModShoupVec(r1.data(), x.data(), n, w.w,
                                     w.wPrec, q);
                vec().mulModShoupVec(r2.data(), x.data(), n, w.w,
                                     w.wPrec, q);
                ASSERT_EQ(r1, r2) << "bits=" << bits << " n=" << n;

                // In-place aliasing (y == x), as mulScalarTower uses.
                auto a1 = x, a2 = x;
                ref().mulModShoupVec(a1.data(), a1.data(), n, w.w,
                                     w.wPrec, q);
                vec().mulModShoupVec(a2.data(), a2.data(), n, w.w,
                                     w.wPrec, q);
                ASSERT_EQ(a1, a2);

                ref().subMulShoupVec(r1.data(), x.data(), lo.data(), n,
                                     w.w, w.wPrec, q);
                vec().subMulShoupVec(r2.data(), x.data(), lo.data(), n,
                                     w.w, w.wPrec, q);
                ASSERT_EQ(r1, r2) << "bits=" << bits << " n=" << n;
            }
        }
    }
}

TEST_P(SimdBackendTest, NttButterflyKernelsMatchScalar)
{
    for (unsigned bits : kPrimeWidths) {
        const u64 q = primeOfWidth(bits);
        const ShoupMul w(q - 2, q);
        for (std::size_t n : kLens) {
            // Forward butterflies take operands anywhere in [0, 4q);
            // the boundaries hit both conditional-subtract edges.
            auto x1 = randomVec(n, 4 * q, 23 * bits + n,
                                {q - 1, 2 * q - 1, 4 * q - 1});
            auto y1 = randomVec(n, 4 * q, 29 * bits + n,
                                {4 * q - 1, 2 * q - 1, q - 1});
            auto x2 = x1, y2 = y1;
            ref().nttFwdButterflyVec(x1.data(), y1.data(), n, w.w,
                                     w.wPrec, q);
            vec().nttFwdButterflyVec(x2.data(), y2.data(), n, w.w,
                                     w.wPrec, q);
            ASSERT_EQ(x1, x2) << "fwd bits=" << bits << " n=" << n;
            ASSERT_EQ(y1, y2) << "fwd bits=" << bits << " n=" << n;

            // Inverse butterflies take operands in [0, 2q).
            x1 = randomVec(n, 2 * q, 31 * bits + n, {q - 1, 2 * q - 1});
            y1 = randomVec(n, 2 * q, 37 * bits + n, {2 * q - 1, q - 1});
            x2 = x1;
            y2 = y1;
            ref().nttInvButterflyVec(x1.data(), y1.data(), n, w.w,
                                     w.wPrec, q);
            vec().nttInvButterflyVec(x2.data(), y2.data(), n, w.w,
                                     w.wPrec, q);
            ASSERT_EQ(x1, x2) << "inv bits=" << bits << " n=" << n;
            ASSERT_EQ(y1, y2) << "inv bits=" << bits << " n=" << n;

            // Correction + scaling passes.
            auto c1 = randomVec(n, 4 * q, 41 * bits + n,
                                {q - 1, 2 * q - 1, 4 * q - 1});
            auto c2 = c1;
            ref().nttCorrectVec(c1.data(), n, q);
            vec().nttCorrectVec(c2.data(), n, q);
            ASSERT_EQ(c1, c2) << "correct bits=" << bits << " n=" << n;

            auto s1 = randomVec(n, 2 * q, 43 * bits + n,
                                {q - 1, 2 * q - 1});
            auto s2 = s1;
            ref().nttScaleInvVec(s1.data(), n, w.w, w.wPrec, q);
            vec().nttScaleInvVec(s2.data(), n, w.w, w.wPrec, q);
            ASSERT_EQ(s1, s2) << "scale bits=" << bits << " n=" << n;
        }
    }
}

TEST_P(SimdBackendTest, BaseconvMacMatchesScalar)
{
    // Every source/destination width pairing: narrow/narrow takes the
    // 32-bit vector MAC (28-bit rows with many terms force accumulator
    // flushes), every other pairing the wide Shoup MAC on avx512 and
    // the scalar reference on avx2. Sources wider than the destination
    // exercise the Shoup multiply on x >= q. Lengths are not multiples
    // of 8, so the scalar tails run too.
    struct Shape
    {
        unsigned src_bits, dst_bits;
    };
    for (Shape s : {Shape{28, 28}, Shape{28, 50}, Shape{50, 28},
                    Shape{50, 50}, Shape{60, 60}, Shape{60, 40},
                    Shape{62, 31}, Shape{55, 50}}) {
        for (std::size_t ls : {1, 2, 9, 17, 33}) {
            for (std::size_t n : {5, 203}) {
                auto src = generateNttPrimes(s.src_bits, 1 << 10, ls);
                const u64 q = primeOfWidth(s.dst_bits);
                const u64 x_bound =
                    *std::max_element(src.begin(), src.end());

                std::vector<std::vector<u64>> x(ls);
                std::vector<const u64 *> xs(ls);
                std::vector<u64> cs(ls);
                FastRng rng(71 * s.src_bits + s.dst_bits + 7 * ls + n);
                for (std::size_t i = 0; i < ls; ++i) {
                    x[i] = randomVec(n, src[i], rng.next64(),
                                     {src[i] - 1, 0});
                    xs[i] = x[i].data();
                    cs[i] = i == 0 ? q - 1 : rng.nextBelow(q);
                }
                std::vector<u64> y1(n), y2(n);
                ref().baseconvMacVec(y1.data(), xs.data(), cs.data(), ls,
                                     n, q, x_bound);
                vec().baseconvMacVec(y2.data(), xs.data(), cs.data(), ls,
                                     n, q, x_bound);
                ASSERT_EQ(y1, y2)
                    << "src_bits=" << s.src_bits
                    << " dst_bits=" << s.dst_bits << " ls=" << ls
                    << " n=" << n;
            }
        }
    }
}

TEST_P(SimdBackendTest, GatherMatchesScalar)
{
    FastRng rng(97);
    for (std::size_t n : kLens) {
        std::vector<u64> src = randomVec(n, ~u64{0}, 101 + n);
        std::vector<std::uint32_t> idx(n);
        std::iota(idx.begin(), idx.end(), 0u);
        for (std::size_t i = n; i > 1; --i)
            std::swap(idx[i - 1], idx[rng.nextBelow(i)]);
        std::vector<u64> d1(n), d2(n);
        ref().gatherVec(d1.data(), src.data(), idx.data(), n);
        vec().gatherVec(d2.data(), src.data(), idx.data(), n);
        ASSERT_EQ(d1, d2) << "n=" << n;
    }
}

TEST_P(SimdBackendTest, WholeNttTransformMatchesScalar)
{
    // End-to-end: the backend under test must reproduce the scalar
    // forward and inverse transforms bit-for-bit, including the lazy
    // representatives forwardLazy/inverseLazy leave. N = 8 takes the
    // scalar short-stage loop, N = 16 is one chunk of the in-register
    // short stages, and N = 2^15 is the hom-ops ring.
    BackendGuard guard;
    for (unsigned logn : {3u, 4u, 15u}) {
        const std::size_t n = std::size_t{1} << logn;
        for (unsigned bits : {28u, 40u, 50u, 55u, 62u}) {
            const u64 q = generateNttPrimes(bits, n, 1)[0];
            NttTables tables(n, q);
            const auto input =
                randomVec(n, q, 1000 * logn + bits, {0, q - 1});

            ASSERT_TRUE(setSimdBackend(SimdBackend::Scalar));
            auto a = input;
            tables.forward(a.data());
            auto a_rt = a;
            tables.inverse(a_rt.data());
            EXPECT_EQ(a_rt, input);
            auto a_lazy = input;
            tables.forwardLazy(a_lazy.data());
            auto a_inv_lazy = a; // inverseLazy takes [0, 2q)
            tables.inverseLazy(a_inv_lazy.data());

            ASSERT_TRUE(setSimdBackend(GetParam()));
            auto b = input;
            tables.forward(b.data());
            ASSERT_EQ(a, b) << "forward logN=" << logn << " bits=" << bits;
            auto b_inv_lazy = b;
            tables.inverseLazy(b_inv_lazy.data());
            ASSERT_EQ(a_inv_lazy, b_inv_lazy)
                << "inverseLazy logN=" << logn << " bits=" << bits;
            tables.inverse(b.data());
            ASSERT_EQ(b, input)
                << "round trip logN=" << logn << " bits=" << bits;
            auto b_lazy = input;
            tables.forwardLazy(b_lazy.data());
            ASSERT_EQ(a_lazy, b_lazy)
                << "forwardLazy logN=" << logn << " bits=" << bits;
        }
    }
}

TEST_P(SimdBackendTest, RnsPolyOpsMatchScalar)
{
    // A realistic operation chain through RnsPoly under each backend:
    // NTT, multiply, scalar multiply, automorphism, add, inverse NTT.
    BackendGuard guard;
    const std::size_t n = 1 << 10;
    auto primes = generateNttPrimes(28, n, 2);
    auto wide = generateNttPrimes(50, n, 1);
    primes.push_back(wide[0]); // mixed widths in one chain
    RnsChain chain(n, primes);
    const std::vector<unsigned> idx{0, 1, 2};

    auto run = [&](SimdBackend backend) {
        EXPECT_TRUE(setSimdBackend(backend));
        RnsPoly p(chain, idx, false);
        RnsPoly r(chain, idx, false);
        FastRng rng(2026);
        for (std::size_t t = 0; t < 3; ++t) {
            for (auto &v : p.residue(t))
                v = rng.nextBelow(p.modulus(t));
            for (auto &v : r.residue(t))
                v = rng.nextBelow(r.modulus(t));
        }
        p.toNtt();
        r.toNtt();
        p *= r;
        p.mulScalar(123456789);
        p = p.automorphism(5);
        p += r;
        p -= r;
        p.negate();
        p.toCoeff();
        return p.data();
    };

    const auto scalar_out = run(SimdBackend::Scalar);
    const auto vec_out = run(GetParam());
    ASSERT_EQ(scalar_out, vec_out);
}

INSTANTIATE_TEST_SUITE_P(
    AvailableBackends, SimdBackendTest,
    ::testing::ValuesIn(vectorBackends()),
    [](const ::testing::TestParamInfo<SimdBackend> &info) {
        return simdBackendName(info.param);
    });

// GTest flags an empty ValuesIn; on hosts with no vector backend the
// suite legitimately has nothing to check.
GTEST_ALLOW_UNINSTANTIATED_PARAMETERIZED_TEST(SimdBackendTest);

TEST(SimdDispatch, ScalarTableAlwaysAvailable)
{
    ASSERT_NE(kernelTableFor(SimdBackend::Scalar), nullptr);
    EXPECT_EQ(kernelTableFor(SimdBackend::Scalar)->id,
              SimdBackend::Scalar);
}

TEST(SimdDispatch, SetAndRestoreBackend)
{
    BackendGuard guard;
    ASSERT_TRUE(setSimdBackend(SimdBackend::Scalar));
    EXPECT_EQ(activeSimdBackend(), SimdBackend::Scalar);
    EXPECT_STREQ(kernels().name, "scalar");
    for (SimdBackend b : vectorBackends()) {
        ASSERT_TRUE(setSimdBackend(b));
        EXPECT_EQ(activeSimdBackend(), b);
    }
}

TEST(SimdDispatch, BackendNames)
{
    EXPECT_STREQ(simdBackendName(SimdBackend::Scalar), "scalar");
    EXPECT_STREQ(simdBackendName(SimdBackend::Avx2), "avx2");
    EXPECT_STREQ(simdBackendName(SimdBackend::Avx512), "avx512");
}

} // namespace
