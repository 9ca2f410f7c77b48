/**
 * @file
 * Property tests for the SIMD kernel backends: every vector table
 * available on this host (on IFMA CPUs also the AVX-512 table without
 * IFMA) must be bit-identical to the scalar reference on every kernel,
 * for every named prime width (28-bit hardware primes, the 40-62-bit
 * CKKS primes, and the pairs either side of the narrow/wide switch at
 * 2^30 and the IFMA switch at 2^50), on random inputs and on the
 * lazy-reduction boundary values q-1, 2q-1, 4q-1.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <numeric>
#include <string>
#include <vector>

#include "poly/rnspoly.h"
#include "rns/ntt.h"
#include "rns/primes.h"
#include "rns/simd/kernels.h"
#include "util/prng.h"

#include "kernel_test_util.h"

namespace {

using namespace cl;
using namespace cl::test;

/** The oracle for baseconvMacVec: the loop the scalar table ran before
 *  it switched to one Shoup multiply per term — a 64-bit % per term
 *  and a 128-bit % per coefficient, sharing no code with any table. */
std::vector<u64>
baseconvMacOracle(const std::vector<const u64 *> &xs,
                  const std::vector<u64> &cs, std::size_t n, u64 q)
{
    // A 128-bit accumulator holds 2^(128 - 2*q_bits) products of
    // values < q before it can wrap; reduce before that.
    const unsigned q_bits = 64 - __builtin_clzll(q);
    const std::size_t reduce_every =
        q_bits >= 60   ? 8
        : q_bits <= 31 ? ~std::size_t{0}
                       : std::size_t{1} << (126 - 2 * q_bits);
    std::vector<u128> acc(n, 0);
    std::size_t since_reduce = 0;
    for (std::size_t i = 0; i < xs.size(); ++i) {
        for (std::size_t k = 0; k < n; ++k)
            acc[k] += (u128)(xs[i][k] % q) * cs[i];
        if (++since_reduce >= reduce_every) {
            for (std::size_t k = 0; k < n; ++k)
                acc[k] %= q;
            since_reduce = 0;
        }
    }
    std::vector<u64> y(n);
    for (std::size_t k = 0; k < n; ++k)
        y[k] = static_cast<u64>(acc[k] % q);
    return y;
}

struct MacShape
{
    unsigned src_bits, dst_bits;
};

const MacShape kMacShapes[] = {
    {28, 28}, {28, 50}, {50, 28}, {50, 50}, {52, 50}, {51, 49},
    {53, 49}, {60, 60}, {60, 40}, {62, 31}, {55, 50}};

/** One baseconvMacVec input: ls source rows of n values below their
 *  source primes, and a coefficient row whose first entry is q - 1. */
struct MacCase
{
    std::vector<std::vector<u64>> x;
    std::vector<const u64 *> xs;
    std::vector<u64> cs;
    std::size_t n;
    u64 q, x_bound;
};

/** Runs @p check on every MAC shape with 1/2/9/17/33 terms and
 *  n = 5/203, passing a description for failure messages. */
template <class F>
void
forEachMacCase(F &&check)
{
    for (MacShape s : kMacShapes) {
        for (std::size_t ls : {1, 2, 9, 17, 33}) {
            for (std::size_t n : {5, 203}) {
                const auto src =
                    generateNttPrimes(s.src_bits, 1 << 10, ls);
                MacCase c{std::vector<std::vector<u64>>(ls),
                          std::vector<const u64 *>(ls),
                          std::vector<u64>(ls),
                          n,
                          primeOfWidth(s.dst_bits),
                          *std::max_element(src.begin(), src.end())};
                FastRng rng(71 * s.src_bits + s.dst_bits + 7 * ls + n);
                for (std::size_t i = 0; i < ls; ++i) {
                    c.x[i] = randomVec(n, src[i], rng.next64(),
                                       {src[i] - 1, 0});
                    c.xs[i] = c.x[i].data();
                    c.cs[i] = i == 0 ? c.q - 1 : rng.nextBelow(c.q);
                }
                check(c, "src_bits=" + std::to_string(s.src_bits) +
                             " dst_bits=" + std::to_string(s.dst_bits) +
                             " ls=" + std::to_string(ls) +
                             " n=" + std::to_string(n));
            }
        }
    }
}

TEST(ScalarKernels, BaseconvMacMatchesDivisionOracle)
{
    // The scalar table's Shoup-per-term MAC against the division loop
    // it replaced; both outputs are canonical, so they must agree.
    const KernelTable &ref = *kernelTableFor(SimdBackend::Scalar);
    forEachMacCase([&](const MacCase &c, const std::string &what) {
        std::vector<u64> y(c.n);
        ref.baseconvMacVec(y.data(), c.xs.data(), c.cs.data(),
                           c.xs.size(), c.n, c.q, c.x_bound);
        ASSERT_EQ(y, baseconvMacOracle(c.xs, c.cs, c.n, c.q)) << what;
    });
}

class SimdBackendTest : public ::testing::TestWithParam<TableId>
{
  protected:
    const KernelTable &vec() { return *tableFor(GetParam()); }
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
    // flushes), every other pairing a Shoup MAC on avx512 (IFMA while
    // the sources stay below 2^52 and q below 2^50, so {52, 50},
    // {51, 49} and {53, 49} straddle that gate) and the scalar
    // reference on avx2. Sources wider than the destination exercise
    // the Shoup multiply on x >= q. Lengths are not multiples of 8, so
    // the scalar tails run too.
    forEachMacCase([&](const MacCase &c, const std::string &what) {
        std::vector<u64> y1(c.n), y2(c.n);
        ref().baseconvMacVec(y1.data(), c.xs.data(), c.cs.data(),
                             c.xs.size(), c.n, c.q, c.x_bound);
        vec().baseconvMacVec(y2.data(), c.xs.data(), c.cs.data(),
                             c.xs.size(), c.n, c.q, c.x_bound);
        ASSERT_EQ(y1, y2) << what;
    });
}

TEST_P(SimdBackendTest, BaseconvMacAtNarrowFlushBoundary)
{
    // The narrow MAC (q < 2^30, sources < 2^32) sums exact 32-bit
    // products and Barrett-flushes every chunk = floor(2^32 / q) terms,
    // a period derived for reduced sources below q. Its lazy x mod q is
    // at most q (q only for nonzero multiples of q, where the quotient
    // estimate falls one short) before the conditional subtract. Run
    // every term at its largest: c = q - 1 against sources with
    // residue q - 1, nonzero multiples of q and 2^32 - 1, for term
    // counts around one and two flush periods.
    for (unsigned bits : {30u, 29u, 26u}) {
        const u64 q = primeOfWidth(bits);
        const u64 top = (u64{1} << 32) - 1;
        const u64 worst[] = {top - (top % q) - 1, top - (top % q), top,
                             q - 1, q};
        const std::size_t chunk = static_cast<std::size_t>(top / q);
        const std::size_t n = 35; // vector body and scalar tail
        for (std::size_t ls :
             {chunk - 1, chunk, chunk + 1, 2 * chunk, 2 * chunk + 1}) {
            std::vector<std::vector<u64>> x(ls, std::vector<u64>(n));
            std::vector<const u64 *> xs(ls);
            for (std::size_t i = 0; i < ls; ++i) {
                for (std::size_t k = 0; k < n; ++k)
                    x[i][k] = worst[(i + k) % std::size(worst)];
                xs[i] = x[i].data();
            }
            const std::vector<u64> cs(ls, q - 1);
            std::vector<u64> y(n);
            vec().baseconvMacVec(y.data(), xs.data(), cs.data(), ls, n, q,
                                 u64{1} << 32);
            ASSERT_EQ(y, baseconvMacOracle(xs, cs, n, q))
                << "bits=" << bits << " ls=" << ls;
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
    TableGuard guard;
    for (unsigned logn : {3u, 4u, 15u}) {
        const std::size_t n = std::size_t{1} << logn;
        for (unsigned bits : {28u, 40u, 49u, 50u, 51u, 55u, 62u}) {
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

            setKernelTable(vec());
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
    TableGuard guard;
    const std::size_t n = 1 << 10;
    auto primes = generateNttPrimes(28, n, 2);
    auto wide = generateNttPrimes(50, n, 1);
    primes.push_back(wide[0]); // mixed widths in one chain
    RnsChain chain(n, primes);
    const std::vector<unsigned> idx{0, 1, 2};

    auto run = [&](const KernelTable &table) {
        setKernelTable(table);
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

    const auto scalar_out = run(ref());
    const auto vec_out = run(vec());
    ASSERT_EQ(scalar_out, vec_out);
}

INSTANTIATE_TEST_SUITE_P(
    AvailableBackends, SimdBackendTest,
    ::testing::ValuesIn(availableTables(false)),
    [](const ::testing::TestParamInfo<TableId> &info) {
        return tableName(info.param);
    });

// GTest flags an empty ValuesIn; on hosts with no vector backend the
// suite legitimately has nothing to check.
GTEST_ALLOW_UNINSTANTIATED_PARAMETERIZED_TEST(SimdBackendTest);

TEST(KeccakLanes, EveryTableMatchesKeccakF1600)
{
    // keccakLanes random states, interleaved, chained through 100
    // permutations: each must track keccakF1600 on its own copy.
    for (TableId id : availableTables(true)) {
        const KernelTable &k = *tableFor(id);
        const std::size_t lanes = k.keccakLanes;
        ASSERT_GE(lanes, 1u) << tableName(id);
        FastRng rng(1600 + lanes);
        std::vector<std::array<std::uint64_t, 25>> expect(lanes);
        std::vector<std::uint64_t> interleaved(25 * lanes);
        for (std::size_t l = 0; l < lanes; ++l) {
            for (std::size_t w = 0; w < 25; ++w) {
                expect[l][w] = rng.next64();
                interleaved[w * lanes + l] = expect[l][w];
            }
        }
        for (int round = 0; round < 100; ++round) {
            k.keccakF1600Lanes(interleaved.data());
            for (std::size_t l = 0; l < lanes; ++l) {
                keccakF1600(expect[l]);
                for (std::size_t w = 0; w < 25; ++w)
                    ASSERT_EQ(interleaved[w * lanes + l], expect[l][w])
                        << tableName(id) << " permutation " << round
                        << " lane " << l << " word " << w;
            }
        }
    }
}

TEST(SimdDispatch, ScalarTableAlwaysAvailable)
{
    ASSERT_NE(kernelTableFor(SimdBackend::Scalar), nullptr);
    EXPECT_EQ(kernelTableFor(SimdBackend::Scalar)->id,
              SimdBackend::Scalar);
}

TEST(SimdDispatch, SetAndRestoreBackend)
{
    TableGuard guard;
    ASSERT_TRUE(setSimdBackend(SimdBackend::Scalar));
    EXPECT_EQ(activeSimdBackend(), SimdBackend::Scalar);
    EXPECT_STREQ(kernels().name, "scalar");
    for (SimdBackend b : {SimdBackend::Avx2, SimdBackend::Avx512}) {
        if (!kernelTableFor(b))
            continue;
        ASSERT_TRUE(setSimdBackend(b));
        EXPECT_EQ(activeSimdBackend(), b);
        EXPECT_EQ(&kernels(), kernelTableFor(b));
    }
}

TEST(SimdDispatch, BackendNames)
{
    EXPECT_STREQ(simdBackendName(SimdBackend::Scalar), "scalar");
    EXPECT_STREQ(simdBackendName(SimdBackend::Avx2), "avx2");
    EXPECT_STREQ(simdBackendName(SimdBackend::Avx512), "avx512");
}

} // namespace
