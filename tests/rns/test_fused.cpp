/**
 * @file
 * Property tests for the fused pipeline kernels (DESIGN.md §5e):
 * every fused kernel must be bit-identical to the composed sequence
 * of primitive kernels it replaces — including the Harvey lazy
 * representatives — on every available table, for every named prime
 * width (and rescale ql widths either side of 2^52), on random inputs
 * and on the lazy-reduction boundary values q-1, 2q-1, 4q-1.
 */

#include <gtest/gtest.h>

#include <vector>

#include "poly/rnspoly.h"
#include "rns/ntt.h"
#include "rns/primes.h"
#include "rns/simd/kernels.h"
#include "rns/simd/ref_impl.h"
#include "util/prng.h"

#include "kernel_test_util.h"

namespace {

using namespace cl;
using namespace cl::test;

/** The rescale kernels' (q, ql) width pairs: each named width with a
 *  second prime of the same width as ql, plus ql straddling 2^52 (the
 *  IFMA gate on ql) with q below 2^50, and a narrow q under a wide ql. */
struct RescaleWidths
{
    unsigned q_bits, ql_bits;
};

std::vector<RescaleWidths>
rescaleWidths()
{
    std::vector<RescaleWidths> v;
    for (unsigned bits : kPrimeWidths)
        v.push_back({bits, bits});
    for (RescaleWidths w : {RescaleWidths{50, 52}, RescaleWidths{50, 53},
                            RescaleWidths{49, 52}, RescaleWidths{40, 53},
                            RescaleWidths{28, 40}})
        v.push_back(w);
    return v;
}

/** q and the dropped ql: distinct primes of the requested widths. */
std::pair<u64, u64>
primePair(RescaleWidths w)
{
    const auto p = largestPrimes(w.q_bits, 2);
    if (w.ql_bits == w.q_bits)
        return {p[0], p[1]};
    return {p[0], primeOfWidth(w.ql_bits)};
}

// Odd lengths force every kernel's scalar tail path.
const std::size_t kLens[] = {1, 7, 64, 259};

/** Rescale constants for dropping tower ql, correcting residues mod q.
 *  With @p with_scale the nInv pair is a real N^-1 Shoup pair (NTT
 *  path); otherwise the exact identity pair {1, 2^64/q} (coeff path,
 *  mulLazy(x, 1) == x for x < q). */
RescaleConsts
makeConsts(u64 q, u64 ql, u64 n_inv_value)
{
    const ShoupMul n_inv(n_inv_value, q);
    const ShoupMul ql_inv(invMod(ql % q, q), q);
    return RescaleConsts{n_inv.w,  n_inv.wPrec,  ql,
                         ql / 2,   ql_inv.w,     ql_inv.wPrec};
}

/** The composed rescale correction, built only from the primitive
 *  scalar kernels the fused path replaces: iNTT-scale fold to
 *  canonical, centered last-tower subtract, q_l^-1 Shoup multiply. */
std::vector<u64>
composedRescale(std::vector<u64> a, const std::vector<u64> &xl,
                const RescaleConsts &rc, u64 q)
{
    const KernelTable &R = *kernelTableFor(SimdBackend::Scalar);
    const std::size_t n = a.size();
    R.nttScaleInvVec(a.data(), n, rc.nInvW, rc.nInvPrec, q);
    std::vector<u64> xm(n);
    for (std::size_t i = 0; i < n; ++i) {
        const u64 xs = addMod(xl[i], rc.half, rc.ql);
        xm[i] = subMod(xs % q, rc.half % q, q);
    }
    R.subModVec(a.data(), xm.data(), n, q);
    R.mulModShoupVec(a.data(), a.data(), n, rc.qlInvW, rc.qlInvPrec, q);
    return a;
}

/** The scalar per-coefficient rescale loop: subtract the centered
 *  last residue (adding half before centering rounds to nearest), then
 *  multiply by q_l^-1. Canonical input and output, coefficient
 *  domain. */
void
scalarRescaleTower(u64 *a, const u64 *xl, std::size_t n, u64 q, u64 ql)
{
    const u64 half = ql / 2;
    const ShoupMul ql_inv(invMod(ql % q, q), q);
    for (std::size_t i = 0; i < n; ++i) {
        const u64 xl_shift = addMod(xl[i], half, ql);
        const u64 xl_mod_q = subMod(xl_shift % q, half % q, q);
        a[i] = ql_inv.mul(subMod(a[i], xl_mod_q, q), q);
    }
}

class FusedKernelTest : public ::testing::TestWithParam<TableId>
{
  protected:
    const KernelTable &vec() { return *tableFor(GetParam()); }
};

TEST_P(FusedKernelTest, InvScaleButterflyMatchesComposed)
{
    // Fused last-GS-stage + N^-1 scale vs. nttInvButterflyVec followed
    // by nttScaleInvVec on both halves.
    const KernelTable &R = *kernelTableFor(SimdBackend::Scalar);
    for (unsigned bits : kPrimeWidths) {
        const u64 q = primeOfWidth(bits);
        const ShoupMul w(q - 2, q);
        const ShoupMul n_inv(invMod(1024 % q, q), q);
        for (std::size_t t : kLens) {
            // GS inputs live in [0, 2q); salt both lazy boundaries.
            auto x1 = randomVec(t, 2 * q, 211 * bits + t,
                                {q - 1, 2 * q - 1, 0});
            auto y1 = randomVec(t, 2 * q, 223 * bits + t,
                                {2 * q - 1, 0, q - 1});
            auto x2 = x1, y2 = y1;

            R.nttInvButterflyVec(x1.data(), y1.data(), t, w.w, w.wPrec,
                                 q);
            R.nttScaleInvVec(x1.data(), t, n_inv.w, n_inv.wPrec, q);
            R.nttScaleInvVec(y1.data(), t, n_inv.w, n_inv.wPrec, q);

            vec().nttInvScaleButterflyVec(x2.data(), y2.data(), t, w.w,
                                          w.wPrec, n_inv.w, n_inv.wPrec,
                                          q);
            ASSERT_EQ(x1, x2) << "bits=" << bits << " t=" << t;
            ASSERT_EQ(y1, y2) << "bits=" << bits << " t=" << t;
        }
    }
}

TEST_P(FusedKernelTest, RescaleEpilogueMatchesComposed)
{
    for (RescaleWidths rw : rescaleWidths()) {
        const auto [q, ql] = primePair(rw);
        // Seed salt: the q width alone for same-width pairs.
        const unsigned bits = rw.q_bits + 64 * (rw.ql_bits - rw.q_bits);
        for (std::size_t n : kLens) {
            const auto xl =
                randomVec(n, ql, 227 * bits + n, {ql - 1, 0});

            // NTT path: lazy iNTT output in [0, 2q), real N^-1 pair.
            {
                const auto rc = makeConsts(q, ql, invMod(1024 % q, q));
                auto a = randomVec(n, 2 * q, 229 * bits + n,
                                   {q - 1, 2 * q - 1, 0});
                const auto expect = composedRescale(a, xl, rc, q);
                vec().rescaleEpilogueVec(a.data(), xl.data(), n, &rc, q);
                ASSERT_EQ(a, expect)
                    << "ntt path q_bits=" << rw.q_bits << " ql_bits=" << rw.ql_bits << " n=" << n;
            }

            // Coeff path: canonical input, identity Shoup pair {1, .}.
            {
                const auto rc = makeConsts(q, ql, 1);
                auto a = randomVec(n, q, 233 * bits + n, {q - 1, 0});
                const auto a0 = a;
                const auto expect = composedRescale(a, xl, rc, q);
                vec().rescaleEpilogueVec(a.data(), xl.data(), n, &rc, q);
                ASSERT_EQ(a, expect)
                    << "coeff path q_bits=" << rw.q_bits << " ql_bits=" << rw.ql_bits << " n=" << n;

                // The identity pair really is the identity: the fold
                // step of composedRescale must not have changed a.
                auto ident = a0;
                kernelTableFor(SimdBackend::Scalar)
                    ->nttScaleInvVec(ident.data(), n, rc.nInvW,
                                     rc.nInvPrec, q);
                ASSERT_EQ(ident, a0);
            }
        }
    }
}

TEST_P(FusedKernelTest, RescaleCenterMatchesComposed)
{
    // The NTT-domain rescale's centering pass vs. the scalar formula
    // of composedRescale, out of place and in place.
    for (RescaleWidths rw : rescaleWidths()) {
        const auto [q, ql] = primePair(rw);
        // Seed salt: the q width alone for same-width pairs.
        const unsigned bits = rw.q_bits + 64 * (rw.ql_bits - rw.q_bits);
        const auto rc = makeConsts(q, ql, 1);
        for (std::size_t n : kLens) {
            const auto xl = randomVec(n, ql, 239 * bits + n,
                                      {ql - 1, 0, ql / 2, ql / 2 + 1});
            std::vector<u64> expect(n);
            for (std::size_t i = 0; i < n; ++i) {
                const u64 xs = addMod(xl[i], rc.half, rc.ql);
                expect[i] = subMod(xs % q, rc.half % q, q);
            }
            std::vector<u64> y(n);
            vec().rescaleCenterVec(y.data(), xl.data(), n, &rc, q);
            ASSERT_EQ(y, expect) << "q_bits=" << rw.q_bits
                                 << " ql_bits=" << rw.ql_bits << " n=" << n;
            auto in_place = xl;
            vec().rescaleCenterVec(in_place.data(), in_place.data(), n,
                                   &rc, q);
            ASSERT_EQ(in_place, expect) << "in place";
        }
    }
}

TEST_P(FusedKernelTest, CorrectSubMulShoupMatchesComposed)
{
    // Fused forward-NTT correction + modDown epilogue vs.
    // nttCorrectVec followed by the reference subtract-multiply.
    const KernelTable &R = *kernelTableFor(SimdBackend::Scalar);
    for (unsigned bits : kPrimeWidths) {
        const u64 q = primeOfWidth(bits);
        const ShoupMul w(q - 7, q);
        for (std::size_t n : kLens) {
            // Forward-NTT output lives in [0, 4q): salt every fold
            // boundary.
            auto x1 = randomVec(n, 4 * q, 263 * bits + n,
                                {q - 1, 2 * q - 1, 4 * q - 1});
            const auto acc =
                randomVec(n, q, 269 * bits + n, {q - 1, 0});
            auto x2 = x1;
            std::vector<u64> d1(n), d2(n);

            R.nttCorrectVec(x1.data(), n, q);
            simd::ref::subMulShoupVec(d1.data(), acc.data(), x1.data(),
                                      n, w.w, w.wPrec, q);

            vec().nttCorrectSubMulShoupVec(d2.data(), acc.data(),
                                           x2.data(), n, w.w, w.wPrec,
                                           q);
            ASSERT_EQ(d1, d2) << "bits=" << bits << " n=" << n;

            // dst aliasing acc (the rescale corrects a tower in place)
            // and aliasing x (modDown corrects its conversion output).
            auto on_acc = acc;
            vec().nttCorrectSubMulShoupVec(on_acc.data(), on_acc.data(),
                                           x2.data(), n, w.w, w.wPrec, q);
            ASSERT_EQ(on_acc, d1) << "dst == acc, bits=" << bits;
            auto on_x = x2;
            vec().nttCorrectSubMulShoupVec(on_x.data(), acc.data(),
                                           on_x.data(), n, w.w, w.wPrec, q);
            ASSERT_EQ(on_x, d1) << "dst == x, bits=" << bits;
        }
    }
}

TEST_P(FusedKernelTest, WholeInverseNttFusedMatchesComposed)
{
    // NttTables::inverse (last GS stage fused with the scale) must be
    // bit-identical to the composed inverse — inverseLazy followed by
    // the N^-1 scaling pass — and round-trip forward.
    TableGuard table_guard;
    setKernelTable(vec());
    const KernelTable &R = *kernelTableFor(SimdBackend::Scalar);
    const std::size_t n = 1 << 12;
    for (unsigned bits : {28u, 50u}) {
        const u64 q = generateNttPrimes(bits, n, 1)[0];
        NttTables tables(n, q);
        const auto input = randomVec(n, q, 2000 + bits, {0, q - 1});

        auto fwd = input;
        tables.forward(fwd.data());

        auto composed = fwd;
        tables.inverseLazy(composed.data());
        R.nttScaleInvVec(composed.data(), n, tables.nInv().w,
                         tables.nInv().wPrec, q);
        EXPECT_EQ(composed, input) << "composed round trip bits=" << bits;

        auto fused = fwd;
        tables.inverse(fused.data());
        ASSERT_EQ(fused, composed) << "bits=" << bits;
    }
}

TEST_P(FusedKernelTest, ForwardRescaleMatchesComposedPipeline)
{
    // The NTT-domain (forward) rescale of one kept tower: the dropped
    // tower's centered residues, transformed forward and subtracted in
    // place by the fused correct-subtract-multiply epilogue, must equal
    // inverse (canonical), the scalar rescale loop, forward.
    TableGuard table_guard;
    setKernelTable(vec());
    const std::size_t n = 1 << 12;
    for (unsigned bits : {28u, 50u}) {
        auto primes = generateNttPrimes(bits, n, 2);
        const u64 q = primes[0], ql = primes[1];
        NttTables tables(n, q);
        const auto rc = makeConsts(q, ql, 1);

        const auto input = randomVec(n, q, 3000 + bits, {q - 1, 0});
        const auto xl = randomVec(n, ql, 3100 + bits, {ql - 1, 0});

        auto composed = input;
        tables.inverse(composed.data());
        scalarRescaleTower(composed.data(), xl.data(), n, q, ql);
        tables.forward(composed.data());

        auto fused = input;
        std::vector<u64> xm(n);
        vec().rescaleCenterVec(xm.data(), xl.data(), n, &rc, q);
        tables.forwardLazy(xm.data());
        vec().nttCorrectSubMulShoupVec(fused.data(), fused.data(),
                                       xm.data(), n, rc.qlInvW,
                                       rc.qlInvPrec, q);

        ASSERT_EQ(fused, composed) << "bits=" << bits;
    }
}

TEST_P(FusedKernelTest, WholeRescaleLastTowerMatchesScalarLoop)
{
    // RnsPoly::rescaleLastTower in both domains against the oracle:
    // to the coefficient domain, the scalar loop on every kept tower,
    // drop the last tower, back to the NTT domain. At N = 16 every
    // forward stage is a tail stage.
    TableGuard table_guard;
    setKernelTable(vec());
    for (std::size_t n : {std::size_t{16}, std::size_t{1} << 12}) {
        for (unsigned bits : {28u, 50u}) {
            const RnsChain chain(n, generateNttPrimes(bits, n, 4));
            for (bool ntt : {false, true}) {
                RnsPoly p(chain, {0, 1, 2, 3}, false);
                for (std::size_t t = 0; t < 4; ++t) {
                    const auto v = randomVec(n, p.modulus(t),
                                             4000 + 64 * t + bits + n,
                                             {p.modulus(t) - 1, 0});
                    std::copy(v.begin(), v.end(), p.residue(t).begin());
                }
                RnsPoly expect(chain, {0, 1, 2}, false);
                for (std::size_t t = 0; t < 3; ++t) {
                    std::copy(p.residue(t).begin(), p.residue(t).end(),
                              expect.residue(t).begin());
                    scalarRescaleTower(expect.residue(t).data(),
                                       p.residue(3).data(), n,
                                       p.modulus(t), p.modulus(3));
                }
                if (ntt) {
                    p.toNtt();
                    expect.toNtt();
                }
                p.rescaleLastTower();
                ASSERT_EQ(p.modIdx(), expect.modIdx());
                ASSERT_EQ(p.isNtt(), ntt);
                ASSERT_TRUE(p.data() == expect.data())
                    << "n=" << n << " bits=" << bits << " ntt=" << ntt;
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    AvailableBackends, FusedKernelTest,
    ::testing::ValuesIn(availableTables(true)),
    [](const ::testing::TestParamInfo<TableId> &info) {
        return tableName(info.param);
    });

} // namespace
