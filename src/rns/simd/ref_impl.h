/**
 * @file
 * Scalar reference implementations of every kernel in the dispatch
 * table — the loops the library ran before the SIMD backend existed,
 * except baseconvMacVec, which now uses the vector backends' Shoup
 * formula (the division loop it replaced is the oracle in
 * test_simd.cpp). The scalar table points straight at these; the
 * vector backends call them for loop tails, and AVX2 also for wide
 * moduli, which makes the bit-identity argument trivial off its
 * narrow path.
 *
 * Internal header: the backend translation units include it, and the
 * kernel tests use it as their oracle (subMulShoupVec is no table
 * entry; it is the composed half of nttCorrectSubMulShoupVec).
 */

#ifndef CL_RNS_SIMD_REF_IMPL_H
#define CL_RNS_SIMD_REF_IMPL_H

#include <algorithm>
#include <vector>

#include "rns/modarith.h"
#include "rns/simd/kernels.h"

namespace cl {
namespace simd {
namespace ref {

inline void
addModVec(u64 *a, const u64 *b, std::size_t n, u64 q)
{
    for (std::size_t i = 0; i < n; ++i)
        a[i] = addMod(a[i], b[i], q);
}

inline void
subModVec(u64 *a, const u64 *b, std::size_t n, u64 q)
{
    for (std::size_t i = 0; i < n; ++i)
        a[i] = subMod(a[i], b[i], q);
}

inline void
mulModVec(u64 *a, const u64 *b, std::size_t n, u64 q)
{
    for (std::size_t i = 0; i < n; ++i)
        a[i] = mulMod(a[i], b[i], q);
}

inline void
mulAddModVec(u64 *acc, const u64 *a, const u64 *b, std::size_t n, u64 q)
{
    for (std::size_t i = 0; i < n; ++i)
        acc[i] = addMod(acc[i], mulMod(a[i], b[i], q), q);
}

inline void
negateVec(u64 *a, std::size_t n, u64 q)
{
    for (std::size_t i = 0; i < n; ++i)
        a[i] = a[i] == 0 ? 0 : q - a[i];
}

inline void
mulModShoupVec(u64 *y, const u64 *x, std::size_t n, u64 w, u64 wPrec,
               u64 q)
{
    for (std::size_t i = 0; i < n; ++i) {
        const u64 hi = static_cast<u64>(((u128)x[i] * wPrec) >> 64);
        const u64 r = x[i] * w - hi * q; // mod 2^64; in [0, 2q)
        y[i] = r >= q ? r - q : r;
    }
}

inline void
subMulShoupVec(u64 *dst, const u64 *hi, const u64 *lo, std::size_t n,
               u64 w, u64 wPrec, u64 q)
{
    for (std::size_t i = 0; i < n; ++i) {
        const u64 d = subMod(hi[i], lo[i], q);
        const u64 h = static_cast<u64>(((u128)d * wPrec) >> 64);
        const u64 r = d * w - h * q;
        dst[i] = r >= q ? r - q : r;
    }
}

/** One Shoup multiply per term with the pair (c, floor(c*2^64/q)),
 *  exact for any source value < 2^64 (so no x mod q), accumulated
 *  lazily in [0, 2q) and folded once — the formula of the AVX-512 MAC.
 *  The output is canonical, as a division loop's would be. */
inline void
baseconvMacVec(u64 *y, const u64 *const *xs, const u64 *cs,
               std::size_t ls, std::size_t n, u64 q, u64 /*x_bound*/)
{
    // The tiled base conversion calls this once per block per
    // destination tower: reuse one buffer per worker thread.
    static thread_local std::vector<ShoupMul> terms;
    terms.resize(ls);
    for (std::size_t i = 0; i < ls; ++i)
        terms[i] = ShoupMul(cs[i], q);
    const u64 two_q = 2 * q;
    for (std::size_t k = 0; k < n; ++k) {
        u64 acc = 0;
        for (std::size_t i = 0; i < ls; ++i) {
            acc += terms[i].mulLazy(xs[i][k], q);
            acc -= two_q * (acc >= two_q);
        }
        y[k] = acc >= q ? acc - q : acc;
    }
}

inline void
gatherVec(u64 *dst, const u64 *src, const std::uint32_t *idx,
          std::size_t n)
{
    for (std::size_t j = 0; j < n; ++j)
        dst[j] = src[idx[j]];
}

inline void
nttFwdButterflyVec(u64 *x, u64 *y, std::size_t t, u64 w, u64 wPrec,
                   u64 q)
{
    const u64 two_q = 2 * q;
    for (std::size_t j = 0; j < t; ++j) {
        u64 xx = x[j];                       // [0, 4q)
        xx -= two_q * (xx >= two_q);         // -> [0, 2q), branchless
        const u64 hi = static_cast<u64>(((u128)y[j] * wPrec) >> 64);
        const u64 v = y[j] * w - hi * q;     // mulLazy: [0, 2q)
        x[j] = xx + v;                       // [0, 4q)
        y[j] = xx + two_q - v;               // (0, 4q)
    }
}

inline void
nttInvButterflyVec(u64 *x, u64 *y, std::size_t t, u64 w, u64 wPrec,
                   u64 q)
{
    const u64 two_q = 2 * q;
    for (std::size_t j = 0; j < t; ++j) {
        const u64 xx = x[j]; // [0, 2q)
        const u64 yy = y[j]; // [0, 2q)
        u64 s = xx + yy;     // [0, 4q)
        s -= two_q * (s >= two_q);
        x[j] = s; // [0, 2q)
        const u64 u = xx + two_q - yy; // (0, 4q)
        const u64 hi = static_cast<u64>(((u128)u * wPrec) >> 64);
        y[j] = u * w - hi * q; // mulLazy: [0, 2q)
    }
}

inline void
nttFwdTailVec(u64 *a, std::size_t n, const ShoupMul *tw, u64 q)
{
    for (std::size_t t = std::min<std::size_t>(4, n / 2); t >= 1; t >>= 1) {
        const std::size_t m = n / (2 * t);
        for (std::size_t i = 0; i < m; ++i)
            nttFwdButterflyVec(a + 2 * i * t, a + 2 * i * t + t, t,
                               tw[m + i].w, tw[m + i].wPrec, q);
    }
}

inline void
nttInvTailVec(u64 *a, std::size_t n, const ShoupMul *tw, u64 q)
{
    const std::size_t t_end = std::min<std::size_t>(4, n / 2);
    for (std::size_t t = 1; t <= t_end; t <<= 1) {
        const std::size_t h = n / (2 * t);
        for (std::size_t i = 0; i < h; ++i)
            nttInvButterflyVec(a + 2 * i * t, a + 2 * i * t + t, t,
                               tw[h + i].w, tw[h + i].wPrec, q);
    }
}

inline void
nttCorrectVec(u64 *a, std::size_t n, u64 q)
{
    const u64 two_q = 2 * q;
    for (std::size_t i = 0; i < n; ++i) {
        u64 x = a[i];
        x -= two_q * (x >= two_q);
        x -= q * (x >= q);
        a[i] = x;
    }
}

inline void
nttScaleInvVec(u64 *a, std::size_t n, u64 w, u64 wPrec, u64 q)
{
    for (std::size_t i = 0; i < n; ++i) {
        const u64 hi = static_cast<u64>(((u128)a[i] * wPrec) >> 64);
        const u64 r = a[i] * w - hi * q; // [0, 2q)
        a[i] = r >= q ? r - q : r;
    }
}

// ---- Fused pipeline kernels (DESIGN.md §5e) -----------------------
// Each loop is the literal composition of the per-coefficient
// formulas above, so the fused reference IS the composed sequence
// with the intermediate array store elided.

inline void
nttInvScaleButterflyVec(u64 *x, u64 *y, std::size_t t, u64 w, u64 wPrec,
                        u64 nw, u64 nwPrec, u64 q)
{
    const u64 two_q = 2 * q;
    for (std::size_t j = 0; j < t; ++j) {
        const u64 xx = x[j]; // [0, 2q)
        const u64 yy = y[j]; // [0, 2q)
        u64 s = xx + yy;     // [0, 4q)
        s -= two_q * (s >= two_q);
        const u64 u = xx + two_q - yy; // (0, 4q)
        const u64 hi = static_cast<u64>(((u128)u * wPrec) >> 64);
        const u64 m = u * w - hi * q; // mulLazy: [0, 2q)
        const u64 sh = static_cast<u64>(((u128)s * nwPrec) >> 64);
        const u64 sr = s * nw - sh * q;
        x[j] = sr >= q ? sr - q : sr;
        const u64 mh = static_cast<u64>(((u128)m * nwPrec) >> 64);
        const u64 mr = m * nw - mh * q;
        y[j] = mr >= q ? mr - q : mr;
    }
}

inline void
rescaleEpilogueVec(u64 *a, const u64 *xl, std::size_t n,
                   const RescaleConsts *rc, u64 q)
{
    for (std::size_t i = 0; i < n; ++i)
        a[i] = rescaleCorrectScalar(a[i], xl[i], *rc, q);
}

inline void
rescaleCenterVec(u64 *y, const u64 *xl, std::size_t n,
                 const RescaleConsts *rc, u64 q)
{
    for (std::size_t i = 0; i < n; ++i)
        y[i] = rescaleCenterScalar(xl[i], *rc, q);
}

inline void
nttCorrectSubMulShoupVec(u64 *dst, const u64 *acc, const u64 *x,
                         std::size_t n, u64 w, u64 wPrec, u64 q)
{
    const u64 two_q = 2 * q;
    for (std::size_t i = 0; i < n; ++i) {
        u64 c = x[i]; // [0, 4q)
        c -= two_q * (c >= two_q);
        c -= q * (c >= q);
        const u64 d = subMod(acc[i], c, q);
        const u64 h = static_cast<u64>(((u128)d * wPrec) >> 64);
        const u64 r = d * w - h * q;
        dst[i] = r >= q ? r - q : r;
    }
}

} // namespace ref
} // namespace simd
} // namespace cl

#endif // CL_RNS_SIMD_REF_IMPL_H
