/**
 * AVX2 backend: 4 lanes of 64-bit residues per vector.
 *
 * AVX2 has no 64x64 multiply, so every product is built from the
 * 32x32->64 `vpmuludq`; that is exact only when the narrow-modulus
 * gate holds (q < 2^30, all lazy operands < 4q < 2^32 — see
 * kernels.h). Wide moduli and the NTT's short-block stages run the
 * scalar reference. Quotient synthesis:
 *
 *  - Shoup quotient, operand x < 2^32, 64-bit precomputed wPrec split
 *    as wpHi:wpLo:  floor(x*wPrec / 2^64)
 *      = (x*wpHi + ((x*wpLo) >> 32)) >> 32              (exact)
 *    The carry term x*wpHi is at most (2^32-1)^2, so the sum cannot
 *    wrap. This reproduces ShoupMul::mulLazy bit for bit.
 *
 *  - Barrett quotient for a 64-bit value v < min(2^62, q*2^32) with
 *    M = floor(2^64 / q) < 2^37 split as mHi:mLo and v as vHi:vLo:
 *      hi = vHi*mHi + ((vHi*mLo + vLo*mHi + ((vLo*mLo) >> 32)) >> 32)
 *    hi is the exact floor(v*M / 2^64), which undershoots the true
 *    quotient by at most 2, so v - hi*q lands in [0, 3q): two
 *    conditional subtracts give the canonical value. (Canonical
 *    kernels only — the result equals the scalar 128-bit divide.)
 *
 * Unsigned 64-bit compares use signed vpcmpgtq, valid because every
 * compared value stays below 2^63 (moduli are < 2^62).
 */

#include "rns/simd/kernels.h"
#include "rns/simd/ref_impl.h"

#if defined(__AVX2__)

#include <immintrin.h>

namespace cl {
namespace simd {
namespace {

inline __m256i
set1(u64 v)
{
    return _mm256_set1_epi64x(static_cast<long long>(v));
}

/** low32(a) * low32(b), full 64-bit product per lane. */
inline __m256i
mul32(__m256i a, __m256i b)
{
    return _mm256_mul_epu32(a, b);
}

/** r - q if r >= q (values < 2^63). qm1 = set1(q - 1). */
inline __m256i
csub(__m256i r, __m256i q, __m256i qm1)
{
    const __m256i m = _mm256_cmpgt_epi64(r, qm1);
    return _mm256_sub_epi64(r, _mm256_and_si256(q, m));
}

/** Shoup/Barrett constant split into 32-bit halves. */
struct Split32
{
    __m256i hi, lo;

    explicit Split32(u64 v)
        : hi(set1(v >> 32)), lo(set1(v & 0xffffffffu))
    {
    }
};

/** floor(x * w64 / 2^64) for x < 2^32 (w64 given split). */
inline __m256i
mulHi64Narrow(__m256i x, const Split32 &w64)
{
    const __m256i t = _mm256_add_epi64(
        mul32(x, w64.hi), _mm256_srli_epi64(mul32(x, w64.lo), 32));
    return _mm256_srli_epi64(t, 32);
}

/** ShoupMul::mulLazy for x < 2^32, w < q < 2^30: x*w - hi*q mod 2^64,
 *  result in [0, 2q). Bit-identical to the scalar formula. */
inline __m256i
shoupMulLazy(__m256i x, __m256i wv, const Split32 &wPrec, __m256i qv)
{
    const __m256i hi = mulHi64Narrow(x, wPrec);
    return _mm256_sub_epi64(mul32(x, wv), mul32(hi, qv));
}

/** Exact floor(v * M / 2^64) for v < 2^62, M < 2^37 (split). */
inline __m256i
barrettHi(__m256i v, const Split32 &m)
{
    const __m256i vHi = _mm256_srli_epi64(v, 32);
    const __m256i t = _mm256_add_epi64(
        _mm256_add_epi64(mul32(vHi, m.lo), mul32(v, m.hi)),
        _mm256_srli_epi64(mul32(v, m.lo), 32));
    return _mm256_add_epi64(mul32(vHi, m.hi), _mm256_srli_epi64(t, 32));
}

/** Canonical v mod q for v < min(2^62, q * 2^32). */
inline __m256i
barrettReduce(__m256i v, const Split32 &m, __m256i qv, __m256i qm1)
{
    const __m256i hi = barrettHi(v, m);
    __m256i r = _mm256_sub_epi64(v, mul32(hi, qv));
    r = csub(r, qv, qm1);
    return csub(r, qv, qm1);
}

/** Multiply-class kernels vectorize only for q below this bound. */
constexpr u64 kNarrowModulusBound = u64{1} << 30;

inline bool
narrow(u64 q)
{
    return q < kNarrowModulusBound;
}

// --- Kernels -----------------------------------------------------------

void
addModVec(u64 *a, const u64 *b, std::size_t n, u64 q)
{
    const __m256i qv = set1(q), qm1 = set1(q - 1);
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const __m256i x =
            _mm256_loadu_si256(reinterpret_cast<const __m256i *>(a + i));
        const __m256i y =
            _mm256_loadu_si256(reinterpret_cast<const __m256i *>(b + i));
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(a + i),
                            csub(_mm256_add_epi64(x, y), qv, qm1));
    }
    ref::addModVec(a + i, b + i, n - i, q);
}

void
subModVec(u64 *a, const u64 *b, std::size_t n, u64 q)
{
    const __m256i qv = set1(q);
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const __m256i x =
            _mm256_loadu_si256(reinterpret_cast<const __m256i *>(a + i));
        const __m256i y =
            _mm256_loadu_si256(reinterpret_cast<const __m256i *>(b + i));
        const __m256i borrow = _mm256_cmpgt_epi64(y, x);
        const __m256i r = _mm256_add_epi64(
            _mm256_sub_epi64(x, y), _mm256_and_si256(qv, borrow));
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(a + i), r);
    }
    ref::subModVec(a + i, b + i, n - i, q);
}

void
mulModVec(u64 *a, const u64 *b, std::size_t n, u64 q)
{
    if (!narrow(q))
        return ref::mulModVec(a, b, n, q);
    const Split32 m(static_cast<u64>((u128{1} << 64) / q));
    const __m256i qv = set1(q), qm1 = set1(q - 1);
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const __m256i x =
            _mm256_loadu_si256(reinterpret_cast<const __m256i *>(a + i));
        const __m256i y =
            _mm256_loadu_si256(reinterpret_cast<const __m256i *>(b + i));
        const __m256i prod = mul32(x, y); // exact: x, y < q < 2^30
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(a + i),
                            barrettReduce(prod, m, qv, qm1));
    }
    ref::mulModVec(a + i, b + i, n - i, q);
}

void
mulAddModVec(u64 *acc, const u64 *a, const u64 *b, std::size_t n, u64 q)
{
    if (!narrow(q))
        return ref::mulAddModVec(acc, a, b, n, q);
    const Split32 m(static_cast<u64>((u128{1} << 64) / q));
    const __m256i qv = set1(q), qm1 = set1(q - 1);
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const __m256i x =
            _mm256_loadu_si256(reinterpret_cast<const __m256i *>(a + i));
        const __m256i y =
            _mm256_loadu_si256(reinterpret_cast<const __m256i *>(b + i));
        const __m256i s = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(acc + i));
        const __m256i prod = mul32(x, y); // exact: x, y < q < 2^30
        const __m256i r = barrettReduce(prod, m, qv, qm1);
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(acc + i),
                            csub(_mm256_add_epi64(s, r), qv, qm1));
    }
    ref::mulAddModVec(acc + i, a + i, b + i, n - i, q);
}

void
negateVec(u64 *a, std::size_t n, u64 q)
{
    const __m256i qv = set1(q), zero = _mm256_setzero_si256();
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const __m256i x =
            _mm256_loadu_si256(reinterpret_cast<const __m256i *>(a + i));
        __m256i r = _mm256_sub_epi64(qv, x);
        r = _mm256_andnot_si256(_mm256_cmpeq_epi64(x, zero), r);
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(a + i), r);
    }
    ref::negateVec(a + i, n - i, q);
}

void
mulModShoupVec(u64 *y, const u64 *x, std::size_t n, u64 w, u64 wPrec,
               u64 q)
{
    if (!narrow(q))
        return ref::mulModShoupVec(y, x, n, w, wPrec, q);
    const Split32 wp(wPrec);
    const __m256i wv = set1(w), qv = set1(q), qm1 = set1(q - 1);
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const __m256i xv =
            _mm256_loadu_si256(reinterpret_cast<const __m256i *>(x + i));
        const __m256i r = shoupMulLazy(xv, wv, wp, qv);
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(y + i),
                            csub(r, qv, qm1));
    }
    ref::mulModShoupVec(y + i, x + i, n - i, w, wPrec, q);
}

void
baseconvMacVec(u64 *y, const u64 *const *xs, const u64 *cs,
               std::size_t ls, std::size_t n, u64 q, u64 x_bound)
{
    // Narrow gate: destination modulus < 2^30 AND every source value
    // < 2^32, so the pre-reduction x mod q uses the cheap two-product
    // Barrett (quotient off by at most 1 -> one conditional subtract)
    // and products fit 64-bit accumulators.
    if (!narrow(q) || x_bound > (u64{1} << 32) || n < 4)
        return ref::baseconvMacVec(y, xs, cs, ls, n, q, x_bound);

    const u64 M = static_cast<u64>((u128{1} << 64) / q);
    const Split32 m(M);
    const __m256i qv = set1(q), qm1 = set1(q - 1);
    // Accumulator flush period: chunk * q^2 <= q * 2^32 keeps the
    // running sum below the Barrett domain (and far below 2^64).
    const std::size_t chunk =
        static_cast<std::size_t>((u64{1} << 32) / q);

    std::size_t k = 0;
    for (; k + 4 <= n; k += 4) {
        __m256i acc = _mm256_setzero_si256();
        std::size_t since_flush = 0;
        for (std::size_t i = 0; i < ls; ++i) {
            const __m256i x = _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(xs[i] + k));
            // t = x mod q, x < 2^32: quotient via two-product Barrett.
            const __m256i hi = mulHi64Narrow(x, m);
            __m256i t = _mm256_sub_epi64(x, mul32(hi, qv));
            t = csub(t, qv, qm1); // [0, q)
            acc = _mm256_add_epi64(acc, mul32(t, set1(cs[i])));
            if (++since_flush >= chunk && i + 1 < ls) {
                acc = barrettReduce(acc, m, qv, qm1);
                since_flush = 0;
            }
        }
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(y + k),
                            barrettReduce(acc, m, qv, qm1));
    }
    // Scalar tail (exact 128-bit accumulation; same value).
    for (; k < n; ++k) {
        u128 acc = 0;
        for (std::size_t i = 0; i < ls; ++i)
            acc += (u128)(xs[i][k] % q) * cs[i];
        y[k] = static_cast<u64>(acc % q);
    }
}

void
gatherVec(u64 *dst, const u64 *src, const std::uint32_t *idx,
          std::size_t n)
{
    std::size_t j = 0;
    for (; j + 4 <= n; j += 4) {
        const __m128i iv =
            _mm_loadu_si128(reinterpret_cast<const __m128i *>(idx + j));
        const __m256i g = _mm256_i32gather_epi64(
            reinterpret_cast<const long long *>(src), iv, 8);
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(dst + j), g);
    }
    ref::gatherVec(dst + j, src, idx + j, n - j);
}

void
nttFwdButterflyVec(u64 *x, u64 *y, std::size_t t, u64 w, u64 wPrec,
                   u64 q)
{
    if (!narrow(q))
        return ref::nttFwdButterflyVec(x, y, t, w, wPrec, q);
    const Split32 wp(wPrec);
    const __m256i wv = set1(w), qv = set1(q);
    const __m256i two_q = set1(2 * q), two_qm1 = set1(2 * q - 1);
    std::size_t j = 0;
    for (; j + 4 <= t; j += 4) {
        __m256i xv =
            _mm256_loadu_si256(reinterpret_cast<const __m256i *>(x + j));
        const __m256i yv =
            _mm256_loadu_si256(reinterpret_cast<const __m256i *>(y + j));
        xv = csub(xv, two_q, two_qm1);              // [0, 2q)
        const __m256i v = shoupMulLazy(yv, wv, wp, qv); // [0, 2q)
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(x + j),
                            _mm256_add_epi64(xv, v));
        _mm256_storeu_si256(
            reinterpret_cast<__m256i *>(y + j),
            _mm256_sub_epi64(_mm256_add_epi64(xv, two_q), v));
    }
    ref::nttFwdButterflyVec(x + j, y + j, t - j, w, wPrec, q);
}

void
nttInvButterflyVec(u64 *x, u64 *y, std::size_t t, u64 w, u64 wPrec,
                   u64 q)
{
    if (!narrow(q))
        return ref::nttInvButterflyVec(x, y, t, w, wPrec, q);
    const Split32 wp(wPrec);
    const __m256i wv = set1(w), qv = set1(q);
    const __m256i two_q = set1(2 * q), two_qm1 = set1(2 * q - 1);
    std::size_t j = 0;
    for (; j + 4 <= t; j += 4) {
        const __m256i xv =
            _mm256_loadu_si256(reinterpret_cast<const __m256i *>(x + j));
        const __m256i yv =
            _mm256_loadu_si256(reinterpret_cast<const __m256i *>(y + j));
        const __m256i s =
            csub(_mm256_add_epi64(xv, yv), two_q, two_qm1);
        const __m256i u =
            _mm256_sub_epi64(_mm256_add_epi64(xv, two_q), yv); // (0,4q)
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(x + j), s);
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(y + j),
                            shoupMulLazy(u, wv, wp, qv));
    }
    ref::nttInvButterflyVec(x + j, y + j, t - j, w, wPrec, q);
}

void
nttCorrectVec(u64 *a, std::size_t n, u64 q)
{
    if (!narrow(q))
        return ref::nttCorrectVec(a, n, q);
    const __m256i qv = set1(q), qm1 = set1(q - 1);
    const __m256i two_q = set1(2 * q), two_qm1 = set1(2 * q - 1);
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        __m256i x =
            _mm256_loadu_si256(reinterpret_cast<const __m256i *>(a + i));
        x = csub(x, two_q, two_qm1);
        x = csub(x, qv, qm1);
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(a + i), x);
    }
    ref::nttCorrectVec(a + i, n - i, q);
}

void
nttScaleInvVec(u64 *a, std::size_t n, u64 w, u64 wPrec, u64 q)
{
    if (!narrow(q))
        return ref::nttScaleInvVec(a, n, w, wPrec, q);
    const Split32 wp(wPrec);
    const __m256i wv = set1(w), qv = set1(q), qm1 = set1(q - 1);
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const __m256i x =
            _mm256_loadu_si256(reinterpret_cast<const __m256i *>(a + i));
        const __m256i r = shoupMulLazy(x, wv, wp, qv);
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(a + i),
                            csub(r, qv, qm1));
    }
    ref::nttScaleInvVec(a + i, n - i, w, wPrec, q);
}

// --- Fused pipeline kernels (DESIGN.md §5e) ----------------------------

/** Vector-splatted RescaleConsts; built once per kernel call. Also
 *  requires narrow(ql) so xs = xl + half stays below 2^32. */
struct RescaleVec
{
    Split32 nInvPrec, qlInvPrec, mq;
    __m256i nInvW, qlInvW, qlv, qlm1, halfv, halfModQ, qv, qm1;

    RescaleVec(const RescaleConsts &rc, u64 q)
        : nInvPrec(rc.nInvPrec), qlInvPrec(rc.qlInvPrec),
          mq(static_cast<u64>((u128{1} << 64) / q)), nInvW(set1(rc.nInvW)),
          qlInvW(set1(rc.qlInvW)), qlv(set1(rc.ql)), qlm1(set1(rc.ql - 1)),
          halfv(set1(rc.half)), halfModQ(set1(rc.half % q)), qv(set1(q)),
          qm1(set1(q - 1))
    {
    }
};

/** rescaleCorrectScalar on 4 lanes; a < 2q, xl < ql, both narrow. */
inline __m256i
rescaleCorrect(__m256i a, __m256i xl, const RescaleVec &c)
{
    // v = fold_q(mulLazy(a, nInv)); exact: a < 2q < 2^31.
    const __m256i v =
        csub(shoupMulLazy(a, c.nInvW, c.nInvPrec, c.qv), c.qv, c.qm1);
    // xs = addMod(xl, half, ql).
    const __m256i xs = csub(_mm256_add_epi64(xl, c.halfv), c.qlv, c.qlm1);
    // xs mod q: two-product Barrett, quotient off by at most 1 for
    // xs < 2^32 -> one conditional subtract (as in baseconvMacVec).
    const __m256i hi = mulHi64Narrow(xs, c.mq);
    __m256i t = _mm256_sub_epi64(xs, mul32(hi, c.qv));
    t = csub(t, c.qv, c.qm1);
    // xm = subMod(xs mod q, half mod q, q).
    __m256i borrow = _mm256_cmpgt_epi64(c.halfModQ, t);
    const __m256i xm = _mm256_add_epi64(_mm256_sub_epi64(t, c.halfModQ),
                                        _mm256_and_si256(c.qv, borrow));
    // d = subMod(v, xm, q).
    borrow = _mm256_cmpgt_epi64(xm, v);
    const __m256i d = _mm256_add_epi64(_mm256_sub_epi64(v, xm),
                                       _mm256_and_si256(c.qv, borrow));
    // Canonical Shoup multiply by ql^-1.
    return csub(shoupMulLazy(d, c.qlInvW, c.qlInvPrec, c.qv), c.qv, c.qm1);
}

void
nttInvScaleButterflyVec(u64 *x, u64 *y, std::size_t t, u64 w, u64 wPrec,
                        u64 nw, u64 nwPrec, u64 q)
{
    if (!narrow(q))
        return ref::nttInvScaleButterflyVec(x, y, t, w, wPrec, nw,
                                            nwPrec, q);
    const Split32 wp(wPrec), nwp(nwPrec);
    const __m256i wv = set1(w), nwv = set1(nw), qv = set1(q);
    const __m256i qm1 = set1(q - 1);
    const __m256i two_q = set1(2 * q), two_qm1 = set1(2 * q - 1);
    std::size_t j = 0;
    for (; j + 4 <= t; j += 4) {
        const __m256i xv =
            _mm256_loadu_si256(reinterpret_cast<const __m256i *>(x + j));
        const __m256i yv =
            _mm256_loadu_si256(reinterpret_cast<const __m256i *>(y + j));
        const __m256i s =
            csub(_mm256_add_epi64(xv, yv), two_q, two_qm1);
        const __m256i u =
            _mm256_sub_epi64(_mm256_add_epi64(xv, two_q), yv); // (0,4q)
        const __m256i mv = shoupMulLazy(u, wv, wp, qv);        // [0,2q)
        _mm256_storeu_si256(
            reinterpret_cast<__m256i *>(x + j),
            csub(shoupMulLazy(s, nwv, nwp, qv), qv, qm1));
        _mm256_storeu_si256(
            reinterpret_cast<__m256i *>(y + j),
            csub(shoupMulLazy(mv, nwv, nwp, qv), qv, qm1));
    }
    ref::nttInvScaleButterflyVec(x + j, y + j, t - j, w, wPrec, nw,
                                 nwPrec, q);
}

void
rescaleEpilogueVec(u64 *a, const u64 *xl, std::size_t n,
                   const RescaleConsts *rc, u64 q)
{
    if (!narrow(q) || !narrow(rc->ql))
        return ref::rescaleEpilogueVec(a, xl, n, rc, q);
    const RescaleVec c(*rc, q);
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const __m256i av =
            _mm256_loadu_si256(reinterpret_cast<const __m256i *>(a + i));
        const __m256i xv =
            _mm256_loadu_si256(reinterpret_cast<const __m256i *>(xl + i));
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(a + i),
                            rescaleCorrect(av, xv, c));
    }
    ref::rescaleEpilogueVec(a + i, xl + i, n - i, rc, q);
}

void
rescaleNttFwdButterflyVec(u64 *x, u64 *y, const u64 *xlx, const u64 *xly,
                          std::size_t t, const RescaleConsts *rc, u64 w,
                          u64 wPrec, u64 q)
{
    if (!narrow(q) || !narrow(rc->ql))
        return ref::rescaleNttFwdButterflyVec(x, y, xlx, xly, t, rc, w,
                                              wPrec, q);
    const RescaleVec c(*rc, q);
    const Split32 wp(wPrec);
    const __m256i wv = set1(w), qv = set1(q), two_q = set1(2 * q);
    std::size_t j = 0;
    for (; j + 4 <= t; j += 4) {
        const __m256i xv =
            _mm256_loadu_si256(reinterpret_cast<const __m256i *>(x + j));
        const __m256i yv =
            _mm256_loadu_si256(reinterpret_cast<const __m256i *>(y + j));
        const __m256i lx = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(xlx + j));
        const __m256i ly = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(xly + j));
        const __m256i cx = rescaleCorrect(xv, lx, c); // [0, q)
        const __m256i cy = rescaleCorrect(yv, ly, c); // [0, q)
        const __m256i v = shoupMulLazy(cy, wv, wp, qv); // [0, 2q)
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(x + j),
                            _mm256_add_epi64(cx, v));
        _mm256_storeu_si256(
            reinterpret_cast<__m256i *>(y + j),
            _mm256_sub_epi64(_mm256_add_epi64(cx, two_q), v));
    }
    ref::rescaleNttFwdButterflyVec(x + j, y + j, xlx + j, xly + j, t - j,
                                   rc, w, wPrec, q);
}

void
nttCorrectSubMulShoupVec(u64 *dst, const u64 *acc, const u64 *x,
                         std::size_t n, u64 w, u64 wPrec, u64 q)
{
    if (!narrow(q))
        return ref::nttCorrectSubMulShoupVec(dst, acc, x, n, w, wPrec, q);
    const Split32 wp(wPrec);
    const __m256i wv = set1(w), qv = set1(q), qm1 = set1(q - 1);
    const __m256i two_q = set1(2 * q), two_qm1 = set1(2 * q - 1);
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        __m256i c =
            _mm256_loadu_si256(reinterpret_cast<const __m256i *>(x + i));
        c = csub(c, two_q, two_qm1);
        c = csub(c, qv, qm1); // canonical
        const __m256i av = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(acc + i));
        const __m256i borrow = _mm256_cmpgt_epi64(c, av);
        const __m256i d = _mm256_add_epi64(
            _mm256_sub_epi64(av, c), _mm256_and_si256(qv, borrow));
        const __m256i r = shoupMulLazy(d, wv, wp, qv);
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(dst + i),
                            csub(r, qv, qm1));
    }
    ref::nttCorrectSubMulShoupVec(dst + i, acc + i, x + i, n - i, w,
                                  wPrec, q);
}

} // namespace

const KernelTable *
avx2Table()
{
    static const KernelTable table = {
        SimdBackend::Avx2,
        "avx2",
        &addModVec,
        &subModVec,
        &mulModVec,
        &mulAddModVec,
        &negateVec,
        &mulModShoupVec,
        &baseconvMacVec,
        &gatherVec,
        &nttFwdButterflyVec,
        &nttInvButterflyVec,
        &ref::nttFwdTailVec,
        &ref::nttInvTailVec,
        &nttCorrectVec,
        &nttScaleInvVec,
        &nttInvScaleButterflyVec,
        &rescaleEpilogueVec,
        &rescaleNttFwdButterflyVec,
        &nttCorrectSubMulShoupVec,
    };
    return &table;
}

} // namespace simd
} // namespace cl

#else // !__AVX2__

namespace cl {
namespace simd {

const KernelTable *
avx2Table()
{
    return nullptr;
}

} // namespace simd
} // namespace cl

#endif
