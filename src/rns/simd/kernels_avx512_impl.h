/**
 * @file
 * The AVX-512 backend's kernels: 8 lanes of 64-bit residues per
 * vector. Internal header, included by exactly two translation units
 * so that each compiles its own copy (hence the anonymous namespace):
 *
 *  - kernels_avx512.cpp, built with -mavx512f only: the table every
 *    AVX-512F CPU (e.g. Skylake-SP) runs. No IFMA instruction can
 *    appear in it.
 *  - kernels_avx512_ifma.cpp, built with -mavx512ifma, which defines
 *    CL_SIMD_AVX512_IFMA before including this file: the same kernels
 *    plus the IFMA lane arithmetic, selected only when CPUID reports
 *    avx512ifma.
 *
 * Three lane arithmetics; each multiply-class kernel runs the first
 * that fits its operands:
 *
 *  - Narrow (q < 2^30): the AVX2 backend's algorithms (derivations in
 *    kernels_avx2.cpp). Every lazy operand is below 4q < 2^32, so one
 *    32x32->64 vpmuludq forms an exact product.
 *  - IFMA (q < 2^50, IFMA table only): 52x52-bit products from
 *    vpmadd52luq/vpmadd52huq. Every lazy operand is below 4q < 2^52,
 *    the width of an IFMA limb.
 *  - Wide (q < 2^62, the CKKS primes): exact 64x64-bit lane products
 *    from vpmuludq alone — the low word from three, the high word
 *    from four plus the carry out of the middle terms
 *    (mulHi64/mulLo64).
 *
 * Each multiply-class kernel body is a template over the lane
 * arithmetic (NarrowShoup/IfmaShoup/WideShoup, NarrowMulMod/
 * IfmaMulMod/WideMulMod). Every Shoup type computes
 * ShoupMul::mulLazy's integer formula, so the lazy representatives
 * match the scalar reference bit for bit. Native unsigned 64-bit
 * compares into mask registers and masked subtracts do the
 * conditional corrections.
 */

#ifndef CL_RNS_SIMD_KERNELS_AVX512_IMPL_H
#define CL_RNS_SIMD_KERNELS_AVX512_IMPL_H

#include "rns/simd/kernels.h"
#include "rns/simd/ref_impl.h"

#if defined(__AVX512F__)

#include <immintrin.h>

#include <array>
#include <type_traits>

#if defined(CL_SIMD_AVX512_IFMA) && !defined(__AVX512IFMA__)
#error "CL_SIMD_AVX512_IFMA needs a compiler targeting avx512ifma"
#endif

namespace cl {
namespace simd {
namespace {

/** The narrow arithmetic applies to q below this bound. */
constexpr u64 kNarrowModulusBound = u64{1} << 30;

inline bool
narrow(u64 q)
{
    return q < kNarrowModulusBound;
}

/** IFMA multiplies the low 52 bits of each lane; every Shoup operand
 *  must be below this bound. */
constexpr u64 kIfmaLimb = u64{1} << 52;

/** The IFMA arithmetic applies to q below this bound: the lazy NTT
 *  operands reach 4q, which must stay below one IFMA limb. */
constexpr u64 kIfmaModulusBound = u64{1} << 50;

inline bool
ifmaFits(u64 q)
{
    return q < kIfmaModulusBound;
}

inline __m512i
set1(u64 v)
{
    return _mm512_set1_epi64(static_cast<long long>(v));
}

/** low32(a) * low32(b), full 64-bit product per lane. */
inline __m512i
mul32(__m512i a, __m512i b)
{
    return _mm512_mul_epu32(a, b);
}

inline __m512i
hi32(__m512i a)
{
    return _mm512_srli_epi64(a, 32);
}

/** r - q if r >= q (unsigned). */
inline __m512i
csub(__m512i r, __m512i q)
{
    const __mmask8 m = _mm512_cmpge_epu64_mask(r, q);
    return _mm512_mask_sub_epi64(r, m, r, q);
}

/** (a - b) mod q for a, b < q. */
inline __m512i
subModQ(__m512i a, __m512i b, __m512i q)
{
    const __mmask8 borrow = _mm512_cmplt_epu64_mask(a, b);
    const __m512i d = _mm512_sub_epi64(a, b);
    return _mm512_mask_add_epi64(d, borrow, d, q);
}

/**
 * High word of the exact 128-bit lane products a*b. aHi and bHi are
 * the operands' high halves in their low dwords (vpmuludq ignores the
 * upper dwords, so a and b serve as their own low halves).
 */
inline __m512i
mulHi64(__m512i a, __m512i aHi, __m512i b, __m512i bHi)
{
    const __m512i ll = mul32(a, b);
    const __m512i lh = mul32(a, bHi);
    const __m512i hl = mul32(aHi, b);
    const __m512i hh = mul32(aHi, bHi);
    // Bits 32..95 of the product: hl + (ll >> 32) + low32(lh) is at
    // most (2^32-1)^2 + 2(2^32-1) = 2^64 - 1, so the sum cannot wrap
    // and its high dword is the carry into the high word.
    const __m512i mid = _mm512_add_epi64(
        _mm512_add_epi64(hl, hi32(ll)),
        _mm512_and_si512(lh, set1(0xffffffffu)));
    return _mm512_add_epi64(_mm512_add_epi64(hh, hi32(lh)), hi32(mid));
}

/** Low word of the lane products a*b (mod 2^64). */
inline __m512i
mulLo64(__m512i a, __m512i aHi, __m512i b, __m512i bHi)
{
    const __m512i cross = _mm512_add_epi64(mul32(aHi, b), mul32(a, bHi));
    return _mm512_add_epi64(mul32(a, b), _mm512_slli_epi64(cross, 32));
}

/** Shoup multiplier by w (splatted or one per lane) for q < 2^30;
 *  mulLazy needs x < 2^32. */
struct NarrowShoup
{
    __m512i w, p, pHi, q;

    NarrowShoup(__m512i w_, __m512i wPrec, __m512i q_)
        : w(w_), p(wPrec), pHi(hi32(wPrec)), q(q_)
    {
    }

    NarrowShoup(u64 w_, u64 wPrec, u64 q_)
        : w(set1(w_)), p(set1(wPrec)), pHi(set1(wPrec >> 32)), q(set1(q_))
    {
    }

    /** ShoupMul::mulLazy: x*w - floor(x*wPrec/2^64)*q, in [0, 2q).
     *  The quotient is (x*pHi + ((x*pLo) >> 32)) >> 32, exact since
     *  x*pHi <= (2^32-1)^2 leaves room for the carry term. */
    __m512i
    mulLazy(__m512i x) const
    {
        const __m512i h =
            hi32(_mm512_add_epi64(mul32(x, pHi), hi32(mul32(x, p))));
        return _mm512_sub_epi64(mul32(x, w), mul32(h, q));
    }
};

/** Shoup multiplier by w (splatted or one per lane) for q < 2^62;
 *  mulLazy is exact for any x < 2^64. */
struct WideShoup
{
    __m512i w, wHi, p, pHi, q, qHi;

    WideShoup(__m512i w_, __m512i wPrec, __m512i q_)
        : w(w_), wHi(hi32(w_)), p(wPrec), pHi(hi32(wPrec)), q(q_),
          qHi(hi32(q_))
    {
    }

    WideShoup(u64 w_, u64 wPrec, u64 q_)
        : w(set1(w_)), wHi(set1(w_ >> 32)), p(set1(wPrec)),
          pHi(set1(wPrec >> 32)), q(set1(q_)), qHi(set1(q_ >> 32))
    {
    }

    /** ShoupMul::mulLazy: x*w - floor(x*wPrec/2^64)*q mod 2^64, in
     *  [0, 2q). */
    __m512i
    mulLazy(__m512i x) const
    {
        const __m512i xHi = hi32(x);
        const __m512i h = mulHi64(x, xHi, p, pHi);
        return _mm512_sub_epi64(mulLo64(x, xHi, w, wHi),
                                mulLo64(h, hi32(h), q, qHi));
    }
};

/** Canonical x*y mod q for x, y < q < 2^30: one exact product, then a
 *  Barrett reduction with M = floor(2^64/q) < 2^35. */
struct NarrowMulMod
{
    __m512i m, mHi, q;

    explicit NarrowMulMod(u64 q_)
    {
        const u64 mv = static_cast<u64>((u128{1} << 64) / q_);
        m = set1(mv);
        mHi = set1(mv >> 32);
        q = set1(q_);
    }

    /** Canonical v mod q for v < min(2^62, q * 2^32): the exact
     *  floor(v*M / 2^64) undershoots the quotient by at most 2. */
    __m512i
    reduce(__m512i v) const
    {
        const __m512i vHi = hi32(v);
        const __m512i t = _mm512_add_epi64(
            _mm512_add_epi64(mul32(vHi, m), mul32(v, mHi)),
            hi32(mul32(v, m)));
        const __m512i h = _mm512_add_epi64(mul32(vHi, mHi), hi32(t));
        const __m512i r = _mm512_sub_epi64(v, mul32(h, q));
        return csub(csub(r, q), q);
    }

    __m512i
    operator()(__m512i x, __m512i y) const
    {
        return reduce(mul32(x, y));
    }
};

/**
 * Canonical x*y mod q for x, y < q < 2^62: k-bit Barrett reduction
 * (HAC 14.42 with base 2), k the bit width of q. The product
 * v = x*y < 2^2k; with q1 = floor(v / 2^(k-1)) < 2^(k+1) and
 * mu = floor(2^2k / q) < 2^(k+1), v - floor(q1*mu / 2^(k+1))*q lies
 * in [0, 3q), so two conditional subtracts finish. Storing
 * mu << (63-k) turns the quotient into one high product.
 */
struct WideMulMod
{
    __m512i mu, muHi, q, qHi;
    __m128i qShift, hiShift; // k - 1 and 65 - k

    explicit WideMulMod(u64 q_)
    {
        const unsigned k = 64 - __builtin_clzll(q_);
        const u64 m = static_cast<u64>((u128{1} << (2 * k)) / q_)
                      << (63 - k);
        mu = set1(m);
        muHi = set1(m >> 32);
        q = set1(q_);
        qHi = set1(q_ >> 32);
        qShift = _mm_cvtsi32_si128(static_cast<int>(k - 1));
        hiShift = _mm_cvtsi32_si128(static_cast<int>(65 - k));
    }

    __m512i
    operator()(__m512i x, __m512i y) const
    {
        const __m512i xHi = hi32(x), yHi = hi32(y);
        const __m512i lo = mulLo64(x, xHi, y, yHi);
        const __m512i hi = mulHi64(x, xHi, y, yHi);
        const __m512i q1 = _mm512_or_si512(_mm512_srl_epi64(lo, qShift),
                                           _mm512_sll_epi64(hi, hiShift));
        const __m512i q3 = mulHi64(q1, hi32(q1), mu, muHi);
        const __m512i r =
            _mm512_sub_epi64(lo, mulLo64(q3, hi32(q3), q, qHi));
        return csub(csub(r, q), q);
    }
};

#if defined(CL_SIMD_AVX512_IFMA)

/** Low 52 bits of the lane products a*b, added to acc. */
inline __m512i
madd52lo(__m512i acc, __m512i a, __m512i b)
{
    return _mm512_madd52lo_epu64(acc, a, b);
}

/** Bits 52..103 of the lane products a*b, added to acc. */
inline __m512i
madd52hi(__m512i acc, __m512i a, __m512i b)
{
    return _mm512_madd52hi_epu64(acc, a, b);
}

/**
 * Shoup multiplier by w (splatted or one per lane) for q < 2^50;
 * mulLazy is exact for any x < 2^52, which covers every lazy [0, 4q)
 * operand. With wPrec = ph*2^52 + pl (pl < 2^52, ph < 2^12):
 *
 *   floor(x*wPrec / 2^64) = floor((x*ph + floor(x*pl / 2^52)) / 2^12)
 *
 * since x*ph is an integer. The inner floor is one vpmadd52huq; x*ph
 * < 2^64 comes from two vpmuludq (ph fits a dword), and the sum stays
 * below 2^64. The remainder x*w - quo*q lies in [0, 2q), below 2^52,
 * so it is exact mod 2^52: two vpmadd52luq with -q mod 2^52 as the
 * second factor, then a mask.
 */
struct IfmaShoup
{
    __m512i w, pl, ph, q, negQ;

    IfmaShoup(__m512i w_, __m512i wPrec, __m512i q_)
        : w(w_), pl(_mm512_and_si512(wPrec, set1(kIfmaLimb - 1))),
          ph(_mm512_srli_epi64(wPrec, 52)), q(q_),
          negQ(_mm512_sub_epi64(set1(kIfmaLimb), q_))
    {
    }

    IfmaShoup(u64 w_, u64 wPrec, u64 q_)
        : w(set1(w_)), pl(set1(wPrec & (kIfmaLimb - 1))),
          ph(set1(wPrec >> 52)), q(set1(q_)), negQ(set1(kIfmaLimb - q_))
    {
    }

    /** ShoupMul::mulLazy: x*w - floor(x*wPrec/2^64)*q, in [0, 2q). */
    __m512i
    mulLazy(__m512i x) const
    {
        const __m512i xph = _mm512_add_epi64(
            mul32(x, ph), _mm512_slli_epi64(mul32(hi32(x), ph), 32));
        const __m512i quo = _mm512_srli_epi64(madd52hi(xph, x, pl), 12);
        const __m512i r =
            madd52lo(madd52lo(_mm512_setzero_si512(), x, w), quo, negQ);
        return _mm512_and_si512(r, set1(kIfmaLimb - 1));
    }
};

/**
 * Canonical x*y mod q for x, y < q < 2^50: WideMulMod's k-bit Barrett
 * reduction on the 104-bit product lo + hi*2^52 that vpmadd52luq/
 * vpmadd52huq form exactly. q1 = floor(v / 2^(k-1)) < 2^(k+1) <= 2^51
 * fits an IFMA limb, and storing mu << (51-k) (< 2^52) makes
 * floor(q1*mu / 2^(k+1)) one vpmadd52huq. The remainder lies in
 * [0, 3q), below 2^52, so it is exact mod 2^52.
 */
struct IfmaMulMod
{
    __m512i mu, q, negQ;
    __m128i loShift, hiShift; // k - 1 and 53 - k

    explicit IfmaMulMod(u64 q_)
    {
        const unsigned k = 64 - __builtin_clzll(q_);
        const u64 m = static_cast<u64>((u128{1} << (2 * k)) / q_)
                      << (51 - k);
        mu = set1(m);
        q = set1(q_);
        negQ = set1(kIfmaLimb - q_);
        loShift = _mm_cvtsi32_si128(static_cast<int>(k - 1));
        hiShift = _mm_cvtsi32_si128(static_cast<int>(53 - k));
    }

    __m512i
    operator()(__m512i x, __m512i y) const
    {
        const __m512i zero = _mm512_setzero_si512();
        const __m512i lo = madd52lo(zero, x, y);
        const __m512i hi = madd52hi(zero, x, y);
        const __m512i q1 = _mm512_or_si512(_mm512_srl_epi64(lo, loShift),
                                           _mm512_sll_epi64(hi, hiShift));
        const __m512i q3 = madd52hi(zero, q1, mu);
        const __m512i r = _mm512_and_si512(madd52lo(lo, q3, negQ),
                                           set1(kIfmaLimb - 1));
        return csub(csub(r, q), q);
    }
};

#endif // CL_SIMD_AVX512_IFMA

/**
 * Calls f(std::type_identity<S>{}) with the fastest Shoup arithmetic
 * S whose gate holds: narrow when @p narrow_ok, else IFMA when
 * @p ifma_ok and this is the IFMA table, else wide.
 */
template <class F>
inline void
withShoup(bool narrow_ok, bool ifma_ok, F &&f)
{
    if (narrow_ok)
        return f(std::type_identity<NarrowShoup>{});
#if defined(CL_SIMD_AVX512_IFMA)
    if (ifma_ok)
        return f(std::type_identity<IfmaShoup>{});
#else
    (void)ifma_ok;
#endif
    f(std::type_identity<WideShoup>{});
}

/** withShoup with the Shoup-class gates: every operand is a lazy
 *  residue below 4q. */
template <class F>
inline void
withShoup(u64 q, F &&f)
{
    withShoup(narrow(q), ifmaFits(q), f);
}

/** As withShoup, for the canonical Barrett multipliers (operands
 *  below q). */
template <class F>
inline void
withMulMod(u64 q, F &&f)
{
    if (narrow(q))
        return f(std::type_identity<NarrowMulMod>{});
#if defined(CL_SIMD_AVX512_IFMA)
    if (ifmaFits(q))
        return f(std::type_identity<IfmaMulMod>{});
#endif
    f(std::type_identity<WideMulMod>{});
}

// --- Kernels -----------------------------------------------------------

void
addModVec(u64 *a, const u64 *b, std::size_t n, u64 q)
{
    const __m512i qv = set1(q);
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        const __m512i x = _mm512_loadu_si512(a + i);
        const __m512i y = _mm512_loadu_si512(b + i);
        _mm512_storeu_si512(a + i, csub(_mm512_add_epi64(x, y), qv));
    }
    ref::addModVec(a + i, b + i, n - i, q);
}

void
subModVec(u64 *a, const u64 *b, std::size_t n, u64 q)
{
    const __m512i qv = set1(q);
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        const __m512i x = _mm512_loadu_si512(a + i);
        const __m512i y = _mm512_loadu_si512(b + i);
        _mm512_storeu_si512(a + i, subModQ(x, y, qv));
    }
    ref::subModVec(a + i, b + i, n - i, q);
}

template <class M>
void
barrettMulMod(u64 *a, const u64 *b, std::size_t n, u64 q)
{
    const M mul(q);
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        const __m512i x = _mm512_loadu_si512(a + i);
        const __m512i y = _mm512_loadu_si512(b + i);
        _mm512_storeu_si512(a + i, mul(x, y));
    }
    ref::mulModVec(a + i, b + i, n - i, q);
}

void
mulModVec(u64 *a, const u64 *b, std::size_t n, u64 q)
{
    withMulMod(q, [&]<class M>(std::type_identity<M>) {
        barrettMulMod<M>(a, b, n, q);
    });
}

template <class M>
void
barrettMulAddMod(u64 *acc, const u64 *a, const u64 *b, std::size_t n, u64 q)
{
    const M mul(q);
    const __m512i qv = set1(q);
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        const __m512i x = _mm512_loadu_si512(a + i);
        const __m512i y = _mm512_loadu_si512(b + i);
        const __m512i s = _mm512_loadu_si512(acc + i);
        _mm512_storeu_si512(acc + i,
                            csub(_mm512_add_epi64(s, mul(x, y)), qv));
    }
    ref::mulAddModVec(acc + i, a + i, b + i, n - i, q);
}

void
mulAddModVec(u64 *acc, const u64 *a, const u64 *b, std::size_t n, u64 q)
{
    withMulMod(q, [&]<class M>(std::type_identity<M>) {
        barrettMulAddMod<M>(acc, a, b, n, q);
    });
}

void
negateVec(u64 *a, std::size_t n, u64 q)
{
    const __m512i qv = set1(q), zero = _mm512_setzero_si512();
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        const __m512i x = _mm512_loadu_si512(a + i);
        const __mmask8 nz = _mm512_cmpneq_epu64_mask(x, zero);
        _mm512_storeu_si512(a + i,
                            _mm512_maskz_sub_epi64(nz, qv, x));
    }
    ref::negateVec(a + i, n - i, q);
}

template <class S>
void
mulModShoup(u64 *y, const u64 *x, std::size_t n, u64 w, u64 wPrec, u64 q)
{
    const S mul(w, wPrec, q);
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        const __m512i xv = _mm512_loadu_si512(x + i);
        _mm512_storeu_si512(y + i, csub(mul.mulLazy(xv), mul.q));
    }
    ref::mulModShoupVec(y + i, x + i, n - i, w, wPrec, q);
}

void
mulModShoupVec(u64 *y, const u64 *x, std::size_t n, u64 w, u64 wPrec,
               u64 q)
{
    withShoup(q, [&]<class S>(std::type_identity<S>) {
        mulModShoup<S>(y, x, n, w, wPrec, q);
    });
}

/** Narrow MAC: exact 32-bit products summed in a 64-bit accumulator,
 *  Barrett-flushed before it can wrap. q < 2^30, xs < 2^32. */
void
baseconvMacNarrow(u64 *y, const u64 *const *xs, const u64 *cs,
                  std::size_t ls, std::size_t n, u64 q)
{
    const NarrowShoup modQ(1, static_cast<u64>((u128{1} << 64) / q), q);
    const NarrowMulMod mul(q);
    const std::size_t chunk =
        static_cast<std::size_t>((u64{1} << 32) / q);

    std::size_t k = 0;
    for (; k + 8 <= n; k += 8) {
        __m512i acc = _mm512_setzero_si512();
        std::size_t since_flush = 0;
        for (std::size_t i = 0; i < ls; ++i) {
            const __m512i x = _mm512_loadu_si512(xs[i] + k);
            const __m512i t = csub(modQ.mulLazy(x), modQ.q); // [0, q)
            acc = _mm512_add_epi64(acc, mul32(t, set1(cs[i])));
            if (++since_flush >= chunk && i + 1 < ls) {
                acc = mul.reduce(acc);
                since_flush = 0;
            }
        }
        _mm512_storeu_si512(y + k, mul.reduce(acc));
    }
    for (; k < n; ++k) {
        u128 acc = 0;
        for (std::size_t i = 0; i < ls; ++i)
            acc += (u128)(xs[i][k] % q) * cs[i];
        y[k] = static_cast<u64>(acc % q);
    }
}

/** Shoup MAC: one Shoup multiply per term with the per-term pair
 *  (c, floor(c*2^64/q)) — exact for any source value mulLazy accepts
 *  (any x < 2^64 for WideShoup, x < 2^52 for IfmaShoup), so no
 *  x mod q — accumulated lazily in [0, 2q). q < 2^62. */
template <class S>
void
baseconvMacShoup(u64 *y, const u64 *const *xs, const u64 *cs,
                std::size_t ls, std::size_t n, u64 q)
{
    static thread_local std::vector<ShoupMul> terms;
    terms.resize(ls);
    for (std::size_t i = 0; i < ls; ++i)
        terms[i] = ShoupMul(cs[i], q);
    const __m512i qv = set1(q), two_q = set1(2 * q);

    std::size_t k = 0;
    for (; k + 16 <= n; k += 16) {
        __m512i acc0 = _mm512_setzero_si512(), acc1 = acc0;
        for (std::size_t i = 0; i < ls; ++i) {
            const S c(terms[i].w, terms[i].wPrec, q);
            const __m512i x0 = _mm512_loadu_si512(xs[i] + k);
            const __m512i x1 = _mm512_loadu_si512(xs[i] + k + 8);
            acc0 = csub(_mm512_add_epi64(acc0, c.mulLazy(x0)), two_q);
            acc1 = csub(_mm512_add_epi64(acc1, c.mulLazy(x1)), two_q);
        }
        _mm512_storeu_si512(y + k, csub(acc0, qv));
        _mm512_storeu_si512(y + k + 8, csub(acc1, qv));
    }
    for (; k < n; ++k) {
        u64 acc = 0;
        for (std::size_t i = 0; i < ls; ++i) {
            acc += terms[i].mulLazy(xs[i][k], q);
            acc -= 2 * q * (acc >= 2 * q);
        }
        y[k] = acc >= q ? acc - q : acc;
    }
}

void
baseconvMacVec(u64 *y, const u64 *const *xs, const u64 *cs,
               std::size_t ls, std::size_t n, u64 q, u64 x_bound)
{
    if (n < 8)
        return ref::baseconvMacVec(y, xs, cs, ls, n, q, x_bound);
    if (narrow(q) && x_bound <= (u64{1} << 32))
        return baseconvMacNarrow(y, xs, cs, ls, n, q);
    // The per-term Shoup multiply takes raw source values < x_bound.
    withShoup(false, ifmaFits(q) && x_bound <= kIfmaLimb,
              [&]<class S>(std::type_identity<S>) {
                  baseconvMacShoup<S>(y, xs, cs, ls, n, q);
              });
}

void
gatherVec(u64 *dst, const u64 *src, const std::uint32_t *idx,
          std::size_t n)
{
    std::size_t j = 0;
    for (; j + 8 <= n; j += 8) {
        const __m256i iv =
            _mm256_loadu_si256(reinterpret_cast<const __m256i *>(idx + j));
        const __m512i g = _mm512_i32gather_epi64(iv, src, 8);
        _mm512_storeu_si512(dst + j, g);
    }
    ref::gatherVec(dst + j, src, idx + j, n - j);
}

// --- NTT butterflies ---------------------------------------------------

/** Forward (Cooley-Tukey) butterflies on 8 lanes, exactly
 *  ref::nttFwdButterflyVec's formula. x, y in [0, 4q). */
template <class S>
inline void
fwdButterfly(__m512i &x, __m512i &y, const S &w, __m512i two_q)
{
    const __m512i xx = csub(x, two_q); // [0, 2q)
    const __m512i v = w.mulLazy(y);    // [0, 2q)
    x = _mm512_add_epi64(xx, v);
    y = _mm512_sub_epi64(_mm512_add_epi64(xx, two_q), v);
}

/** Inverse (Gentleman-Sande) butterflies on 8 lanes, exactly
 *  ref::nttInvButterflyVec's formula. x, y in [0, 2q). */
template <class S>
inline void
invButterfly(__m512i &x, __m512i &y, const S &w, __m512i two_q)
{
    const __m512i s = csub(_mm512_add_epi64(x, y), two_q);
    const __m512i u = _mm512_sub_epi64(_mm512_add_epi64(x, two_q), y);
    x = s;
    y = w.mulLazy(u);
}

template <class S>
void
nttFwdButterfly(u64 *x, u64 *y, std::size_t t, u64 w, u64 wPrec, u64 q)
{
    const S mul(w, wPrec, q);
    const __m512i two_q = set1(2 * q);
    std::size_t j = 0;
    for (; j + 8 <= t; j += 8) {
        __m512i xv = _mm512_loadu_si512(x + j);
        __m512i yv = _mm512_loadu_si512(y + j);
        fwdButterfly(xv, yv, mul, two_q);
        _mm512_storeu_si512(x + j, xv);
        _mm512_storeu_si512(y + j, yv);
    }
    ref::nttFwdButterflyVec(x + j, y + j, t - j, w, wPrec, q);
}

void
nttFwdButterflyVec(u64 *x, u64 *y, std::size_t t, u64 w, u64 wPrec,
                   u64 q)
{
    withShoup(q, [&]<class S>(std::type_identity<S>) {
        nttFwdButterfly<S>(x, y, t, w, wPrec, q);
    });
}

template <class S>
void
nttInvButterfly(u64 *x, u64 *y, std::size_t t, u64 w, u64 wPrec, u64 q)
{
    const S mul(w, wPrec, q);
    const __m512i two_q = set1(2 * q);
    std::size_t j = 0;
    for (; j + 8 <= t; j += 8) {
        __m512i xv = _mm512_loadu_si512(x + j);
        __m512i yv = _mm512_loadu_si512(y + j);
        invButterfly(xv, yv, mul, two_q);
        _mm512_storeu_si512(x + j, xv);
        _mm512_storeu_si512(y + j, yv);
    }
    ref::nttInvButterflyVec(x + j, y + j, t - j, w, wPrec, q);
}

void
nttInvButterflyVec(u64 *x, u64 *y, std::size_t t, u64 w, u64 wPrec,
                   u64 q)
{
    withShoup(q, [&]<class S>(std::type_identity<S>) {
        nttInvButterfly<S>(x, y, t, w, wPrec, q);
    });
}

// --- NTT short-block stages (t = 4, 2, 1) -------------------------------
//
// One 16-coefficient chunk (the vectors X || Y) holds every butterfly
// pair of these three stages, so they run in registers: before each
// stage a two-source permute gathers the stage's butterfly tops into
// X and bottoms into Y (8 butterflies per vector), and the twiddles
// are deinterleaved from the bit-reversed ShoupMul table.

/** Lane layout of a chunk: lane p of X || Y holds coefficient L[p]. */
using Layout = std::array<unsigned, 16>;

constexpr Layout kNatural = {0, 1, 2,  3,  4,  5,  6,  7,
                             8, 9, 10, 11, 12, 13, 14, 15};

/** The chunk's butterflies at block length t: pair (c, c + t) for
 *  every c with c % 2t < t, tops in X and bottoms in Y, each in
 *  increasing order. */
constexpr Layout
stageLayout(unsigned t)
{
    Layout l{};
    unsigned k = 0;
    for (unsigned c = 0; c < 16; ++c) {
        if (c % (2 * t) < t) {
            l[k] = c;
            l[k + 8] = c + t;
            ++k;
        }
    }
    return l;
}

/** permutex2var indices taking layout @p from to layout @p to. */
constexpr std::array<long long, 16>
relayout(const Layout &from, const Layout &to)
{
    std::array<long long, 16> idx{};
    for (unsigned k = 0; k < 16; ++k) {
        for (unsigned p = 0; p < 16; ++p) {
            if (from[p] == to[k])
                idx[k] = p;
        }
    }
    return idx;
}

/** Indices deinterleaving the stage-t twiddles of a chunk: lane l of
 *  X belongs to block l / t, whose ShoupMul is words 2(l/t), +1 of
 *  the chunk's twiddle run. */
constexpr std::array<long long, 16>
twiddleIndex(unsigned t)
{
    std::array<long long, 16> idx{};
    for (unsigned l = 0; l < 8; ++l) {
        idx[l] = 2 * (l / t);
        idx[l + 8] = 2 * (l / t) + 1;
    }
    return idx;
}

constexpr Layout kT4 = stageLayout(4), kT2 = stageLayout(2),
                 kT1 = stageLayout(1);

/** A two-vector permutation (the X and Y halves of the indices). */
struct Relayout
{
    __m512i x, y;

    explicit Relayout(const std::array<long long, 16> &idx)
        : x(_mm512_loadu_si512(idx.data())),
          y(_mm512_loadu_si512(idx.data() + 8))
    {
    }

    void
    apply(__m512i &a, __m512i &b) const
    {
        const __m512i na = _mm512_permutex2var_epi64(a, x, b);
        b = _mm512_permutex2var_epi64(a, y, b);
        a = na;
    }
};

/**
 * The per-lane Shoup multipliers of stage t for chunk c of an n-point
 * transform: blocks n/(2t) + c*(8/t) onward of the bit-reversed
 * table, 8/t ShoupMuls (16/t words), split into w and wPrec vectors.
 */
template <class S, unsigned T>
inline S
stageTwiddles(const ShoupMul *tw, std::size_t n, std::size_t c,
              __m512i qv)
{
    static_assert(sizeof(ShoupMul) == 2 * sizeof(u64),
                  "ShoupMul must be two packed words");
    static constexpr auto kSplit = twiddleIndex(T);
    const Relayout split(kSplit);
    const u64 *words =
        reinterpret_cast<const u64 *>(tw + n / (2 * T) + c * (8 / T));
    // Keep each stage's twiddle stream opaque to induction-variable
    // rewriting. GCC 12 otherwise addresses one stream as twice
    // another minus tw, from a null base; its mod/ref analysis reads
    // that as a null dereference, concludes the kernel stores nothing,
    // and deletes calls to it.
    asm("" : "+r"(words));
    __m512i a, b = _mm512_setzero_si512();
    if constexpr (T == 4) {
        a = _mm512_maskz_loadu_epi64(0x0f, words);
    } else {
        a = _mm512_loadu_si512(words);
        if constexpr (T == 1)
            b = _mm512_loadu_si512(words + 8);
    }
    return S(_mm512_permutex2var_epi64(a, split.x, b),
             _mm512_permutex2var_epi64(a, split.y, b), qv);
}

template <class S>
void
nttFwdTail(u64 *a, std::size_t n, const ShoupMul *tw, u64 q)
{
    static constexpr auto kIn = relayout(kNatural, kT4);
    static constexpr auto k4to2 = relayout(kT4, kT2);
    static constexpr auto k2to1 = relayout(kT2, kT1);
    static constexpr auto kOut = relayout(kT1, kNatural);
    const Relayout in(kIn), r42(k4to2), r21(k2to1), out(kOut);
    const __m512i qv = set1(q), two_q = set1(2 * q);
    for (std::size_t c = 0; c < n / 16; ++c) {
        __m512i x = _mm512_loadu_si512(a + 16 * c);
        __m512i y = _mm512_loadu_si512(a + 16 * c + 8);
        in.apply(x, y);
        fwdButterfly(x, y, stageTwiddles<S, 4>(tw, n, c, qv), two_q);
        r42.apply(x, y);
        fwdButterfly(x, y, stageTwiddles<S, 2>(tw, n, c, qv), two_q);
        r21.apply(x, y);
        fwdButterfly(x, y, stageTwiddles<S, 1>(tw, n, c, qv), two_q);
        out.apply(x, y);
        _mm512_storeu_si512(a + 16 * c, x);
        _mm512_storeu_si512(a + 16 * c + 8, y);
    }
}

void
nttFwdTailVec(u64 *a, std::size_t n, const ShoupMul *tw, u64 q)
{
    if (n < 16)
        return ref::nttFwdTailVec(a, n, tw, q);
    withShoup(q, [&]<class S>(std::type_identity<S>) {
        nttFwdTail<S>(a, n, tw, q);
    });
}

template <class S>
void
nttInvTail(u64 *a, std::size_t n, const ShoupMul *tw, u64 q)
{
    static constexpr auto kIn = relayout(kNatural, kT1);
    static constexpr auto k1to2 = relayout(kT1, kT2);
    static constexpr auto k2to4 = relayout(kT2, kT4);
    static constexpr auto kOut = relayout(kT4, kNatural);
    const Relayout in(kIn), r12(k1to2), r24(k2to4), out(kOut);
    const __m512i qv = set1(q), two_q = set1(2 * q);
    for (std::size_t c = 0; c < n / 16; ++c) {
        __m512i x = _mm512_loadu_si512(a + 16 * c);
        __m512i y = _mm512_loadu_si512(a + 16 * c + 8);
        in.apply(x, y);
        invButterfly(x, y, stageTwiddles<S, 1>(tw, n, c, qv), two_q);
        r12.apply(x, y);
        invButterfly(x, y, stageTwiddles<S, 2>(tw, n, c, qv), two_q);
        r24.apply(x, y);
        invButterfly(x, y, stageTwiddles<S, 4>(tw, n, c, qv), two_q);
        out.apply(x, y);
        _mm512_storeu_si512(a + 16 * c, x);
        _mm512_storeu_si512(a + 16 * c + 8, y);
    }
}

void
nttInvTailVec(u64 *a, std::size_t n, const ShoupMul *tw, u64 q)
{
    if (n < 16)
        return ref::nttInvTailVec(a, n, tw, q);
    withShoup(q, [&]<class S>(std::type_identity<S>) {
        nttInvTail<S>(a, n, tw, q);
    });
}

void
nttCorrectVec(u64 *a, std::size_t n, u64 q)
{
    const __m512i qv = set1(q), two_q = set1(2 * q);
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        __m512i x = _mm512_loadu_si512(a + i);
        x = csub(x, two_q);
        x = csub(x, qv);
        _mm512_storeu_si512(a + i, x);
    }
    ref::nttCorrectVec(a + i, n - i, q);
}

template <class S>
void
nttScaleInv(u64 *a, std::size_t n, u64 w, u64 wPrec, u64 q)
{
    const S mul(w, wPrec, q);
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        const __m512i x = _mm512_loadu_si512(a + i);
        _mm512_storeu_si512(a + i, csub(mul.mulLazy(x), mul.q));
    }
    ref::nttScaleInvVec(a + i, n - i, w, wPrec, q);
}

void
nttScaleInvVec(u64 *a, std::size_t n, u64 w, u64 wPrec, u64 q)
{
    withShoup(q, [&]<class S>(std::type_identity<S>) {
        nttScaleInv<S>(a, n, w, wPrec, q);
    });
}

// --- Fused pipeline kernels (DESIGN.md §5e) ----------------------------

template <class S>
void
nttInvScaleButterfly(u64 *x, u64 *y, std::size_t t, u64 w, u64 wPrec,
                     u64 nw, u64 nwPrec, u64 q)
{
    const S mul(w, wPrec, q), nInv(nw, nwPrec, q);
    const __m512i qv = mul.q, two_q = set1(2 * q);
    std::size_t j = 0;
    for (; j + 8 <= t; j += 8) {
        __m512i xv = _mm512_loadu_si512(x + j);
        __m512i yv = _mm512_loadu_si512(y + j);
        invButterfly(xv, yv, mul, two_q); // xv, yv in [0, 2q)
        _mm512_storeu_si512(x + j, csub(nInv.mulLazy(xv), qv));
        _mm512_storeu_si512(y + j, csub(nInv.mulLazy(yv), qv));
    }
    ref::nttInvScaleButterflyVec(x + j, y + j, t - j, w, wPrec, nw,
                                 nwPrec, q);
}

void
nttInvScaleButterflyVec(u64 *x, u64 *y, std::size_t t, u64 w, u64 wPrec,
                        u64 nw, u64 nwPrec, u64 q)
{
    withShoup(q, [&]<class S>(std::type_identity<S>) {
        nttInvScaleButterfly<S>(x, y, t, w, wPrec, nw, nwPrec, q);
    });
}

/** Vector-splatted RescaleConsts; built once per kernel call. The
 *  identity Shoup multiply takes xs = addMod(xl, half, ql) < ql, so
 *  the narrow instantiation also needs ql < 2^30 (xs < 2^32) and the
 *  IFMA one ql < 2^52. */
template <class S>
struct RescaleVec
{
    S nInv, qlInv, modQ; // modQ: the identity pair, x -> x mod q lazily
    __m512i qlv, halfv, halfModQ, qv;

    RescaleVec(const RescaleConsts &rc, u64 q)
        : nInv(rc.nInvW, rc.nInvPrec, q), qlInv(rc.qlInvW, rc.qlInvPrec, q),
          modQ(1, static_cast<u64>((u128{1} << 64) / q), q),
          qlv(set1(rc.ql)), halfv(set1(rc.half)),
          halfModQ(set1(rc.half % q)), qv(set1(q))
    {
    }
};

/** rescaleCorrectScalar on 8 lanes; a < 2q, xl < ql. */
template <class S>
inline __m512i
rescaleCorrect(__m512i a, __m512i xl, const RescaleVec<S> &c)
{
    // v = fold_q(mulLazy(a, nInv)).
    const __m512i v = csub(c.nInv.mulLazy(a), c.qv);
    // xs = addMod(xl, half, ql).
    const __m512i xs = csub(_mm512_add_epi64(xl, c.halfv), c.qlv);
    // xs mod q: the identity Shoup multiply leaves [0, 2q).
    const __m512i t = csub(c.modQ.mulLazy(xs), c.qv);
    // d = subMod(v, subMod(xs mod q, half mod q, q), q).
    const __m512i d = subModQ(v, subModQ(t, c.halfModQ, c.qv), c.qv);
    // Canonical Shoup multiply by ql^-1.
    return csub(c.qlInv.mulLazy(d), c.qv);
}

/** The IFMA gate of the rescale kernels. */
inline bool
rescaleIfmaFits(u64 q, u64 ql)
{
    return ifmaFits(q) && ql < kIfmaLimb;
}

template <class S>
void
rescaleEpilogue(u64 *a, const u64 *xl, std::size_t n,
                const RescaleConsts *rc, u64 q)
{
    const RescaleVec<S> c(*rc, q);
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        const __m512i av = _mm512_loadu_si512(a + i);
        const __m512i xv = _mm512_loadu_si512(xl + i);
        _mm512_storeu_si512(a + i, rescaleCorrect(av, xv, c));
    }
    ref::rescaleEpilogueVec(a + i, xl + i, n - i, rc, q);
}

void
rescaleEpilogueVec(u64 *a, const u64 *xl, std::size_t n,
                   const RescaleConsts *rc, u64 q)
{
    withShoup(narrow(q) && narrow(rc->ql), rescaleIfmaFits(q, rc->ql),
              [&]<class S>(std::type_identity<S>) {
                  rescaleEpilogue<S>(a, xl, n, rc, q);
              });
}

template <class S>
void
rescaleNttFwdButterfly(u64 *x, u64 *y, const u64 *xlx, const u64 *xly,
                       std::size_t t, const RescaleConsts *rc, u64 w,
                       u64 wPrec, u64 q)
{
    const RescaleVec<S> c(*rc, q);
    const S mul(w, wPrec, q);
    const __m512i two_q = set1(2 * q);
    std::size_t j = 0;
    for (; j + 8 <= t; j += 8) {
        const __m512i lx = _mm512_loadu_si512(xlx + j);
        const __m512i ly = _mm512_loadu_si512(xly + j);
        // The corrected values are canonical, so the butterfly's
        // 2q-fold of cx is a no-op, exactly as in the reference.
        __m512i cx = rescaleCorrect(_mm512_loadu_si512(x + j), lx, c);
        __m512i cy = rescaleCorrect(_mm512_loadu_si512(y + j), ly, c);
        fwdButterfly(cx, cy, mul, two_q);
        _mm512_storeu_si512(x + j, cx);
        _mm512_storeu_si512(y + j, cy);
    }
    ref::rescaleNttFwdButterflyVec(x + j, y + j, xlx + j, xly + j, t - j,
                                   rc, w, wPrec, q);
}

void
rescaleNttFwdButterflyVec(u64 *x, u64 *y, const u64 *xlx, const u64 *xly,
                          std::size_t t, const RescaleConsts *rc, u64 w,
                          u64 wPrec, u64 q)
{
    withShoup(narrow(q) && narrow(rc->ql), rescaleIfmaFits(q, rc->ql),
              [&]<class S>(std::type_identity<S>) {
                  rescaleNttFwdButterfly<S>(x, y, xlx, xly, t, rc, w,
                                            wPrec, q);
              });
}

template <class S>
void
nttCorrectSubMulShoup(u64 *dst, const u64 *acc, const u64 *x,
                      std::size_t n, u64 w, u64 wPrec, u64 q)
{
    const S mul(w, wPrec, q);
    const __m512i qv = mul.q, two_q = set1(2 * q);
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        const __m512i c =
            csub(csub(_mm512_loadu_si512(x + i), two_q), qv); // canonical
        const __m512i d = subModQ(_mm512_loadu_si512(acc + i), c, qv);
        _mm512_storeu_si512(dst + i, csub(mul.mulLazy(d), qv));
    }
    ref::nttCorrectSubMulShoupVec(dst + i, acc + i, x + i, n - i, w,
                                  wPrec, q);
}

void
nttCorrectSubMulShoupVec(u64 *dst, const u64 *acc, const u64 *x,
                         std::size_t n, u64 w, u64 wPrec, u64 q)
{
    withShoup(q, [&]<class S>(std::type_identity<S>) {
        nttCorrectSubMulShoup<S>(dst, acc, x, n, w, wPrec, q);
    });
}

/** This translation unit's kernel table. */
KernelTable
makeAvx512Table()
{
    return {
        SimdBackend::Avx512,
        "avx512",
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
        &nttFwdTailVec,
        &nttInvTailVec,
        &nttCorrectVec,
        &nttScaleInvVec,
        &nttInvScaleButterflyVec,
        &rescaleEpilogueVec,
        &rescaleNttFwdButterflyVec,
        &nttCorrectSubMulShoupVec,
    };
}

} // namespace
} // namespace simd
} // namespace cl

#endif // __AVX512F__

#endif // CL_RNS_SIMD_KERNELS_AVX512_IMPL_H
