/**
 * @file
 * The vector backends' kernels, written once over a lane type V and
 * instantiated per vector width, as CraterLake replicates one
 * fixed-modulus lane datapath across its vector (Sec 5). Internal
 * header: each backend translation unit defines its V and builds its
 * table with makeTable<V>(), so each compiles its own copy (hence the
 * anonymous namespace):
 *
 *  - kernels_avx2.cpp (-mavx2): 4 lanes of 64-bit residues.
 *  - kernels_avx512.cpp (-mavx512f only): 8 lanes. The table every
 *    AVX-512F CPU (e.g. Skylake-SP) runs; no IFMA instruction can
 *    appear in it.
 *  - kernels_avx512_ifma.cpp (-mavx512ifma): the same 8 lanes plus the
 *    IFMA multiplies, selected only when CPUID reports avx512ifma.
 *
 * ## The lane type
 *
 * V supplies only per-width primitives, as static members:
 *
 *  - `R`, the register type, and `kLanes`, its number of 64-bit lanes;
 *  - `set1`, `zero`, and the unaligned `load`/`store`;
 *  - `add`, `sub`, `bitAnd`, `bitOr`, and the 64-bit lane shifts
 *    `srli`/`slli` (integer count) and `srl`/`sll` (count in an
 *    __m128i);
 *  - `mul32(a, b)`: low32(a) * low32(b), the full 64-bit product;
 *  - the compare-and-correct steps `csub(r, q)` (r - q if r >= q),
 *    `subModQ(a, b, q)` ((a - b) mod q for a, b < q) and `negMod(x, q)`
 *    (q - x, with 0 staying 0). Their compares are unsigned over all
 *    64 bits: the lazy NTT operands reach 4q, which is at least 2^63
 *    for 61-62-bit primes;
 *  - `gather(src, idx)`: lane l loads src[idx[l]] (32-bit indices);
 *  - `bitXor` and `andNot(a, b)` (~a & b), for the Keccak lane kernel,
 *    which rotates lanes with `slli | srli` unless V also supplies
 *    `rotl<n>` (vprolq on the 8-lane types);
 *  - `kIfma`, true when V also has the IFMA multiplies `madd52lo`/
 *    `madd52hi` (acc + bits 0..51 / 52..103 of the 104-bit products
 *    of the lanes' low 52 bits).
 *
 * The 8-lane types also supply `permute2(a, idx, b)`, the two-source
 * lane permutation the register-resident NTT tails (t = 4, 2, 1) use;
 * narrower tables run the scalar tails.
 *
 * ## Lane arithmetics
 *
 * Each multiply-class kernel runs the first that fits its operands:
 *
 *  - Narrow (q < 2^30): every lazy operand is below 4q < 2^32, so one
 *    mul32 forms an exact product (NarrowShoup, NarrowMulMod).
 *  - IFMA (q < 2^50, IFMA lane types only): 52x52-bit products from
 *    madd52lo/madd52hi. Every lazy operand is below 4q < 2^52, the
 *    width of an IFMA limb (IfmaShoup, IfmaMulMod).
 *  - Wide (q < 2^62, the CKKS primes): exact 64x64-bit lane products
 *    from mul32 alone — the low word from three, the high word from
 *    four plus the carry out of the middle terms (mulHi64/mulLo64;
 *    WideShoup, WideMulMod).
 *
 * Every Shoup type computes ShoupMul::mulLazy's integer formula, so the
 * lazy representatives match the scalar reference bit for bit; the
 * Barrett types return the canonical product, which any exact
 * algorithm agrees on.
 */

#ifndef CL_RNS_SIMD_KERNELS_VEC_IMPL_H
#define CL_RNS_SIMD_KERNELS_VEC_IMPL_H

#include "rns/simd/kernels.h"
#include "rns/simd/ref_impl.h"

#include <immintrin.h>

#include <array>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/prng.h"

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

/** The operands' high halves, in the low dwords mul32 reads. */
template <class V>
inline typename V::R
hi32(typename V::R a)
{
    return V::srli(a, 32);
}

/**
 * High word of the exact 128-bit lane products a*b. aHi and bHi are
 * the operands' high halves in their low dwords (mul32 ignores the
 * upper dwords, so a and b serve as their own low halves).
 */
template <class V>
inline typename V::R
mulHi64(typename V::R a, typename V::R aHi, typename V::R b,
        typename V::R bHi)
{
    using R = typename V::R;
    const R ll = V::mul32(a, b);
    const R lh = V::mul32(a, bHi);
    const R hl = V::mul32(aHi, b);
    const R hh = V::mul32(aHi, bHi);
    // Bits 32..95 of the product: hl + (ll >> 32) + low32(lh) is at
    // most (2^32-1)^2 + 2(2^32-1) = 2^64 - 1, so the sum cannot wrap
    // and its high dword is the carry into the high word.
    const R mid = V::add(V::add(hl, hi32<V>(ll)),
                         V::bitAnd(lh, V::set1(0xffffffffu)));
    return V::add(V::add(hh, hi32<V>(lh)), hi32<V>(mid));
}

/** Low word of the lane products a*b (mod 2^64). */
template <class V>
inline typename V::R
mulLo64(typename V::R a, typename V::R aHi, typename V::R b,
        typename V::R bHi)
{
    const typename V::R cross =
        V::add(V::mul32(aHi, b), V::mul32(a, bHi));
    return V::add(V::mul32(a, b), V::slli(cross, 32));
}

/**
 * Shoup multiplier by w (splatted or one per lane) for q < 2^30;
 * mulLazy needs x < 2^32. With wPrec split as pHi:pLo,
 *
 *   floor(x*wPrec / 2^64) = (x*pHi + ((x*pLo) >> 32)) >> 32
 *
 * exactly, since x*pHi is an integer; x*pHi <= (2^32-1)^2 leaves room
 * for the carry term, so the sum cannot wrap.
 */
template <class V>
struct NarrowShoup
{
    using R = typename V::R;
    R w, p, pHi, q;

    NarrowShoup(R w_, R wPrec, R q_)
        : w(w_), p(wPrec), pHi(hi32<V>(wPrec)), q(q_)
    {
    }

    NarrowShoup(u64 w_, u64 wPrec, u64 q_)
        : w(V::set1(w_)), p(V::set1(wPrec)), pHi(V::set1(wPrec >> 32)),
          q(V::set1(q_))
    {
    }

    /** ShoupMul::mulLazy: x*w - floor(x*wPrec/2^64)*q, in [0, 2q). */
    R
    mulLazy(R x) const
    {
        const R h = hi32<V>(
            V::add(V::mul32(x, pHi), hi32<V>(V::mul32(x, p))));
        return V::sub(V::mul32(x, w), V::mul32(h, q));
    }
};

/** Shoup multiplier by w (splatted or one per lane) for q < 2^62;
 *  mulLazy is exact for any x < 2^64. */
template <class V>
struct WideShoup
{
    using R = typename V::R;
    R w, wHi, p, pHi, q, qHi;

    WideShoup(R w_, R wPrec, R q_)
        : w(w_), wHi(hi32<V>(w_)), p(wPrec), pHi(hi32<V>(wPrec)), q(q_),
          qHi(hi32<V>(q_))
    {
    }

    WideShoup(u64 w_, u64 wPrec, u64 q_)
        : w(V::set1(w_)), wHi(V::set1(w_ >> 32)), p(V::set1(wPrec)),
          pHi(V::set1(wPrec >> 32)), q(V::set1(q_)),
          qHi(V::set1(q_ >> 32))
    {
    }

    /** ShoupMul::mulLazy: x*w - floor(x*wPrec/2^64)*q mod 2^64, in
     *  [0, 2q). */
    R
    mulLazy(R x) const
    {
        const R xHi = hi32<V>(x);
        const R h = mulHi64<V>(x, xHi, p, pHi);
        return V::sub(mulLo64<V>(x, xHi, w, wHi),
                      mulLo64<V>(h, hi32<V>(h), q, qHi));
    }
};

/** Canonical x*y mod q for x, y < q < 2^30: one exact product, then a
 *  Barrett reduction with M = floor(2^64/q). */
template <class V>
struct NarrowMulMod
{
    using R = typename V::R;
    R m, mHi, q;

    explicit NarrowMulMod(u64 q_)
    {
        const u64 mv = static_cast<u64>((u128{1} << 64) / q_);
        m = V::set1(mv);
        mHi = V::set1(mv >> 32);
        q = V::set1(q_);
    }

    /**
     * Canonical v mod q for v < min(2^62, q * 2^32). With v split as
     * vHi:vLo and M as mHi:mLo, the quotient estimate
     *
     *   h = vHi*mHi + ((vHi*mLo + vLo*mHi + ((vLo*mLo) >> 32)) >> 32)
     *
     * is the exact floor(v*M / 2^64) (v < 2^62 keeps every partial
     * sum below 2^64). It undershoots floor(v/q) by at most 2, so
     * v - h*q lies in [0, 3q) and two conditional subtracts finish.
     */
    R
    reduce(R v) const
    {
        const R vHi = hi32<V>(v);
        const R t = V::add(V::add(V::mul32(vHi, m), V::mul32(v, mHi)),
                           hi32<V>(V::mul32(v, m)));
        const R h = V::add(V::mul32(vHi, mHi), hi32<V>(t));
        const R r = V::sub(v, V::mul32(h, q));
        return V::csub(V::csub(r, q), q);
    }

    R
    operator()(R x, R y) const
    {
        return reduce(V::mul32(x, y));
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
template <class V>
struct WideMulMod
{
    using R = typename V::R;
    R mu, muHi, q, qHi;
    __m128i qShift, hiShift; // k - 1 and 65 - k

    explicit WideMulMod(u64 q_)
    {
        const unsigned k = 64 - __builtin_clzll(q_);
        const u64 m = static_cast<u64>((u128{1} << (2 * k)) / q_)
                      << (63 - k);
        mu = V::set1(m);
        muHi = V::set1(m >> 32);
        q = V::set1(q_);
        qHi = V::set1(q_ >> 32);
        qShift = _mm_cvtsi32_si128(static_cast<int>(k - 1));
        hiShift = _mm_cvtsi32_si128(static_cast<int>(65 - k));
    }

    R
    operator()(R x, R y) const
    {
        const R xHi = hi32<V>(x), yHi = hi32<V>(y);
        const R lo = mulLo64<V>(x, xHi, y, yHi);
        const R hi = mulHi64<V>(x, xHi, y, yHi);
        const R q1 = V::bitOr(V::srl(lo, qShift), V::sll(hi, hiShift));
        const R q3 = mulHi64<V>(q1, hi32<V>(q1), mu, muHi);
        const R r = V::sub(lo, mulLo64<V>(q3, hi32<V>(q3), q, qHi));
        return V::csub(V::csub(r, q), q);
    }
};

/**
 * Shoup multiplier by w (splatted or one per lane) for q < 2^50;
 * mulLazy is exact for any x < 2^52, which covers every lazy [0, 4q)
 * operand. With wPrec = ph*2^52 + pl (pl < 2^52, ph < 2^12):
 *
 *   floor(x*wPrec / 2^64) = floor((x*ph + floor(x*pl / 2^52)) / 2^12)
 *
 * since x*ph is an integer. The inner floor is one madd52hi; x*ph
 * < 2^64 comes from two mul32 (ph fits a dword), and the sum stays
 * below 2^64. The remainder x*w - quo*q lies in [0, 2q), below 2^52,
 * so it is exact mod 2^52: two madd52lo with -q mod 2^52 as the
 * second factor, then a mask.
 */
template <class V>
struct IfmaShoup
{
    using R = typename V::R;
    R w, pl, ph, q, negQ;

    IfmaShoup(R w_, R wPrec, R q_)
        : w(w_), pl(V::bitAnd(wPrec, V::set1(kIfmaLimb - 1))),
          ph(V::srli(wPrec, 52)), q(q_),
          negQ(V::sub(V::set1(kIfmaLimb), q_))
    {
    }

    IfmaShoup(u64 w_, u64 wPrec, u64 q_)
        : w(V::set1(w_)), pl(V::set1(wPrec & (kIfmaLimb - 1))),
          ph(V::set1(wPrec >> 52)), q(V::set1(q_)),
          negQ(V::set1(kIfmaLimb - q_))
    {
    }

    /** ShoupMul::mulLazy: x*w - floor(x*wPrec/2^64)*q, in [0, 2q). */
    R
    mulLazy(R x) const
    {
        const R xph = V::add(V::mul32(x, ph),
                             V::slli(V::mul32(hi32<V>(x), ph), 32));
        const R quo = V::srli(V::madd52hi(xph, x, pl), 12);
        const R r = V::madd52lo(V::madd52lo(V::zero(), x, w), quo, negQ);
        return V::bitAnd(r, V::set1(kIfmaLimb - 1));
    }
};

/**
 * Canonical x*y mod q for x, y < q < 2^50: WideMulMod's k-bit Barrett
 * reduction on the 104-bit product lo + hi*2^52 that madd52lo/madd52hi
 * form exactly. q1 = floor(v / 2^(k-1)) < 2^(k+1) <= 2^51 fits an IFMA
 * limb, and storing mu << (51-k) (< 2^52) makes floor(q1*mu / 2^(k+1))
 * one madd52hi. The remainder lies in [0, 3q), below 2^52, so it is
 * exact mod 2^52.
 */
template <class V>
struct IfmaMulMod
{
    using R = typename V::R;
    R mu, q, negQ;
    __m128i loShift, hiShift; // k - 1 and 53 - k

    explicit IfmaMulMod(u64 q_)
    {
        const unsigned k = 64 - __builtin_clzll(q_);
        const u64 m = static_cast<u64>((u128{1} << (2 * k)) / q_)
                      << (51 - k);
        mu = V::set1(m);
        q = V::set1(q_);
        negQ = V::set1(kIfmaLimb - q_);
        loShift = _mm_cvtsi32_si128(static_cast<int>(k - 1));
        hiShift = _mm_cvtsi32_si128(static_cast<int>(53 - k));
    }

    R
    operator()(R x, R y) const
    {
        const R zero = V::zero();
        const R lo = V::madd52lo(zero, x, y);
        const R hi = V::madd52hi(zero, x, y);
        const R q1 = V::bitOr(V::srl(lo, loShift), V::sll(hi, hiShift));
        const R q3 = V::madd52hi(zero, q1, mu);
        const R r =
            V::bitAnd(V::madd52lo(lo, q3, negQ), V::set1(kIfmaLimb - 1));
        return V::csub(V::csub(r, q), q);
    }
};

/**
 * Calls f(std::type_identity<S>{}) with the fastest Shoup arithmetic
 * S whose gate holds: narrow when @p narrow_ok, else IFMA when
 * @p ifma_ok and V has IFMA, else wide.
 */
template <class V, class F>
inline void
withShoup(bool narrow_ok, bool ifma_ok, F &&f)
{
    if (narrow_ok)
        return f(std::type_identity<NarrowShoup<V>>{});
    if constexpr (V::kIfma) {
        if (ifma_ok)
            return f(std::type_identity<IfmaShoup<V>>{});
    }
    f(std::type_identity<WideShoup<V>>{});
}

/** withShoup with the Shoup-class gates: every operand is a lazy
 *  residue below 4q. */
template <class V, class F>
inline void
withShoup(u64 q, F &&f)
{
    withShoup<V>(narrow(q), ifmaFits(q), f);
}

/** As withShoup, for the canonical Barrett multipliers (operands
 *  below q). */
template <class V, class F>
inline void
withMulMod(u64 q, F &&f)
{
    if (narrow(q))
        return f(std::type_identity<NarrowMulMod<V>>{});
    if constexpr (V::kIfma) {
        if (ifmaFits(q))
            return f(std::type_identity<IfmaMulMod<V>>{});
    }
    f(std::type_identity<WideMulMod<V>>{});
}

// --- Kernels -----------------------------------------------------------

template <class V>
void
addModVec(u64 *a, const u64 *b, std::size_t n, u64 q)
{
    const auto qv = V::set1(q);
    std::size_t i = 0;
    for (; i + V::kLanes <= n; i += V::kLanes)
        V::store(a + i, V::csub(V::add(V::load(a + i), V::load(b + i)), qv));
    ref::addModVec(a + i, b + i, n - i, q);
}

template <class V>
void
subModVec(u64 *a, const u64 *b, std::size_t n, u64 q)
{
    const auto qv = V::set1(q);
    std::size_t i = 0;
    for (; i + V::kLanes <= n; i += V::kLanes)
        V::store(a + i, V::subModQ(V::load(a + i), V::load(b + i), qv));
    ref::subModVec(a + i, b + i, n - i, q);
}

template <class V, class M>
void
barrettMulMod(u64 *a, const u64 *b, std::size_t n, u64 q)
{
    const M mul(q);
    std::size_t i = 0;
    for (; i + V::kLanes <= n; i += V::kLanes)
        V::store(a + i, mul(V::load(a + i), V::load(b + i)));
    ref::mulModVec(a + i, b + i, n - i, q);
}

template <class V>
void
mulModVec(u64 *a, const u64 *b, std::size_t n, u64 q)
{
    withMulMod<V>(q, [&]<class M>(std::type_identity<M>) {
        barrettMulMod<V, M>(a, b, n, q);
    });
}

template <class V, class M>
void
barrettMulAddMod(u64 *acc, const u64 *a, const u64 *b, std::size_t n, u64 q)
{
    const M mul(q);
    const auto qv = V::set1(q);
    std::size_t i = 0;
    for (; i + V::kLanes <= n; i += V::kLanes) {
        const auto prod = mul(V::load(a + i), V::load(b + i));
        V::store(acc + i, V::csub(V::add(V::load(acc + i), prod), qv));
    }
    ref::mulAddModVec(acc + i, a + i, b + i, n - i, q);
}

template <class V>
void
mulAddModVec(u64 *acc, const u64 *a, const u64 *b, std::size_t n, u64 q)
{
    withMulMod<V>(q, [&]<class M>(std::type_identity<M>) {
        barrettMulAddMod<V, M>(acc, a, b, n, q);
    });
}

template <class V>
void
negateVec(u64 *a, std::size_t n, u64 q)
{
    const auto qv = V::set1(q);
    std::size_t i = 0;
    for (; i + V::kLanes <= n; i += V::kLanes)
        V::store(a + i, V::negMod(V::load(a + i), qv));
    ref::negateVec(a + i, n - i, q);
}

template <class V, class S>
void
mulModShoup(u64 *y, const u64 *x, std::size_t n, u64 w, u64 wPrec, u64 q)
{
    const S mul(w, wPrec, q);
    std::size_t i = 0;
    for (; i + V::kLanes <= n; i += V::kLanes)
        V::store(y + i, V::csub(mul.mulLazy(V::load(x + i)), mul.q));
    ref::mulModShoupVec(y + i, x + i, n - i, w, wPrec, q);
}

template <class V>
void
mulModShoupVec(u64 *y, const u64 *x, std::size_t n, u64 w, u64 wPrec,
               u64 q)
{
    withShoup<V>(q, [&]<class S>(std::type_identity<S>) {
        mulModShoup<V, S>(y, x, n, w, wPrec, q);
    });
}

/** Narrow MAC: exact 32-bit products summed in a 64-bit accumulator,
 *  Barrett-flushed before it can wrap. q < 2^30, xs < 2^32. */
template <class V>
void
baseconvMacNarrow(u64 *y, const u64 *const *xs, const u64 *cs,
                  std::size_t ls, std::size_t n, u64 q)
{
    using R = typename V::R;
    // x mod q for x < 2^32: x - floor(x*M/2^64)*q with M = floor(2^64/q)
    // split as mHi:mLo (NarrowShoup::mulLazy's quotient with w = 1, so
    // x*w is x itself), in [0, q] (q only for nonzero multiples of q),
    // plus one conditional subtract.
    const u64 m = static_cast<u64>((u128{1} << 64) / q);
    const R mLo = V::set1(m), mHi = V::set1(m >> 32), qv = V::set1(q);
    const auto mod_q = [&](R x) {
        const R h = hi32<V>(
            V::add(V::mul32(x, mHi), hi32<V>(V::mul32(x, mLo))));
        return V::csub(V::sub(x, V::mul32(h, qv)), qv);
    };
    const NarrowMulMod<V> mul(q);
    // Flush period: chunk * q^2 <= q * 2^32 keeps the running sum in
    // the Barrett reduction's domain.
    const std::size_t chunk =
        static_cast<std::size_t>((u64{1} << 32) / q);

    std::size_t k = 0;
    for (; k + V::kLanes <= n; k += V::kLanes) {
        R acc = V::zero();
        std::size_t since_flush = 0;
        for (std::size_t i = 0; i < ls; ++i) {
            const R t = mod_q(V::load(xs[i] + k)); // [0, q)
            acc = V::add(acc, V::mul32(t, V::set1(cs[i])));
            if (++since_flush >= chunk && i + 1 < ls) {
                acc = mul.reduce(acc);
                since_flush = 0;
            }
        }
        V::store(y + k, mul.reduce(acc));
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
 *  x mod q — accumulated lazily in [0, 2q). q < 2^62. Two vectors of
 *  coefficients per pass share each term's splatted multiplier. */
template <class V, class S>
void
baseconvMacShoup(u64 *y, const u64 *const *xs, const u64 *cs,
                 std::size_t ls, std::size_t n, u64 q)
{
    using R = typename V::R;
    constexpr std::size_t L = V::kLanes;
    static thread_local std::vector<ShoupMul> terms;
    terms.resize(ls);
    for (std::size_t i = 0; i < ls; ++i)
        terms[i] = ShoupMul(cs[i], q);
    const R qv = V::set1(q), two_q = V::set1(2 * q);

    std::size_t k = 0;
    for (; k + 2 * L <= n; k += 2 * L) {
        R acc0 = V::zero(), acc1 = acc0;
        for (std::size_t i = 0; i < ls; ++i) {
            const S c(terms[i].w, terms[i].wPrec, q);
            const R x0 = V::load(xs[i] + k);
            const R x1 = V::load(xs[i] + k + L);
            acc0 = V::csub(V::add(acc0, c.mulLazy(x0)), two_q);
            acc1 = V::csub(V::add(acc1, c.mulLazy(x1)), two_q);
        }
        V::store(y + k, V::csub(acc0, qv));
        V::store(y + k + L, V::csub(acc1, qv));
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

template <class V>
void
baseconvMacVec(u64 *y, const u64 *const *xs, const u64 *cs,
               std::size_t ls, std::size_t n, u64 q, u64 x_bound)
{
    if (n < V::kLanes)
        return ref::baseconvMacVec(y, xs, cs, ls, n, q, x_bound);
    if (narrow(q) && x_bound <= (u64{1} << 32))
        return baseconvMacNarrow<V>(y, xs, cs, ls, n, q);
    // The per-term Shoup multiply takes raw source values < x_bound.
    withShoup<V>(false, ifmaFits(q) && x_bound <= kIfmaLimb,
                 [&]<class S>(std::type_identity<S>) {
                     baseconvMacShoup<V, S>(y, xs, cs, ls, n, q);
                 });
}

template <class V>
void
gatherVec(u64 *dst, const u64 *src, const std::uint32_t *idx,
          std::size_t n)
{
    std::size_t j = 0;
    for (; j + V::kLanes <= n; j += V::kLanes)
        V::store(dst + j, V::gather(src, idx + j));
    ref::gatherVec(dst + j, src, idx + j, n - j);
}

// --- NTT butterflies ---------------------------------------------------

/** Forward (Cooley-Tukey) butterflies on every lane, exactly
 *  ref::nttFwdButterflyVec's formula. x, y in [0, 4q). */
template <class V, class S>
inline void
fwdButterfly(typename V::R &x, typename V::R &y, const S &w,
             typename V::R two_q)
{
    const auto xx = V::csub(x, two_q); // [0, 2q)
    const auto v = w.mulLazy(y);       // [0, 2q)
    x = V::add(xx, v);
    y = V::sub(V::add(xx, two_q), v);
}

/** Inverse (Gentleman-Sande) butterflies on every lane, exactly
 *  ref::nttInvButterflyVec's formula. x, y in [0, 2q). */
template <class V, class S>
inline void
invButterfly(typename V::R &x, typename V::R &y, const S &w,
             typename V::R two_q)
{
    const auto s = V::csub(V::add(x, y), two_q);
    const auto u = V::sub(V::add(x, two_q), y);
    x = s;
    y = w.mulLazy(u);
}

template <class V, class S>
void
nttFwdButterfly(u64 *x, u64 *y, std::size_t t, u64 w, u64 wPrec, u64 q)
{
    const S mul(w, wPrec, q);
    const auto two_q = V::set1(2 * q);
    std::size_t j = 0;
    for (; j + V::kLanes <= t; j += V::kLanes) {
        auto xv = V::load(x + j), yv = V::load(y + j);
        fwdButterfly<V>(xv, yv, mul, two_q);
        V::store(x + j, xv);
        V::store(y + j, yv);
    }
    ref::nttFwdButterflyVec(x + j, y + j, t - j, w, wPrec, q);
}

template <class V>
void
nttFwdButterflyVec(u64 *x, u64 *y, std::size_t t, u64 w, u64 wPrec,
                   u64 q)
{
    withShoup<V>(q, [&]<class S>(std::type_identity<S>) {
        nttFwdButterfly<V, S>(x, y, t, w, wPrec, q);
    });
}

template <class V, class S>
void
nttInvButterfly(u64 *x, u64 *y, std::size_t t, u64 w, u64 wPrec, u64 q)
{
    const S mul(w, wPrec, q);
    const auto two_q = V::set1(2 * q);
    std::size_t j = 0;
    for (; j + V::kLanes <= t; j += V::kLanes) {
        auto xv = V::load(x + j), yv = V::load(y + j);
        invButterfly<V>(xv, yv, mul, two_q);
        V::store(x + j, xv);
        V::store(y + j, yv);
    }
    ref::nttInvButterflyVec(x + j, y + j, t - j, w, wPrec, q);
}

template <class V>
void
nttInvButterflyVec(u64 *x, u64 *y, std::size_t t, u64 w, u64 wPrec,
                   u64 q)
{
    withShoup<V>(q, [&]<class S>(std::type_identity<S>) {
        nttInvButterfly<V, S>(x, y, t, w, wPrec, q);
    });
}

// --- NTT short-block stages (t = 4, 2, 1), 8-lane types only -----------
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

/** permute2 indices taking layout @p from to layout @p to. */
constexpr std::array<u64, 16>
relayout(const Layout &from, const Layout &to)
{
    std::array<u64, 16> idx{};
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
constexpr std::array<u64, 16>
twiddleIndex(unsigned t)
{
    std::array<u64, 16> idx{};
    for (unsigned l = 0; l < 8; ++l) {
        idx[l] = 2 * (l / t);
        idx[l + 8] = 2 * (l / t) + 1;
    }
    return idx;
}

constexpr Layout kT4 = stageLayout(4), kT2 = stageLayout(2),
                 kT1 = stageLayout(1);

/** A two-vector permutation (the X and Y halves of the indices). */
template <class V>
struct Relayout
{
    static_assert(V::kLanes == 8, "the NTT tails need 8-lane vectors");
    typename V::R x, y;

    explicit Relayout(const std::array<u64, 16> &idx)
        : x(V::load(idx.data())), y(V::load(idx.data() + 8))
    {
    }

    void
    apply(typename V::R &a, typename V::R &b) const
    {
        const auto na = V::permute2(a, x, b);
        b = V::permute2(a, y, b);
        a = na;
    }
};

/**
 * The per-lane Shoup multipliers of stage t for chunk c of an n-point
 * transform: blocks n/(2t) + c*(8/t) onward of the bit-reversed
 * table, 8/t ShoupMuls (16/t words), split into w and wPrec vectors.
 * At t = 4 the 8-word load also reads the next two ShoupMuls, which
 * no index selects; the last chunk's load ends at entry n/4 + 2,
 * inside the n-entry table.
 */
template <class V, class S, unsigned T>
inline S
stageTwiddles(const ShoupMul *tw, std::size_t n, std::size_t c,
              typename V::R qv)
{
    static_assert(sizeof(ShoupMul) == 2 * sizeof(u64),
                  "ShoupMul must be two packed words");
    static constexpr auto kSplit = twiddleIndex(T);
    const Relayout<V> split(kSplit);
    const u64 *words =
        reinterpret_cast<const u64 *>(tw + n / (2 * T) + c * (8 / T));
    // Keep each stage's twiddle stream opaque to induction-variable
    // rewriting. GCC 12 otherwise addresses one stream as twice
    // another minus tw, from a null base; its mod/ref analysis reads
    // that as a null dereference, concludes the kernel stores nothing,
    // and deletes calls to it.
    asm("" : "+r"(words));
    const auto a = V::load(words);
    const auto b = T == 1 ? V::load(words + 8) : V::zero();
    return S(V::permute2(a, split.x, b), V::permute2(a, split.y, b), qv);
}

template <class V, class S>
void
nttFwdTail(u64 *a, std::size_t n, const ShoupMul *tw, u64 q)
{
    static constexpr auto kIn = relayout(kNatural, kT4);
    static constexpr auto k4to2 = relayout(kT4, kT2);
    static constexpr auto k2to1 = relayout(kT2, kT1);
    static constexpr auto kOut = relayout(kT1, kNatural);
    const Relayout<V> in(kIn), r42(k4to2), r21(k2to1), out(kOut);
    const auto qv = V::set1(q), two_q = V::set1(2 * q);
    for (std::size_t c = 0; c < n / 16; ++c) {
        auto x = V::load(a + 16 * c), y = V::load(a + 16 * c + 8);
        in.apply(x, y);
        fwdButterfly<V>(x, y, stageTwiddles<V, S, 4>(tw, n, c, qv), two_q);
        r42.apply(x, y);
        fwdButterfly<V>(x, y, stageTwiddles<V, S, 2>(tw, n, c, qv), two_q);
        r21.apply(x, y);
        fwdButterfly<V>(x, y, stageTwiddles<V, S, 1>(tw, n, c, qv), two_q);
        out.apply(x, y);
        V::store(a + 16 * c, x);
        V::store(a + 16 * c + 8, y);
    }
}

template <class V>
void
nttFwdTailVec(u64 *a, std::size_t n, const ShoupMul *tw, u64 q)
{
    if (n < 16)
        return ref::nttFwdTailVec(a, n, tw, q);
    withShoup<V>(q, [&]<class S>(std::type_identity<S>) {
        nttFwdTail<V, S>(a, n, tw, q);
    });
}

template <class V, class S>
void
nttInvTail(u64 *a, std::size_t n, const ShoupMul *tw, u64 q)
{
    static constexpr auto kIn = relayout(kNatural, kT1);
    static constexpr auto k1to2 = relayout(kT1, kT2);
    static constexpr auto k2to4 = relayout(kT2, kT4);
    static constexpr auto kOut = relayout(kT4, kNatural);
    const Relayout<V> in(kIn), r12(k1to2), r24(k2to4), out(kOut);
    const auto qv = V::set1(q), two_q = V::set1(2 * q);
    for (std::size_t c = 0; c < n / 16; ++c) {
        auto x = V::load(a + 16 * c), y = V::load(a + 16 * c + 8);
        in.apply(x, y);
        invButterfly<V>(x, y, stageTwiddles<V, S, 1>(tw, n, c, qv), two_q);
        r12.apply(x, y);
        invButterfly<V>(x, y, stageTwiddles<V, S, 2>(tw, n, c, qv), two_q);
        r24.apply(x, y);
        invButterfly<V>(x, y, stageTwiddles<V, S, 4>(tw, n, c, qv), two_q);
        out.apply(x, y);
        V::store(a + 16 * c, x);
        V::store(a + 16 * c + 8, y);
    }
}

template <class V>
void
nttInvTailVec(u64 *a, std::size_t n, const ShoupMul *tw, u64 q)
{
    if (n < 16)
        return ref::nttInvTailVec(a, n, tw, q);
    withShoup<V>(q, [&]<class S>(std::type_identity<S>) {
        nttInvTail<V, S>(a, n, tw, q);
    });
}

template <class V>
void
nttCorrectVec(u64 *a, std::size_t n, u64 q)
{
    const auto qv = V::set1(q), two_q = V::set1(2 * q);
    std::size_t i = 0;
    for (; i + V::kLanes <= n; i += V::kLanes)
        V::store(a + i, V::csub(V::csub(V::load(a + i), two_q), qv));
    ref::nttCorrectVec(a + i, n - i, q);
}

template <class V, class S>
void
nttScaleInv(u64 *a, std::size_t n, u64 w, u64 wPrec, u64 q)
{
    const S mul(w, wPrec, q);
    std::size_t i = 0;
    for (; i + V::kLanes <= n; i += V::kLanes)
        V::store(a + i, V::csub(mul.mulLazy(V::load(a + i)), mul.q));
    ref::nttScaleInvVec(a + i, n - i, w, wPrec, q);
}

template <class V>
void
nttScaleInvVec(u64 *a, std::size_t n, u64 w, u64 wPrec, u64 q)
{
    withShoup<V>(q, [&]<class S>(std::type_identity<S>) {
        nttScaleInv<V, S>(a, n, w, wPrec, q);
    });
}

// --- Fused pipeline kernels (DESIGN.md §5e) ----------------------------

template <class V, class S>
void
nttInvScaleButterfly(u64 *x, u64 *y, std::size_t t, u64 w, u64 wPrec,
                     u64 nw, u64 nwPrec, u64 q)
{
    const S mul(w, wPrec, q), nInv(nw, nwPrec, q);
    const auto qv = mul.q, two_q = V::set1(2 * q);
    std::size_t j = 0;
    for (; j + V::kLanes <= t; j += V::kLanes) {
        auto xv = V::load(x + j), yv = V::load(y + j);
        invButterfly<V>(xv, yv, mul, two_q); // xv, yv in [0, 2q)
        V::store(x + j, V::csub(nInv.mulLazy(xv), qv));
        V::store(y + j, V::csub(nInv.mulLazy(yv), qv));
    }
    ref::nttInvScaleButterflyVec(x + j, y + j, t - j, w, wPrec, nw,
                                 nwPrec, q);
}

template <class V>
void
nttInvScaleButterflyVec(u64 *x, u64 *y, std::size_t t, u64 w, u64 wPrec,
                        u64 nw, u64 nwPrec, u64 q)
{
    withShoup<V>(q, [&]<class S>(std::type_identity<S>) {
        nttInvScaleButterfly<V, S>(x, y, t, w, wPrec, nw, nwPrec, q);
    });
}

/** Vector-splatted RescaleConsts; built once per kernel call. The
 *  identity Shoup multiply takes xs = addMod(xl, half, ql) < ql, so
 *  the narrow instantiation also needs ql < 2^30 (xs < 2^32) and the
 *  IFMA one ql < 2^52. */
template <class V, class S>
struct RescaleVec
{
    using R = typename V::R;
    S nInv, qlInv, modQ; // modQ: the identity pair, x -> x mod q lazily
    R qlv, halfv, halfModQ, qv;

    RescaleVec(const RescaleConsts &rc, u64 q)
        : nInv(rc.nInvW, rc.nInvPrec, q), qlInv(rc.qlInvW, rc.qlInvPrec, q),
          modQ(1, static_cast<u64>((u128{1} << 64) / q), q),
          qlv(V::set1(rc.ql)), halfv(V::set1(rc.half)),
          halfModQ(V::set1(rc.half % q)), qv(V::set1(q))
    {
    }
};

/** rescaleCenterScalar on every lane; xl < ql. */
template <class V, class S>
inline typename V::R
rescaleCenter(typename V::R xl, const RescaleVec<V, S> &c)
{
    // xs = addMod(xl, half, ql).
    const auto xs = V::csub(V::add(xl, c.halfv), c.qlv);
    // xs mod q: the identity Shoup multiply leaves [0, 2q).
    const auto t = V::csub(c.modQ.mulLazy(xs), c.qv);
    // subMod(xs mod q, half mod q, q).
    return V::subModQ(t, c.halfModQ, c.qv);
}

/** rescaleCorrectScalar on every lane; a < 2q, xl < ql. */
template <class V, class S>
inline typename V::R
rescaleCorrect(typename V::R a, typename V::R xl, const RescaleVec<V, S> &c)
{
    // v = fold_q(mulLazy(a, nInv)).
    const auto v = V::csub(c.nInv.mulLazy(a), c.qv);
    const auto d = V::subModQ(v, rescaleCenter(xl, c), c.qv);
    // Canonical Shoup multiply by ql^-1.
    return V::csub(c.qlInv.mulLazy(d), c.qv);
}

/** The IFMA gate of the rescale kernels. */
inline bool
rescaleIfmaFits(u64 q, u64 ql)
{
    return ifmaFits(q) && ql < kIfmaLimb;
}

template <class V, class S>
void
rescaleEpilogue(u64 *a, const u64 *xl, std::size_t n,
                const RescaleConsts *rc, u64 q)
{
    const RescaleVec<V, S> c(*rc, q);
    std::size_t i = 0;
    for (; i + V::kLanes <= n; i += V::kLanes)
        V::store(a + i, rescaleCorrect(V::load(a + i), V::load(xl + i), c));
    ref::rescaleEpilogueVec(a + i, xl + i, n - i, rc, q);
}

template <class V>
void
rescaleEpilogueVec(u64 *a, const u64 *xl, std::size_t n,
                   const RescaleConsts *rc, u64 q)
{
    withShoup<V>(narrow(q) && narrow(rc->ql), rescaleIfmaFits(q, rc->ql),
                 [&]<class S>(std::type_identity<S>) {
                     rescaleEpilogue<V, S>(a, xl, n, rc, q);
                 });
}

template <class V, class S>
void
rescaleCenter(u64 *y, const u64 *xl, std::size_t n, const RescaleConsts *rc,
              u64 q)
{
    const RescaleVec<V, S> c(*rc, q);
    std::size_t i = 0;
    for (; i + V::kLanes <= n; i += V::kLanes)
        V::store(y + i, rescaleCenter(V::load(xl + i), c));
    ref::rescaleCenterVec(y + i, xl + i, n - i, rc, q);
}

template <class V>
void
rescaleCenterVec(u64 *y, const u64 *xl, std::size_t n,
                 const RescaleConsts *rc, u64 q)
{
    withShoup<V>(narrow(q) && narrow(rc->ql), rescaleIfmaFits(q, rc->ql),
                 [&]<class S>(std::type_identity<S>) {
                     rescaleCenter<V, S>(y, xl, n, rc, q);
                 });
}

template <class V, class S>
void
nttCorrectSubMulShoup(u64 *dst, const u64 *acc, const u64 *x,
                      std::size_t n, u64 w, u64 wPrec, u64 q)
{
    const S mul(w, wPrec, q);
    const auto qv = mul.q, two_q = V::set1(2 * q);
    std::size_t i = 0;
    for (; i + V::kLanes <= n; i += V::kLanes) {
        const auto c =
            V::csub(V::csub(V::load(x + i), two_q), qv); // canonical
        const auto d = V::subModQ(V::load(acc + i), c, qv);
        V::store(dst + i, V::csub(mul.mulLazy(d), qv));
    }
    ref::nttCorrectSubMulShoupVec(dst + i, acc + i, x + i, n - i, w,
                                  wPrec, q);
}

template <class V>
void
nttCorrectSubMulShoupVec(u64 *dst, const u64 *acc, const u64 *x,
                         std::size_t n, u64 w, u64 wPrec, u64 q)
{
    withShoup<V>(q, [&]<class S>(std::type_identity<S>) {
        nttCorrectSubMulShoup<V, S>(dst, acc, x, n, w, wPrec, q);
    });
}

// --- KSHGen: Keccak-f[1600] on kLanes interleaved states --------------

/** f(integral_constant<I>) for I = 0 .. N-1, unrolled, so every state
 *  index below is a compile-time constant and the 25 state vectors
 *  stay in registers. */
template <std::size_t N, class F>
inline void
unrolled(F &&f)
{
    [&]<std::size_t... I>(std::index_sequence<I...>) {
        (f(std::integral_constant<std::size_t, I>{}), ...);
    }(std::make_index_sequence<N>{});
}

/** Lane-wise rotate left by N: V's rotl where it has one (vprolq),
 *  else two shifts. */
template <class V, unsigned N>
inline typename V::R
rotl(typename V::R x)
{
    if constexpr (N == 0)
        return x;
    else if constexpr (requires(typename V::R r) { V::template rotl<N>(r); })
        return V::template rotl<N>(x);
    else
        return V::bitOr(V::slli(x, N), V::srli(x, 64 - N));
}

/** One Rho-Pi move: state word src, rotated left by rot, lands in
 *  word dst. */
struct KeccakMove
{
    unsigned src, dst, rot;
};

/** keccakF1600's Rho-Pi cycle (keccak::kPiLanes, keccak::kRhoOffsets)
 *  as 25 independent moves, word 0 staying in place unrotated. */
constexpr std::array<KeccakMove, 25>
keccakRhoPi()
{
    std::array<KeccakMove, 25> m{};
    unsigned src = 1;
    for (unsigned i = 0; i < 24; ++i) {
        m[i + 1] = {src, keccak::kPiLanes[i], keccak::kRhoOffsets[i]};
        src = keccak::kPiLanes[i];
    }
    return m;
}

constexpr std::array<KeccakMove, 25> kKeccakRhoPi = keccakRhoPi();

/** One Keccak-f[1600] round on every lane, exactly keccakF1600's
 *  Theta, Rho-Pi, Chi and Iota steps; word x + 5y in a[x + 5y]. */
template <class V>
inline void
keccakRound(typename V::R (&a)[25], u64 rc)
{
    using R = typename V::R;
    R c[5], b[25];
    unrolled<5>([&](auto x) {
        c[x] = V::bitXor(V::bitXor(V::bitXor(a[x], a[x + 5]),
                                   V::bitXor(a[x + 10], a[x + 15])),
                         a[x + 20]);
    });
    unrolled<5>([&](auto x) {
        const R d = V::bitXor(c[(x + 4) % 5], rotl<V, 1>(c[(x + 1) % 5]));
        unrolled<5>(
            [&](auto y) { a[x + 5 * y] = V::bitXor(a[x + 5 * y], d); });
    });
    unrolled<25>([&](auto i) {
        constexpr KeccakMove m = kKeccakRhoPi[decltype(i)::value];
        b[m.dst] = rotl<V, m.rot>(a[m.src]);
    });
    unrolled<25>([&](auto i) {
        constexpr std::size_t x = decltype(i)::value % 5;
        constexpr std::size_t row = decltype(i)::value - x;
        a[i] = V::bitXor(b[i], V::andNot(b[row + (x + 1) % 5],
                                         b[row + (x + 2) % 5]));
    });
    a[0] = V::bitXor(a[0], V::set1(rc));
}

/** KernelTable::keccakF1600Lanes: kLanes states, interleaved. */
template <class V>
void
keccakF1600Lanes(std::uint64_t *s)
{
    typename V::R a[25];
    unrolled<25>([&](auto w) { a[w] = V::load(s + w * V::kLanes); });
    for (u64 rc : keccak::kRoundConstants)
        keccakRound<V>(a, rc);
    unrolled<25>([&](auto w) { V::store(s + w * V::kLanes, a[w]); });
}

/** The kernel table of lane type V. The register-resident NTT tails
 *  need 8 lanes; narrower types run the scalar tails. */
template <class V>
KernelTable
makeTable(SimdBackend id, const char *name)
{
    KernelTable t = {
        id,
        name,
        &addModVec<V>,
        &subModVec<V>,
        &mulModVec<V>,
        &mulAddModVec<V>,
        &negateVec<V>,
        &mulModShoupVec<V>,
        &baseconvMacVec<V>,
        &gatherVec<V>,
        &nttFwdButterflyVec<V>,
        &nttInvButterflyVec<V>,
        &ref::nttFwdTailVec,
        &ref::nttInvTailVec,
        &nttCorrectVec<V>,
        &nttScaleInvVec<V>,
        &nttInvScaleButterflyVec<V>,
        &rescaleEpilogueVec<V>,
        &rescaleCenterVec<V>,
        &nttCorrectSubMulShoupVec<V>,
        V::kLanes,
        &keccakF1600Lanes<V>,
    };
    if constexpr (V::kLanes == 8) {
        t.nttFwdTailVec = &nttFwdTailVec<V>;
        t.nttInvTailVec = &nttInvTailVec<V>;
    }
    return t;
}

} // namespace
} // namespace simd
} // namespace cl

#endif // CL_RNS_SIMD_KERNELS_VEC_IMPL_H
