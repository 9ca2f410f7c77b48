/**
 * @file
 * Runtime-dispatched SIMD kernel backend for the RNS elementwise hot
 * paths — the software stand-in for CraterLake's 2,048 fixed-modulus
 * vector lanes (Sec 5). Every elementwise kernel the functional
 * library runs (modular add/sub/mul, Shoup multiply, the
 * changeRNSBase MAC inner product, the Harvey lazy NTT butterflies,
 * the automorphism slot gather, and KSHGen's Keccak permutation) goes
 * through one function-pointer table, selected once at startup:
 *
 *  - `scalar`  — the reference loops (exactly the pre-SIMD code).
 *  - `avx2`    — 4 lanes of 64-bit residues.
 *  - `avx512`  — 8 lanes, mask registers, and 52-bit IFMA products
 *                below 2^50 on CPUs with avx512ifma.
 *
 * Both vector backends instantiate one kernel source,
 * kernels_vec_impl.h, written over a lane type that supplies only the
 * per-width primitives; each builds the exact 64x64-bit lane products
 * of the wide (q >= 2^30) CKKS primes from 32x32->64 multiplies.
 *
 * Selection is CPUID-driven (best supported backend wins) and can be
 * overridden with `CL_SIMD=scalar|avx2|avx512`, mirroring CL_THREADS:
 * threads partition towers, lanes partition coefficients, and the two
 * compose multiplicatively.
 *
 * ## Bit-identity contract
 *
 * Every backend produces bit-identical output for every kernel:
 *
 *  - Canonical kernels (add/sub/mul/negate/Shoup/MAC) return the
 *    unique representative in [0, q); any exact algorithm agrees, so
 *    the AVX paths may use Barrett reduction where the scalar path
 *    uses a 128-bit divide.
 *  - Lazy kernels (NTT butterflies, inverse scaling) compute the
 *    *same integer formula* as `ShoupMul::mulLazy` — quotient
 *    hi = floor(x * wPrec / 2^64), remainder x*w - hi*q mod 2^64 —
 *    so the lazy representatives in [0, 2q) / [0, 4q) match exactly,
 *    not just mod q. PR 1's Harvey bounds are unchanged.
 *
 * ## Modulus-width gating
 *
 * Which arithmetic runs depends on the modulus width; each
 * multiply-class kernel takes the first tier that fits. The narrow
 * and wide tiers are the same templates on both vector backends:
 *
 *  - q < 2^30 (CraterLake's 28-bit datapath primes, Sec 5.5): every
 *    lazy operand stays below 4q < 2^32, so one 32x32->64 `vpmuludq`
 *    forms an exact product and the 64-bit Shoup/Barrett quotients
 *    split into two 32-bit multiplies.
 *  - `avx512` on a CPU with avx512ifma, q < 2^50 (every prime of the
 *    logN 12-15 CKKS chains): every lazy operand stays below
 *    4q < 2^52, one IFMA limb, so `vpmadd52luq`/`vpmadd52huq` form
 *    exact 104-bit products. The Shoup quotient floor(x*wPrec/2^64)
 *    splits wPrec at bit 52 and stays exact (kernels_vec_impl.h).
 *    The base-conversion MAC also needs its sources below 2^52, the
 *    rescale kernels the dropped ql below 2^52. Only the IFMA table's
 *    lane type, built in a translation unit of its own with
 *    -mavx512ifma, has these multiplies; the -mavx512f table holds no
 *    IFMA instruction, and the IFMA table is picked only when CPUID
 *    reports avx512ifma.
 *  - 2^30 <= q < 2^62 otherwise (the 55-62-bit primes, and every wide
 *    prime on `avx2` or without IFMA): exact 64x64-bit lane products,
 *    each assembled from three (low word) or four (high word)
 *    `vpmuludq`. `avx2` compares unsigned by flipping sign bits
 *    before `vpcmpgtq`: for 61-62-bit primes the lazy operands
 *    (below 4q) reach 2^63.
 *
 * add/sub/negate/gather and the NTT correction pass need no
 * multiplies and vectorize at any width on both backends. The NTT's
 * short-block stages (t < 8) run as one table entry per direction;
 * `avx512` shuffles 8 of their butterflies into each vector, the
 * other backends run the scalar loop.
 */

#ifndef CL_RNS_SIMD_KERNELS_H
#define CL_RNS_SIMD_KERNELS_H

#include <cstddef>
#include <cstdint>

#include "rns/modarith.h"

namespace cl {

/** Selectable kernel backends, in increasing preference order. */
enum class SimdBackend
{
    Scalar = 0,
    Avx2 = 1,
    Avx512 = 2,
};

/**
 * Precomputed constants for the fused rescale epilogue/prologue
 * kernels: the Shoup pair for N^-1 mod q (identity pair {1, 2^64/q}
 * on the coefficient-domain path, where no scale is pending), the
 * dropped modulus q_l with its centering offset half = q_l/2, and
 * the Shoup pair for q_l^-1 mod q. Passed by pointer through the
 * kernel table so the signatures stay plain-C friendly.
 */
struct RescaleConsts
{
    u64 nInvW;
    u64 nInvPrec;
    u64 ql;
    u64 half;
    u64 qlInvW;
    u64 qlInvPrec;
};

/**
 * The dropped tower's centered residue reduced mod q: x_l shifted by
 * half = q_l/2 (so the centering rounds to nearest), reduced mod q,
 * and shifted back. Every rescale of a kept tower subtracts this.
 */
inline u64
rescaleCenterScalar(u64 xlv, const RescaleConsts &rc, u64 q)
{
    const u64 xs = addMod(xlv, rc.half, rc.ql);
    return subMod(xs % q, rc.half % q, q);
}

/**
 * The per-coefficient rescale correction, exactly as the composed
 * sequence computes it: fold the lazy iNTT representative to
 * canonical via mulLazy(a, nInv) + one conditional subtract, subtract
 * the centered last-tower residue (rescaleCenterScalar), and multiply
 * by q_l^-1 (canonical Shoup). Both the scalar backend and the vector
 * backends' tail loops call this, so every backend computes the same
 * integer formula — the bit-identity contract extends to the fused
 * kernels.
 */
inline u64
rescaleCorrectScalar(u64 a, u64 xlv, const RescaleConsts &rc, u64 q)
{
    const u64 hi = static_cast<u64>(
        (static_cast<unsigned __int128>(a) * rc.nInvPrec) >> 64);
    const u64 r = a * rc.nInvW - hi * q;
    const u64 v = r >= q ? r - q : r;
    const u64 d = subMod(v, rescaleCenterScalar(xlv, rc, q), q);
    const u64 h2 = static_cast<u64>(
        (static_cast<unsigned __int128>(d) * rc.qlInvPrec) >> 64);
    const u64 r2 = d * rc.qlInvW - h2 * q;
    return r2 >= q ? r2 - q : r2;
}

/**
 * The dispatch table. All pointers are non-null in every backend.
 * Unless noted, kernels accept unaligned pointers and any length
 * (vector bodies handle the tail with the scalar reference).
 */
struct KernelTable
{
    SimdBackend id;
    const char *name;

    /** a[i] = (a[i] + b[i]) mod q; inputs < q. */
    void (*addModVec)(u64 *a, const u64 *b, std::size_t n, u64 q);

    /** a[i] = (a[i] - b[i]) mod q; inputs < q. */
    void (*subModVec)(u64 *a, const u64 *b, std::size_t n, u64 q);

    /** a[i] = a[i] * b[i] mod q (canonical); inputs < q, q < 2^62. */
    void (*mulModVec)(u64 *a, const u64 *b, std::size_t n, u64 q);

    /** acc[i] = (acc[i] + a[i] * b[i]) mod q (canonical); the fused
     *  multiply-accumulate of the keyswitch hint inner product. All
     *  inputs < q; acc must not alias a or b. Equals mulModVec into a
     *  temporary followed by addModVec, fused into one pass. */
    void (*mulAddModVec)(u64 *acc, const u64 *a, const u64 *b,
                         std::size_t n, u64 q);

    /** a[i] = q - a[i] (0 stays 0); inputs < q. */
    void (*negateVec)(u64 *a, std::size_t n, u64 q);

    /** y[i] = x[i] * w mod q, Shoup precomputed quotient wPrec =
     *  floor(w << 64 / q); inputs < q. y may alias x. */
    void (*mulModShoupVec)(u64 *y, const u64 *x, std::size_t n, u64 w,
                           u64 wPrec, u64 q);

    /**
     * changeRNSBase inner product for one destination tower:
     * y[k] = sum_i (xs[i][k] mod q) * cs[i]  mod q, with cs[i] < q.
     * @p x_bound is an exclusive upper bound on every xs value (the
     * largest source modulus). The vector backends take their
     * narrow path when q < 2^30 and x_bound <= 2^32, and otherwise
     * one Shoup multiply per term (on `avx512`, IFMA when q < 2^50
     * and x_bound <= 2^52; else wide, exact for any xs value).
     */
    void (*baseconvMacVec)(u64 *y, const u64 *const *xs, const u64 *cs,
                           std::size_t ls, std::size_t n, u64 q,
                           u64 x_bound);

    /** dst[j] = src[idx[j]] (automorphism slot gather). dst must not
     *  alias src. */
    void (*gatherVec)(u64 *dst, const u64 *src, const std::uint32_t *idx,
                      std::size_t n);

    /**
     * Harvey lazy Cooley-Tukey butterfly block (forward NTT):
     * for j in [0, t):  xx = x[j] - 2q*(x[j] >= 2q)   in [0, 2q)
     *                   v  = mulLazy(y[j], w)         in [0, 2q)
     *                   x[j] = xx + v;  y[j] = xx + 2q - v.
     * Inputs in [0, 4q); q < 2^62.
     */
    void (*nttFwdButterflyVec)(u64 *x, u64 *y, std::size_t t, u64 w,
                               u64 wPrec, u64 q);

    /**
     * Lazy Gentleman-Sande butterfly block (inverse NTT):
     * for j in [0, t):  s = x[j] + y[j] - 2q*(.. >= 2q)  in [0, 2q)
     *                   y[j] = mulLazy(x[j] + 2q - y[j], w)
     *                   x[j] = s.
     * Inputs in [0, 2q); q < 2^62.
     */
    void (*nttInvButterflyVec)(u64 *x, u64 *y, std::size_t t, u64 w,
                               u64 wPrec, u64 q);

    /**
     * The forward NTT's last stages, those with butterfly blocks
     * shorter than 8 (t = 4, 2, 1; fewer when N < 8): for each such
     * stage, m = N / (2t) blocks, block i with twiddle tw[m + i],
     * each butterfly exactly as nttFwdButterflyVec. @p tw is the
     * bit-reversed forward twiddle table. Inputs in [0, 4q); outputs
     * in [0, 4q).
     */
    void (*nttFwdTailVec)(u64 *a, std::size_t n, const ShoupMul *tw,
                          u64 q);

    /**
     * The inverse NTT's first stages, those with butterfly blocks
     * shorter than 8 (t = 1, 2, 4; fewer when N < 8): for each such
     * stage, h = N / (2t) blocks, block i with twiddle tw[h + i],
     * each butterfly exactly as nttInvButterflyVec. @p tw is the
     * bit-reversed inverse twiddle table. Inputs and outputs in
     * [0, 2q).
     */
    void (*nttInvTailVec)(u64 *a, std::size_t n, const ShoupMul *tw,
                          u64 q);

    /** Final forward-NTT correction pass: a[i] in [0, 4q) -> [0, q). */
    void (*nttCorrectVec)(u64 *a, std::size_t n, u64 q);

    /** Final inverse-NTT scaling: a[i] = mulLazy(a[i], w) folded to
     *  [0, q); inputs in [0, 2q); (w, wPrec) is the Shoup pair for
     *  N^-1 mod q. */
    void (*nttScaleInvVec)(u64 *a, std::size_t n, u64 w, u64 wPrec,
                           u64 q);

    // ---- Fused pipeline kernels (DESIGN.md §5e) -------------------
    // Each computes exactly the composed per-coefficient integer
    // formula of the two(+) kernels it replaces, including the Harvey
    // lazy representatives, in a single pass over the operands. The
    // composed sequences survive only as oracles in the tests.

    /**
     * Last Gentleman-Sande butterfly stage fused with the N^-1
     * scaling epilogue (the iNTT's final two passes in one):
     * for j in [0, t):  s = x[j] + y[j] - 2q*(.. >= 2q)
     *                   m = mulLazy(x[j] + 2q - y[j], w)
     *                   x[j] = fold_q(mulLazy(s, nw))
     *                   y[j] = fold_q(mulLazy(m, nw)).
     * Inputs in [0, 2q); outputs canonical. (nw, nwPrec) is the Shoup
     * pair for N^-1 mod q; q < 2^62.
     */
    void (*nttInvScaleButterflyVec)(u64 *x, u64 *y, std::size_t t, u64 w,
                                    u64 wPrec, u64 nw, u64 nwPrec, u64 q);

    /**
     * Rescale epilogue: a[i] = rescaleCorrectScalar(a[i], xl[i], rc, q)
     * — iNTT scale fold, centered last-tower subtract, and q_l^-1
     * multiply in one pass. On the coefficient-domain path rc's nInv
     * pair is the exact identity {1, 2^64/q} (mulLazy(x, 1) == x for
     * x < q), so one kernel serves both domains bit-identically.
     * a in [0, 2q) (NTT path) or [0, q) (coeff path); xl < ql.
     */
    void (*rescaleEpilogueVec)(u64 *a, const u64 *xl, std::size_t n,
                               const RescaleConsts *rc, u64 q);

    /**
     * Rescale centering: y[i] = rescaleCenterScalar(xl[i], rc, q), the
     * dropped tower's centered residues reduced mod q (canonical). Only
     * rc's ql and half are read. The NTT-domain rescale transforms
     * these into each kept tower instead of taking the kept towers out
     * of NTT form. xl < ql; y may alias xl.
     */
    void (*rescaleCenterVec)(u64 *y, const u64 *xl, std::size_t n,
                             const RescaleConsts *rc, u64 q);

    /**
     * modDown epilogue: fold x[i] from the forward NTT's lazy [0, 4q)
     * to canonical (two conditional subtracts, exactly nttCorrectVec),
     * then dst[i] = (acc[i] - x_c) * w mod q — the NTT correction pass
     * and ref::subMulShoupVec in one. acc < q. dst may alias acc or x
     * (element i is read before it is written): the rescale corrects a
     * tower in place, and modDown corrects its conversion output in
     * place.
     */
    void (*nttCorrectSubMulShoupVec)(u64 *dst, const u64 *acc,
                                     const u64 *x, std::size_t n, u64 w,
                                     u64 wPrec, u64 q);

    // ---- KSHGen (DESIGN.md §5b) -----------------------------------

    /** Keccak states keccakF1600Lanes permutes per call: one per
     *  64-bit vector lane (1 on `scalar`, 4 on `avx2`, 8 on
     *  `avx512`). */
    std::size_t keccakLanes;

    /**
     * keccakF1600 on keccakLanes independent sponge states held
     * lane-interleaved: word w of state l at s[w * keccakLanes + l].
     * Each state ends exactly as keccakF1600 leaves it; the scalar
     * table calls keccakF1600 itself.
     */
    void (*keccakF1600Lanes)(std::uint64_t *s);
};

/**
 * The active kernel table. Resolved once on first use: the CL_SIMD
 * environment variable if set (falling back to scalar, with a
 * warning, when the requested backend is unavailable), else the best
 * backend both compiled in and supported by this CPU.
 */
const KernelTable &kernels();

/** Backend of the active table. */
SimdBackend activeSimdBackend();

/** Table for a specific backend, or nullptr when it is not compiled
 *  in or not supported by this CPU (tests/benchmarks). */
const KernelTable *kernelTableFor(SimdBackend backend);

/** The `avx512` backend without its IFMA lane arithmetic — exactly
 *  the table an AVX-512F-only CPU runs — or nullptr when this CPU
 *  lacks AVX-512F. On a CPU without IFMA it is kernelTableFor(Avx512)
 *  itself; on one with IFMA, tests use it to keep the AVX-512F wide
 *  arithmetic covered. */
const KernelTable *avx512fKernelTable();

/** Switch the active backend; returns false (and changes nothing)
 *  when the backend is unavailable. Must not race with in-flight
 *  kernels (tests/benchmarks sweeping backends). */
bool setSimdBackend(SimdBackend backend);

/** Install @p table, one of the tables above, as the active table
 *  (tests sweeping avx512fKernelTable()). Same rules as
 *  setSimdBackend. */
void setKernelTable(const KernelTable &table);

/** Human-readable backend name ("scalar", "avx2", "avx512"). */
const char *simdBackendName(SimdBackend backend);

} // namespace cl

#endif // CL_RNS_SIMD_KERNELS_H
