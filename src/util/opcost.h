/**
 * @file
 * The one op-cost model (paper Table 1, Listing 1): the residue-vector
 * work of each stage of a keyswitch, rescale, mod-raise, rotation and
 * tensor product, in util/instrument.h's unit (one pass over one
 * residue vector). The chip lowering, the CPU baseline and the host
 * Evaluator's OpCounter all read these terms. Where the chip's
 * algorithm and the host's differ, the difference is a field of its
 * own; the chip* and host* sums name the fields each algorithm
 * performs (DESIGN.md §4a). Everything is constexpr and allocation-free.
 */

#ifndef CL_UTIL_OPCOST_H
#define CL_UTIL_OPCOST_H

#include <cstdint>

#include "util/common.h"

namespace cl::opcost {

using u64 = std::uint64_t;

/** A stage's work in kernel-counter units, as the host charges it. */
struct Counts
{
    u64 ntts = 0, mults = 0, adds = 0, automorphisms = 0;
};

/**
 * Keyswitch of one polynomial at l towers with digits of alpha towers
 * (the last may be short) and alpha special primes. Mod-down fields
 * cover both output polynomials.
 */
struct KeySwitch
{
    unsigned ext = 0;  ///< Extended basis: l + alpha towers.
    unsigned dnum = 0; ///< Digits: ceil(l / alpha).

    // Mod-up (Listing 1, lines 2-4).
    u64 modUpIntts = 0; ///< l: the input to coefficient form.
    u64 modUpNtts = 0;  ///< dnum·ext − l: raised residues back.
    u64 modUpMacs = 0;  ///< Σ dj·(ext − dj) over digits with dj > 1.
    /** ext − 1 per single-prime digit: the chip lifts these by
     *  broadcast, the host converts them. */
    u64 singlePrimeMacs = 0;
    /** l q̂ⱼ⁻¹ digit scalings: a host pass the chip folds into the CRB
     *  (as modDownScales and ModRaise::scales). */
    u64 modUpScales = 0;
    /** dnum·ext: a host rotation permutes the raised digits. */
    u64 digitAutomorphisms = 0;
    // Hint inner product (line 6).
    u64 hintMacs = 0;  ///< 2·dnum·ext, a multiply and an add each.
    u64 hintWords = 0; ///< 2·dnum·ext·N words of the hint.
    // Mod-down (lines 7-10).
    u64 modDownNtts = 0;   ///< 2(alpha + l).
    u64 modDownMacs = 0;   ///< 2·alpha·l.
    u64 modDownScales = 0; ///< 2·alpha.
    u64 pInvMuls = 0;      ///< 2l multiplies by P⁻¹.
    u64 subAdds = 0;       ///< 2l subtracts.
    /** 2l adds of the switched pair into the ciphertext (a host
     *  rotation adds only k0, Rotation::c0CombineAdds). */
    u64 combineAdds = 0;

    // The chip's totals (Table 1).
    constexpr u64
    chipNtts() const
    {
        return modUpIntts + modUpNtts + modDownNtts;
    }
    constexpr u64 chipCrbMacs() const { return modUpMacs + modDownMacs; }
    constexpr u64 chipMuls() const { return hintMacs + pInvMuls; }
    constexpr u64 chipAdds() const { return hintMacs + subAdds + combineAdds; }

    // The host's stages: decompose, innerProduct (without and with the
    // digit rotation) and modDown of one polynomial.
    constexpr Counts
    hostModUp() const
    {
        const u64 macs = modUpMacs + singlePrimeMacs;
        return {modUpIntts + modUpNtts, modUpScales + macs, macs, 0};
    }
    constexpr Counts
    hostInnerProduct() const
    {
        return {0, hintMacs, hintMacs, 0};
    }
    constexpr Counts
    hostDigitRotation() const
    {
        return {0, 0, 0, digitAutomorphisms};
    }
    constexpr Counts
    hostModDown() const
    {
        return {modDownNtts / 2,
                (modDownScales + modDownMacs + pInvMuls) / 2,
                (modDownMacs + subAdds) / 2, 0};
    }
};

constexpr KeySwitch
keySwitch(unsigned l, unsigned alpha, u64 n)
{
    // l / alpha full digits of alpha towers, then one short digit.
    const unsigned full = l / alpha, last = l % alpha;
    KeySwitch k;
    k.ext = l + alpha;
    k.dnum = full + (last > 0);
    const auto macs = [&](u64 dj) { return dj * (k.ext - dj); };
    (alpha > 1 ? k.modUpMacs : k.singlePrimeMacs) += u64{full} * macs(alpha);
    (last > 1 ? k.modUpMacs : k.singlePrimeMacs) += macs(last);
    const u64 raised = u64{k.dnum} * k.ext;
    k.modUpIntts = k.modUpScales = l;
    k.modUpNtts = raised - l;
    k.digitAutomorphisms = raised;
    k.hintMacs = 2 * raised;
    k.hintWords = 2 * raised * n;
    k.modDownNtts = 2ull * (alpha + l);
    k.modDownMacs = 2ull * alpha * l;
    k.modDownScales = 2ull * alpha;
    k.pInvMuls = k.subAdds = k.combineAdds = 2ull * l;
    return k;
}

/** Rescale of a ciphertext from l to lo towers. */
struct Rescale
{
    u64 droppedIntts = 0; ///< 2(l − lo): dropped towers.
    u64 keptNtts = 0;     ///< 2lo: corrections into kept towers.
    u64 muls = 0; ///< 2lo multiplies by q_dropped⁻¹.
    u64 adds = 0; ///< 2lo subtracts.

    constexpr u64 chipNtts() const { return droppedIntts + keptNtts; }
    /** The host runs the chip's algorithm (RnsPoly::rescaleLastTower). */
    constexpr Counts host() const { return {chipNtts(), muls, adds, 0}; }
};

constexpr Rescale
rescale(unsigned l, unsigned lo)
{
    return {2ull * (l - lo), 2ull * lo, 2ull * lo, 2ull * lo};
}

/** Mod-raise of a ciphertext from l to lo (> l) towers. */
struct ModRaise
{
    u64 ntts = 0;   ///< 2(l + lo): INTT in, NTT out.
    u64 macs = 0;   ///< 2l(lo − l) change-base MACs.
    u64 scales = 0; ///< 2l q̂⁻¹ scalings (host).

    constexpr Counts host() const { return {ntts, scales + macs, macs, 0}; }
};

constexpr ModRaise
modRaise(unsigned l, unsigned lo)
{
    return {2ull * (l + lo), 2ull * l * (lo - l), 2ull * l};
}

/** Ciphertext product before relinearization: a·b is 4l multiplies
 *  and l adds, a·a 3l multiplies and l adds. */
struct Tensor
{
    u64 muls = 0, adds = 0;

    constexpr Counts host() const { return {0, muls, adds, 0}; }
};

constexpr Tensor
tensor(unsigned l)
{
    return {4ull * l, l};
}

constexpr Tensor
square(unsigned l)
{
    return {3ull * l, l};
}

/** The automorphism side of a rotation at l towers. */
struct Rotation
{
    u64 ctAutomorphisms = 0; ///< 2l: the chip permutes the ciphertext.
    u64 c0Automorphisms = 0; ///< l: the host permutes c0 (and digits).
    /** l: the host adds only k0, since k1 is the new c1. */
    u64 c0CombineAdds = 0;

    constexpr Counts
    host() const
    {
        return {0, 0, c0CombineAdds, c0Automorphisms};
    }
};

constexpr Rotation
rotation(unsigned l)
{
    return {2ull * l, l, l};
}

} // namespace cl::opcost

#endif // CL_UTIL_OPCOST_H
