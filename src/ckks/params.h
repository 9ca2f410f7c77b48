/**
 * @file
 * CKKS parameter sets.
 *
 * Parameters follow the paper's conventions: ring degree N, a chain of
 * L data moduli ("multiplicative budget", Sec 2.3), and alpha special
 * moduli used by boosted keyswitching to extend the basis (Sec 3).
 * The number of keyswitching digits at level l is ceil(l / alpha);
 * alpha = L gives the paper's 1-digit variant (2x expansion), smaller
 * alpha gives the t-digit variants of Sec 3.1.
 */

#ifndef CL_CKKS_PARAMS_H
#define CL_CKKS_PARAMS_H

#include <cstdint>
#include <vector>

#include "rns/modarith.h"

namespace cl {

struct CkksParams
{
    unsigned logN = 12;          ///< Ring degree exponent.
    unsigned l = 4;              ///< Data moduli count (mult. budget L).
    unsigned alpha = 4;          ///< Special moduli count (digit size).
    unsigned firstModBits = 50;  ///< Width of q_0 (absorbs final scale).
    unsigned scaleBits = 40;     ///< Width of rescaling primes & scale.
    unsigned specialBits = 50;   ///< Width of special primes.
    std::uint64_t seed = 1;      ///< Master seed for key material.
    unsigned secretHamming = 0;  ///< 0 = dense ternary secret; else a
                                 ///  sparse secret with this Hamming
                                 ///  weight (keeps the mod-raise k
                                 ///  coefficient small for EvalMod).

    std::size_t n() const { return std::size_t{1} << logN; }
    std::size_t slots() const { return n() / 2; }
    double scale() const { return static_cast<double>(1ULL << scaleBits); }

    /**
     * Small test-friendly parameter set: N=2^12, L=4 levels.
     * Functional correctness at these parameters implies correctness
     * of the same code at N=64K (the math is size-generic).
     */
    static CkksParams
    testSmall()
    {
        CkksParams p;
        p.logN = 12;
        p.l = 4;
        p.alpha = 4;
        return p;
    }

    /** Deeper functional set used by bootstrapping tests. */
    static CkksParams
    testDeep(unsigned logn = 13, unsigned l = 16, unsigned alpha = 4)
    {
        CkksParams p;
        p.logN = logn;
        p.l = l;
        p.alpha = alpha;
        p.firstModBits = 60;
        p.scaleBits = 40;
        p.specialBits = 60;
        return p;
    }

    /**
     * Hardware-width parameter set: 28-bit moduli as in CraterLake's
     * datapath (Sec 5.5). Precision is limited (scale 2^27), so this
     * set is used for plumbing tests and cost models, not precision-
     * sensitive workloads.
     */
    static CkksParams
    hardwareWidth(unsigned logn = 12, unsigned l = 6, unsigned alpha = 6)
    {
        CkksParams p;
        p.logN = logn;
        p.l = l;
        p.alpha = alpha;
        p.firstModBits = 28;
        p.scaleBits = 27;
        p.specialBits = 28;
        return p;
    }
};

} // namespace cl

#endif // CL_CKKS_PARAMS_H
