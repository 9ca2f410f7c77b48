/**
 * @file
 * Negacyclic number-theoretic transform (NTT) over Z_q[x]/(x^N + 1).
 *
 * The NTT is the workhorse of RLWE-based FHE: in the NTT domain,
 * polynomial multiplication becomes element-wise multiplication
 * (Sec 2.4). We implement the standard merged-twiddle negacyclic
 * forward (Cooley-Tukey, decimation in time) and inverse
 * (Gentleman-Sande) transforms with Shoup twiddle multiplication and
 * Harvey lazy reduction (operands kept in [0, 4q) / [0, 2q) between
 * stages, one correction pass at the end), matching the dataflow
 * CraterLake's NTT FUs pipeline in hardware. Inputs must be fully
 * reduced ([0, q)); outputs are fully reduced.
 */

#ifndef CL_RNS_NTT_H
#define CL_RNS_NTT_H

#include <cstdint>
#include <vector>

#include "rns/modarith.h"

namespace cl {

/**
 * Precomputed twiddle tables for one (N, q) pair. Immutable after
 * construction; shared by all polynomials over the same modulus.
 */
class NttTables
{
  public:
    /**
     * @param n Ring degree (power of two).
     * @param q NTT-friendly prime, q ≡ 1 (mod 2n).
     */
    NttTables(std::size_t n, u64 q);

    std::size_t n() const { return n_; }
    u64 q() const { return q_; }

    /** In-place forward negacyclic NTT (coeff order in, bit-rev out
     *  internally; output is in standard "NTT slot" order). */
    void forward(u64 *a) const;

    /** In-place inverse negacyclic NTT. */
    void inverse(u64 *a) const;

    // ---- Fused-pipeline entry points (DESIGN.md §5e) --------------
    // The lazy variants run only the butterfly stages, leaving the
    // final correction/scaling to a fused epilogue kernel at the call
    // site. Each counts as one NTT — the stage work is identical, only
    // the boundary passes move.

    /** Forward stages only: output in the lazy [0, 4q) window (the
     *  nttCorrectVec pass is the caller's, fused into its epilogue). */
    void forwardLazy(u64 *a) const;

    /** Inverse stages only: output in [0, 2q), not scaled by N^-1
     *  (the scaling pass is the caller's, fused into its epilogue). */
    void inverseLazy(u64 *a) const;

    /** Shoup pair for N^-1 mod q (fused iNTT epilogues). */
    const ShoupMul &nInv() const { return nInv_; }

    /** psi = primitive 2N-th root of unity used by this table. */
    u64 psi() const { return psi_; }

  private:
    /** Every forward CT stage (no accounting). */
    void forwardStages(u64 *a) const;

    /** Inverse GS stages from m = N down to, and excluding, @p mEnd
     *  (no accounting). */
    void inverseStages(u64 *a, std::size_t mEnd) const;

    std::size_t n_;
    unsigned logN_;
    u64 q_;
    u64 psi_;
    std::vector<ShoupMul> fwdTwiddles_; // psi^brv(i), merged CT order
    std::vector<ShoupMul> invTwiddles_; // psi^-brv(i), merged GS order
    ShoupMul nInv_;                     // N^-1 mod q for the inverse
};

/** Bit-reverse the low @p bits bits of @p x. */
inline std::uint32_t
bitReverse(std::uint32_t x, unsigned bits)
{
    std::uint32_t r = 0;
    for (unsigned i = 0; i < bits; ++i) {
        r = (r << 1) | (x & 1);
        x >>= 1;
    }
    return r;
}

} // namespace cl

#endif // CL_RNS_NTT_H
