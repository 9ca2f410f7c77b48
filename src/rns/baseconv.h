/**
 * @file
 * Fast RNS base conversion — changeRNSBase() of Listing 1, the
 * operation that dominates boosted keyswitching (Table 1) and that
 * CraterLake's CRB functional unit accelerates (Sec 5.1).
 *
 * Given x represented in a source basis {q_i}, the conversion
 * computes, for every destination modulus p_j:
 *
 *     y_j = sum_i [ x_i * (Q/q_i)^{-1} mod q_i ] * (Q/q_i)  mod p_j
 *
 * This is the standard "approximate" (HPS/BEHZ) conversion: the
 * result may differ from the exact CRT value by a small multiple of
 * Q (at most L·Q), which boosted keyswitching absorbs into the noise
 * budget. The inner loop is exactly the multiply-accumulate structure
 * of Listing 1's changeRNSBase.
 *
 * Both the per-source scaling pass and the per-destination MAC loops
 * are independent across towers and fan out over the ThreadPool, the
 * software counterpart of the CRB unit's spatial unrolling.
 */

#ifndef CL_RNS_BASECONV_H
#define CL_RNS_BASECONV_H

#include <cstdint>
#include <span>
#include <vector>

#include "rns/chain.h"

namespace cl {

/** Precomputed converter from one modulus-index set to another. */
class BaseConverter
{
  public:
    /** Read-only view of one residue polynomial (N coefficients). */
    using ResidueView = std::span<const u64>;

    /**
     * @param chain Shared modulus chain.
     * @param src Indices of the source basis within the chain.
     * @param dst Indices of the destination basis within the chain.
     */
    BaseConverter(const RnsChain &chain, std::vector<unsigned> src,
                  std::vector<unsigned> dst);

    const std::vector<unsigned> &src() const { return src_; }
    const std::vector<unsigned> &dst() const { return dst_; }

    /**
     * Convert @p in (|src| residue views of length N, coefficient
     * domain) into @p out (|dst| residue vectors of length N).
     */
    void convert(const std::vector<ResidueView> &in,
                 std::vector<std::vector<u64>> &out) const;

    /**
     * Convert @p in into caller-owned rows: @p out[j] points at N
     * writable words for destination tower j, such as a tower of an
     * RnsPoly, so the result needs no copy. Same values as above.
     */
    void convert(const std::vector<ResidueView> &in,
                 std::span<u64 *const> out) const;

    /** Convenience overload for owned residue vectors. */
    void convert(const std::vector<std::vector<u64>> &in,
                 std::vector<std::vector<u64>> &out) const;

    /** Scalar multiply count per coefficient (for cost cross-checks):
     *  |src| scaling multiplies + |src|*|dst| MAC multiplies. */
    std::size_t multipliesPerCoeff() const
    {
        return src_.size() + src_.size() * dst_.size();
    }

  private:
    const RnsChain &chain_;
    std::vector<unsigned> src_;
    std::vector<unsigned> dst_;
    std::vector<ShoupMul> qHatInv_;       // per src, mod q_src
    std::vector<std::vector<u64>> qHat_;  // [src][dst]: Q/q_src mod p_dst
    std::vector<std::vector<u64>> qHatT_; // [dst][src]: transposed rows
                                          // for the MAC kernel
    u64 srcMax_ = 0; // exclusive bound on source residues (largest q_i)
};

} // namespace cl

#endif // CL_RNS_BASECONV_H
