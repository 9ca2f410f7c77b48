/**
 * @file
 * CKKS encoder: packs a vector of N/2 complex fixed-point values into
 * a ring element via the canonical embedding (Sec 2.2, "pack"), and
 * unpacks it back. Uses the special FFT over the 5^j orbit so that
 * ring automorphisms x -> x^(5^r) induce cyclic slot rotations.
 */

#ifndef CL_CKKS_ENCODER_H
#define CL_CKKS_ENCODER_H

#include <complex>
#include <vector>

#include "ckks/context.h"

namespace cl {

using Complex = std::complex<double>;

class CkksEncoder
{
  public:
    explicit CkksEncoder(const CkksContext &ctx);

    std::size_t slots() const { return slots_; }

    /**
     * Encode @p values (up to N/2 complex numbers; shorter vectors are
     * zero-padded) into a plaintext polynomial over the first
     * @p l_cur data moduli at the given scale.
     */
    RnsPoly encode(const std::vector<Complex> &values, double scale,
                   unsigned l_cur) const;

    /**
     * Encode over an explicit set of chain moduli instead of a data
     * prefix — used for plaintexts that multiply extended-basis
     * (Q_l ∪ P) keyswitch accumulators in the lazy-BSGS path. The
     * residues over any shared modulus match the l_cur overload
     * exactly (same rounding, same embedding).
     */
    RnsPoly encode(const std::vector<Complex> &values, double scale,
                   const std::vector<unsigned> &mod_idx) const;

    /** Decode a plaintext polynomial back to N/2 complex values. */
    std::vector<Complex> decode(const RnsPoly &plain, double scale) const;

    /** Forward special FFT (coefficient -> slot direction). */
    void fftSpecial(std::vector<Complex> &vals) const;

    /** Inverse special FFT (slot -> coefficient direction). */
    void fftSpecialInv(std::vector<Complex> &vals) const;

    /**
     * One butterfly level (block length @p len, pairs at distance
     * len/2) of fftSpecial. fftSpecial is a bit reversal followed by
     * these levels for len = 2, 4, ..., size; bootstrapping groups
     * them into the SlotToCoeff stages.
     */
    void fftSpecialLevel(std::vector<Complex> &vals, std::size_t len) const;

    /**
     * One butterfly level of fftSpecialInv, which runs these levels
     * for len = size, ..., 4, 2, then a bit reversal and a 1/size
     * scaling; bootstrapping groups them into the CoeffToSlot stages.
     */
    void fftSpecialInvLevel(std::vector<Complex> &vals,
                            std::size_t len) const;

    /**
     * Encode raw (already real) polynomial coefficients: each value is
     * rounded and embedded mod every modulus. Used by tests and by
     * bootstrapping's coefficient-domain plaintexts.
     */
    RnsPoly encodeCoeffs(const std::vector<double> &coeffs, double scale,
                         unsigned l_cur) const;

    /** Inverse of encodeCoeffs. */
    std::vector<double> decodeCoeffs(const RnsPoly &plain,
                                     double scale) const;

  private:
    const CkksContext &ctx_;
    std::size_t slots_;
    /** Butterfly twiddles of fftSpecialLevel / fftSpecialInvLevel:
     *  level len's len/2 factors start at offset len/2 - 1, so each
     *  butterfly reads its factor instead of reducing 5^j mod 4·len. */
    std::vector<Complex> fwdTw_;
    std::vector<Complex> invTw_;
};

} // namespace cl

#endif // CL_CKKS_ENCODER_H
