/**
 * @file
 * Homomorphic evaluator for CKKS: add, multiply (+relinearize),
 * rescale, rotate, conjugate — all built on keyswitching (Sec 2.2),
 * plus the modulus-raise primitive bootstrapping starts from.
 *
 * The keyswitching core implements Listing 1 generalized to t digits
 * (Sec 3.1): the hint's digit size selects the variant, from the
 * standard per-prime algorithm (alphaKs = 1, what F1 targets) to the
 * fully boosted 1-digit algorithm (alphaKs = L).
 */

#ifndef CL_CKKS_EVALUATOR_H
#define CL_CKKS_EVALUATOR_H

#include "ckks/ciphertext.h"
#include "ckks/keys.h"

namespace cl {

/**
 * The reusable first stage of keyswitching: the input polynomial's
 * digits, lifted to the extended basis Q_l ∪ P (Listing 1 lines 2-5),
 * in NTT form. Computing this once and reusing it across rotations is
 * the hoisting optimization: automorphisms act on the raised digits as
 * pure NTT-domain permutations, so each additional rotation costs only
 * the hint inner product and a mod-down — the digit lift and mod-up
 * NTTs are paid once per ciphertext instead of once per rotation.
 */
struct KeySwitchDigits
{
    std::vector<RnsPoly> u;       ///< dnum digit polys over Q_l ∪ P.
    std::vector<unsigned> extIdx; ///< Chain indices of the ext basis.
    unsigned level = 0;           ///< Towers of the source polynomial.
    unsigned alphaKs = 0;         ///< Digit size the lift used.

    bool valid() const { return !u.empty(); }
};

class Evaluator
{
  public:
    explicit Evaluator(const CkksContext &ctx);

    /**
     * Relative scale tolerance for operand alignment. Ciphertext and
     * ct/plain adds whose scales agree within this bound are
     * auto-aligned: the result takes the left operand's scale and the
     * relative discrepancy is absorbed into the message noise. A wider
     * mismatch asserts — the program must rescale or mulPlain-align
     * its operands first.
     */
    static constexpr double kScaleRelTol = 1e-6;

    // --- Linear operations ---
    Ciphertext add(const Ciphertext &a, const Ciphertext &b) const;
    Ciphertext sub(const Ciphertext &a, const Ciphertext &b) const;
    Ciphertext addPlain(const Ciphertext &a, const RnsPoly &plain) const;
    Ciphertext subPlain(const Ciphertext &a, const RnsPoly &plain) const;

    /** Scale-checked variants: assert the plaintext was encoded within
     *  kScaleRelTol of the ciphertext scale before adding. */
    Ciphertext addPlain(const Ciphertext &a, const RnsPoly &plain,
                        double plain_scale) const;
    Ciphertext subPlain(const Ciphertext &a, const RnsPoly &plain,
                        double plain_scale) const;

    Ciphertext negate(const Ciphertext &a) const;

    /** Multiply by a plaintext polynomial (NTT form, matching basis
     *  prefix); scales multiply. */
    Ciphertext mulPlain(const Ciphertext &a, const RnsPoly &plain,
                        double plain_scale) const;

    /** Multiply by a real scalar encoded at the next prime's scale. */
    Ciphertext mulScalar(const Ciphertext &a, double scalar) const;

    // --- Multiplicative operations ---
    /** Full homomorphic multiply: tensor + relinearization. The
     *  result has scale a.scale * b.scale; rescale separately. */
    Ciphertext multiply(const Ciphertext &a, const Ciphertext &b,
                        const SwitchKey &relin) const;

    /** Square (saves one tensor product). */
    Ciphertext square(const Ciphertext &a, const SwitchKey &relin) const;

    /** Drop the last tower, dividing the scale by its modulus. */
    void rescale(Ciphertext &ct) const;

    /** Align @p ct to a lower level by dropping towers (no rescale). */
    void levelDrop(Ciphertext &ct, unsigned target_level) const;

    // --- Rotations ---
    Ciphertext rotate(const Ciphertext &a, int steps,
                      const GaloisKeys &gk) const;
    Ciphertext conjugate(const Ciphertext &a, const GaloisKeys &gk) const;

    /** Rotation by precomputed automorphism exponent. */
    Ciphertext rotateByGalois(const Ciphertext &a, std::size_t galois,
                              const SwitchKey &key) const;

    // --- Keyswitching (exposed for tests and cost accounting) ---
    /**
     * Switch @p d (over the data basis at its level, NTT form) from
     * the hint's source key to the canonical secret: returns (k0, k1)
     * with k0 + k1·s ≈ d·s_src. Composed from the staged primitives
     * below: decompose + innerProduct + modDown.
     */
    std::pair<RnsPoly, RnsPoly> keySwitch(const RnsPoly &d,
                                          const SwitchKey &ksk) const;

    // --- Staged keyswitching (the hoisted API) ---
    /**
     * Stage 1: digit lift + mod-up of @p d (NTT form, data basis at
     * its level) with digit size @p alpha_ks. The dominant cost of a
     * keyswitch; reusable across every rotation of the same
     * ciphertext (and across any hint with the same digit size).
     */
    KeySwitchDigits decompose(const RnsPoly &d, unsigned alpha_ks) const;

    /**
     * Permute raised digits by the Galois automorphism x -> x^galois.
     * Exact in the raised basis: automorphism is a ring homomorphism,
     * so σ(digits of d) are valid digits of σ(d) — the digit constants
     * W_j are rational integers, invariant under σ. NTT-domain gather,
     * no sign corrections.
     */
    KeySwitchDigits automorphismDigits(const KeySwitchDigits &digits,
                                       std::size_t galois) const;

    /**
     * Stage 2: hint inner product sum_j u_j * (b_j, a_j) over the
     * extended basis. Results carry the P factor; modDown removes it.
     */
    std::pair<RnsPoly, RnsPoly>
    innerProduct(const KeySwitchDigits &digits, const SwitchKey &ksk) const;

    /**
     * Working-set floor of the tiled inner product below: one
     * extended-basis digit image (towers * N * 8 bytes) must be at
     * least this large. Tiling saves bandwidth, not ALU work; below
     * the floor every operand is already cache-hot, so the per-digit
     * sweep is faster.
     */
    static constexpr u64 kTileMinBytes = u64{1} << 20;

    /**
     * Stage 2 with an optional digit automorphism, equal to
     * `innerProduct(automorphismDigits(digits, galois), ksk)`. At or
     * above kTileMinBytes it runs tiled tower-major — for each
     * extended-basis tower, the permuted digit residue is gathered
     * into a cache-resident scratch block and immediately MACed into
     * both accumulators across all dnum digits, so the rotated digits
     * never materialize as full polynomials (galois = 1 skips the
     * gather). Below the floor it runs exactly that composed sequence.
     * Both give the same bytes.
     */
    std::pair<RnsPoly, RnsPoly>
    innerProduct(const KeySwitchDigits &digits, const SwitchKey &ksk,
                 std::size_t galois) const;

    /**
     * Stage 3: divide an extended-basis accumulator by P and return it
     * on the data basis (Listing 1 lines 7-10). The special towers are
     * identified by chain index (>= l), so any ext-basis polynomial —
     * a single inner product or a lazy sum of many — mods down alike.
     */
    RnsPoly modDown(const RnsPoly &acc) const;

    /**
     * Hoisted rotation: apply automorphism @p galois to @p a reusing
     * the precomputed @p digits of a.c1. Skips the digit lift/mod-up;
     * bit-identical to rotateByGalois on the same inputs (which
     * computes the same digits freshly).
     */
    Ciphertext rotateByGaloisHoisted(const Ciphertext &a,
                                     std::size_t galois,
                                     const SwitchKey &key,
                                     const KeySwitchDigits &digits) const;

    // --- Bootstrapping primitive ---
    /**
     * Raise an exhausted ciphertext (level >= 1) to @p target_level.
     * The decrypted value becomes m + e + k·q0 for a small integer
     * polynomial k; EvalMod removes the k·q0 term (Sec 8, packed
     * bootstrapping).
     */
    Ciphertext modRaise(const Ciphertext &ct, unsigned target_level) const;

    /** Galois exponent for a slot rotation (matches KeyGenerator). */
    std::size_t galoisFromSteps(int steps) const;

  private:
    void checkSameShape(const Ciphertext &a, const Ciphertext &b) const;
    void checkPlainScale(const Ciphertext &a, double plain_scale) const;
    /** @p plain in NTT form on at most @p ct_towers towers: @p plain
     *  itself when it already is, else a converted copy in
     *  @p scratch. */
    const RnsPoly &alignPlain(const RnsPoly &plain, std::size_t ct_towers,
                              RnsPoly &scratch) const;

    const CkksContext &ctx_;
};

} // namespace cl

#endif // CL_CKKS_EVALUATOR_H
