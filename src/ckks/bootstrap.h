/**
 * @file
 * Functional CKKS bootstrapping — the procedure that makes FHE
 * computation unbounded (Sec 2.3, Fig 2), and the computation the
 * paper's deep benchmarks revolve around.
 *
 * Pipeline (the packed algorithm of [11, 14, 53] that Sec 6 tunes):
 *
 *  1. ModRaise: lift the exhausted ciphertext to the top of the
 *     modulus chain. Decryption becomes m + q0*k for a small integer
 *     polynomial k (bounded by the secret's Hamming weight).
 *  2. CoeffToSlot: homomorphically apply the inverse canonical
 *     embedding so the coefficients of m + q0*k appear in slots
 *     (one BSGS linear transform; its matrix is derived numerically
 *     from the encoder's own special FFT, so it matches the slot
 *     ordering by construction).
 *  3. EvalMod: remove the q0*k term by evaluating
 *     (1/2pi) sin(2pi x / q0) via a Chebyshev polynomial, using a
 *     depth-logarithmic Paterson-Stockmeyer evaluation in the
 *     Chebyshev basis.
 *  4. SlotToCoeff: apply the forward embedding to return the cleaned
 *     coefficients to their places.
 *
 * Independent homomorphic ops — the BSGS baby and giant steps, the
 * two EvalMod halves and their Chebyshev power bases, the diagonal
 * encodings — run concurrently on the global ThreadPool, each task
 * writing only its own slot, so the output bytes are the same at any
 * worker count (DESIGN.md §5c, "Op-level parallelism").
 *
 * Functional at small N (the mathematics is size-generic); the
 * accelerator-side cost of the same pipeline is modeled by
 * HomBuilder::bootstrap for the full-scale benchmarks.
 */

#ifndef CL_CKKS_BOOTSTRAP_H
#define CL_CKKS_BOOTSTRAP_H

#include <array>
#include <atomic>
#include <functional>
#include <map>
#include <mutex>
#include <vector>

#include "ckks/encryptor.h"
#include "ckks/evaluator.h"

namespace cl {

/**
 * How the BSGS linear transforms execute:
 *
 *  - Naive: every baby-step rotation is an independent keyswitch
 *    (digit lift + mod-up + inner product + mod-down per rotation) —
 *    the pre-hoisting behavior, kept as the correctness and
 *    performance baseline.
 *  - HoistedEager: one shared digit decompose for all baby rotations;
 *    each rotation still mods down immediately. Bit-identical to
 *    Naive (a single rotation computes exactly these stages).
 *  - HoistedLazy: shared decompose plus lazy accumulation — the
 *    per-rotation inner products stay in the extended basis and each
 *    giant step performs a single mod-down per ciphertext component.
 *    Same message, different (smaller) rounding noise: the mod-down's
 *    base-conversion rounding is applied once per giant step instead
 *    of once per rotation, so the output is not bit-identical to
 *    Naive (see DESIGN.md §Hoisted keyswitching).
 */
enum class LinearTransformMode
{
    Naive,
    HoistedEager,
    HoistedLazy,
};

struct BootstrapParams
{
    /** Range bound K: EvalMod handles |m + q0 k| < K*q0. Requires a
     *  sparse secret with Hamming weight <= ~2(K-1). */
    unsigned k = 16;
    /** Chebyshev degree of the sine approximation. */
    unsigned chebDegree = 159;
    /** Baby-step count for the polynomial evaluation (power of 2). */
    unsigned babySteps = 16;
    /** BSGS execution strategy for CoeffToSlot/SlotToCoeff. */
    LinearTransformMode ltMode = LinearTransformMode::HoistedLazy;
    /**
     * Baby dimension n1 of the transform BSGS split (power of 2;
     * 0 = auto). Hoisted baby rotations cost only an inner product —
     * no digit lift, and under HoistedLazy no mod-down either — while
     * every giant step still pays a full keyswitch plus the deferred
     * mod-downs, so the hoisted modes want n1 well above the square
     * split sqrt(n) that minimizes plain rotation count. Auto picks
     * min(slots, 4*sqrt(slots)).
     */
    unsigned ltBabySteps = 0;
    /** Cache encoded diagonal plaintexts per (matrix, level). Off
     *  reproduces the historical re-encode-every-call behavior (the
     *  benchmark baseline). */
    bool cacheDiagonals = true;
};

class Bootstrapper
{
  public:
    /**
     * Precomputes the CoeffToSlot/SlotToCoeff matrices, the Chebyshev
     * coefficients, and all rotation/relinearization keys.
     */
    Bootstrapper(const CkksContext &ctx, const CkksEncoder &encoder,
                 KeyGenerator &keygen, BootstrapParams params = {});

    /**
     * Refresh an exhausted ciphertext: input at level >= 1, output at
     * a high level with the same (approximate) message.
     */
    Ciphertext bootstrap(const Ciphertext &ct) const;

    /** Levels the pipeline consumes from the top of the chain. */
    unsigned depthUsed() const { return depthUsed_; }

    /** The two BSGS linear transforms, exposed with an explicit
     *  execution mode for equivalence tests and benchmarks. */
    Ciphertext applyCoeffToSlot(const Ciphertext &ct,
                                LinearTransformMode mode) const;
    Ciphertext applySlotToCoeff(const Ciphertext &ct,
                                LinearTransformMode mode) const;

  private:
    using Matrix = std::vector<std::vector<Complex>>; // row-major n x n

    /**
     * Encoded diagonals of one transform matrix at one level, built
     * lazily on first use and reused across bootstrap() calls (the
     * matrices and the levels they are applied at never change).
     * ptData: NTT form over the data basis (multiplies ciphertexts);
     * ptExt: NTT form over Q_level ∪ P (multiplies lazy ext-basis
     * accumulators; only built for HoistedLazy).
     */
    struct DiagCache
    {
        std::vector<char> nonzero;
        std::vector<RnsPoly> ptData;
        std::vector<RnsPoly> ptExt;
        bool hasExt = false;
    };

    /** Homomorphic slot-linear transform by dense matrix M (BSGS).
     *  @p which identifies M for the diagonal cache (0 = CoeffToSlot,
     *  1 = SlotToCoeff). */
    Ciphertext linearTransform(const Ciphertext &ct, const Matrix &m,
                               int which,
                               LinearTransformMode mode) const;

    /** Diagonal plaintexts of matrix @p which at @p level (cached). */
    const DiagCache &diagonals(const Matrix &m, int which,
                               unsigned level, bool need_ext) const;

    /** Encode all (pre-rotated) diagonals of M at @p level. */
    DiagCache buildDiagonals(const Matrix &m, unsigned level,
                             bool need_ext) const;

    /** Encode the ext-basis plaintexts of @p dc's nonzero diagonals
     *  into dc.ptExt and set dc.hasExt; nonzero/ptData untouched. */
    void addExtDiagonals(const Matrix &m, unsigned level,
                         DiagCache &dc) const;

    /** Rotation diagonal d of M, pre-rotated for giant step g. */
    std::vector<Complex> rotatedDiagonal(const Matrix &m,
                                         std::size_t d) const;

    /** Evaluate the Chebyshev-basis polynomial at both EvalMod
     *  halves (slots in [-1,1]); returns sum_j coeffs[j] T_j(x) for
     *  x = u and x = v. The halves' power bases and recursions run
     *  concurrently. */
    std::array<Ciphertext, 2> evalChebyshev(const Ciphertext &u,
                                            const Ciphertext &v) const;

    /** Align a ciphertext to (level, scale), spending spare levels. */
    Ciphertext alignTo(const Ciphertext &ct, unsigned level,
                       double scale) const;

    /** Bring two ciphertexts to a common (level, scale) pair,
     *  spending a level of whichever operand can afford it. */
    void alignPair(Ciphertext &a, Ciphertext &b) const;

    Ciphertext mulConst(const Ciphertext &ct, Complex c) const;

    const CkksContext &ctx_;
    const CkksEncoder &encoder_;
    Evaluator eval_;
    BootstrapParams params_;

    Matrix coeffToSlot_; // inverse special FFT
    Matrix slotToCoeff_; // forward special FFT
    std::vector<double> chebCoeffs_;
    // Chebyshev indices the polynomial evaluation reads, closed under
    // the product recurrence and grouped by dependence depth.
    std::vector<std::vector<unsigned>> chebLevels_;
    SwitchKey relin_;
    GaloisKeys galois_;
    unsigned ltN1_ = 0; // resolved transform baby dimension
    // bootstrap() is const and the task-graph runtime calls it from
    // many workers at once: the depth record is atomic (every call
    // stores the same value) and the lazily built diagonal cache is
    // mutex-guarded (map nodes are stable and a built entry's
    // nonzero/ptData never move, so references handed out under the
    // lock stay valid after it is released, whatever mode the other
    // callers run).
    mutable std::atomic<unsigned> depthUsed_{0};
    mutable std::mutex diagMutex_;
    mutable std::map<std::pair<int, unsigned>, DiagCache> diagCache_;
};

} // namespace cl

#endif // CL_CKKS_BOOTSTRAP_H
