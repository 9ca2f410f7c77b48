/**
 * @file
 * Functional CKKS bootstrapping — the procedure that makes FHE
 * computation unbounded (Sec 2.3, Fig 2), and the computation the
 * paper's deep benchmarks revolve around.
 *
 * Pipeline (the packed algorithm of [11, 14, 53] that Sec 6 tunes,
 * in the default BootstrapShape, whose stage counts the accelerator
 * model HomBuilder::bootstrap shares):
 *
 *  1. ModRaise: lift the exhausted ciphertext to the top of the
 *     modulus chain. Decryption becomes m + q0*k for a small integer
 *     polynomial k (bounded by the secret's Hamming weight).
 *  2. CoeffToSlot: homomorphically apply the inverse canonical
 *     embedding so the coefficients of m + q0*k appear in slots. The
 *     encoder's own inverse special FFT is factored into ctsStages
 *     sparse stages (groups of its butterfly levels, one level of the
 *     chain each); its final bit reversal is never evaluated, so the
 *     coefficients land in bit-reversed slot order.
 *  3. EvalMod: remove the q0*k term slot by slot: a Chebyshev
 *     approximation of cos((2 pi K u - pi/2) / 2^r), evaluated by a
 *     depth-logarithmic Paterson-Stockmeyer recursion, then r
 *     double-angle steps y <- 2y^2 - 1, which read sin(2 pi K u).
 *  4. SlotToCoeff: the forward special FFT without its initial bit
 *     reversal, in stcStages stages. It consumes the bit-reversed
 *     order CoeffToSlot left, so the two reversals cancel.
 *
 * Independent homomorphic ops — the rotations of each DFT stage, the
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
#include <functional>
#include <map>
#include <mutex>
#include <tuple>
#include <vector>

#include "ckks/encryptor.h"
#include "ckks/evaluator.h"
#include "util/bootshape.h"

namespace cl {

/**
 * The DFT stages run one way: a shared digit decompose for all
 * rotations plus lazy accumulation — the per-rotation inner products
 * stay in the extended basis and each stage performs a single
 * mod-down per ciphertext component (DESIGN.md §Hoisted keyswitching).
 * The one-value enum, BootstrapParams::ltMode and the mode argument of
 * applyCoeffToSlot/applySlotToCoeff exist only so that
 * bench/e2e/clbench.cpp keeps compiling.
 */
enum class LinearTransformMode
{
    HoistedLazy,
};

struct BootstrapParams
{
    /** Range bound K: EvalMod handles |m + q0 k| < K*q0. Requires a
     *  sparse secret with Hamming weight <= ~2(K-1). */
    unsigned k = 16;
    /** Source compatibility only; see LinearTransformMode. */
    LinearTransformMode ltMode = LinearTransformMode::HoistedLazy;
};

/**
 * One factor of a factored special FFT over n slots, stored as its
 * nonzero diagonals: out[j] = sum_i diags[i][j] * in[(j + offsets[i])
 * mod n]. A stage of r merged butterfly levels has at most
 * 2^(r+1) - 1 diagonals.
 */
struct DftStage
{
    std::vector<std::size_t> offsets; ///< ascending, in [0, n)
    std::vector<std::vector<Complex>> diags;
};

/**
 * CoeffToSlot as @p stages factors, applied in order: the butterfly
 * levels of fftSpecialInv (len = n down to 2) without its final bit
 * reversal, grouped as evenly as possible (earlier stages take the
 * extra levels), with the 1/n scaling folded into stage 0. Their
 * product is bitReverse ∘ fftSpecialInv.
 */
std::vector<DftStage> coeffToSlotStages(const CkksEncoder &encoder,
                                        unsigned stages);

/**
 * SlotToCoeff as @p stages factors, applied in order: the butterfly
 * levels of fftSpecial (len = 2 up to n) without its initial bit
 * reversal. Their product is fftSpecial ∘ bitReverse.
 */
std::vector<DftStage> slotToCoeffStages(const CkksEncoder &encoder,
                                        unsigned stages);

/**
 * Chebyshev coefficients on [-1, 1] of the EvalMod cosine
 * cos((2 pi K u - pi/2) / 2^r), r = shape.doubleAngles, at degree
 * shape.chebDegree. After r steps y <- 2y^2 - 1 it reads sin(2 pi K u).
 */
std::vector<double> evalModCosine(unsigned k, const BootstrapShape &shape);

class Bootstrapper
{
  public:
    /**
     * Builds the CoeffToSlot/SlotToCoeff stages, the EvalMod
     * coefficients, and the relinearization, conjugation and (only the
     * stages') rotation keys. Aborts if the chain is too short for the
     * shape's levels.
     */
    Bootstrapper(const CkksContext &ctx, const CkksEncoder &encoder,
                 KeyGenerator &keygen, BootstrapParams params = {});

    /**
     * Refresh an exhausted ciphertext: input at level >= 1, output at
     * level l - depthUsed() with the same (approximate) message.
     */
    Ciphertext bootstrap(const Ciphertext &ct) const;

    /** Levels the pipeline consumes from the top of the chain: the
     *  stages, the Paterson-Stockmeyer recursion and the double
     *  angles (known from the shape at construction). */
    unsigned depthUsed() const { return depthUsed_; }

    /** The two factored transforms (all of their stages, one level
     *  each), exposed for equivalence tests and benchmarks. The mode
     *  argument is ignored (see LinearTransformMode). */
    Ciphertext applyCoeffToSlot(const Ciphertext &ct,
                                LinearTransformMode mode) const;
    Ciphertext applySlotToCoeff(const Ciphertext &ct,
                                LinearTransformMode mode) const;

  private:
    /** The shape the host runs: always the default one. */
    static constexpr BootstrapShape kShape{};

    /**
     * Encoded diagonals of one stage at one level, built lazily on
     * first use and reused across bootstrap() calls (the stages and
     * the levels they are applied at never change). Indexed like the
     * stage's offsets; each plaintext is in NTT form over the towers
     * its diagonal multiplies. A rotated diagonal spans Q_level ∪ P:
     * it multiplies the lazy ext-basis keyswitch accumulators, and
     * its data towers (addMulAssign reads a superset basis) the
     * rotated c0. The unrotated offset-0 diagonal multiplies only
     * ciphertexts and spans the data basis alone.
     */
    using DiagCache = std::vector<RnsPoly>;

    /** All stages of transform @p which (0 = CoeffToSlot,
     *  1 = SlotToCoeff), one level each. */
    Ciphertext linearTransform(const Ciphertext &ct, int which) const;

    /** One stage as a hoisted linear transform: every nonzero
     *  diagonal is a rotation of the input, sharing one decompose and
     *  one mod-down pair; consumes one level. */
    Ciphertext stageTransform(const Ciphertext &ct, int which,
                              std::size_t s) const;

    /** Diagonal plaintexts of stage @p s of @p which at @p level
     *  (cached). */
    const DiagCache &diagonals(int which, std::size_t s,
                               unsigned level) const;

    /** Encode all diagonals of @p st at @p level (see DiagCache). */
    DiagCache buildDiagonals(const DftStage &st, unsigned level) const;

    /** EvalMod on both halves (slots in [-1, 1]): the Chebyshev
     *  cosine, then the double angles; returns sin(2 pi K x) for
     *  x = u and x = v. One flat schedule of waves covers both halves
     *  (DESIGN.md §5c): the power-basis levels, then the leaves (with
     *  the last basis level, which no leaf reads), then the
     *  Paterson-Stockmeyer tree by node height, then each double
     *  angle. The ops of a wave run concurrently. */
    std::array<Ciphertext, 2> evalMod(const Ciphertext &u,
                                      const Ciphertext &v) const;

    /**
     * One node of the Paterson-Stockmeyer tree of the EvalMod
     * polynomial, built once at construction. An internal node
     * evaluates q * T_split + r from its children; a leaf is the
     * direct combination b_0 + sum b_j T_j of a block of degree below
     * the baby-step count.
     */
    struct PsNode
    {
        unsigned split = 0;            ///< T index; 0 for a leaf.
        std::size_t quot = 0, rem = 0; ///< Children of an internal node.
        /** Leaf terms (j, b_j), j >= 1 ascending, |b_j| above the
         *  Chebyshev zero threshold. */
        std::vector<std::pair<unsigned, double>> terms;
        double b0 = 0; ///< Leaf constant coefficient.
    };

    /** Append the subtree of @p coeffs to psNodes_, children first,
     *  and return its root's index and height. */
    std::pair<std::size_t, unsigned>
    buildPsTree(const std::vector<double> &coeffs);

    /** T_j = 2 T_a T_b - T_(a-b), a = ceil(j/2), b = floor(j/2), from
     *  the finished lower entries of @p t. */
    Ciphertext chebProduct(const std::vector<Ciphertext> &t,
                           unsigned j) const;

    /** A leaf of the tree over the power basis @p t: every term's
     *  scalar multiple and the running sum in one tower-major pass,
     *  one rescale, then b_0. */
    Ciphertext evalLeaf(const PsNode &leaf,
                        const std::vector<Ciphertext> &t) const;

    /** 2 y^2 - 1. */
    Ciphertext doubleAngle(const Ciphertext &y) const;

    /** The constant @p value in every slot, encoded at (@p scale,
     *  @p level) in NTT form; built once and cached, like the
     *  diagonals. */
    const RnsPoly &constantPlain(double value, double scale,
                                 unsigned level) const;

    /** Bring two ciphertexts to a common (level, scale) pair,
     *  spending a level of whichever operand can afford it. */
    void alignPair(Ciphertext &a, Ciphertext &b) const;

    /** Multiply every slot by i: a product with the monomial
     *  X^(N/2), exact, consuming no level and keeping the scale. */
    Ciphertext mulI(const Ciphertext &ct) const;

    const CkksContext &ctx_;
    const CkksEncoder &encoder_;
    Evaluator eval_;
    BootstrapParams params_;

    std::array<std::vector<DftStage>, 2> transforms_;
    // Chebyshev indices the polynomial evaluation reads, closed under
    // the product recurrence and grouped by dependence depth. When no
    // leaf reads the deepest group, it moves to leafWaveBasis_ and is
    // computed alongside the leaves.
    std::vector<std::vector<unsigned>> chebLevels_;
    std::vector<unsigned> leafWaveBasis_;
    // The Paterson-Stockmeyer tree, children before parents (the root
    // last), and its node indices grouped by height (leaves first).
    std::vector<PsNode> psNodes_;
    std::vector<std::vector<std::size_t>> psWaves_;
    RnsPoly monomialI_; // X^(N/2) over the full chain, NTT form
    SwitchKey relin_;
    GaloisKeys galois_;
    unsigned depthUsed_ = 0;
    // bootstrap() is const and the task-graph runtime calls it from
    // many workers at once: the lazily built diagonal cache is
    // mutex-guarded (map nodes are stable and a built entry never
    // changes, so references handed out under the lock stay valid
    // after it is released).
    mutable std::mutex diagMutex_;
    mutable std::map<std::tuple<int, std::size_t, unsigned>, DiagCache>
        diagCache_;
    // EvalMod's constant plaintexts, keyed by (value, scale, level);
    // guarded and stable the same way.
    mutable std::mutex constMutex_;
    mutable std::map<std::tuple<double, double, unsigned>, RnsPoly>
        constCache_;
};

} // namespace cl

#endif // CL_CKKS_BOOTSTRAP_H
