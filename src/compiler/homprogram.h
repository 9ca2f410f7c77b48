/**
 * @file
 * Homomorphic-operation dataflow graphs and the builder DSL (Sec 6,
 * step 1-2). FHE programs are static dataflow graphs of homomorphic
 * ops (Sec 2.1); workload generators build them with this API, the
 * lowering pass translates them to accelerator instructions.
 *
 * Levels are counted in 28-bit RNS primes (the hardware word width),
 * so a multiply at a 2^56 scale consumes two levels — this is why
 * bootstrapping consumes ~35 levels in the paper's benchmarks.
 */

#ifndef CL_COMPILER_HOMPROGRAM_H
#define CL_COMPILER_HOMPROGRAM_H

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "util/bootshape.h"
#include "util/common.h"
#include "util/opcost.h"

namespace cl {

enum class HomOpKind
{
    Input,    ///< Fresh ciphertext from the host.
    Add,      ///< ct + ct.
    AddPlain, ///< ct + pt.
    MulPlain, ///< ct * pt (+ rescale).
    Mul,      ///< ct * ct (+ relinearize + rescale).
    Rotate,   ///< slot rotation (automorphism + keyswitch).
    Conjugate,
    Rescale,  ///< explicit rescale (usually folded into Mul*).
    LevelDrop,///< modulus alignment without rescale.
    ModRaise, ///< bootstrapping entry: raise exhausted ct.
    Output    ///< result streamed to the host.
};

struct HomOp
{
    std::uint32_t id = 0;
    HomOpKind kind = HomOpKind::Input;
    std::vector<std::uint32_t> args; ///< Producing op ids.
    unsigned level = 0;       ///< Towers at which the op executes.
    unsigned outLevel = 0;    ///< Towers of the result.
    int rotateBy = 0;         ///< For Rotate.
    std::string keyId;        ///< KSH identity (reuse across ops).
    std::string plainId;      ///< Plaintext identity (reuse).
    std::uint32_t digits = 1; ///< Keyswitch digit count t (Sec 3.1).
};

/**
 * The op-cost stages (util/opcost.h) one op performs at its own level;
 * the stages it lacks stay zero. The lowering and the CPU model each
 * sum the fields their algorithm performs.
 */
struct HomOpCost
{
    opcost::KeySwitch ks;      ///< Mul, Rotate, Conjugate: digits of
                               ///  ceil(level / digits) towers.
    opcost::Tensor tensor;     ///< Mul.
    opcost::Rotation rotation; ///< Rotate, Conjugate.
    opcost::Rescale rescale;   ///< Mul, MulPlain, Rescale below level.
    opcost::ModRaise raise;    ///< ModRaise.
    std::uint64_t plainMuls = 0; ///< MulPlain: 2·level.
    std::uint64_t adds = 0;      ///< Add: 2·level; AddPlain: level.
};

inline HomOpCost
homOpCost(const HomOp &op, std::size_t n)
{
    using K = HomOpKind;
    const unsigned l = op.level, lo = op.outLevel;
    const bool mul = op.kind == K::Mul;
    const bool rot = op.kind == K::Rotate || op.kind == K::Conjugate;
    HomOpCost c;
    if (mul || rot)
        c.ks = opcost::keySwitch(
            l, static_cast<unsigned>(ceilDiv(l, op.digits)), n);
    if (mul)
        c.tensor = opcost::tensor(l);
    if (rot)
        c.rotation = opcost::rotation(l);
    if ((mul || op.kind == K::MulPlain || op.kind == K::Rescale) && lo < l)
        c.rescale = opcost::rescale(l, lo);
    if (op.kind == K::ModRaise)
        c.raise = opcost::modRaise(l, lo);
    c.plainMuls = op.kind == K::MulPlain ? 2ull * l : 0;
    c.adds = op.kind == K::Add ? 2ull * l : op.kind == K::AddPlain ? l : 0;
    return c;
}

struct HomProgram
{
    std::string name;
    unsigned logN = 16;
    unsigned lMax = 60;       ///< Deepest level used.
    std::vector<HomOp> ops;

    std::size_t n() const { return std::size_t{1} << logN; }

    /** Count of ops by kind (for reporting). */
    std::size_t countKind(HomOpKind k) const;
};

/** Digit policy: keyswitch digit count as a function of level
 *  (Sec 3.1 / Sec 9.4 describe the per-security-level policies). */
using DigitPolicy = std::function<unsigned(unsigned level)>;

/** 80-bit security, N=64K: 2-digit for L > 52, 1-digit below. */
DigitPolicy digitPolicy80();
/** 128-bit security, N=64K: 1 digit for L<32, 2 for 32<=L<43, 3 above. */
DigitPolicy digitPolicy128();
/** 200-bit security, N=128K: higher-digit keyswitching throughout. */
DigitPolicy digitPolicy200();

/**
 * Convenience builder tracking ciphertext levels. Handles the
 * level/rescale bookkeeping so workload generators read like the
 * computations they model.
 */
class HomBuilder
{
  public:
    HomBuilder(std::string name, unsigned logn, unsigned l_max,
               DigitPolicy policy = digitPolicy80());

    /** Ciphertext handle: op id + current level. */
    struct Ct
    {
        std::uint32_t op;
        unsigned level;
    };

    Ct input(unsigned level);
    Ct add(Ct a, Ct b);
    Ct addPlain(Ct a, const std::string &plain_id);
    /** Multiply by plaintext, consuming @p drop levels (scale width
     *  in 28-bit primes). */
    Ct mulPlain(Ct a, const std::string &plain_id, unsigned drop = 1);
    Ct mul(Ct a, Ct b, unsigned drop = 1);
    /** Explicit rescale: strip @p drop towers, dividing the scale by
     *  their moduli (for programs that rescale lazily, apart from the
     *  rescale folded into mul/mulPlain). */
    Ct rescale(Ct a, unsigned drop = 1);
    Ct rotate(Ct a, int steps);
    Ct conjugate(Ct a);
    Ct levelDrop(Ct a, unsigned target);
    Ct modRaise(Ct a, unsigned target);
    void output(Ct a);

    /**
     * Packed CKKS bootstrapping (Sec 6 "optimized bootstrapping"):
     * ModRaise, CoeffToSlot (recursively decomposed DFT as BSGS
     * linear transforms), EvalMod (Chebyshev sine + double-angle),
     * SlotToCoeff. Consumes `bootLevels()` levels from lMax.
     *
     * @param a Exhausted ciphertext (any level >= 1).
     * @param tag Unique tag for this call's plaintext matrices (pass
     *        the same tag to share them across calls — they are the
     *        same DFT factors every time).
     */
    Ct bootstrap(Ct a, const std::string &tag = "boot");

    /** Levels the bootstrap pipeline consumes (from lMax down). */
    unsigned bootLevels() const;

    /**
     * BSGS linear transform with @p diags nonzero diagonals: the
     * workhorse of matrix-vector products, convolutions, and the
     * bootstrapping DFT factors. Consumes @p drop levels.
     */
    Ct linearTransform(Ct a, unsigned diags, const std::string &tag,
                       unsigned drop, bool bsgs = true);

    HomProgram take() { return std::move(prog_); }
    const HomProgram &program() const { return prog_; }

    unsigned lMax() const { return prog_.lMax; }
    std::size_t slots() const { return prog_.n() / 2; }

    // Bootstrapping structure: the stage counts come from the shape
    // the host Bootstrapper also runs (defaults follow [11]/[53]:
    // 4-stage CoeffToSlot / 3-stage SlotToCoeff, degree-63 Chebyshev
    // with 2 double-angle steps); the rest are chip-only cost knobs.
    BootstrapShape shape;
    unsigned diagsPerStage = 24;  ///< Matrix diagonals per DFT factor.
    unsigned evalModMuls = 30;    ///< ct-ct mults in EvalMod.
    unsigned evalModLevels = 21;  ///< Levels EvalMod consumes.

  private:
    Ct keyedOp(HomOpKind kind, Ct a, std::string key_id, int steps);
    std::uint32_t push(HomOp op);
    unsigned digitsAt(unsigned level) const;

    HomProgram prog_;
    DigitPolicy policy_;
};

} // namespace cl

#endif // CL_COMPILER_HOMPROGRAM_H
