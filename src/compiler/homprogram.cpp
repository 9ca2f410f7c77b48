#include "homprogram.h"

#include <cmath>

namespace cl {

std::size_t
HomProgram::countKind(HomOpKind k) const
{
    std::size_t c = 0;
    for (const auto &op : ops)
        c += op.kind == k ? 1 : 0;
    return c;
}

DigitPolicy
digitPolicy80()
{
    return [](unsigned level) -> unsigned {
        return level > 52 ? 2 : 1;
    };
}

DigitPolicy
digitPolicy128()
{
    return [](unsigned level) -> unsigned {
        if (level >= 43)
            return 3;
        if (level >= 32)
            return 2;
        return 1;
    };
}

DigitPolicy
digitPolicy200()
{
    return [](unsigned level) -> unsigned {
        if (level >= 40)
            return 4;
        if (level >= 28)
            return 3;
        return 2;
    };
}

HomBuilder::HomBuilder(std::string name, unsigned logn, unsigned l_max,
                       DigitPolicy policy)
    : policy_(std::move(policy))
{
    prog_.name = std::move(name);
    prog_.logN = logn;
    prog_.lMax = l_max;
}

std::uint32_t
HomBuilder::push(HomOp op)
{
    op.id = static_cast<std::uint32_t>(prog_.ops.size());
    prog_.ops.push_back(std::move(op));
    return prog_.ops.back().id;
}

unsigned
HomBuilder::digitsAt(unsigned level) const
{
    return std::max(1u, policy_(level));
}

HomBuilder::Ct
HomBuilder::input(unsigned level)
{
    CL_ASSERT(level >= 1 && level <= prog_.lMax, "bad input level ",
              level);
    HomOp op;
    op.kind = HomOpKind::Input;
    op.level = op.outLevel = level;
    return {push(op), level};
}

HomBuilder::Ct
HomBuilder::add(Ct a, Ct b)
{
    CL_ASSERT(a.level == b.level, "add level mismatch: ", a.level, " vs ",
              b.level);
    HomOp op;
    op.kind = HomOpKind::Add;
    op.args = {a.op, b.op};
    op.level = op.outLevel = a.level;
    return {push(op), a.level};
}

HomBuilder::Ct
HomBuilder::addPlain(Ct a, const std::string &plain_id)
{
    HomOp op;
    op.kind = HomOpKind::AddPlain;
    op.args = {a.op};
    op.level = op.outLevel = a.level;
    op.plainId = plain_id;
    return {push(op), a.level};
}

HomBuilder::Ct
HomBuilder::mulPlain(Ct a, const std::string &plain_id, unsigned drop)
{
    CL_ASSERT(a.level > drop, "out of multiplicative budget at level ",
              a.level);
    HomOp op;
    op.kind = HomOpKind::MulPlain;
    op.args = {a.op};
    op.level = a.level;
    op.outLevel = a.level - drop;
    op.plainId = plain_id;
    return {push(op), op.outLevel};
}

HomBuilder::Ct
HomBuilder::mul(Ct a, Ct b, unsigned drop)
{
    CL_ASSERT(a.level == b.level, "mul level mismatch");
    CL_ASSERT(a.level > drop, "out of multiplicative budget at level ",
              a.level);
    HomOp op;
    op.kind = HomOpKind::Mul;
    op.args = {a.op, b.op};
    op.level = a.level;
    op.outLevel = a.level - drop;
    op.digits = digitsAt(a.level);
    op.keyId = "relin.t" + std::to_string(op.digits);
    return {push(op), op.outLevel};
}

HomBuilder::Ct
HomBuilder::rescale(Ct a, unsigned drop)
{
    CL_ASSERT(drop >= 1, "rescale must drop at least one tower");
    CL_ASSERT(a.level > drop, "out of multiplicative budget at level ",
              a.level);
    HomOp op;
    op.kind = HomOpKind::Rescale;
    op.args = {a.op};
    op.level = a.level;
    op.outLevel = a.level - drop;
    return {push(op), op.outLevel};
}

HomBuilder::Ct
HomBuilder::keyedOp(HomOpKind kind, Ct a, std::string key_id, int steps)
{
    HomOp op;
    op.kind = kind;
    op.args = {a.op};
    op.level = op.outLevel = a.level;
    op.rotateBy = steps;
    op.digits = digitsAt(a.level);
    op.keyId = std::move(key_id) + ".t" + std::to_string(op.digits);
    return {push(op), a.level};
}

HomBuilder::Ct
HomBuilder::rotate(Ct a, int steps)
{
    // Whole-ring rotations are the identity automorphism (the Galois
    // exponent is 5^(steps mod slots) = 1): no keyswitch, no op.
    if (steps % static_cast<long>(slots()) == 0)
        return a;
    return keyedOp(HomOpKind::Rotate, a, "rot." + std::to_string(steps),
                   steps);
}

HomBuilder::Ct
HomBuilder::conjugate(Ct a)
{
    return keyedOp(HomOpKind::Conjugate, a, "conj", 0);
}

HomBuilder::Ct
HomBuilder::levelDrop(Ct a, unsigned target)
{
    CL_ASSERT(target >= 1 && target <= a.level, "bad levelDrop target");
    if (target == a.level)
        return a;
    HomOp op;
    op.kind = HomOpKind::LevelDrop;
    op.args = {a.op};
    op.level = a.level;
    op.outLevel = target;
    return {push(op), target};
}

HomBuilder::Ct
HomBuilder::modRaise(Ct a, unsigned target)
{
    CL_ASSERT(target > a.level && target <= prog_.lMax, "bad modRaise");
    HomOp op;
    op.kind = HomOpKind::ModRaise;
    op.args = {a.op};
    op.level = a.level;
    op.outLevel = target;
    return {push(op), target};
}

void
HomBuilder::output(Ct a)
{
    HomOp op;
    op.kind = HomOpKind::Output;
    op.args = {a.op};
    op.level = op.outLevel = a.level;
    push(op);
}

HomBuilder::Ct
HomBuilder::linearTransform(Ct a, unsigned diags, const std::string &tag,
                            unsigned drop, bool bsgs)
{
    // Baby-step-giant-step evaluation of a linear transform with
    // `diags` nonzero diagonals: n1 baby rotations of the input, n2
    // giant-step accumulation (Sec 6; [31]).
    //
    // With bsgs=false, the transform instead streams the diagonals
    // with a sequential rotate-by-one chain: same rotation and
    // multiply counts, but a working set of two ciphertexts and a
    // single rotation hint. This is the shape the bootstrapping DFT
    // factors take after the compiler's reuse-maximizing
    // decomposition (Sec 6, "4x4 tile" partitions that fit on chip).
    if (!bsgs) {
        Ct cur = a;
        Ct acc = mulPlain(cur, tag + ".d0", drop);
        for (unsigned i = 1; i < diags; ++i) {
            cur = rotate(cur, 1);
            acc = add(acc, mulPlain(cur, tag + ".d" + std::to_string(i),
                                    drop));
        }
        return acc;
    }

    const unsigned n1 =
        std::max(1u, static_cast<unsigned>(std::sqrt(diags)));
    const unsigned n2 = (diags + n1 - 1) / n1;

    std::vector<Ct> baby(n1);
    baby[0] = a;
    for (unsigned i = 1; i < n1; ++i)
        baby[i] = rotate(a, static_cast<int>(i));

    Ct acc{0, 0};
    bool first = true;
    for (unsigned j = 0; j < n2; ++j) {
        Ct inner{0, 0};
        bool inner_first = true;
        for (unsigned i = 0; i < n1; ++i) {
            if (j * n1 + i >= diags)
                break;
            Ct term = mulPlain(
                baby[i], tag + ".d" + std::to_string(j * n1 + i), drop);
            inner = inner_first ? term : add(inner, term);
            inner_first = false;
        }
        if (j > 0)
            inner = rotate(inner, static_cast<int>(j * n1));
        acc = first ? inner : add(acc, inner);
        first = false;
    }
    return acc;
}

unsigned
HomBuilder::bootLevels() const
{
    // CtS and StC stages run at double scale (2 levels per stage);
    // EvalMod consumes its configured budget.
    return 2 * shape.ctsStages + 2 * shape.stcStages + evalModLevels;
}

HomBuilder::Ct
HomBuilder::bootstrap(Ct a, const std::string &tag)
{
    const unsigned l_top = prog_.lMax;
    CL_ASSERT(bootLevels() < l_top,
              "bootstrap depth exceeds the modulus chain");

    // 1. ModRaise to the top of the chain.
    Ct ct = modRaise(a, l_top);

    // 2. CoeffToSlot: ctsStages DFT factors, each a BSGS linear
    //    transform at double scale; conjugate to split real/imag.
    for (unsigned s = 0; s < shape.ctsStages; ++s)
        ct = linearTransform(ct, diagsPerStage,
                             tag + ".cts" + std::to_string(s), 2,
                             /*bsgs=*/false);
    Ct conj = conjugate(ct);
    Ct real_part = add(ct, conj);

    // 3. EvalMod: Chebyshev sine approximation + double-angle. The
    //    multiplications alternate squarings (for the Chebyshev
    //    basis) and accumulations.
    Ct em = real_part;
    const unsigned per_mul =
        std::max(1u, evalModLevels / std::max(1u, evalModMuls));
    unsigned spent = 0;
    for (unsigned i = 0; i < evalModMuls; ++i) {
        const unsigned drop =
            std::min(per_mul, evalModLevels - spent);
        if (em.level <= drop + shape.stcStages * 2 + 1)
            break;
        Ct other = (i % 3 == 2)
                       ? mulPlain(em, tag + ".em" + std::to_string(i), 0)
                       : em;
        em = mul(em, other, drop);
        spent += drop;
    }

    // 4. SlotToCoeff: stcStages DFT factors.
    for (unsigned s = 0; s < shape.stcStages; ++s)
        em = linearTransform(em, diagsPerStage,
                             tag + ".stc" + std::to_string(s), 2,
                             /*bsgs=*/false);
    return em;
}

} // namespace cl
