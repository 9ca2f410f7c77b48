#include "evaluator.h"

#include <algorithm>
#include <cmath>

#include "rns/simd/kernels.h"
#include "util/instrument.h"
#include "util/threadpool.h"

namespace cl {

Evaluator::Evaluator(const CkksContext &ctx) : ctx_(ctx) {}

void
Evaluator::checkSameShape(const Ciphertext &a, const Ciphertext &b) const
{
    CL_ASSERT(a.level() == b.level(), "level mismatch: ", a.level(), " vs ",
              b.level());
    // Scale guard: operands within kScaleRelTol are auto-aligned (the
    // result takes a.scale, absorbing the relative error into the
    // message noise); anything wider is a program bug — the caller
    // must rescale or mulPlain-align first.
    const double rel = std::abs(a.scale - b.scale) / a.scale;
    CL_ASSERT(rel < kScaleRelTol, "scale mismatch: ", a.scale, " vs ",
              b.scale, " (rel ", rel, " > ", kScaleRelTol, ")");
}

void
Evaluator::checkPlainScale(const Ciphertext &a, double plain_scale) const
{
    const double rel = std::abs(a.scale - plain_scale) / a.scale;
    CL_ASSERT(rel < kScaleRelTol, "plaintext scale mismatch: ct ", a.scale,
              " vs plain ", plain_scale, " (rel ", rel, " > ",
              kScaleRelTol, ")");
}

Ciphertext
Evaluator::add(const Ciphertext &a, const Ciphertext &b) const
{
    checkSameShape(a, b);
    Ciphertext r = a;
    r.c0 += b.c0;
    r.c1 += b.c1;
    ctx_.ops().polyAdds += 2 * r.c0.towers();
    return r;
}

Ciphertext
Evaluator::sub(const Ciphertext &a, const Ciphertext &b) const
{
    checkSameShape(a, b);
    Ciphertext r = a;
    r.c0 -= b.c0;
    r.c1 -= b.c1;
    ctx_.ops().polyAdds += 2 * r.c0.towers();
    return r;
}

RnsPoly
Evaluator::alignPlain(const RnsPoly &plain, std::size_t ct_towers) const
{
    // Drop surplus towers *before* the NTT so the conversion only
    // touches residues that survive, and charge the conversion — the
    // encoder hands out coefficient-form plaintexts, so this is real
    // NTT work the accounting previously missed.
    RnsPoly p = plain;
    if (p.towers() > ct_towers)
        p.dropTowers(p.towers() - ct_towers);
    if (!p.isNtt()) {
        p.toNtt();
        ctx_.ops().ntts += p.towers();
    }
    return p;
}

Ciphertext
Evaluator::addPlain(const Ciphertext &a, const RnsPoly &plain) const
{
    RnsPoly p = alignPlain(plain, a.c0.towers());
    Ciphertext r = a;
    r.c0 += p;
    ctx_.ops().polyAdds += r.c0.towers();
    return r;
}

Ciphertext
Evaluator::addPlain(const Ciphertext &a, const RnsPoly &plain,
                    double plain_scale) const
{
    checkPlainScale(a, plain_scale);
    return addPlain(a, plain);
}

Ciphertext
Evaluator::subPlain(const Ciphertext &a, const RnsPoly &plain) const
{
    RnsPoly p = alignPlain(plain, a.c0.towers());
    Ciphertext r = a;
    r.c0 -= p;
    ctx_.ops().polyAdds += r.c0.towers();
    return r;
}

Ciphertext
Evaluator::subPlain(const Ciphertext &a, const RnsPoly &plain,
                    double plain_scale) const
{
    checkPlainScale(a, plain_scale);
    return subPlain(a, plain);
}

Ciphertext
Evaluator::negate(const Ciphertext &a) const
{
    Ciphertext r = a;
    r.c0.negate();
    r.c1.negate();
    ctx_.ops().polyAdds += 2 * r.c0.towers();
    return r;
}

Ciphertext
Evaluator::mulPlain(const Ciphertext &a, const RnsPoly &plain,
                    double plain_scale) const
{
    RnsPoly p = alignPlain(plain, a.c0.towers());
    Ciphertext r = a;
    r.c0 *= p;
    r.c1 *= p;
    r.scale = a.scale * plain_scale;
    ctx_.ops().polyMults += 2 * r.c0.towers();
    return r;
}

Ciphertext
Evaluator::mulScalar(const Ciphertext &a, double scalar) const
{
    // Encode the scalar at the scale of the last live prime so that a
    // subsequent rescale restores the input scale exactly.
    const unsigned level = a.level();
    const u64 q_last = a.c0.modulus(level - 1);
    const double scale = static_cast<double>(q_last);
    Ciphertext r = a;
    const auto v = static_cast<long long>(std::nearbyint(scalar * scale));
    for (std::size_t t = 0; t < r.c0.towers(); ++t) {
        const u64 q = r.c0.modulus(t);
        const u64 w = reduceSigned(v, q);
        r.c0.mulScalarTower(t, w);
        r.c1.mulScalarTower(t, w);
    }
    r.scale = a.scale * scale;
    ctx_.ops().polyMults += 2 * r.c0.towers();
    return r;
}

KeySwitchDigits
Evaluator::decompose(const RnsPoly &d, unsigned alpha_ks) const
{
    CL_ASSERT(d.isNtt(), "keyswitch input must be in NTT form");
    const unsigned l = static_cast<unsigned>(d.towers());
    const unsigned a = alpha_ks;
    CL_ASSERT(a >= 1, "digit size must be at least 1");
    OpCounter &ops = ctx_.ops();
    ops.decomposes++;
    ops += opcost::keySwitch(l, a, ctx_.n()).hostModUp();

    KeySwitchDigits out;
    out.level = l;
    out.alphaKs = a;
    for (unsigned i = 0; i < l; ++i)
        out.extIdx.push_back(i);
    for (unsigned i = 0; i < a; ++i)
        out.extIdx.push_back(ctx_.l() + i);
    const std::vector<unsigned> &ext_idx = out.extIdx;

    // Listing 1, line 2: the digits are lifted from the coefficient
    // domain.
    RnsPoly d_coeff = d;
    d_coeff.toCoeff();

    const unsigned dnum = static_cast<unsigned>(ceilDiv(l, a));
    out.u.reserve(dnum);

    for (unsigned j = 0; j < dnum; ++j) {
        std::vector<unsigned> digit_idx;
        for (unsigned i = j * a; i < std::min(l, (j + 1) * a); ++i)
            digit_idx.push_back(i);
        const auto inDigit = [&](unsigned i) {
            return i >= j * a && i < std::min(l, (j + 1) * a);
        };
        std::vector<unsigned> comp_idx;
        for (unsigned i : ext_idx) {
            if (!inDigit(i))
                comp_idx.push_back(i);
        }

        // Listing 1, lines 3-4: changeRNSBase to the complement, then
        // NTT the raised residues (one worker per tower). The
        // conversion writes each raised residue straight into its tower
        // of u, listed in comp_idx order.
        RnsPoly u(RnsPoly::Uninit{}, ctx_.chain(), ext_idx, true);
        const BaseConverter &conv = ctx_.converter(digit_idx, comp_idx);
        std::vector<BaseConverter::ResidueView> digit_res;
        for (unsigned i : digit_idx)
            digit_res.push_back(d_coeff.residue(i));
        std::vector<u64 *> raised;
        for (std::size_t t = 0; t < ext_idx.size(); ++t) {
            if (!inDigit(ext_idx[t]))
                raised.push_back(u.residue(t).data());
        }
        conv.convert(digit_res, raised);

        parallelFor(0, ext_idx.size(), [&](std::size_t t) {
            const unsigned ci = ext_idx[t];
            if (inDigit(ci)) {
                // The digit's own residues stay as in the (NTT-form)
                // input — Listing 1 reuses p[0:L] directly.
                u.setResidue(t, d.residue(ci));
            } else {
                ctx_.chain().ntt(ci).forward(u.residue(t).data());
            }
        });
        out.u.push_back(std::move(u));
    }
    return out;
}

KeySwitchDigits
Evaluator::automorphismDigits(const KeySwitchDigits &digits,
                              std::size_t galois) const
{
    CL_ASSERT(digits.valid(), "automorphismDigits on empty digits");
    KeySwitchDigits out;
    out.extIdx = digits.extIdx;
    out.level = digits.level;
    out.alphaKs = digits.alphaKs;
    out.u.reserve(digits.u.size());
    for (const RnsPoly &u : digits.u)
        out.u.push_back(u.automorphism(galois));
    ctx_.ops() += opcost::keySwitch(digits.level, digits.alphaKs, ctx_.n())
                      .hostDigitRotation();
    return out;
}

std::pair<RnsPoly, RnsPoly>
Evaluator::innerProduct(const KeySwitchDigits &digits,
                        const SwitchKey &ksk) const
{
    CL_ASSERT(digits.valid(), "innerProduct on empty digits");
    CL_ASSERT(ksk.alphaKs == digits.alphaKs,
              "digit size mismatch: digits use ", digits.alphaKs,
              ", hint uses ", ksk.alphaKs);
    const unsigned dnum = static_cast<unsigned>(digits.u.size());
    CL_ASSERT(dnum <= ksk.digits(), "hint has ", ksk.digits(),
              " digits, need ", dnum);
    OpCounter &ops = ctx_.ops();
    ops.innerProducts++;
    ops += opcost::keySwitch(digits.level, digits.alphaKs, ctx_.n())
               .hostInnerProduct();

    RnsPoly acc0(ctx_.chain(), digits.extIdx, true);
    RnsPoly acc1(ctx_.chain(), digits.extIdx, true);
    for (unsigned j = 0; j < dnum; ++j) {
        // Listing 1, line 6: fused MAC with the hint pair; the hint
        // towers are selected by chain index, no subset copies.
        acc0.addMulAssign(ksk.b[j], digits.u[j]);
        acc1.addMulAssign(ksk.a[j], digits.u[j]);
    }
    return {std::move(acc0), std::move(acc1)};
}

std::pair<RnsPoly, RnsPoly>
Evaluator::innerProduct(const KeySwitchDigits &digits, const SwitchKey &ksk,
                        std::size_t galois) const
{
    // Tiling is a bandwidth optimization: it pays once one
    // extended-basis digit image outgrows the cache-resident regime.
    // Below the floor every operand is already cache-hot and the tile
    // bookkeeping is pure overhead, so fall through to the per-digit
    // path (bit-identical either way; DESIGN.md §5e).
    const bool tiled = !digits.extIdx.empty() &&
                       u64{digits.extIdx.size()} * ctx_.n() * 8 >=
                           kTileMinBytes;
    if (!tiled) {
        if (galois != 1) {
            const KeySwitchDigits rot = automorphismDigits(digits, galois);
            return innerProduct(rot, ksk);
        }
        return innerProduct(digits, ksk);
    }

    // Tower-tiled fused path (DESIGN.md §5e): iterate tower-major so
    // each extended-basis tower's pair of accumulators stays
    // cache-resident across all dnum digit MACs, and the optional
    // digit automorphism gathers into per-thread scratch instead of
    // materializing rotated digit polynomials. The MACs run in the
    // same digit order with the same canonical kernels as the composed
    // loop, so the accumulators are bit-identical.
    CL_ASSERT(digits.valid(), "innerProduct on empty digits");
    CL_ASSERT(ksk.alphaKs == digits.alphaKs,
              "digit size mismatch: digits use ", digits.alphaKs,
              ", hint uses ", ksk.alphaKs);
    const unsigned dnum = static_cast<unsigned>(digits.u.size());
    CL_ASSERT(dnum <= ksk.digits(), "hint has ", ksk.digits(),
              " digits, need ", dnum);
    OpCounter &ops = ctx_.ops();
    ops.innerProducts++;
    const std::size_t ext = digits.extIdx.size();
    const std::size_t n = ctx_.n();
    const opcost::KeySwitch ks =
        opcost::keySwitch(digits.level, digits.alphaKs, n);
    ops += ks.hostInnerProduct();
    if (galois != 1) // the gather passes charge the measurement side
        ops += ks.hostDigitRotation();
    countMults(2 * u64{dnum} * ext);
    countAdds(2 * u64{dnum} * ext);
    // Per tower: each MAC pass streams only its hint tower (the digit
    // residue is read once and then cache-resident, the accumulators
    // are written back once at the end); gathers charge themselves.
    countMemPass(2 * u64{dnum} * ext,
                 u64{ext} * n *
                     (16 * u64{dnum} + (galois == 1 ? 8 * u64{dnum} : 0) +
                      16));

    const AutomorphismMap *map =
        galois != 1 ? &ctx_.chain().automorphism(galois) : nullptr;

    // Per-digit position maps from our chain indices into the hint
    // towers (the same mapping addMulAssign builds per call).
    auto posOf = [&](const RnsPoly &p) {
        std::vector<std::size_t> pos(ext);
        for (std::size_t t = 0; t < ext; ++t) {
            const unsigned ci = digits.extIdx[t];
            const std::vector<unsigned> &mi = p.modIdx();
            std::size_t s = 0;
            while (s < mi.size() && mi[s] != ci)
                ++s;
            CL_ASSERT(s < mi.size(), "innerProduct: chain index ", ci,
                      " missing from hint");
            pos[t] = s;
        }
        return pos;
    };
    std::vector<std::vector<std::size_t>> bpos, apos;
    bpos.reserve(dnum);
    apos.reserve(dnum);
    for (unsigned j = 0; j < dnum; ++j) {
        bpos.push_back(posOf(ksk.b[j]));
        apos.push_back(posOf(ksk.a[j]));
    }

    RnsPoly acc0(RnsPoly::Uninit{}, ctx_.chain(), digits.extIdx, true);
    RnsPoly acc1(RnsPoly::Uninit{}, ctx_.chain(), digits.extIdx, true);
    const KernelTable &K = kernels();
    parallelFor(0, ext, [&](std::size_t t) {
        const u64 q = ctx_.chain().modulus(digits.extIdx[t]);
        u64 *a0 = acc0.residue(t).data();
        u64 *a1 = acc1.residue(t).data();
        std::fill_n(a0, n, u64{0});
        std::fill_n(a1, n, u64{0});
        static thread_local std::vector<u64> buf;
        if (map)
            buf.resize(n);
        for (unsigned j = 0; j < dnum; ++j) {
            const u64 *u = digits.u[j].residue(t).data();
            if (map) {
                map->applyNtt(u, buf.data());
                u = buf.data();
            }
            K.mulAddModVec(a0, ksk.b[j].residue(bpos[j][t]).data(), u, n,
                           q);
            K.mulAddModVec(a1, ksk.a[j].residue(apos[j][t]).data(), u, n,
                           q);
        }
    });
    return {std::move(acc0), std::move(acc1)};
}

RnsPoly
Evaluator::modDown(const RnsPoly &acc) const
{
    CL_ASSERT(acc.isNtt(), "modDown input must be in NTT form");
    std::vector<unsigned> special_idx;
    unsigned l = 0;
    for (unsigned i : acc.modIdx()) {
        if (i < ctx_.l())
            ++l;
        else
            special_idx.push_back(i);
    }
    CL_ASSERT(!special_idx.empty(), "modDown needs special towers");
    CL_ASSERT(acc.modIdx()[0] == 0 && acc.modIdx()[l - 1] == l - 1,
              "modDown expects data towers first");
    const unsigned a = static_cast<unsigned>(special_idx.size());
    OpCounter &ops = ctx_.ops();
    ops.modDowns++;
    ops += opcost::keySwitch(l, a, ctx_.n()).hostModDown();

    // Listing 1, lines 7-10 (mod-down): divide by P.
    const BaseConverter &down =
        ctx_.converter(special_idx, ctx_.dataIdx(l));
    RnsPoly special = acc.subset(special_idx);
    special.toCoeff();
    // The conversion writes straight into the output towers; the
    // epilogue below transforms and corrects each one in place.
    RnsPoly out(RnsPoly::Uninit{}, ctx_.chain(), ctx_.dataIdx(l), true);
    std::vector<u64 *> rows(l);
    for (unsigned t = 0; t < l; ++t)
        rows[t] = out.residue(t).data();
    down.convert(special.residueViews(), rows);

    // The fused subtract-multiply below is a direct kernel call, not an
    // RnsPoly operator, so instrument it here: one mult + one add pass
    // per data tower.
    countMults(l);
    countAdds(l);
    countMemPass(l, u64{l} * 24 * ctx_.n());
    parallelFor(0, l, [&](std::size_t t) {
        const u64 q = ctx_.chain().modulus(t);
        // P^{-1} for the special primes this hint uses.
        u64 p_mod_q = 1;
        for (unsigned i : special_idx)
            p_mod_q = mulMod(p_mod_q, ctx_.chain().modulus(i) % q, q);
        const ShoupMul p_inv(invMod(p_mod_q, q), q);
        // Single-pass epilogue (DESIGN.md §5e): leave the forward NTT
        // in its lazy [0, 4q) window and fold the correction into the
        // subtract-multiply sweep.
        ctx_.chain().ntt(t).forwardLazy(rows[t]);
        kernels().nttCorrectSubMulShoupVec(rows[t], acc.residue(t).data(),
                                           rows[t], ctx_.n(), p_inv.w,
                                           p_inv.wPrec, q);
    });
    return out;
}

std::pair<RnsPoly, RnsPoly>
Evaluator::keySwitch(const RnsPoly &d, const SwitchKey &ksk) const
{
    CL_ASSERT(ksk.alphaKs >= 1, "uninitialized switch key");
    const KeySwitchDigits digits = decompose(d, ksk.alphaKs);
    auto [acc0, acc1] = innerProduct(digits, ksk, /*galois=*/1);
    return {modDown(acc0), modDown(acc1)};
}

Ciphertext
Evaluator::multiply(const Ciphertext &a, const Ciphertext &b,
                    const SwitchKey &relin) const
{
    CL_ASSERT(a.level() == b.level(), "multiply level mismatch");

    RnsPoly t0 = a.c0;
    t0 *= b.c0;
    RnsPoly t2 = a.c1;
    t2 *= b.c1;
    RnsPoly t1a = a.c0;
    t1a *= b.c1;
    RnsPoly t1b = a.c1;
    t1b *= b.c0;
    t1a += t1b;
    ctx_.ops() += opcost::tensor(a.level()).host();

    auto [k0, k1] = keySwitch(t2, relin);
    Ciphertext r;
    r.c0 = std::move(t0);
    r.c0 += k0;
    r.c1 = std::move(t1a);
    r.c1 += k1;
    ctx_.ops().polyAdds +=
        opcost::keySwitch(a.level(), relin.alphaKs, ctx_.n()).combineAdds;
    r.scale = a.scale * b.scale;
    return r;
}

Ciphertext
Evaluator::square(const Ciphertext &a, const SwitchKey &relin) const
{
    RnsPoly t0 = a.c0;
    t0 *= a.c0;
    RnsPoly t2 = a.c1;
    t2 *= a.c1;
    RnsPoly t1 = a.c0;
    t1 *= a.c1;
    t1 += t1; // 2*c0*c1
    ctx_.ops() += opcost::square(a.level()).host();

    auto [k0, k1] = keySwitch(t2, relin);
    Ciphertext r;
    r.c0 = std::move(t0);
    r.c0 += k0;
    r.c1 = std::move(t1);
    r.c1 += k1;
    ctx_.ops().polyAdds +=
        opcost::keySwitch(a.level(), relin.alphaKs, ctx_.n()).combineAdds;
    r.scale = a.scale * a.scale;
    return r;
}

void
Evaluator::rescale(Ciphertext &ct) const
{
    // Charge against the PRE-drop level l: each polynomial takes the
    // dropped tower out of NTT form and transforms its correction into
    // each of the l-1 kept towers.
    const unsigned l = ct.level();
    const u64 q_last = ct.c0.modulus(l - 1);
    ct.c0.rescaleLastTower();
    ct.c1.rescaleLastTower();
    ct.scale /= static_cast<double>(q_last);
    ctx_.ops() += opcost::rescale(l, l - 1).host();
}

void
Evaluator::levelDrop(Ciphertext &ct, unsigned target_level) const
{
    CL_ASSERT(target_level >= 1 && target_level <= ct.level(),
              "bad target level ", target_level);
    // A ciphertext whose scale alone exceeds the target basis is
    // unconditionally destroyed by the drop: the scaled message wraps
    // mod Q and decrypts to noise. (The message magnitude on top of
    // the scale is the caller's headroom to manage.)
    double cap_bits = 0;
    for (unsigned t = 0; t < target_level; ++t)
        cap_bits += std::log2(
            static_cast<double>(ctx_.chain().modulus(t)));
    CL_ASSERT(std::log2(ct.scale) < cap_bits,
              "levelDrop to level ", target_level, " cannot hold scale ",
              ct.scale);
    const std::size_t drop = ct.level() - target_level;
    if (drop) {
        ct.c0.dropTowers(drop);
        ct.c1.dropTowers(drop);
    }
}

std::size_t
Evaluator::galoisFromSteps(int steps) const
{
    const std::size_t m = 2 * ctx_.n();
    const std::size_t slots = ctx_.slots();
    long r = steps % static_cast<long>(slots);
    if (r < 0)
        r += static_cast<long>(slots);
    std::size_t g = 1;
    for (long i = 0; i < r; ++i)
        g = (g * 5) % m;
    return g;
}

Ciphertext
Evaluator::rotateByGalois(const Ciphertext &a, std::size_t galois,
                          const SwitchKey &key) const
{
    if (galois == 1)
        return a; // identity automorphism: no keyswitch needed
    // Staged form: lift the digits of c1 once, then permute them in
    // the raised basis. Equivalent to decompose-after-automorphism up
    // to base-conversion rounding (automorphism is a ring hom, and the
    // digit constants W_j are integers, invariant under it), and it is
    // exactly what the hoisted path computes — so single rotations and
    // hoisted rotations agree bit for bit.
    const KeySwitchDigits digits = decompose(a.c1, key.alphaKs);
    return rotateByGaloisHoisted(a, galois, key, digits);
}

Ciphertext
Evaluator::rotateByGaloisHoisted(const Ciphertext &a, std::size_t galois,
                                 const SwitchKey &key,
                                 const KeySwitchDigits &digits) const
{
    if (galois == 1)
        return a;
    RnsPoly c0_rot = a.c0.automorphism(galois);

    // Digit rotation fused into the inner product: the permuted digit
    // residues are gathered tower by tower inside the MAC sweep
    // instead of materializing a rotated KeySwitchDigits.
    auto [acc0, acc1] = innerProduct(digits, key, galois);
    RnsPoly k0 = modDown(acc0);
    RnsPoly k1 = modDown(acc1);
    Ciphertext r;
    r.c0 = std::move(c0_rot);
    r.c0 += k0;
    r.c1 = std::move(k1);
    r.scale = a.scale;
    ctx_.ops() += opcost::rotation(a.level()).host();
    return r;
}

Ciphertext
Evaluator::rotate(const Ciphertext &a, int steps, const GaloisKeys &gk) const
{
    if (steps % static_cast<long>(ctx_.slots()) == 0)
        return a;
    const std::size_t g = galoisFromSteps(steps);
    return rotateByGalois(a, g, gk.at(g));
}

Ciphertext
Evaluator::conjugate(const Ciphertext &a, const GaloisKeys &gk) const
{
    const std::size_t g = 2 * ctx_.n() - 1;
    return rotateByGalois(a, g, gk.at(g));
}

Ciphertext
Evaluator::modRaise(const Ciphertext &ct, unsigned target_level) const
{
    CL_ASSERT(target_level > ct.level(), "modRaise must increase level");
    const std::vector<unsigned> src_idx = ct.c0.modIdx();
    std::vector<unsigned> add_idx;
    for (unsigned i = static_cast<unsigned>(src_idx.size());
         i < target_level; ++i)
        add_idx.push_back(i);

    const BaseConverter &conv = ctx_.converter(src_idx, add_idx);
    auto raise = [&](const RnsPoly &p) {
        RnsPoly coeff = p;
        coeff.toCoeff();
        RnsPoly r(RnsPoly::Uninit{}, ctx_.chain(),
                  ctx_.dataIdx(target_level), false);
        for (std::size_t t = 0; t < src_idx.size(); ++t)
            r.setResidue(t, coeff.residue(t));
        // The added towers are converted straight into r.
        std::vector<u64 *> rows(add_idx.size());
        for (std::size_t t = 0; t < add_idx.size(); ++t)
            rows[t] = r.residue(src_idx.size() + t).data();
        conv.convert(coeff.residueViews(), rows);
        r.toNtt();
        return r;
    };

    Ciphertext r;
    r.c0 = raise(ct.c0);
    r.c1 = raise(ct.c1);
    r.scale = ct.scale;
    ctx_.ops() += opcost::modRaise(ct.level(), target_level).host();
    return r;
}

} // namespace cl
