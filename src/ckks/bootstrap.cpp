#include "bootstrap.h"

#include <bit>
#include <cmath>
#include <set>

#include "rns/simd/kernels.h"
#include "util/instrument.h"
#include "util/threadpool.h"

namespace cl {

namespace {

/**
 * Chebyshev-basis division: rewrite p = sum b_j T_j as
 * p = q(u) * T_g(u) + r(u) using T_{a+g} = 2 T_a T_g - T_{|a-g|}.
 * Returns (q, r) coefficient vectors (also in the T basis).
 */
std::pair<std::vector<double>, std::vector<double>>
chebDivide(std::vector<double> b, unsigned g)
{
    const std::size_t d = b.size() - 1;
    CL_ASSERT(d >= g, "division degree too small");
    std::vector<double> q(d - g + 1, 0.0);
    for (std::size_t j = d; j > g; --j) {
        if (b[j] == 0.0)
            continue;
        q[j - g] += 2.0 * b[j];
        const std::size_t idx = j >= 2 * g ? j - 2 * g : 2 * g - j;
        b[idx] -= b[j];
        b[j] = 0.0;
    }
    // T_g * T_0 = T_g.
    q[0] += b[g];
    b[g] = 0.0;
    b.resize(g);
    return {std::move(q), std::move(b)};
}

/** Chebyshev coefficients of f on [-1, 1] by cosine projection. */
std::vector<double>
chebyshevFit(const std::function<double(double)> &f, unsigned degree)
{
    const unsigned m = 4096;
    std::vector<double> c(degree + 1, 0.0);
    for (unsigned k = 0; k < m; ++k) {
        const double theta = M_PI * (k + 0.5) / m;
        const double fv = f(std::cos(theta));
        for (unsigned j = 0; j <= degree; ++j)
            c[j] += fv * std::cos(j * theta);
    }
    for (unsigned j = 0; j <= degree; ++j)
        c[j] *= (j == 0 ? 1.0 : 2.0) / m;
    return c;
}

/** Chebyshev coefficients at or below this magnitude are dropped. */
constexpr double kChebZero = 1e-13;

/** Paterson–Stockmeyer split point for a block of degree @p deg >= m:
 *  the largest power-of-two multiple g of @p m with 2g <= deg. */
unsigned
chebSplit(std::size_t deg, unsigned m)
{
    unsigned g = m;
    while (2 * g <= deg)
        g *= 2;
    return g;
}

/**
 * The Chebyshev indices j >= 2 whose T_j the Paterson–Stockmeyer
 * evaluation of @p coeffs reads — the leaf blocks' nonzero terms and
 * every split point — closed under the product recurrence
 * T_j = 2 T_ceil(j/2) T_floor(j/2) - T_(j mod 2), and grouped by
 * dependence depth ceil(log2 j) (T_1 is depth 0): every index in level
 * k is a product of two indices from earlier levels.
 */
std::vector<std::vector<unsigned>>
chebyshevLevels(const std::vector<double> &coeffs, unsigned m)
{
    std::set<unsigned> need;
    std::function<void(unsigned)> require = [&](unsigned j) {
        if (j <= 1 || !need.insert(j).second)
            return;
        require((j + 1) / 2);
        require(j / 2);
    };
    std::function<void(const std::vector<double> &)> walk =
        [&](const std::vector<double> &b) {
            const std::size_t deg = b.size() - 1;
            if (deg < m) {
                for (std::size_t j = 1; j <= deg; ++j) {
                    if (std::abs(b[j]) > kChebZero)
                        require(static_cast<unsigned>(j));
                }
                return;
            }
            const unsigned g = chebSplit(deg, m);
            require(g);
            auto [q, r] = chebDivide(b, g);
            walk(q);
            walk(r);
        };
    walk(coeffs);

    std::vector<std::vector<unsigned>> levels;
    for (unsigned j : need) {
        const auto depth = static_cast<std::size_t>(std::bit_width(j - 1));
        if (levels.size() < depth)
            levels.resize(depth);
        levels[depth - 1].push_back(j);
    }
    return levels;
}


/**
 * Levels the Paterson–Stockmeyer evaluation of @p coeffs consumes,
 * mirroring Bootstrapper::evalMod's level arithmetic: T_j sits
 * ceil(log2 j) levels down, a leaf block one level below its deepest
 * term, a product one level below its deeper operand, and a sum at
 * its deeper operand. That assumes alignment only drops levels (the
 * operands' scales agree, as the chain's primes track the scale);
 * bootstrap() asserts the result.
 */
unsigned
chebyshevDepth(const std::vector<double> &coeffs, unsigned m)
{
    auto t_depth = [](std::size_t j) {
        return static_cast<unsigned>(std::bit_width(j - 1));
    };
    std::function<unsigned(const std::vector<double> &)> depth =
        [&](const std::vector<double> &b) -> unsigned {
        const std::size_t deg = b.size() - 1;
        if (deg < m) {
            unsigned d = 0;
            bool any = false;
            for (std::size_t j = 1; j <= deg; ++j) {
                if (std::abs(b[j]) > kChebZero) {
                    d = std::max(d, t_depth(j));
                    any = true;
                }
            }
            return any ? d + 1 : 0;
        }
        const unsigned g = chebSplit(deg, m);
        auto [q, r] = chebDivide(b, g);
        return std::max(std::max(depth(q), t_depth(g)) + 1, depth(r));
    };
    return depth(coeffs);
}

/**
 * Group the butterfly levels @p lens (block lengths, in application
 * order) into @p stages stages, earlier stages taking the extra
 * levels, and store each stage as its nonzero diagonals. Column k of
 * a stage is its levels applied to the unit vector e_k; a butterfly
 * pairs a reached slot with an unreached one, so the zeros are exact.
 */
std::vector<DftStage>
factorStages(std::size_t n, const std::vector<std::size_t> &lens,
             unsigned stages,
             const std::function<void(std::vector<Complex> &, std::size_t)>
                 &level)
{
    CL_ASSERT(stages >= 1 && stages <= lens.size(), "cannot factor a ",
              lens.size(), "-level special FFT into ", stages, " stages");
    std::vector<DftStage> out(stages);
    std::size_t next = 0;
    for (unsigned s = 0; s < stages; ++s) {
        const std::size_t r =
            lens.size() / stages + (s < lens.size() % stages ? 1 : 0);
        std::map<std::size_t, std::vector<Complex>> diags;
        for (std::size_t k = 0; k < n; ++k) {
            std::vector<Complex> col(n, Complex(0, 0));
            col[k] = Complex(1, 0);
            for (std::size_t l = next; l < next + r; ++l)
                level(col, lens[l]);
            for (std::size_t j = 0; j < n; ++j) {
                if (col[j] == Complex(0, 0))
                    continue;
                std::vector<Complex> &d = diags[(k + n - j) % n];
                if (d.empty())
                    d.assign(n, Complex(0, 0));
                d[j] = col[j];
            }
        }
        next += r;
        for (auto &[offset, d] : diags) {
            out[s].offsets.push_back(offset);
            out[s].diags.push_back(std::move(d));
        }
    }
    return out;
}

} // namespace

std::vector<DftStage>
coeffToSlotStages(const CkksEncoder &encoder, unsigned stages)
{
    const std::size_t n = encoder.slots();
    std::vector<std::size_t> lens;
    for (std::size_t len = n; len >= 2; len >>= 1)
        lens.push_back(len);
    std::vector<DftStage> out = factorStages(
        n, lens, stages, [&](std::vector<Complex> &v, std::size_t len) {
            encoder.fftSpecialInvLevel(v, len);
        });
    const double inv = 1.0 / static_cast<double>(n);
    for (auto &d : out[0].diags) {
        for (Complex &c : d)
            c *= inv;
    }
    return out;
}

std::vector<DftStage>
slotToCoeffStages(const CkksEncoder &encoder, unsigned stages)
{
    const std::size_t n = encoder.slots();
    std::vector<std::size_t> lens;
    for (std::size_t len = 2; len <= n; len <<= 1)
        lens.push_back(len);
    return factorStages(n, lens, stages,
                        [&](std::vector<Complex> &v, std::size_t len) {
                            encoder.fftSpecialLevel(v, len);
                        });
}

std::vector<double>
evalModCosine(unsigned k, const BootstrapShape &shape)
{
    const double a = 2.0 * M_PI * k;
    const double shrink =
        std::ldexp(1.0, -static_cast<int>(shape.doubleAngles));
    return chebyshevFit(
        [=](double u) { return std::cos((a * u - M_PI / 2) * shrink); },
        shape.chebDegree);
}

Bootstrapper::Bootstrapper(const CkksContext &ctx,
                           const CkksEncoder &encoder, KeyGenerator &keygen,
                           BootstrapParams params)
    : ctx_(ctx), encoder_(encoder), eval_(ctx), params_(params)
{
    static_assert(std::has_single_bit(kShape.babySteps),
                  "babySteps power of two");
    CL_ASSERT(ctx.params().secretHamming > 0 &&
                  ctx.params().secretHamming <= 2 * (params_.k - 2),
              "bootstrapping needs a sparse secret with ||s||_1 <= "
              "2(K-2); got h=",
              ctx.params().secretHamming, " for K=", params_.k);

    // --- EvalMod polynomial and the level budget. ---
    const std::vector<double> cheb = evalModCosine(params_.k, kShape);
    chebLevels_ = chebyshevLevels(cheb, kShape.babySteps);
    const unsigned poly_depth = chebyshevDepth(cheb, kShape.babySteps);
    buildPsTree(cheb);
    // The deepest basis level joins the leaf wave when no leaf reads
    // it (at the default shape, T_32 only feeds the root product).
    if (!chebLevels_.empty()) {
        bool leaf_reads_last = false;
        for (std::size_t i : psWaves_[0]) {
            for (const auto &[j, b] : psNodes_[i].terms) {
                for (unsigned k : chebLevels_.back())
                    leaf_reads_last |= j == k;
            }
        }
        if (!leaf_reads_last) {
            leafWaveBasis_ = std::move(chebLevels_.back());
            chebLevels_.pop_back();
        }
    }
    depthUsed_ = kShape.ctsStages + poly_depth + kShape.doubleAngles +
                 kShape.stcStages;
    if (depthUsed_ >= ctx.l()) {
        CL_FATAL("bootstrap shape needs ", depthUsed_, " levels (",
                 kShape.ctsStages, " CoeffToSlot + ", poly_depth,
                 " Chebyshev + ", kShape.doubleAngles, " double-angle + ",
                 kShape.stcStages, " SlotToCoeff) but the chain budget is ",
                 ctx.l() - 1, " (L = ", ctx.l(),
                 ", the output keeps level >= 1)");
    }

    // --- Factored CoeffToSlot / SlotToCoeff; rotation keys only for
    //     the offsets their diagonals sit at. ---
    transforms_ = {coeffToSlotStages(encoder_, kShape.ctsStages),
                   slotToCoeffStages(encoder_, kShape.stcStages)};
    std::set<int> steps;
    for (const auto &stages : transforms_) {
        for (const DftStage &st : stages) {
            for (std::size_t offset : st.offsets) {
                if (offset != 0)
                    steps.insert(static_cast<int>(offset));
            }
        }
    }

    // --- i in every slot at scale 1 is exactly the monomial X^(N/2). ---
    monomialI_ = encoder_.encode(
        std::vector<Complex>(ctx.slots(), Complex(0, 1)), 1.0, ctx.l());
    monomialI_.toNtt();

    // --- Keys: relinearization, conjugation, the stages' rotations. ---
    relin_ = keygen.genRelinKey();
    galois_ = keygen.genRotationKeys(std::vector<int>(steps.begin(),
                                                      steps.end()),
                                     /*conjugate=*/true);
}

void
Bootstrapper::alignPair(Ciphertext &a, Ciphertext &b) const
{
    if (std::abs(a.scale - b.scale) / b.scale > 1e-9) {
        // Correct the operand with more headroom (higher level).
        Ciphertext &c = a.level() >= b.level() ? a : b;
        Ciphertext &o = a.level() >= b.level() ? b : a;
        c = eval_.mulScalar(c, o.scale / c.scale);
        eval_.rescale(c);
        c.scale = o.scale;
    }
    const unsigned lvl = std::min(a.level(), b.level());
    eval_.levelDrop(a, lvl);
    eval_.levelDrop(b, lvl);
}

Ciphertext
Bootstrapper::mulI(const Ciphertext &ct) const
{
    return eval_.mulPlain(ct, monomialI_, 1.0);
}

Bootstrapper::DiagCache
Bootstrapper::buildDiagonals(const DftStage &st, unsigned level) const
{
    const double p_scale =
        static_cast<double>(ctx_.chain().modulus(level - 1));
    // Extended basis Q_level ∪ P, matching Evaluator::decompose for
    // the context-default digit size every hint here is built with.
    std::vector<unsigned> ext_idx = ctx_.dataIdx(level);
    for (unsigned i : ctx_.specialIdx())
        ext_idx.push_back(i);

    // The encoder reduces every tower independently, so the data
    // towers of an ext-basis plaintext equal the data-basis encoding.
    DiagCache dc(st.offsets.size());
    // Diagonals encode independently: each index writes only its own
    // slots, so the cache is the same at any worker count.
    parallelFor(0, st.offsets.size(), [&](std::size_t i) {
        RnsPoly pt = st.offsets[i] == 0
                         ? encoder_.encode(st.diags[i], p_scale, level)
                         : encoder_.encode(st.diags[i], p_scale, ext_idx);
        pt.toNtt();
        ctx_.ops().ntts += pt.towers();
        dc[i] = std::move(pt);
    });
    return dc;
}

const Bootstrapper::DiagCache &
Bootstrapper::diagonals(int which, std::size_t s, unsigned level) const
{
    // Serializes concurrent first builds of the same (stage, level)
    // entry; after warmup every call is a map lookup under the lock.
    // Returned references stay valid outside the lock because map
    // nodes are stable and an entry never changes once built.
    std::lock_guard<std::mutex> lock(diagMutex_);
    const auto key = std::make_tuple(which, s, level);
    auto it = diagCache_.find(key);
    if (it == diagCache_.end())
        it = diagCache_
                 .emplace(key, buildDiagonals(transforms_[which][s], level))
                 .first;
    return it->second;
}

Ciphertext
Bootstrapper::stageTransform(const Ciphertext &ct, int which,
                             std::size_t s) const
{
    const std::vector<std::size_t> &offsets = transforms_[which][s].offsets;
    const unsigned level = ct.level();
    const double p_scale =
        static_cast<double>(ct.c0.modulus(level - 1));
    OpCounter &ops = ctx_.ops();
    const DiagCache &dc = diagonals(which, s, level);

    // A stage has few diagonals (<= 2^(r+1) - 1 for r merged butterfly
    // levels), so every nonzero offset is a rotation of the input: the
    // BSGS baby dimension is the slot count and there is one unrotated
    // giant step. Offsets ascend, so only offsets[0] can be 0.
    const std::size_t first = offsets[0] == 0 ? 1 : 0;
    const std::size_t count = offsets.size();

    // Lift the digits of c1 once; every rotation reuses them. All
    // hints share the context-default digit size.
    KeySwitchDigits digits;
    if (first < count) {
        const unsigned alpha_ks = galois_.keys.begin()->second.alphaKs;
        digits = eval_.decompose(ct.c1, alpha_ks);
    }

    // Per-rotation precomputation: the keyswitch inner products stay
    // in the extended basis (k0/k1, still carrying the P factor) next
    // to the exact rotated c0, deferring the mod-down to the end of
    // the stage. The rotations are independent: each runs as one task
    // that writes only its own slot.
    std::vector<RnsPoly> k0(count), k1(count), c0rot(count);
    parallelFor(first, count, [&](std::size_t i) {
        const std::size_t gal =
            eval_.galoisFromSteps(static_cast<int>(offsets[i]));
        // Digit rotation fused into the inner product (tower-tiled
        // above Evaluator::kTileMinBytes).
        auto ip = eval_.innerProduct(digits, galois_.at(gal), gal);
        k0[i] = std::move(ip.first);
        k1[i] = std::move(ip.second);
        c0rot[i] = ct.c0.automorphism(gal);
        ops.automorphisms += level;
    });

    // Lazy accumulation: data-basis MACs for the exact parts (c0
    // rotations, the unrotated term) and ext-basis MACs for the
    // keyswitch products; one mod-down per component per stage instead
    // of one per rotation. Tower-major: one task per tower of
    // Q_level ∪ P runs every diagonal's MACs for that tower, in
    // diagonal order, while its accumulators stay in cache.
    const std::size_t ext = first < count ? digits.extIdx.size() : 0;
    const std::size_t n = ctx_.n();
    const u64 macs = (first == 1 ? 2 * level : 0) +
                     (count - first) * (level + 2 * ext);
    countMults(macs);
    countAdds(macs);
    countMemPass(macs, macs * 24 * n);
    ops.polyMults += macs;
    ops.polyAdds += macs;
    Ciphertext acc;
    acc.c0 = RnsPoly(RnsPoly::Uninit{}, ctx_.chain(), ctx_.dataIdx(level),
                     true);
    acc.c1 = RnsPoly(RnsPoly::Uninit{}, ctx_.chain(), ctx_.dataIdx(level),
                     true);
    RnsPoly ext0, ext1;
    if (ext > 0) {
        ext0 = RnsPoly(RnsPoly::Uninit{}, ctx_.chain(), digits.extIdx, true);
        ext1 = RnsPoly(RnsPoly::Uninit{}, ctx_.chain(), digits.extIdx, true);
    }
    const KernelTable &K = kernels();
    parallelFor(0, std::max<std::size_t>(level, ext), [&](std::size_t t) {
        const u64 q = ctx_.chain().modulus(t < level ? t : digits.extIdx[t]);
        // sum += dc[i] * x on tower t; the diagonal's tower t is the
        // same chain index in either basis (the data towers lead).
        auto mac = [&](u64 *sum, std::size_t i, const RnsPoly &x) {
            K.mulAddModVec(sum, dc[i].residue(t).data(),
                           x.residue(t).data(), n, q);
        };
        if (t < level) {
            u64 *a0 = acc.c0.residue(t).data();
            u64 *a1 = acc.c1.residue(t).data();
            std::fill_n(a0, n, 0);
            std::fill_n(a1, n, 0);
            if (first == 1) {
                mac(a0, 0, ct.c0);
                mac(a1, 0, ct.c1);
            }
            for (std::size_t i = first; i < count; ++i)
                mac(a0, i, c0rot[i]);
        }
        if (t < ext) {
            u64 *e0 = ext0.residue(t).data();
            u64 *e1 = ext1.residue(t).data();
            std::fill_n(e0, n, 0);
            std::fill_n(e1, n, 0);
            for (std::size_t i = first; i < count; ++i) {
                mac(e0, i, k0[i]);
                mac(e1, i, k1[i]);
            }
        }
    });
    // The rotations are consumed: release them before the mod-downs.
    digits = {};
    k0 = {};
    k1 = {};
    c0rot = {};
    if (ext > 0) {
        acc.c0 += eval_.modDown(ext0);
        acc.c1 += eval_.modDown(ext1);
        ops.polyAdds += 2 * level;
    }
    acc.scale = ct.scale * p_scale;
    eval_.rescale(acc);
    return acc;
}

Ciphertext
Bootstrapper::linearTransform(const Ciphertext &ct, int which) const
{
    Ciphertext out = ct;
    for (std::size_t s = 0; s < transforms_[which].size(); ++s)
        out = stageTransform(out, which, s);
    return out;
}

Ciphertext
Bootstrapper::applyCoeffToSlot(const Ciphertext &ct,
                               LinearTransformMode) const
{
    return linearTransform(ct, 0);
}

Ciphertext
Bootstrapper::applySlotToCoeff(const Ciphertext &ct,
                               LinearTransformMode) const
{
    return linearTransform(ct, 1);
}

std::pair<std::size_t, unsigned>
Bootstrapper::buildPsTree(const std::vector<double> &coeffs)
{
    PsNode node;
    unsigned height = 0;
    if (coeffs.size() - 1 < kShape.babySteps) {
        for (std::size_t j = 1; j < coeffs.size(); ++j) {
            if (std::abs(coeffs[j]) > kChebZero)
                node.terms.emplace_back(static_cast<unsigned>(j),
                                        coeffs[j]);
        }
        node.b0 = coeffs[0];
    } else {
        node.split = chebSplit(coeffs.size() - 1, kShape.babySteps);
        auto [q, r] = chebDivide(coeffs, node.split);
        unsigned hq = 0, hr = 0;
        std::tie(node.quot, hq) = buildPsTree(q);
        std::tie(node.rem, hr) = buildPsTree(r);
        height = std::max(hq, hr) + 1;
    }
    if (psWaves_.size() <= height)
        psWaves_.resize(height + 1);
    psWaves_[height].push_back(psNodes_.size());
    psNodes_.push_back(std::move(node));
    return {psNodes_.size() - 1, height};
}

const RnsPoly &
Bootstrapper::constantPlain(double value, double scale, unsigned level) const
{
    std::lock_guard<std::mutex> lock(constMutex_);
    const auto key = std::make_tuple(value, scale, level);
    auto it = constCache_.find(key);
    if (it == constCache_.end()) {
        RnsPoly pt = encoder_.encode(
            std::vector<Complex>(ctx_.slots(), Complex(value, 0)), scale,
            level);
        pt.toNtt();
        ctx_.ops().ntts += pt.towers();
        it = constCache_.emplace(key, std::move(pt)).first;
    }
    return it->second;
}

Ciphertext
Bootstrapper::doubleAngle(const Ciphertext &y) const
{
    Ciphertext sq = eval_.square(y, relin_);
    eval_.rescale(sq);
    sq = eval_.add(sq, sq);
    return eval_.subPlain(sq, constantPlain(1.0, sq.scale, sq.level()));
}

Ciphertext
Bootstrapper::chebProduct(const std::vector<Ciphertext> &t, unsigned j) const
{
    const unsigned a = (j + 1) / 2;
    const unsigned b = j / 2;
    if (a == b)
        return doubleAngle(t[a]);
    // a - b == 1: 2 T_a T_b - T_1, T_1 aligned to the product.
    Ciphertext ta = t[a];
    Ciphertext tb = t[b];
    const unsigned lvl = std::min(ta.level(), tb.level());
    eval_.levelDrop(ta, lvl);
    eval_.levelDrop(tb, lvl);
    Ciphertext prod = eval_.multiply(ta, tb, relin_);
    eval_.rescale(prod);
    prod = eval_.add(prod, prod);
    Ciphertext t1 = t[1];
    alignPair(prod, t1);
    return eval_.sub(prod, t1);
}

Ciphertext
Bootstrapper::evalLeaf(const PsNode &leaf,
                       const std::vector<Ciphertext> &t) const
{
    auto get_t = [&](unsigned j) -> const Ciphertext & {
        CL_ASSERT(j < t.size() && t[j].level() > 0, "Chebyshev index ", j,
                  " outside the basis plan");
        return t[j];
    };
    const Ciphertext &x = t[1];
    if (leaf.terms.empty()) {
        // Constant block: a zero ciphertext at x's level and scale,
        // plus b_0.
        Ciphertext z;
        z.c0 = RnsPoly(ctx_.chain(), ctx_.dataIdx(x.level()), true);
        z.c1 = RnsPoly(ctx_.chain(), ctx_.dataIdx(x.level()), true);
        z.scale = x.scale;
        return eval_.addPlain(z,
                              constantPlain(leaf.b0, z.scale, z.level()));
    }

    // Every term is raised to one target scale by an integer scalar
    // (no rescale, no level), summed, and rescaled once.
    unsigned lvl = x.level();
    for (const auto &term : leaf.terms)
        lvl = std::min(lvl, get_t(term.first).level());
    const double q_last =
        static_cast<double>(ctx_.chain().modulus(lvl - 1));
    const double target = get_t(leaf.terms[0].first).scale * q_last;
    std::vector<long long> weights;
    for (const auto &[j, b] : leaf.terms) {
        const double w = b * target / t[j].scale;
        CL_ASSERT(std::abs(w) < 9e18, "scalar overflow");
        weights.push_back(std::llround(w));
    }

    // Tower-major: one task per tower multiplies each term by its
    // weight and adds it into the sum, in term order, on both
    // polynomials. The terms are dropped to lvl by reading only their
    // first lvl towers.
    const std::size_t n = ctx_.n();
    const u64 terms = leaf.terms.size();
    countMults(2 * lvl * terms);
    countAdds(2 * lvl * (terms - 1));
    countMemPass(2 * lvl * (2 * terms - 1),
                 u64{2} * lvl * (32 * terms - 16) * n);
    ctx_.ops().polyAdds += 2 * lvl * (terms - 1);
    Ciphertext acc;
    acc.c0 = RnsPoly(RnsPoly::Uninit{}, ctx_.chain(), ctx_.dataIdx(lvl), true);
    acc.c1 = RnsPoly(RnsPoly::Uninit{}, ctx_.chain(), ctx_.dataIdx(lvl), true);
    acc.scale = target;
    const KernelTable &K = kernels();
    parallelFor(0, lvl, [&](std::size_t tw) {
        static thread_local std::vector<u64> term;
        term.resize(n);
        const u64 q = ctx_.chain().modulus(tw);
        for (int c = 0; c < 2; ++c) {
            u64 *sum = (c == 0 ? acc.c0 : acc.c1).residue(tw).data();
            for (std::size_t k = 0; k < weights.size(); ++k) {
                const Ciphertext &tj = t[leaf.terms[k].first];
                const u64 *src = (c == 0 ? tj.c0 : tj.c1).residue(tw).data();
                const ShoupMul w(reduceSigned(weights[k], q), q);
                K.mulModShoupVec(k == 0 ? sum : term.data(), src, n, w.w,
                                 w.wPrec, q);
                if (k > 0)
                    K.addModVec(sum, term.data(), n, q);
            }
        }
    });
    eval_.rescale(acc); // target / q_last == the first term's scale
    if (std::abs(leaf.b0) > kChebZero)
        acc = eval_.addPlain(
            acc, constantPlain(leaf.b0, acc.scale, acc.level()));
    return acc;
}

std::array<Ciphertext, 2>
Bootstrapper::evalMod(const Ciphertext &u, const Ciphertext &v) const
{
    // Chebyshev ciphertexts T_j(x) of both halves, one preallocated
    // slot per index. Every wave is one parallel region over (index,
    // half); a task reads only results of earlier waves and writes
    // only its own slot, so the bytes do not depend on the schedule.
    unsigned top = 1;
    for (const auto &lvl : chebLevels_)
        top = std::max(top, lvl.back());
    for (unsigned j : leafWaveBasis_)
        top = std::max(top, j);
    std::array<std::vector<Ciphertext>, 2> basis;
    basis[0].resize(top + 1);
    basis[1].resize(top + 1);
    basis[0][1] = u;
    basis[1][1] = v;
    for (const auto &lvl : chebLevels_) {
        parallelFor(0, 2 * lvl.size(), [&](std::size_t i) {
            basis[i % 2][lvl[i / 2]] = chebProduct(basis[i % 2], lvl[i / 2]);
        });
    }

    // The leaves, with the basis level no leaf reads: the (costlier)
    // products first, so they are claimed first.
    std::array<std::vector<Ciphertext>, 2> node;
    node[0].resize(psNodes_.size());
    node[1].resize(psNodes_.size());
    const std::vector<std::size_t> &leaves = psWaves_[0];
    const std::size_t products = leafWaveBasis_.size();
    parallelFor(0, 2 * (products + leaves.size()), [&](std::size_t i) {
        std::vector<Ciphertext> &t = basis[i % 2];
        if (i / 2 < products) {
            const unsigned j = leafWaveBasis_[i / 2];
            t[j] = chebProduct(t, j);
        } else {
            const std::size_t k = leaves[i / 2 - products];
            node[i % 2][k] = evalLeaf(psNodes_[k], t);
        }
    });
    // Only the split points are read from here on.
    for (auto &t : basis) {
        for (unsigned j = 0; j < t.size(); ++j) {
            bool split = false;
            for (const PsNode &nd : psNodes_)
                split |= nd.split == j;
            if (!split)
                t[j] = Ciphertext{};
        }
    }

    // Internal nodes by height: q * T_g + r, freeing both children.
    for (std::size_t h = 1; h < psWaves_.size(); ++h) {
        const std::vector<std::size_t> &wave = psWaves_[h];
        parallelFor(0, 2 * wave.size(), [&](std::size_t i) {
            std::vector<Ciphertext> &res = node[i % 2];
            const PsNode &nd = psNodes_[wave[i / 2]];
            Ciphertext cq = std::move(res[nd.quot]);
            Ciphertext cr = std::move(res[nd.rem]);
            CL_ASSERT(basis[i % 2][nd.split].level() > 0, "Chebyshev index ",
                      nd.split, " outside the basis plan");
            Ciphertext tg = basis[i % 2][nd.split];
            const unsigned lvl = std::min(cq.level(), tg.level());
            eval_.levelDrop(cq, lvl);
            eval_.levelDrop(tg, lvl);
            Ciphertext prod = eval_.multiply(cq, tg, relin_);
            eval_.rescale(prod);
            alignPair(prod, cr);
            res[wave[i / 2]] = eval_.add(prod, cr);
        });
    }
    basis = {};

    // y <- 2y^2 - 1 per double angle, both halves at once.
    std::array<Ciphertext, 2> out = {std::move(node[0].back()),
                                     std::move(node[1].back())};
    for (unsigned r = 0; r < kShape.doubleAngles; ++r) {
        parallelFor(0, 2,
                    [&](std::size_t h) { out[h] = doubleAngle(out[h]); });
    }
    return out;
}

Ciphertext
Bootstrapper::bootstrap(const Ciphertext &ct) const
{
    CL_ASSERT(ct.level() >= 1, "nothing to bootstrap");
    const unsigned l_top = ctx_.l();
    CL_ASSERT(ct.level() < l_top, "ciphertext already at the top");
    const double d_app = ct.scale;
    const double q0 = static_cast<double>(ctx_.chain().modulus(0));

    // 1. ModRaise: Dec becomes m + q0*k over the full chain.
    Ciphertext raised = eval_.modRaise(ct, l_top);

    // 2. CoeffToSlot (slots in bit-reversed order), then split the
    //    packed real/imag coefficient halves with a conjugation.
    Ciphertext t = linearTransform(raised, 0);
    Ciphertext tc = eval_.conjugate(t, galois_);
    Ciphertext u = eval_.add(t, tc);        // slots: 2*x1 (x = m+q0 k)
    Ciphertext v = mulI(eval_.sub(tc, t));  // slots: i * -2i*x2 = 2*x2

    // Reinterpret scales so slots read as x/(K*q0) in [-1, 1].
    const double s_norm = 2.0 * params_.k * q0 * (t.scale / d_app);
    u.scale = s_norm;
    v.scale = s_norm;

    // 3. EvalMod on both halves: slots become sin(2 pi x / q0).
    auto [eu, ev] = evalMod(u, v);

    // 4. Recombine w = eu + i*ev, reading sin/(2 pi) ~ m/q0, then
    //    SlotToCoeff (which consumes the bit-reversed order).
    Ciphertext evi = mulI(ev);
    alignPair(eu, evi);
    Ciphertext w = eval_.add(eu, evi);
    w.scale *= 2.0 * M_PI;
    Ciphertext out = linearTransform(w, 1);

    // Slots now hold z(m)/q0; re-declare the scale so they read as
    // z(m)/d_app, the original message.
    out.scale = out.scale * d_app / q0;
    CL_ASSERT(l_top - out.level() == depthUsed_, "bootstrap consumed ",
              l_top - out.level(), " levels, the shape predicts ",
              depthUsed_);
    return out;
}

} // namespace cl
