#include "bootstrap.h"

#include <bit>
#include <cmath>
#include <set>

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

} // namespace

Bootstrapper::Bootstrapper(const CkksContext &ctx,
                           const CkksEncoder &encoder, KeyGenerator &keygen,
                           BootstrapParams params)
    : ctx_(ctx), encoder_(encoder), eval_(ctx), params_(params)
{
    const std::size_t n = ctx.slots();
    CL_ASSERT(isPowerOfTwo(params_.babySteps), "babySteps power of two");
    CL_ASSERT(ctx.params().secretHamming > 0 &&
                  ctx.params().secretHamming <= 2 * (params_.k - 2),
              "bootstrapping needs a sparse secret with ||s||_1 <= "
              "2(K-2); got h=",
              ctx.params().secretHamming, " for K=", params_.k);

    // --- CoeffToSlot / SlotToCoeff matrices, probed directly from
    //     the encoder's special FFT so slot ordering matches. ---
    coeffToSlot_.assign(n, std::vector<Complex>(n));
    slotToCoeff_.assign(n, std::vector<Complex>(n));
    for (std::size_t k = 0; k < n; ++k) {
        std::vector<Complex> e(n, Complex(0, 0));
        e[k] = Complex(1, 0);
        auto inv = e;
        encoder_.fftSpecialInv(inv); // column k of the inverse map
        auto fwd = e;
        encoder_.fftSpecial(fwd); // column k of the forward map
        for (std::size_t j = 0; j < n; ++j) {
            coeffToSlot_[j][k] = inv[j];
            slotToCoeff_[j][k] = fwd[j];
        }
    }

    // --- EvalMod polynomial: (1/2pi) sin(2 pi K u) on [-1, 1]. ---
    const double a = 2.0 * M_PI * params_.k;
    chebCoeffs_ = chebyshevFit(
        [a](double u) { return std::sin(a * u) / (2.0 * M_PI); },
        params_.chebDegree);
    chebLevels_ = chebyshevLevels(chebCoeffs_, params_.babySteps);

    // --- Keys: relinearization, conjugation, BSGS rotations. ---
    relin_ = keygen.genRelinKey();
    ltN1_ = params_.ltBabySteps;
    if (ltN1_ == 0) {
        // Auto split: 4x wider than the square root. Hoisted baby
        // rotations are cheap (no digit lift; under HoistedLazy no
        // mod-down either), so trading giant steps for baby steps
        // cuts the expensive full keyswitches and deferred mod-downs.
        unsigned sq = 1;
        while (static_cast<std::size_t>(sq) * sq < n)
            sq <<= 1;
        ltN1_ = std::min<unsigned>(static_cast<unsigned>(n), 4 * sq);
    }
    CL_ASSERT(isPowerOfTwo(ltN1_), "ltBabySteps power of two");
    const unsigned n1 = std::min<unsigned>(ltN1_, static_cast<unsigned>(n));
    ltN1_ = n1;
    const unsigned n2 =
        static_cast<unsigned>(ceilDiv(n, n1));
    std::vector<int> steps;
    for (unsigned b = 1; b < n1; ++b)
        steps.push_back(static_cast<int>(b));
    for (unsigned g = 1; g < n2; ++g)
        steps.push_back(static_cast<int>(g * n1));
    galois_ = keygen.genRotationKeys(steps, /*conjugate=*/true);
}

Ciphertext
Bootstrapper::alignTo(const Ciphertext &ct, unsigned level,
                      double scale) const
{
    Ciphertext r = ct;
    const double rel = std::abs(r.scale - scale) / scale;
    if (rel > 1e-9) {
        CL_ASSERT(r.level() > level,
                  "no spare level for scale alignment at level ",
                  r.level());
        r = eval_.mulScalar(r, scale / r.scale);
        eval_.rescale(r);
        r.scale = scale; // absorb the 2^-50 rounding mismatch
    }
    eval_.levelDrop(r, level);
    return r;
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
Bootstrapper::mulConst(const Ciphertext &ct, Complex c) const
{
    const std::size_t n = ctx_.slots();
    const double p_scale =
        static_cast<double>(ct.c0.modulus(ct.level() - 1));
    std::vector<Complex> v(n, c);
    RnsPoly pt = encoder_.encode(v, p_scale, ct.level());
    Ciphertext r = eval_.mulPlain(ct, pt, p_scale);
    eval_.rescale(r);
    return r;
}

std::vector<Complex>
Bootstrapper::rotatedDiagonal(const Matrix &m, std::size_t d) const
{
    const std::size_t n = ctx_.slots();
    const unsigned n1 = ltN1_;
    // Diagonal d of M, pre-rotated by -g*n1 for the BSGS giant-step
    // rotation that follows (g = d / n1).
    const std::size_t rot = (d / n1) * n1 % n;
    std::vector<Complex> diag(n);
    for (std::size_t j = 0; j < n; ++j) {
        const std::size_t jj = (j + n - rot) % n;
        diag[j] = m[jj][(jj + d) % n];
    }
    return diag;
}

Bootstrapper::DiagCache
Bootstrapper::buildDiagonals(const Matrix &m, unsigned level,
                             bool need_ext) const
{
    const std::size_t n = ctx_.slots();
    const double p_scale =
        static_cast<double>(ctx_.chain().modulus(level - 1));
    DiagCache dc;
    dc.nonzero.assign(n, 0);
    dc.ptData.resize(n);

    // Diagonals encode independently: each index writes only its own
    // slot, so the cache is the same at any worker count.
    parallelFor(0, n, [&](std::size_t d) {
        const std::vector<Complex> diag = rotatedDiagonal(m, d);
        bool nonzero = false;
        for (const Complex &c : diag)
            nonzero |= std::abs(c) > 1e-14;
        if (!nonzero)
            return;
        dc.nonzero[d] = 1;
        RnsPoly pt = encoder_.encode(diag, p_scale, level);
        pt.toNtt();
        ctx_.ops().ntts += pt.towers();
        dc.ptData[d] = std::move(pt);
    });
    if (need_ext)
        addExtDiagonals(m, level, dc);
    return dc;
}

void
Bootstrapper::addExtDiagonals(const Matrix &m, unsigned level,
                              DiagCache &dc) const
{
    const std::size_t n = ctx_.slots();
    const double p_scale =
        static_cast<double>(ctx_.chain().modulus(level - 1));
    // Extended basis Q_level ∪ P, matching Evaluator::decompose for
    // the context-default digit size every hint here is built with.
    std::vector<unsigned> ext_idx = ctx_.dataIdx(level);
    for (unsigned i : ctx_.specialIdx())
        ext_idx.push_back(i);

    dc.ptExt.resize(n);
    parallelFor(0, n, [&](std::size_t d) {
        if (!dc.nonzero[d])
            return;
        RnsPoly pe = encoder_.encode(rotatedDiagonal(m, d), p_scale,
                                     ext_idx);
        pe.toNtt();
        ctx_.ops().ntts += pe.towers();
        dc.ptExt[d] = std::move(pe);
    });
    dc.hasExt = true;
}

const Bootstrapper::DiagCache &
Bootstrapper::diagonals(const Matrix &m, int which, unsigned level,
                        bool need_ext) const
{
    // Serializes concurrent first builds of the same (matrix, level)
    // entry; after warmup every call is a map lookup under the lock.
    // Returned references stay valid outside the lock because map
    // nodes are stable and an entry's nonzero/ptData never change
    // once built: a need_ext caller that finds an entry without
    // ext-basis plaintexts fills ptExt in place, which no reader of
    // the data-basis plaintexts touches, and only then sets hasExt.
    std::lock_guard<std::mutex> lock(diagMutex_);
    const auto key = std::make_pair(which, level);
    auto it = diagCache_.find(key);
    if (it == diagCache_.end())
        it = diagCache_.emplace(key, buildDiagonals(m, level, need_ext))
                 .first;
    else if (need_ext && !it->second.hasExt)
        addExtDiagonals(m, level, it->second);
    return it->second;
}

Ciphertext
Bootstrapper::linearTransform(const Ciphertext &ct, const Matrix &m,
                              int which, LinearTransformMode mode) const
{
    const std::size_t n = ctx_.slots();
    const unsigned n1 = ltN1_;
    const unsigned n2 = static_cast<unsigned>(ceilDiv(n, n1));
    const unsigned level = ct.level();
    const double p_scale =
        static_cast<double>(ct.c0.modulus(level - 1));
    const bool lazy = mode == LinearTransformMode::HoistedLazy;
    OpCounter &ops = ctx_.ops();

    DiagCache local;
    const DiagCache *dc;
    if (params_.cacheDiagonals) {
        dc = &diagonals(m, which, level, lazy);
    } else {
        local = buildDiagonals(m, level, lazy);
        dc = &local;
    }

    // Which baby offsets carry at least one nonzero diagonal.
    std::vector<char> baby_used(n1, 0);
    for (std::size_t d = 0; d < n; ++d) {
        if (dc->nonzero[d])
            baby_used[d % n1] = 1;
    }
    bool any_rotated_baby = false;
    for (unsigned b = 1; b < n1; ++b)
        any_rotated_baby |= baby_used[b];

    // Hoisted modes: lift the digits of c1 once; every baby rotation
    // reuses them. All hints share the context-default digit size.
    KeySwitchDigits digits;
    if (mode != LinearTransformMode::Naive && any_rotated_baby) {
        const unsigned alpha_ks = galois_.keys.begin()->second.alphaKs;
        digits = eval_.decompose(ct.c1, alpha_ks);
    }

    // Per-baby precomputation. Naive/HoistedEager materialize rotated
    // ciphertexts; HoistedLazy keeps the keyswitch inner products in
    // the extended basis (k0/k1, still carrying the P factor) plus the
    // exact rotated c0, deferring every mod-down to the giant steps.
    // The baby rotations are independent: each runs as one task that
    // writes only its own slot.
    std::vector<Ciphertext> baby;
    std::vector<RnsPoly> k0(n1), k1(n1), c0rot(n1);
    if (!lazy) {
        baby.resize(n1);
        baby[0] = ct;
    }
    parallelFor(1, n1, [&](std::size_t b) {
        if (!baby_used[b])
            return;
        const std::size_t gal =
            eval_.galoisFromSteps(static_cast<int>(b));
        switch (mode) {
        case LinearTransformMode::Naive:
            baby[b] = eval_.rotate(ct, static_cast<int>(b), galois_);
            break;
        case LinearTransformMode::HoistedEager:
            baby[b] = eval_.rotateByGaloisHoisted(ct, gal,
                                                  galois_.at(gal), digits);
            break;
        case LinearTransformMode::HoistedLazy: {
            // Digit rotation fused into the inner product (tower-tiled
            // under CL_FUSE; composed sequence otherwise).
            auto ip = eval_.innerProduct(digits, galois_.at(gal), gal);
            k0[b] = std::move(ip.first);
            k1[b] = std::move(ip.second);
            c0rot[b] = ct.c0.automorphism(gal);
            ops.automorphisms += level;
            break;
        }
        }
    });

    // Giant steps are independent too: each builds its inner sum (and
    // under HoistedLazy its deferred mod-down pair) and its giant
    // rotation into its own slot; the slots are summed in g order.
    std::vector<Ciphertext> giant(n2);
    std::vector<char> giant_used(n2, 0);
    parallelFor(0, n2, [&](std::size_t g) {
        Ciphertext inner;
        bool inner_first = true;
        if (!lazy) {
            for (unsigned b = 0; b < n1; ++b) {
                const std::size_t d = g * n1 + b;
                if (d >= n)
                    break;
                if (!dc->nonzero[d])
                    continue;
                Ciphertext term =
                    eval_.mulPlain(baby[b], dc->ptData[d], p_scale);
                inner = inner_first ? term : eval_.add(inner, term);
                inner_first = false;
            }
        } else {
            // Lazy accumulation: data-basis MACs for the exact parts
            // (c0 rotations, the unrotated b = 0 term) and ext-basis
            // MACs for the keyswitch products; one mod-down per
            // component per giant step instead of one per rotation.
            RnsPoly ext0, ext1;
            bool ext_first = true;
            for (unsigned b = 0; b < n1; ++b) {
                const std::size_t d = g * n1 + b;
                if (d >= n)
                    break;
                if (!dc->nonzero[d])
                    continue;
                if (inner_first) {
                    inner.c0 =
                        RnsPoly(ctx_.chain(), ctx_.dataIdx(level), true);
                    inner.c1 =
                        RnsPoly(ctx_.chain(), ctx_.dataIdx(level), true);
                    inner_first = false;
                }
                if (b == 0) {
                    inner.c0.addMulAssign(dc->ptData[d], ct.c0);
                    inner.c1.addMulAssign(dc->ptData[d], ct.c1);
                    ops.polyMults += 2 * level;
                    ops.polyAdds += 2 * level;
                } else {
                    if (ext_first) {
                        ext0 = RnsPoly(ctx_.chain(), digits.extIdx, true);
                        ext1 = RnsPoly(ctx_.chain(), digits.extIdx, true);
                        ext_first = false;
                    }
                    inner.c0.addMulAssign(dc->ptData[d], c0rot[b]);
                    ext0.addMulAssign(dc->ptExt[d], k0[b]);
                    ext1.addMulAssign(dc->ptExt[d], k1[b]);
                    ops.polyMults += level + 2 * digits.extIdx.size();
                    ops.polyAdds += level + 2 * digits.extIdx.size();
                }
            }
            if (!inner_first) {
                if (!ext_first) {
                    inner.c0 += eval_.modDown(ext0);
                    inner.c1 += eval_.modDown(ext1);
                    ops.polyAdds += 2 * level;
                }
                inner.scale = ct.scale * p_scale;
            }
        }
        if (inner_first)
            return;
        if (g > 0)
            inner = eval_.rotate(inner, static_cast<int>(g * n1), galois_);
        giant[g] = std::move(inner);
        giant_used[g] = 1;
    });

    Ciphertext acc;
    bool first = true;
    for (unsigned g = 0; g < n2; ++g) {
        if (!giant_used[g])
            continue;
        acc = first ? std::move(giant[g]) : eval_.add(acc, giant[g]);
        first = false;
    }
    CL_ASSERT(!first, "linear transform with all-zero matrix");
    eval_.rescale(acc);
    return acc;
}

Ciphertext
Bootstrapper::applyCoeffToSlot(const Ciphertext &ct,
                               LinearTransformMode mode) const
{
    return linearTransform(ct, coeffToSlot_, 0, mode);
}

Ciphertext
Bootstrapper::applySlotToCoeff(const Ciphertext &ct,
                               LinearTransformMode mode) const
{
    return linearTransform(ct, slotToCoeff_, 1, mode);
}

std::array<Ciphertext, 2>
Bootstrapper::evalChebyshev(const Ciphertext &u, const Ciphertext &v) const
{
    // Chebyshev ciphertexts T_j(x) of both halves, one preallocated
    // slot per index, built with the depth-logarithmic recurrence
    // T_{a+b} = 2 T_a T_b - T_{|a-b|}. Each dependence level is one
    // parallel region over (half, index): a task reads only slots of
    // earlier levels and writes only its own.
    unsigned top = 1;
    for (const auto &lvl : chebLevels_)
        top = std::max(top, lvl.back());
    std::array<std::vector<Ciphertext>, 2> basis;
    basis[0].resize(top + 1);
    basis[1].resize(top + 1);
    basis[0][1] = u;
    basis[1][1] = v;

    auto product = [&](const std::vector<Ciphertext> &t, unsigned j) {
        const unsigned a = (j + 1) / 2;
        const unsigned b = j / 2;
        Ciphertext ta = t[a];
        Ciphertext tb = t[b];
        const unsigned lvl = std::min(ta.level(), tb.level());
        eval_.levelDrop(ta, lvl);
        eval_.levelDrop(tb, lvl);
        Ciphertext prod = eval_.multiply(ta, tb, relin_);
        eval_.rescale(prod);
        prod = eval_.add(prod, prod); // 2 T_a T_b
        if (a == b) {
            // T_{2a} = 2 T_a^2 - 1.
            std::vector<Complex> one(ctx_.slots(), Complex(1, 0));
            prod = eval_.subPlain(
                prod, encoder_.encode(one, prod.scale, prod.level()));
        } else {
            // a - b == 1: subtract T_1 aligned to the product.
            Ciphertext t1 = t[1];
            alignPair(prod, t1);
            prod = eval_.sub(prod, t1);
        }
        return prod;
    };
    for (const auto &lvl : chebLevels_) {
        parallelFor(0, 2 * lvl.size(), [&](std::size_t i) {
            std::vector<Ciphertext> &t = basis[i % 2];
            const unsigned j = lvl[i / 2];
            t[j] = product(t, j);
        });
    }

    const unsigned m = params_.babySteps;

    // Multiply a ciphertext's slots by a real factor while declaring
    // an explicit output scale — one integer scalar multiply, no
    // rescale, no level consumed. Used to give every term of a
    // linear combination an identical (level, scale) pair exactly.
    auto mul_scalar_raw = [&](const Ciphertext &ct, double factor,
                              double target_scale) {
        Ciphertext r = ct;
        const double w_real = factor * target_scale / ct.scale;
        const auto w = static_cast<long long>(std::llround(w_real));
        CL_ASSERT(std::abs(w_real) < 9e18, "scalar overflow");
        for (std::size_t t = 0; t < r.c0.towers(); ++t) {
            const u64 q = r.c0.modulus(t);
            const u64 wq = reduceSigned(w, q);
            r.c0.mulScalarTower(t, wq);
            r.c1.mulScalarTower(t, wq);
        }
        r.scale = target_scale;
        return r;
    };

    // Paterson–Stockmeyer recursion over the finished basis @p t.
    std::function<Ciphertext(const std::vector<double> &,
                             const std::vector<Ciphertext> &)>
        eval_rec = [&](const std::vector<double> &b,
                       const std::vector<Ciphertext> &t) -> Ciphertext {
        auto get_t = [&](unsigned j) -> const Ciphertext & {
            CL_ASSERT(j < t.size() && t[j].level() > 0,
                      "Chebyshev index ", j, " outside the basis plan");
            return t[j];
        };
        const Ciphertext &x = t[1];
        const std::size_t deg = b.size() - 1;
        if (deg < m) {
            // Direct combination sum_j b_j T_j: every term is raised
            // to a shared target scale with one raw scalar multiply,
            // summed, and rescaled once.
            std::vector<unsigned> idx;
            for (std::size_t j = 1; j <= deg; ++j) {
                if (std::abs(b[j]) > kChebZero)
                    idx.push_back(static_cast<unsigned>(j));
            }
            if (idx.empty()) {
                // Constant block: zero out a copy of x, add b[0].
                Ciphertext z = mul_scalar_raw(x, 0.0, x.scale);
                std::vector<Complex> c0(ctx_.slots(),
                                        Complex(b[0], 0));
                return eval_.addPlain(
                    z, encoder_.encode(c0, z.scale, z.level()));
            }
            unsigned lvl = x.level();
            for (unsigned j : idx)
                lvl = std::min(lvl, get_t(j).level());
            const double q_last = static_cast<double>(
                ctx_.chain().modulus(lvl - 1));
            const double ref = get_t(idx[0]).scale;
            const double target = ref * q_last;

            Ciphertext acc;
            bool first = true;
            for (unsigned j : idx) {
                Ciphertext tj = get_t(j);
                eval_.levelDrop(tj, lvl);
                tj = mul_scalar_raw(tj, b[j], target);
                acc = first ? std::move(tj) : eval_.add(acc, tj);
                first = false;
            }
            eval_.rescale(acc); // target / q_last == ref
            if (std::abs(b[0]) > kChebZero) {
                std::vector<Complex> c0(ctx_.slots(), Complex(b[0], 0));
                acc = eval_.addPlain(
                    acc, encoder_.encode(c0, acc.scale, acc.level()));
            }
            return acc;
        }
        const unsigned g = chebSplit(deg, m);
        auto [q, r] = chebDivide(b, g);
        Ciphertext cq = eval_rec(q, t);
        Ciphertext cr = eval_rec(r, t);
        Ciphertext tg = get_t(g);
        const unsigned lvl = std::min(cq.level(), tg.level());
        eval_.levelDrop(cq, lvl);
        eval_.levelDrop(tg, lvl);
        Ciphertext prod = eval_.multiply(cq, tg, relin_);
        eval_.rescale(prod);
        alignPair(prod, cr);
        return eval_.add(prod, cr);
    };

    std::array<Ciphertext, 2> out;
    parallelFor(0, 2, [&](std::size_t h) {
        out[h] = eval_rec(chebCoeffs_, basis[h]);
    });
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

    // 2. CoeffToSlot, then split the packed real/imag coefficient
    //    halves with a conjugation.
    Ciphertext t =
        linearTransform(raised, coeffToSlot_, 0, params_.ltMode);
    Ciphertext tc = eval_.conjugate(t, galois_);
    Ciphertext u = eval_.add(t, tc);        // slots: 2*x1 (x = m+q0 k)
    Ciphertext vr = eval_.sub(t, tc);       // slots: 2i*x2
    Ciphertext v = mulConst(vr, Complex(0, -1)); // slots: 2*x2
    eval_.levelDrop(u, v.level());

    // Reinterpret scales so slots read as x/(K*q0) in [-1, 1].
    const double s_norm = 2.0 * params_.k * q0 * (t.scale / d_app);
    u.scale = s_norm;
    v.scale = s_norm;

    // 3. EvalMod on both halves: slots become ~ m/q0.
    auto [eu, ev] = evalChebyshev(u, v);

    // 4. Recombine w = eu + i*ev, then SlotToCoeff.
    Ciphertext evi = mulConst(ev, Complex(0, 1));
    alignPair(eu, evi);
    Ciphertext w = eval_.add(eu, evi);
    Ciphertext out = linearTransform(w, slotToCoeff_, 1, params_.ltMode);

    // Slots now hold z(m)/q0; re-declare the scale so they read as
    // z(m)/d_app, the original message.
    out.scale = out.scale * d_app / q0;
    depthUsed_ = l_top - out.level();
    return out;
}

} // namespace cl
