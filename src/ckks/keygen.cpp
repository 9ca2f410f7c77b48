#include "keys.h"

#include <algorithm>

#include "rns/kshgen.h"
#include "rns/simd/kernels.h"
#include "util/biguint.h"
#include "util/instrument.h"
#include "util/prng.h"
#include "util/threadpool.h"

namespace cl {

namespace {

/** Digit ranges partitioning the L data moduli into chunks of alpha. */
std::vector<std::vector<unsigned>>
digitRanges(unsigned l, unsigned alpha)
{
    std::vector<std::vector<unsigned>> out;
    for (unsigned start = 0; start < l; start += alpha) {
        std::vector<unsigned> d;
        for (unsigned i = start; i < std::min(l, start + alpha); ++i)
            d.push_back(i);
        out.push_back(std::move(d));
    }
    return out;
}

/**
 * W_j mod r for every modulus r of @p ext_idx: P * (Q/Q_j) * v_j,
 * where P is the product of @p p_primes, Q/Q_j the data primes outside
 * digit @p dj, and v_j = [(Q/Q_j)^{-1} mod Q_j] as an exact integer,
 * built by CRT interpolation over the digit's primes.
 */
std::vector<u64>
digitFactors(const RnsChain &chain, unsigned l,
             const std::vector<unsigned> &dj,
             const std::vector<unsigned> &ext_idx,
             const std::vector<u64> &p_primes)
{
    auto in_digit = [&dj](unsigned m) {
        return std::find(dj.begin(), dj.end(), m) != dj.end();
    };
    std::vector<u64> qj_primes;
    for (unsigned i : dj)
        qj_primes.push_back(chain.modulus(i));
    const BigUint qj = BigUint::product(qj_primes);

    BigUint vj(0);
    for (unsigned i : dj) {
        const u64 qi = chain.modulus(i);
        // (Q/Q_j) mod q_i: product of data primes outside the digit.
        u64 qhat_mod_qi = 1;
        for (unsigned m = 0; m < l; ++m) {
            if (!in_digit(m))
                qhat_mod_qi = mulMod(qhat_mod_qi, chain.modulus(m) % qi, qi);
        }
        // (Q_j/q_i) mod q_i.
        u64 qj_hat_mod_qi = 1;
        for (unsigned m : dj) {
            if (m != i)
                qj_hat_mod_qi =
                    mulMod(qj_hat_mod_qi, chain.modulus(m) % qi, qi);
        }
        const u64 ci = mulMod(invMod(qhat_mod_qi, qi),
                              invMod(qj_hat_mod_qi, qi), qi);
        // vj += ci * (Q_j / q_i)
        std::vector<u64> others;
        for (unsigned m : dj) {
            if (m != i)
                others.push_back(chain.modulus(m));
        }
        BigUint term = BigUint::product(others);
        term.mulU64(ci);
        vj += term;
    }
    while (vj >= qj)
        vj -= qj;

    std::vector<u64> w(ext_idx.size());
    for (std::size_t t = 0; t < ext_idx.size(); ++t) {
        const u64 r = chain.modulus(ext_idx[t]);
        u64 wt = 1;
        for (u64 p : p_primes)
            wt = mulMod(wt, p % r, r);
        for (unsigned m = 0; m < l; ++m) {
            if (!in_digit(m))
                wt = mulMod(wt, chain.modulus(m) % r, r);
        }
        w[t] = mulMod(wt, vj.modU64(r), r);
    }
    return w;
}

/** coeff[i] mod q into dst[i] for |coeff[i]| < q (the ternary secret,
 *  CBD noise at most 21): a negative c lifts to q + c. */
void
liftSmall(const int *coeff, std::size_t n, u64 q, u64 *dst)
{
    for (std::size_t i = 0; i < n; ++i) {
        const int c = coeff[i];
        dst[i] = c < 0 ? q - static_cast<u64>(-c) : static_cast<u64>(c);
    }
}

/** Small coefficients lifted into every tower of a coefficient-domain
 *  polynomial over @p idx, towers in parallel. */
RnsPoly
liftSmallPoly(const RnsChain &chain, const std::vector<unsigned> &idx,
              const std::vector<int> &coeff)
{
    CL_ASSERT(coeff.size() == chain.n(), "need one coefficient per slot");
    RnsPoly p(RnsPoly::Uninit{}, chain, idx, false);
    parallelFor(
        0, p.towers(),
        [&](std::size_t t) {
            liftSmall(coeff.data(), chain.n(), p.modulus(t),
                      p.residue(t).data());
        },
        parallelGrain(chain.n()));
    return p;
}

} // namespace

RnsPoly
sampleSmall(const CkksContext &ctx, const std::vector<unsigned> &idx,
            FastRng &rng, bool ternary)
{
    std::vector<int> coeff(ctx.n());
    for (auto &c : coeff)
        c = ternary ? rng.nextTernary() : rng.nextCbd();
    RnsPoly p = liftSmallPoly(ctx.chain(), idx, coeff);
    p.toNtt();
    return p;
}

/**
 * One (b, a) pair over a common basis: a expanded from (seed,
 * domain * 0x10000 + chain index) tower by tower, and
 * b = e - a*s (+ w[t] * src over tower t when src is set), all in NTT
 * form. s and src span the full chain, tower i over chain modulus i.
 */
struct KeyGenerator::HalfPair
{
    RnsPoly *a = nullptr;
    RnsPoly *b = nullptr;
    std::uint64_t domain = 0;
    std::vector<int> e;
    const RnsPoly *src = nullptr;
    std::vector<u64> w;
};

KeyGenerator::KeyGenerator(const CkksContext &ctx)
    : ctx_(ctx), noiseRng_(ctx.params().seed * 0x9e3779b97f4a7c15ULL + 1),
      domainCounter_(1)
{
    // Ternary secret over the full chain; optionally sparse
    // (bootstrapping bounds the mod-raise overflow by ||s||_1).
    const std::size_t n = ctx_.n();
    std::vector<int> s_coeff(n, 0);
    const unsigned h = ctx_.params().secretHamming;
    if (h == 0) {
        for (auto &c : s_coeff)
            c = noiseRng_.nextTernary();
    } else {
        CL_ASSERT(h < n, "Hamming weight too large");
        unsigned placed = 0;
        while (placed < h) {
            const std::size_t pos = noiseRng_.nextBelow(n);
            if (s_coeff[pos] == 0) {
                s_coeff[pos] = noiseRng_.nextBelow(2) ? 1 : -1;
                ++placed;
            }
        }
    }

    std::vector<unsigned> full_idx;
    for (unsigned i = 0; i < ctx_.chain().size(); ++i)
        full_idx.push_back(i);
    sk_.s = liftSmallPoly(ctx_.chain(), full_idx, s_coeff);
    sk_.s.toNtt();
}

std::vector<int>
KeyGenerator::drawError()
{
    std::vector<int> e(ctx_.n());
    for (auto &c : e)
        c = noiseRng_.nextCbd();
    return e;
}

void
KeyGenerator::generatePairs(std::vector<HalfPair> &pairs,
                            const std::vector<unsigned> &idx)
{
    const RnsChain &chain = ctx_.chain();
    const std::size_t n = ctx_.n();
    const std::uint64_t seed = ctx_.params().seed;
    const std::size_t lanes = kernels().keccakLanes;
    const std::size_t groups = ceilDiv(idx.size(), lanes);
    for (HalfPair &p : pairs) {
        *p.a = RnsPoly(RnsPoly::Uninit{}, chain, idx, true);
        *p.b = RnsPoly(RnsPoly::Uninit{}, chain, idx, true);
    }

    parallelFor(0, pairs.size() * groups, [&](std::size_t job) {
        HalfPair &p = pairs[job / groups];
        const std::size_t t0 = (job % groups) * lanes;
        const std::size_t count = std::min(lanes, idx.size() - t0);

        std::vector<std::uint64_t> domains(count);
        std::vector<u64> moduli(count);
        std::vector<u64 *> outs(count);
        for (std::size_t k = 0; k < count; ++k) {
            domains[k] = p.domain * 0x10000 + idx[t0 + k];
            moduli[k] = chain.modulus(idx[t0 + k]);
            outs[k] = p.a->residue(t0 + k).data();
        }
        // Uniform in either domain, so a is expanded directly in NTT
        // form, as KSHGen generates NTT-resident hint halves.
        expandUniform(seed, domains.data(), moduli.data(), outs.data(),
                      count, n);

        // Per tower: a*s and e - a*s, then w*s_src and its add.
        const KernelTable &K = kernels();
        const std::uint64_t passes = count * (p.src ? 2 : 1);
        countMults(passes);
        countAdds(passes);
        countMemPass(2 * passes, 2 * passes * 16 * n);
        std::vector<u64> tmp(n);
        for (std::size_t t = t0; t < t0 + count; ++t) {
            const unsigned m = idx[t];
            const u64 q = chain.modulus(m);
            u64 *b = p.b->residue(t).data();
            liftSmall(p.e.data(), n, q, b);
            chain.ntt(m).forward(b);
            std::copy_n(p.a->residue(t).data(), n, tmp.data());
            K.mulModVec(tmp.data(), sk_.s.residue(m).data(), n, q);
            K.subModVec(b, tmp.data(), n, q);
            if (p.src) {
                const ShoupMul wm(p.w[t], q);
                K.mulModShoupVec(tmp.data(), p.src->residue(m).data(), n,
                                 wm.w, wm.wPrec, q);
                K.addModVec(b, tmp.data(), n, q);
            }
        }
    });
}

PublicKey
KeyGenerator::genPublicKey()
{
    PublicKey pk;
    std::vector<HalfPair> pairs(1);
    pairs[0].a = &pk.a;
    pairs[0].b = &pk.b;
    pairs[0].domain = domainCounter_++;
    pairs[0].e = drawError();
    generatePairs(pairs, ctx_.dataIdx(ctx_.l()));
    return pk;
}

SwitchKey
KeyGenerator::genSwitchKey(const RnsPoly &s_src, std::uint64_t domain,
                           unsigned alpha_ks)
{
    CL_ASSERT(s_src.isNtt() && s_src.towers() == ctx_.chain().size(),
              "source key must span the full chain in NTT form");
    const unsigned l = ctx_.l();
    const unsigned alpha = alpha_ks == 0 ? ctx_.alpha() : alpha_ks;
    CL_ASSERT(alpha <= ctx_.alpha(), "digit size ", alpha,
              " exceeds available special moduli ", ctx_.alpha());
    const auto digits = digitRanges(l, alpha);

    // Extended basis: all data moduli plus the first alpha special
    // moduli (a smaller digit size needs a smaller raising basis).
    std::vector<unsigned> ext_idx;
    for (unsigned i = 0; i < l; ++i)
        ext_idx.push_back(i);
    for (unsigned i = 0; i < alpha; ++i)
        ext_idx.push_back(ctx_.l() + i);

    // P = product of the special moduli used by this key (as
    // residues; the big product is only needed mod each modulus).
    std::vector<u64> p_primes;
    for (unsigned i = 0; i < alpha; ++i)
        p_primes.push_back(ctx_.chain().modulus(ctx_.l() + i));

    SwitchKey ksk;
    ksk.alphaKs = alpha;
    ksk.seed = ctx_.params().seed;
    ksk.domain = domain;
    ksk.a.resize(digits.size());
    ksk.b.resize(digits.size());

    // The error draws stay serial, in digit order; everything else is
    // per tower.
    std::vector<HalfPair> pairs(digits.size());
    for (std::size_t j = 0; j < digits.size(); ++j) {
        HalfPair &p = pairs[j];
        p.a = &ksk.a[j];
        p.b = &ksk.b[j];
        p.domain = (domain << 8) + j;
        p.e = drawError();
        p.src = &s_src;
        p.w = digitFactors(ctx_.chain(), l, digits[j], ext_idx, p_primes);
    }
    generatePairs(pairs, ext_idx);
    return ksk;
}

SwitchKey
KeyGenerator::genRelinKey(unsigned alpha_ks)
{
    RnsPoly s2 = sk_.s;
    s2 *= sk_.s;
    return genSwitchKey(s2, domainCounter_++, alpha_ks);
}

std::size_t
KeyGenerator::galoisFromSteps(int steps) const
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

SwitchKey
KeyGenerator::genRotationKey(int steps, unsigned alpha_ks)
{
    const std::size_t g = galoisFromSteps(steps);
    RnsPoly s_rot = sk_.s.automorphism(g);
    return genSwitchKey(s_rot, domainCounter_++, alpha_ks);
}

SwitchKey
KeyGenerator::genConjugationKey(unsigned alpha_ks)
{
    const std::size_t g = 2 * ctx_.n() - 1;
    RnsPoly s_conj = sk_.s.automorphism(g);
    return genSwitchKey(s_conj, domainCounter_++, alpha_ks);
}

GaloisKeys
KeyGenerator::genRotationKeys(const std::vector<int> &steps, bool conjugate)
{
    GaloisKeys gk;
    for (int s : steps) {
        const std::size_t g = galoisFromSteps(s);
        if (!gk.has(g))
            gk.keys.emplace(g, genRotationKey(s));
    }
    if (conjugate)
        gk.keys.emplace(2 * ctx_.n() - 1, genConjugationKey());
    return gk;
}

} // namespace cl
