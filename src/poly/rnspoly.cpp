#include "rnspoly.h"

#include "rns/simd/kernels.h"
#include "util/instrument.h"
#include "util/threadpool.h"

namespace cl {

RnsPoly::RnsPoly(const RnsChain &chain, std::vector<unsigned> mod_idx,
                 bool ntt_form)
    : chain_(&chain), modIdx_(std::move(mod_idx)), n_(chain.n()),
      ntt_(ntt_form)
{
    CL_ASSERT(!modIdx_.empty(), "polynomial needs at least one tower");
    data_.assign(modIdx_.size() * n_, 0);
}

RnsPoly::RnsPoly(Uninit, const RnsChain &chain,
                 std::vector<unsigned> mod_idx, bool ntt_form)
    : chain_(&chain), modIdx_(std::move(mod_idx)), n_(chain.n()),
      ntt_(ntt_form)
{
    CL_ASSERT(!modIdx_.empty(), "polynomial needs at least one tower");
    data_.resize(modIdx_.size() * n_); // left uninitialized
}

std::vector<std::span<const u64>>
RnsPoly::residueViews() const
{
    std::vector<std::span<const u64>> views;
    views.reserve(towers());
    for (std::size_t t = 0; t < towers(); ++t)
        views.push_back(residue(t));
    return views;
}

void
RnsPoly::checkCompatible(const RnsPoly &other) const
{
    CL_ASSERT(chain_ == other.chain_, "mixing RNS chains");
    CL_ASSERT(modIdx_ == other.modIdx_, "operand bases differ: ",
              towers(), " vs ", other.towers(), " towers");
    CL_ASSERT(ntt_ == other.ntt_, "operand domains differ");
}

void
RnsPoly::toNtt()
{
    if (ntt_)
        return;
    parallelFor(0, towers(), [&](std::size_t t) {
        chain_->ntt(modIdx_[t]).forward(data_.data() + t * n_);
    });
    ntt_ = true;
}

void
RnsPoly::toCoeff()
{
    if (!ntt_)
        return;
    parallelFor(0, towers(), [&](std::size_t t) {
        chain_->ntt(modIdx_[t]).inverse(data_.data() + t * n_);
    });
    ntt_ = false;
}

RnsPoly &
RnsPoly::operator+=(const RnsPoly &other)
{
    checkCompatible(other);
    countAdds(towers());
    countMemPass(towers(), u64{towers()} * 16 * n_);
    const KernelTable &K = kernels();
    parallelFor(
        0, towers(),
        [&](std::size_t t) {
            K.addModVec(data_.data() + t * n_,
                        other.data_.data() + t * n_, n_, modulus(t));
        },
        parallelGrain(n_));
    return *this;
}

RnsPoly &
RnsPoly::operator-=(const RnsPoly &other)
{
    checkCompatible(other);
    countAdds(towers());
    countMemPass(towers(), u64{towers()} * 16 * n_);
    const KernelTable &K = kernels();
    parallelFor(
        0, towers(),
        [&](std::size_t t) {
            K.subModVec(data_.data() + t * n_,
                        other.data_.data() + t * n_, n_, modulus(t));
        },
        parallelGrain(n_));
    return *this;
}

RnsPoly &
RnsPoly::operator*=(const RnsPoly &other)
{
    checkCompatible(other);
    CL_ASSERT(ntt_, "element-wise multiply requires NTT form");
    countMults(towers());
    countMemPass(towers(), u64{towers()} * 16 * n_);
    const KernelTable &K = kernels();
    parallelFor(
        0, towers(),
        [&](std::size_t t) {
            K.mulModVec(data_.data() + t * n_,
                        other.data_.data() + t * n_, n_, modulus(t));
        },
        parallelGrain(n_));
    return *this;
}

RnsPoly &
RnsPoly::addMulAssign(const RnsPoly &a, const RnsPoly &b)
{
    checkCompatible(b);
    CL_ASSERT(ntt_ && a.ntt_, "fused MAC requires NTT form");
    CL_ASSERT(chain_ == a.chain_, "mixing RNS chains");
    countMults(towers());
    countAdds(towers());
    countMemPass(towers(), u64{towers()} * 24 * n_);

    // Position map from our chain indices into a's towers (a may span
    // a superset basis; see subset() for the same idiom).
    constexpr std::size_t kNone = ~std::size_t{0};
    std::size_t max_idx = 0;
    for (unsigned i : a.modIdx_)
        max_idx = std::max<std::size_t>(max_idx, i);
    std::vector<std::size_t> pos(max_idx + 1, kNone);
    for (std::size_t s = 0; s < a.modIdx_.size(); ++s)
        pos[a.modIdx_[s]] = s;

    const KernelTable &K = kernels();
    parallelFor(
        0, towers(),
        [&](std::size_t t) {
            const unsigned ci = modIdx_[t];
            CL_ASSERT(ci <= max_idx && pos[ci] != kNone,
                      "addMulAssign: chain index ", ci,
                      " missing from multiplier");
            K.mulAddModVec(data_.data() + t * n_,
                           a.data_.data() + pos[ci] * n_,
                           b.data_.data() + t * n_, n_, modulus(t));
        },
        parallelGrain(n_));
    return *this;
}

void
RnsPoly::negate()
{
    countAdds(towers());
    countMemPass(towers(), u64{towers()} * 8 * n_);
    const KernelTable &K = kernels();
    parallelFor(
        0, towers(),
        [&](std::size_t t) {
            K.negateVec(data_.data() + t * n_, n_, modulus(t));
        },
        parallelGrain(n_));
}

void
RnsPoly::mulScalar(u64 s)
{
    parallelFor(
        0, towers(), [&](std::size_t t) { mulScalarTower(t, s); },
        parallelGrain(n_));
}

void
RnsPoly::mulScalarTower(std::size_t t, u64 s)
{
    countMults(1);
    countMemPass(1, u64{8} * n_);
    const u64 q = modulus(t);
    const ShoupMul m(s % q, q);
    u64 *a = data_.data() + t * n_;
    kernels().mulModShoupVec(a, a, n_, m.w, m.wPrec, q);
}

RnsPoly
RnsPoly::automorphism(std::size_t k) const
{
    RnsPoly out(Uninit{}, *chain_, modIdx_, ntt_);
    const AutomorphismMap &map = chain_->automorphism(k);
    parallelFor(
        0, towers(),
        [&](std::size_t t) {
            const u64 *src = data_.data() + t * n_;
            u64 *dst = out.data_.data() + t * n_;
            if (ntt_)
                map.applyNtt(src, dst);
            else
                map.applyCoeff(src, dst, modulus(t));
        },
        parallelGrain(n_));
    return out;
}

void
RnsPoly::rescaleLastTower()
{
    CL_ASSERT(towers() >= 2, "cannot rescale a single-tower polynomial");
    const bool was_ntt = ntt_;
    const std::size_t last = towers() - 1;
    const u64 ql = modulus(last);
    const u64 half = ql / 2;

    // One correction per kept tower — a centered subtract plus a
    // Shoup multiply by q_last^-1, the mult+add the lowering models
    // per remaining residue — in a single sweep (DESIGN.md §5e).
    countMults(last);
    countAdds(last);
    const KernelTable &K = kernels();
    u64 *xl = data_.data() + last * n_;
    if (was_ntt) {
        // The chip's algorithm: only the dropped tower leaves the NTT
        // domain. Its centered residues, reduced mod each kept q_t and
        // transformed forward, are subtracted in the NTT domain, so a
        // polynomial costs l NTTs (opcost::Rescale). The transform is
        // linear and both sides are canonical, so the bytes equal the
        // coefficient-domain correction's.
        chain_->ntt(modIdx_[last]).inverse(xl);
        countMemPass(2 * last, u64{last} * 40 * n_);
        parallelFor(0, last, [&](std::size_t t) {
            // One residue of scratch per worker, reused across calls.
            static thread_local std::vector<u64> xm;
            xm.resize(n_);
            const u64 qt = modulus(t);
            const ShoupMul ql_inv(invMod(ql % qt, qt), qt);
            const RescaleConsts rc{0, 0, ql, half, ql_inv.w, ql_inv.wPrec};
            K.rescaleCenterVec(xm.data(), xl, n_, &rc, qt);
            chain_->ntt(modIdx_[t]).forwardLazy(xm.data());
            u64 *a = data_.data() + t * n_;
            K.nttCorrectSubMulShoupVec(a, a, xm.data(), n_, rc.qlInvW,
                                       rc.qlInvPrec, qt);
        });
    } else {
        countMemPass(last, u64{last} * 16 * n_);
        parallelFor(
            0, last,
            [&](std::size_t t) {
                const u64 qt = modulus(t);
                const ShoupMul ql_inv(invMod(ql % qt, qt), qt);
                // Identity N^-1 pair: mulLazy(x, 1) == x for x < q, so
                // the shared epilogue kernel applies the correction
                // without a pending iNTT scale.
                const ShoupMul ident(1, qt);
                const RescaleConsts rc{ident.w, ident.wPrec,
                                       ql,      half,
                                       ql_inv.w, ql_inv.wPrec};
                K.rescaleEpilogueVec(data_.data() + t * n_, xl, n_, &rc,
                                     qt);
            },
            parallelGrain(n_));
    }
    data_.resize(last * n_);
    modIdx_.pop_back();
}

RnsPoly
RnsPoly::subset(const std::vector<unsigned> &chain_idx) const
{
    // One-pass position map over our towers (chain indices are dense
    // and small), instead of a linear rescan per requested tower.
    constexpr std::size_t kNone = ~std::size_t{0};
    std::size_t max_idx = 0;
    for (unsigned i : modIdx_)
        max_idx = std::max<std::size_t>(max_idx, i);
    std::vector<std::size_t> pos(max_idx + 1, kNone);
    for (std::size_t s = 0; s < modIdx_.size(); ++s) {
        CL_ASSERT(pos[modIdx_[s]] == kNone, "duplicate chain index ",
                  modIdx_[s], " in polynomial basis");
        pos[modIdx_[s]] = s;
    }

    RnsPoly out(Uninit{}, *chain_, chain_idx, ntt_);
    for (std::size_t t = 0; t < chain_idx.size(); ++t) {
        const unsigned ci = chain_idx[t];
        CL_ASSERT(ci <= max_idx && pos[ci] != kNone,
                  "subset: chain index ", ci, " not present");
        out.setResidue(t, residue(pos[ci]));
    }
    return out;
}

void
RnsPoly::dropTowers(std::size_t count)
{
    CL_ASSERT(count < towers(), "cannot drop all towers");
    modIdx_.resize(modIdx_.size() - count);
    data_.resize(modIdx_.size() * n_);
}

} // namespace cl
