#include "baseconv.h"

#include <algorithm>

#include "rns/simd/kernels.h"
#include "util/instrument.h"
#include "util/threadpool.h"

namespace cl {

BaseConverter::BaseConverter(const RnsChain &chain,
                             std::vector<unsigned> src,
                             std::vector<unsigned> dst)
    : chain_(chain), src_(std::move(src)), dst_(std::move(dst))
{
    CL_ASSERT(!src_.empty() && !dst_.empty());

    const std::size_t ls = src_.size();
    const std::size_t ld = dst_.size();

    // qHatInv_i = (Q/q_i)^{-1} mod q_i, computed as the product of the
    // inverses of the other source moduli.
    qHatInv_.resize(ls);
    for (std::size_t i = 0; i < ls; ++i) {
        const u64 qi = chain_.modulus(src_[i]);
        u64 prod = 1;
        for (std::size_t m = 0; m < ls; ++m) {
            if (m == i)
                continue;
            prod = mulMod(prod, chain_.modulus(src_[m]) % qi, qi);
        }
        qHatInv_[i] = ShoupMul(invMod(prod, qi), qi);
    }

    // qHat[i][j] = (Q/q_i) mod p_j.
    qHat_.assign(ls, std::vector<u64>(ld));
    for (std::size_t i = 0; i < ls; ++i) {
        for (std::size_t j = 0; j < ld; ++j) {
            const u64 pj = chain_.modulus(dst_[j]);
            u64 prod = 1;
            for (std::size_t m = 0; m < ls; ++m) {
                if (m == i)
                    continue;
                prod = mulMod(prod, chain_.modulus(src_[m]) % pj, pj);
            }
            qHat_[i][j] = prod;
        }
    }

    // Transposed rows: the MAC kernel walks all source coefficients
    // for one destination tower, so give it a contiguous cs[] row.
    qHatT_.assign(ld, std::vector<u64>(ls));
    for (std::size_t j = 0; j < ld; ++j)
        for (std::size_t i = 0; i < ls; ++i)
            qHatT_[j][i] = qHat_[i][j];

    for (std::size_t i = 0; i < ls; ++i)
        srcMax_ = std::max(srcMax_, chain_.modulus(src_[i]));
}

/** Pointers to the rows of @p rows, sized to @p count rows of n. */
static std::vector<u64 *>
rowPointers(std::vector<std::vector<u64>> &rows, std::size_t count,
            std::size_t n)
{
    rows.assign(count, std::vector<u64>(n));
    std::vector<u64 *> ptrs(count);
    for (std::size_t j = 0; j < count; ++j)
        ptrs[j] = rows[j].data();
    return ptrs;
}

void
BaseConverter::convert(const std::vector<ResidueView> &in,
                       std::vector<std::vector<u64>> &out) const
{
    convert(in, rowPointers(out, dst_.size(), chain_.n()));
}

void
BaseConverter::convert(const std::vector<ResidueView> &in,
                       std::span<u64 *const> out) const
{
    // Tiled pipeline (DESIGN.md §5e): process the coefficient axis in
    // blocks sized so the ls scaled source rows of one block fit in
    // cache, running the Shoup scale (x_i * (Q/q_i)^-1 mod q_i) and
    // every destination's Listing-1 MAC row on the block before moving
    // on. The scaled residues never round-trip DRAM — the tiled analog
    // of the CRB unit holding running sums in its residue-poly
    // buffers. Every output is the canonical per-coefficient value, so
    // the block size never changes the bytes.
    const std::size_t ls = src_.size();
    const std::size_t ld = dst_.size();
    const std::size_t n = chain_.n();
    CL_ASSERT(in.size() == ls, "base conversion: got ", in.size(),
              " source residues, expected ", ls);
    CL_ASSERT(out.size() == ld, "base conversion: got ", out.size(),
              " destination rows, expected ", ld);

    const KernelTable &K = kernels();
    countMults(ls + ls * ld);
    countAdds(ls * ld);
    // Each source row is read once and each destination row written
    // once; the scratch block is cache-resident and uncharged.
    countMemPass(ls + ld, u64{ls + ld} * 8 * n);

    // ls * block words of scratch per worker, capped near L2 size and
    // kept a vector multiple so block boundaries stay lane-aligned.
    constexpr std::size_t kTileWords = std::size_t{1} << 15;
    std::size_t block = std::max<std::size_t>(kTileWords / ls, 64);
    block &= ~std::size_t{7};
    block = std::min(block, n);
    const std::size_t n_blocks = (n + block - 1) / block;

    // Small N: the coefficient axis gives fewer tiles than workers (at
    // N = 2^10 one tile), so split the towers instead. The scaling
    // pass fans out over source towers and the MAC over destination
    // towers; the kernels and their per-coefficient formulas are the
    // tiled path's, so the bytes are the same. A caller already inside
    // pool work runs inline either way and keeps the cache-sized tiles.
    if (n_blocks < ThreadPool::global().threads() &&
        !ThreadPool::inWorkerContext()) {
        // The calling thread's scratch, reused across calls; the
        // workers reach it through these pointers, not by name.
        static thread_local std::vector<u64> scaled_buf;
        static thread_local std::vector<const u64 *> xs_buf;
        scaled_buf.resize(ls * n);
        xs_buf.resize(ls);
        u64 *const scaled = scaled_buf.data();
        const u64 **const xs = xs_buf.data();
        parallelFor(0, ls, [&](std::size_t i) {
            const ShoupMul &s = qHatInv_[i];
            xs[i] = scaled + i * n;
            K.mulModShoupVec(scaled + i * n, in[i].data(), n, s.w, s.wPrec,
                             chain_.modulus(src_[i]));
        });
        parallelFor(0, ld, [&](std::size_t j) {
            K.baseconvMacVec(out[j], xs, qHatT_[j].data(), ls, n,
                             chain_.modulus(dst_[j]), srcMax_);
        });
        return;
    }

    parallelFor(0, n_blocks, [&](std::size_t b) {
        const std::size_t off = b * block;
        const std::size_t len = std::min(block, n - off);
        static thread_local std::vector<u64> scratch;
        static thread_local std::vector<const u64 *> xs;
        scratch.resize(ls * block);
        xs.resize(ls);
        for (std::size_t i = 0; i < ls; ++i) {
            const u64 qi = chain_.modulus(src_[i]);
            const ShoupMul &s = qHatInv_[i];
            K.mulModShoupVec(scratch.data() + i * block,
                             in[i].data() + off, len, s.w, s.wPrec, qi);
            xs[i] = scratch.data() + i * block;
        }
        for (std::size_t j = 0; j < ld; ++j) {
            const u64 pj = chain_.modulus(dst_[j]);
            K.baseconvMacVec(out[j] + off, xs.data(),
                             qHatT_[j].data(), ls, len, pj, srcMax_);
        }
    });
}

void
BaseConverter::convert(const std::vector<std::vector<u64>> &in,
                       std::vector<std::vector<u64>> &out) const
{
    std::vector<ResidueView> views(in.begin(), in.end());
    convert(views, out);
}

} // namespace cl
