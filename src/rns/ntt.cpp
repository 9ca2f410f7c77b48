#include "ntt.h"

#include "rns/primes.h"
#include "rns/simd/kernels.h"
#include "util/instrument.h"

namespace cl {

namespace {

/** Butterfly blocks at least this long go through the per-block
 *  kernels; the shorter ones (the last three forward and first three
 *  inverse stages, t = 4, 2, 1) run as one tail kernel per transform,
 *  since a function-pointer call per block would not amortize. */
constexpr std::size_t kNttVecMinBlock = 8;

} // namespace

NttTables::NttTables(std::size_t n, u64 q) : n_(n), q_(q)
{
    CL_ASSERT(isPowerOfTwo(n), "N must be power of two, got ", n);
    CL_ASSERT((q - 1) % (2 * n) == 0, "q=", q, " not NTT-friendly for N=",
              n);
    // Lazy (Harvey) butterflies hold operands in [0, 4q), so 4q must
    // fit a 64-bit word with headroom for one addition.
    CL_ASSERT(q < (u64{1} << 62), "modulus ", q, " too wide for lazy NTT");
    logN_ = log2Exact(n);
    psi_ = findPrimitiveRoot(q, 2 * n);
    const u64 psi_inv = invMod(psi_, q);

    // Slot i holds psi^brv(i): walk the powers psi^e as a running
    // product and scatter each to slot brv(e) (brv is an involution).
    fwdTwiddles_.resize(n);
    invTwiddles_.resize(n);
    u64 fwd = 1, inv = 1;
    for (std::size_t e = 0; e < n; ++e) {
        const std::size_t i = bitReverse(static_cast<std::uint32_t>(e), logN_);
        fwdTwiddles_[i] = ShoupMul(fwd, q);
        invTwiddles_[i] = ShoupMul(inv, q);
        fwd = mulMod(fwd, psi_, q);
        inv = mulMod(inv, psi_inv, q);
    }
    nInv_ = ShoupMul(invMod(static_cast<u64>(n), q), q);
}

void
NttTables::forwardStages(u64 *a) const
{
    // Merged negacyclic Cooley-Tukey with Harvey lazy reduction:
    // operands ride in [0, 4q) between stages, each butterfly does one
    // conditional 2q-subtract plus one lazy Shoup multiply (no final
    // subtract). Same dataflow the hardware NTT FUs pipeline; the lazy
    // window is the software analogue of their redundant-digit
    // arithmetic. Every backend computes the identical lazy formula,
    // so the intermediate representatives — not just the final
    // values — are bit-identical across backends.
    const KernelTable &K = kernels();
    for (std::size_t m = 1, t = n_ / 2; t >= kNttVecMinBlock;
         m <<= 1, t >>= 1) {
        for (std::size_t i = 0; i < m; ++i) {
            const ShoupMul &w = fwdTwiddles_[m + i];
            K.nttFwdButterflyVec(a + 2 * i * t, a + 2 * i * t + t, t, w.w,
                                 w.wPrec, q_);
        }
    }
    K.nttFwdTailVec(a, n_, fwdTwiddles_.data(), q_);
}

void
NttTables::inverseStages(u64 *a, std::size_t mEnd) const
{
    // Gentleman-Sande with operands lazily held in [0, 2q); the N^-1
    // scaling (and with it the full reduction to [0, q)) is left to
    // the caller.
    const KernelTable &K = kernels();
    K.nttInvTailVec(a, n_, invTwiddles_.data(), q_);
    for (std::size_t t = kNttVecMinBlock; n_ / t > mEnd; t <<= 1) {
        const std::size_t h = n_ / (2 * t);
        for (std::size_t i = 0; i < h; ++i) {
            const ShoupMul &w = invTwiddles_[h + i];
            K.nttInvButterflyVec(a + 2 * i * t, a + 2 * i * t + t, t, w.w,
                                 w.wPrec, q_);
        }
    }
}

void
NttTables::forwardLazy(u64 *a) const
{
    countNtts(1);
    countMemPass(logN_, u64{logN_} * 8 * n_);
    forwardStages(a);
}

void
NttTables::forward(u64 *a) const
{
    // Stages leave operands in [0, 4q); a single correction pass
    // restores [0, q).
    forwardLazy(a);
    kernels().nttCorrectVec(a, n_, q_);
    countMemPass(1, u64{8} * n_);
}

void
NttTables::inverseLazy(u64 *a) const
{
    countNtts(1);
    countMemPass(logN_, u64{logN_} * 8 * n_);
    inverseStages(a, 1);
}

void
NttTables::inverse(u64 *a) const
{
    const KernelTable &K = kernels();
    const std::size_t half = n_ >> 1;
    if (half >= kNttVecMinBlock) {
        // Run the GS stages down to m=4, then one kernel computes the
        // last stage (a single block of t = N/2 with twiddle
        // invTwiddles_[1]) together with the N^-1 scaling — the
        // composed sequence's final two passes in one. Short
        // transforms keep the composed sequence below.
        countNtts(1);
        countMemPass(logN_, u64{logN_} * 8 * n_);
        inverseStages(a, 2);
        const ShoupMul &w = invTwiddles_[1];
        K.nttInvScaleButterflyVec(a, a + half, half, w.w, w.wPrec,
                                  nInv_.w, nInv_.wPrec, q_);
        return;
    }
    inverseLazy(a);
    K.nttScaleInvVec(a, n_, nInv_.w, nInv_.wPrec, q_);
    countMemPass(1, u64{8} * n_);
}

} // namespace cl
