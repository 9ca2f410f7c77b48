/**
 * @file
 * RnsPolynomial: a ciphertext polynomial in double-CRT form — a set
 * of residue polynomials (vectors of N coefficients), each modulo one
 * small prime of the chain, in either coefficient or NTT domain.
 *
 * This is the data type every CraterLake vector instruction operates
 * on: one residue polynomial is one hardware vector (Sec 4.1).
 *
 * Storage is a single flat `towers x N` allocation in tower-major
 * order (one cache-friendly slab per polynomial instead of one heap
 * block per tower); `residue(t)` hands out stride views. Tower-level
 * operations fan out across the global ThreadPool — residues are
 * independent across moduli, the same parallelism CraterLake exploits
 * spatially — and are bit-identical at any worker count.
 */

#ifndef CL_POLY_RNSPOLY_H
#define CL_POLY_RNSPOLY_H

#include <algorithm>
#include <memory>
#include <span>
#include <vector>

#include "poly/polypool.h"
#include "rns/baseconv.h"
#include "rns/chain.h"

namespace cl {

/**
 * std::allocator that default-initializes (i.e. leaves uninitialized)
 * on resize, so freshly allocated polynomials that are immediately
 * overwritten (automorphism targets, base-conversion outputs, residue
 * copies) skip the zero-fill pass over towers*N words. Storage comes
 * from the shared polynomial pool (polypool.h): vectors allocate
 * exact towers*N sizes, so freed slabs are recycled by shape instead
 * of round-tripping malloc on every Evaluator temporary.
 */
template <typename T>
struct UninitAllocator : std::allocator<T>
{
    template <typename U> struct rebind
    {
        using other = UninitAllocator<U>;
    };

    T *
    allocate(std::size_t n)
    {
        return static_cast<T *>(polyPoolAllocate(n * sizeof(T)));
    }

    void
    deallocate(T *p, std::size_t n) noexcept
    {
        polyPoolDeallocate(p, n * sizeof(T));
    }

    template <typename U>
    void
    construct(U *p) noexcept(
        std::is_nothrow_default_constructible_v<U>)
    {
        ::new (static_cast<void *>(p)) U;
    }

    template <typename U, typename... Args>
    void
    construct(U *p, Args &&...args)
    {
        ::new (static_cast<void *>(p)) U(std::forward<Args>(args)...);
    }
};

/** Flat coefficient buffer: towers * N words, tower-major. */
using PolyData = std::vector<u64, UninitAllocator<u64>>;

class RnsPoly
{
  public:
    /** Tag selecting the uninitialized-storage constructor. */
    struct Uninit
    {
    };

    RnsPoly() : chain_(nullptr), n_(0), ntt_(false) {}

    /** Zero polynomial over chain moduli with indices @p mod_idx. */
    RnsPoly(const RnsChain &chain, std::vector<unsigned> mod_idx,
            bool ntt_form = false);

    /** Like above but with *uninitialized* coefficients — for callers
     *  that overwrite every residue before reading. */
    RnsPoly(Uninit, const RnsChain &chain, std::vector<unsigned> mod_idx,
            bool ntt_form);

    bool valid() const { return chain_ != nullptr; }
    const RnsChain &chain() const { return *chain_; }
    std::size_t n() const { return n_; }
    std::size_t towers() const { return modIdx_.size(); }
    bool isNtt() const { return ntt_; }

    const std::vector<unsigned> &modIdx() const { return modIdx_; }
    u64 modulus(std::size_t t) const { return chain_->modulus(modIdx_[t]); }

    /** View of tower @p t (N coefficients). */
    std::span<u64>
    residue(std::size_t t)
    {
        return {data_.data() + t * n_, n_};
    }
    std::span<const u64>
    residue(std::size_t t) const
    {
        return {data_.data() + t * n_, n_};
    }

    /** Overwrite tower @p t with @p src (N coefficients). */
    void
    setResidue(std::size_t t, std::span<const u64> src)
    {
        CL_ASSERT(src.size() == n_, "residue length mismatch");
        std::copy(src.begin(), src.end(), data_.data() + t * n_);
    }

    /** The flat tower-major coefficient slab (towers * N words). */
    PolyData &data() { return data_; }
    const PolyData &data() const { return data_; }

    /** Per-tower read views, in tower order (for base conversion). */
    std::vector<std::span<const u64>> residueViews() const;

    /** Bytes this polynomial would occupy at the hardware word width. */
    std::size_t footprintWords() const { return towers() * n(); }

    // --- Domain conversion ---
    void toNtt();
    void toCoeff();

    // --- Element-wise arithmetic (same basis, same domain) ---
    RnsPoly &operator+=(const RnsPoly &other);
    RnsPoly &operator-=(const RnsPoly &other);
    /** Element-wise multiply; both operands must be in NTT form. */
    RnsPoly &operator*=(const RnsPoly &other);

    /**
     * Fused multiply-accumulate: this += a * b, element-wise, all in
     * NTT form. @p b must share this polynomial's basis exactly;
     * @p a may span a *superset* basis (a keyswitch hint over the full
     * Q ∪ P serves every level) — the matching towers are selected by
     * chain index, with no subset copy. Canonically reduced, so the
     * result is bit-identical to `t = a.subset(...); t *= b;
     * *this += t`.
     */
    RnsPoly &addMulAssign(const RnsPoly &a, const RnsPoly &b);

    void negate();

    /** Multiply every residue by a scalar (reduced per modulus). */
    void mulScalar(u64 s);

    /** Multiply residue t by a scalar specific to that modulus. */
    void mulScalarTower(std::size_t t, u64 s);

    /** Apply automorphism x -> x^k (domain-aware). */
    RnsPoly automorphism(std::size_t k) const;

    /**
     * Drop the last tower and rescale: divide by its modulus q_last,
     * rounding. Implements CKKS rescaling (Sec 2.3). Works in either
     * domain (switches internally as needed); preserves the domain.
     */
    void rescaleLastTower();

    /** Remove trailing towers without rescaling (modulus switch for
     *  plaintexts already scaled appropriately). */
    void dropTowers(std::size_t count);

    /**
     * Extract the towers whose chain indices appear in @p chain_idx
     * (all must be present, without duplicates). Preserves the domain.
     */
    RnsPoly subset(const std::vector<unsigned> &chain_idx) const;

    /** Friends produce new values. */
    friend RnsPoly operator+(RnsPoly a, const RnsPoly &b)
    {
        a += b;
        return a;
    }
    friend RnsPoly operator-(RnsPoly a, const RnsPoly &b)
    {
        a -= b;
        return a;
    }
    friend RnsPoly operator*(RnsPoly a, const RnsPoly &b)
    {
        a *= b;
        return a;
    }

  private:
    void checkCompatible(const RnsPoly &other) const;

    const RnsChain *chain_;
    std::vector<unsigned> modIdx_;
    PolyData data_; // flat towers x N, tower-major
    std::size_t n_;
    bool ntt_;
};

} // namespace cl

#endif // CL_POLY_RNSPOLY_H
