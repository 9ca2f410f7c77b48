/**
 * @file
 * CkksContext: owns the RNS chain, encoder tables, base-converter
 * caches, and the operation counters used to cross-check the paper's
 * cost formulas (Table 1, Fig 4).
 */

#ifndef CL_CKKS_CONTEXT_H
#define CL_CKKS_CONTEXT_H

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "ckks/params.h"
#include "poly/rnspoly.h"
#include "util/opcost.h"

namespace cl {

/**
 * Relaxed atomic counter with value semantics. The task-graph runtime
 * (src/runtime) executes independent Evaluator ops concurrently, and
 * every op charges the shared OpCounter; wrapping each field keeps the
 * charges race-free while every existing call site — `+=`, `++`,
 * copies like `OpCounter model = ctx.ops()`, and plain u64 reads —
 * compiles unchanged. Relaxed ordering is enough: totals are only read
 * after the parallel region joins, and addition commutes, so the
 * counts are exact and order-independent.
 */
class AtomicCount
{
  public:
    AtomicCount() = default;
    AtomicCount(std::uint64_t v) : v_(v) {}
    AtomicCount(const AtomicCount &o) : v_(o.value()) {}

    AtomicCount &
    operator=(const AtomicCount &o)
    {
        v_.store(o.value(), std::memory_order_relaxed);
        return *this;
    }
    AtomicCount &
    operator=(std::uint64_t v)
    {
        v_.store(v, std::memory_order_relaxed);
        return *this;
    }
    AtomicCount &
    operator+=(std::uint64_t d)
    {
        v_.fetch_add(d, std::memory_order_relaxed);
        return *this;
    }
    AtomicCount &
    operator++()
    {
        v_.fetch_add(1, std::memory_order_relaxed);
        return *this;
    }
    std::uint64_t
    operator++(int)
    {
        return v_.fetch_add(1, std::memory_order_relaxed);
    }

    operator std::uint64_t() const { return value(); }
    std::uint64_t
    value() const
    {
        return v_.load(std::memory_order_relaxed);
    }

  private:
    std::atomic<std::uint64_t> v_{0};
};

/**
 * Running counts of the scalar/vector operations performed by the
 * functional library, mirroring Table 1's accounting: element-wise
 * multiplies/adds (in units of residue polynomials) and NTTs.
 * Fields are individually atomic (see AtomicCount) so concurrent
 * Evaluator calls under the task-graph runtime account correctly.
 */
struct OpCounter
{
    AtomicCount polyMults; ///< Residue-poly element-wise multiplies.
    AtomicCount polyAdds;  ///< Residue-poly element-wise adds.
    AtomicCount ntts;      ///< Forward + inverse NTTs.
    AtomicCount automorphisms;

    // Staged-keyswitch stage counts (the hoisted path shares one
    // decompose across many rotations; these make the sharing visible
    // so per-stage costs can be pinned exactly).
    AtomicCount decomposes;    ///< Digit-lift + mod-up passes.
    AtomicCount innerProducts; ///< Hint inner products.
    AtomicCount modDowns;      ///< Extended-basis mod-downs.

    /** Charge one op-cost stage (util/opcost.h). */
    OpCounter &
    operator+=(const opcost::Counts &c)
    {
        ntts += c.ntts;
        polyMults += c.mults;
        polyAdds += c.adds;
        automorphisms += c.automorphisms;
        return *this;
    }

    void
    reset()
    {
        *this = OpCounter{};
    }
};

class CkksContext
{
  public:
    explicit CkksContext(const CkksParams &params);

    const CkksParams &params() const { return params_; }
    const RnsChain &chain() const { return *chain_; }
    std::size_t n() const { return params_.n(); }
    std::size_t slots() const { return params_.slots(); }

    /** Number of data moduli (max level L). */
    unsigned l() const { return params_.l; }
    /** Number of special moduli. */
    unsigned alpha() const { return params_.alpha; }

    /** Chain indices [0, l_cur) of the data basis at a level. */
    std::vector<unsigned> dataIdx(unsigned l_cur) const;
    /** Chain indices of the special basis P. */
    std::vector<unsigned> specialIdx() const;

    /** Product of the special moduli reduced mod chain modulus i. */
    u64 pModQ(unsigned i) const { return pModQ_[i]; }

    /**
     * Cached base converter between two index sets (built lazily;
     * keyswitching reuses a handful of conversions per level).
     */
    const BaseConverter &converter(const std::vector<unsigned> &src,
                                   const std::vector<unsigned> &dst) const;

    /** Mutable op counter (shared by evaluator and keyswitching). */
    OpCounter &ops() const { return ops_; }

  private:
    CkksParams params_;
    std::unique_ptr<RnsChain> chain_;
    std::vector<u64> pModQ_;
    mutable std::mutex convertersMutex_;
    mutable std::map<std::pair<std::vector<unsigned>, std::vector<unsigned>>,
                     std::unique_ptr<BaseConverter>>
        converters_;
    mutable OpCounter ops_;
};

} // namespace cl

#endif // CL_CKKS_CONTEXT_H
