/**
 * @file
 * Internal to the simulator: a pool of interchangeable units (one FU
 * class, or the register-file ports) with per-unit busy-until times.
 *
 * Units of a class are identical and no statistic or trace record
 * names the unit an instruction took, so only the multiset of
 * busy-until times is observable. The pool keeps that multiset sorted
 * ascending: the k-th smallest time is a lookup, and claiming units
 * is one in-place shift-and-fill — nothing is copied, sorted or
 * allocated per instruction.
 */

#ifndef CL_SIM_UNITPOOL_H
#define CL_SIM_UNITPOOL_H

#include <algorithm>
#include <cstdint>
#include <vector>

#include "util/common.h"

namespace cl {

class UnitPool
{
  public:
    explicit UnitPool(unsigned count) : freeAt_(count, 0) {}

    unsigned count() const { return static_cast<unsigned>(freeAt_.size()); }

    /** Earliest time >= ready at which @p k units are simultaneously
     *  free (unit availability is monotonic, so the k-th smallest
     *  free time works). */
    std::uint64_t
    earliest(unsigned k, std::uint64_t ready) const
    {
        CL_ASSERT(k <= freeAt_.size(), "pool oversubscribed: need ", k,
                  " of ", freeAt_.size());
        if (k == 0)
            return ready;
        return std::max(ready, freeAt_[k - 1]);
    }

    /** Occupy @p k units from @p start for @p duration cycles. */
    void
    acquire(unsigned k, std::uint64_t start, std::uint64_t duration)
    {
        CL_ASSERT(k <= freeAt_.size(), "pool oversubscribed: need ", k,
                  " of ", freeAt_.size());
        if (k == 0)
            return;
        // The k earliest-free units are the k smallest entries; the
        // largest of them bounds them all.
        CL_ASSERT(freeAt_[k - 1] <= start, "unit busy at acquire");
        // Drop them and re-insert k copies of the new busy-until time
        // at its upper bound among the rest: shift the kept entries
        // below it down by k, then fill the gap.
        const std::uint64_t until = start + duration;
        const auto kept = freeAt_.begin() + k;
        const auto pos = std::upper_bound(kept, freeAt_.end(), until);
        std::fill(std::move(kept, pos, freeAt_.begin()), pos, until);
    }

    /** The busy-until multiset, ascending. */
    const std::vector<std::uint64_t> &busyUntil() const { return freeAt_; }

  private:
    std::vector<std::uint64_t> freeAt_; ///< Sorted ascending.
};

} // namespace cl

#endif // CL_SIM_UNITPOOL_H
