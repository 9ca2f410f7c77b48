/**
 * @file
 * Ground-truth kernel instrumentation: global counters incremented at
 * the point where work is actually performed (NTT transforms, the
 * elementwise kernel passes in RnsPoly, base-conversion MACs, and
 * automorphism gathers), independently of the OpCounter charges the
 * Evaluator files.
 *
 * The OpCounter is an *accounting model* — each Evaluator method
 * charges what it believes it spends, and those totals feed the
 * Table 1 / Fig 4 cross-checks. These counters are the *measurement*:
 * the differential fuzzer (src/fuzz) and the pinned OpCounter tests
 * assert that model == measurement exactly, so a refactor that changes
 * what a method really does without updating its charges is caught
 * immediately.
 *
 * ## Unit convention
 *
 * One count = one pass over one residue vector (N coefficients):
 *
 *  - `ntts`: one forward or inverse NTT of one residue.
 *  - `mults`: one multiply-class pass — mulModVec, a Shoup multiply,
 *    the multiply half of a fused MAC, one source row of a
 *    change-RNS-base inner product, or the scale-correction multiply
 *    of a rescale.
 *  - `adds`: one add-class pass — add/sub/negate, the accumulate half
 *    of a fused MAC, one accumulated row of a change-RNS-base inner
 *    product, or the subtract pass of a rescale.
 *  - `automorphisms`: one slot gather/permutation of one residue.
 *
 * Increments use relaxed atomics and are amortized (one increment per
 * tower batch, not per coefficient), so the overhead is noise even on
 * the hot paths; the counters are always on.
 */

#ifndef CL_UTIL_INSTRUMENT_H
#define CL_UTIL_INSTRUMENT_H

#include <atomic>
#include <cstdint>

namespace cl {

/** Plain-integer snapshot of the kernel counters. */
struct KernelCounts
{
    std::uint64_t ntts = 0;
    std::uint64_t mults = 0;
    std::uint64_t adds = 0;
    std::uint64_t automorphisms = 0;

    friend KernelCounts
    operator-(const KernelCounts &a, const KernelCounts &b)
    {
        return {a.ntts - b.ntts, a.mults - b.mults, a.adds - b.adds,
                a.automorphisms - b.automorphisms};
    }

    friend bool operator==(const KernelCounts &,
                           const KernelCounts &) = default;
};

/** The global counters (one instance per process). */
struct KernelCounters
{
    std::atomic<std::uint64_t> ntts{0};
    std::atomic<std::uint64_t> mults{0};
    std::atomic<std::uint64_t> adds{0};
    std::atomic<std::uint64_t> automorphisms{0};

    KernelCounts
    snapshot() const
    {
        return {ntts.load(std::memory_order_relaxed),
                mults.load(std::memory_order_relaxed),
                adds.load(std::memory_order_relaxed),
                automorphisms.load(std::memory_order_relaxed)};
    }

    void
    reset()
    {
        ntts.store(0, std::memory_order_relaxed);
        mults.store(0, std::memory_order_relaxed);
        adds.store(0, std::memory_order_relaxed);
        automorphisms.store(0, std::memory_order_relaxed);
    }
};

inline KernelCounters &
kernelCounters()
{
    static KernelCounters counters;
    return counters;
}

inline void
countNtts(std::uint64_t k)
{
    kernelCounters().ntts.fetch_add(k, std::memory_order_relaxed);
}

inline void
countMults(std::uint64_t k)
{
    kernelCounters().mults.fetch_add(k, std::memory_order_relaxed);
}

inline void
countAdds(std::uint64_t k)
{
    kernelCounters().adds.fetch_add(k, std::memory_order_relaxed);
}

inline void
countAutomorphisms(std::uint64_t k)
{
    kernelCounters().automorphisms.fetch_add(k, std::memory_order_relaxed);
}

/**
 * Memory-traffic counters, kept separate from KernelCounts so the
 * model-vs-measurement comparisons above stay exactly four fields.
 *
 * CraterLake's thesis is that FHE kernels are bound by data movement,
 * not arithmetic (Sec 3); these counters make the host-side analog
 * visible. A *pass* is one streaming sweep of a kernel over its
 * operand arrays; *bytes* is 8x the operand words the sweep touches
 * (each read or written array counts once per sweep). Fused kernels
 * charge one pass over the union of their operands where the composed
 * sequence would charge one pass per constituent kernel. Scratch that
 * stays cache-resident inside a fused/tiled pipeline (e.g. the
 * per-block scaled residues of the tiled base conversion) is
 * deliberately not charged: the whole point of fusion is that those
 * words never round-trip DRAM.
 */
struct MemTraffic
{
    std::uint64_t passes = 0;
    std::uint64_t bytes = 0;

    friend MemTraffic
    operator-(const MemTraffic &a, const MemTraffic &b)
    {
        return {a.passes - b.passes, a.bytes - b.bytes};
    }

    friend bool operator==(const MemTraffic &, const MemTraffic &) = default;
};

/** Global memory-traffic counters (one instance per process). */
struct MemTrafficCounters
{
    std::atomic<std::uint64_t> passes{0};
    std::atomic<std::uint64_t> bytes{0};

    MemTraffic
    snapshot() const
    {
        return {passes.load(std::memory_order_relaxed),
                bytes.load(std::memory_order_relaxed)};
    }

    void
    reset()
    {
        passes.store(0, std::memory_order_relaxed);
        bytes.store(0, std::memory_order_relaxed);
    }
};

inline MemTrafficCounters &
memTraffic()
{
    static MemTrafficCounters counters;
    return counters;
}

/** Charge @p p kernel sweeps moving @p b bytes total. */
inline void
countMemPass(std::uint64_t p, std::uint64_t b)
{
    memTraffic().passes.fetch_add(p, std::memory_order_relaxed);
    memTraffic().bytes.fetch_add(b, std::memory_order_relaxed);
}

} // namespace cl

#endif // CL_UTIL_INSTRUMENT_H
