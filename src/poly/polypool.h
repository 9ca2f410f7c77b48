/**
 * @file
 * Pooled allocation for RnsPoly coefficient slabs.
 *
 * The homomorphic hot path allocates and frees polynomial buffers at a
 * furious rate — every Evaluator op materializes result polynomials,
 * every keyswitch builds digit/accumulator scratch, every BSGS
 * transform encodes diagonal temporaries — and the set of sizes is
 * tiny: a handful of tower-count × N shapes per context. This pool
 * keeps one process-wide set of free lists keyed by exact byte size,
 * under one mutex: a freed slab parks on its size's list and the next
 * same-shape allocation on *any* thread reuses it. Blocks always come
 * from (and eventually return to) `operator new`/`operator delete`,
 * so enabling or disabling the pool mid-run is safe — it only changes
 * whether a free parks the block or releases it.
 *
 * Why one shared list: the hot path routinely frees a slab on a
 * different thread than the one that allocated it — op-level parallel
 * bootstrapping and the task-graph runtime build results on workers
 * and hand them to the caller, who drops them. Per-thread lists
 * stranded those blocks on the freeing thread's list while the
 * allocating workers missed and went back to `operator new`, so
 * parked memory grew with the thread count. The lock is held for a
 * hash lookup and a vector push/pop only.
 *
 * Determinism: the pool changes *where* buffers live, never what is
 * computed — ciphertext bytes are identical with the pool on or off.
 *
 * Knobs:
 *  - `CL_POOL=0|off` disables pooling (every call passes through to
 *    the system allocator); default on, except under AddressSanitizer
 *    where pooling would mask use-after-free of recycled slabs.
 *  - `CL_POOL_MB=<n>` caps the bytes parked by the whole process
 *    (default 256); frees beyond the cap release to the system
 *    allocator.
 *
 * Static destruction at exit releases every parked block, so the pool
 * holds no memory after its users are gone (leak-checker clean).
 */

#ifndef CL_POLY_POLYPOOL_H
#define CL_POLY_POLYPOOL_H

#include <cstddef>
#include <cstdint>

namespace cl {

/** Process-wide pool counters (relaxed atomics; exact once the
 *  threads touching the pool have joined). */
struct PolyPoolStats
{
    std::uint64_t allocs = 0;     ///< Allocation requests seen.
    std::uint64_t hits = 0;       ///< Served from a free list.
    std::uint64_t misses = 0;     ///< Fell through to operator new.
    std::uint64_t frees = 0;      ///< Deallocation requests seen.
    std::uint64_t parked = 0;     ///< Frees that parked on a list.
    std::uint64_t liveBytes = 0;  ///< Bytes currently held by callers.
    std::uint64_t cachedBytes = 0;///< Bytes currently parked.
};

/** Whether frees park blocks for reuse (CL_POOL, see file header). */
bool polyPoolEnabled();

/** Override the enable flag (tests/benchmarks comparing pooled vs
 *  pass-through allocation in one process). Safe mid-run. */
void polyPoolSetEnabled(bool on);

PolyPoolStats polyPoolStats();
void polyPoolResetStats();

/** The effective process-wide parking cap in bytes (CL_POOL_MB). */
std::size_t polyPoolCapBytes();

/** Release every parked block (all threads share one pool). */
void polyPoolTrim();

/** Allocate @p bytes (operator-new alignment). Never returns null. */
void *polyPoolAllocate(std::size_t bytes);

/** Return a block obtained from polyPoolAllocate with the same byte
 *  count. */
void polyPoolDeallocate(void *p, std::size_t bytes) noexcept;

} // namespace cl

#endif // CL_POLY_POLYPOOL_H
