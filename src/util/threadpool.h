/**
 * @file
 * Fixed-size thread pool with a parallelFor primitive — the software
 * execution layer mirroring CraterLake's spatial parallelism: RNS
 * residue polynomials are independent across moduli (one per hardware
 * vector, Sec 4.1), so tower loops fan out across workers exactly as
 * towers fan out across lanes/FUs in the accelerator. Bootstrapping
 * also fans out whole homomorphic ops (BSGS baby and giant steps, the
 * EvalMod halves), whose kernels then run inline on their worker.
 *
 * Design constraints (and why):
 *  - No work stealing, no futures: every use site is a dense index
 *    range [begin, end). Workers claim indices one at a time from a
 *    shared atomic cursor, so a worker that finishes a cheap index
 *    takes the next one at once; that dynamic claiming balances
 *    unequal op-level tasks as well as equal-cost tower kernels, and
 *    keeps the pool ~200 lines.
 *  - Determinism: parallelFor only partitions *which thread* runs an
 *    index, never what the index computes or where it writes, so
 *    parallel and serial execution are bit-identical by construction.
 *  - Nested calls run serially on the calling worker (tower kernels
 *    may themselves hit parallelized RnsPoly ops, and an op-level
 *    task's kernels are all nested calls), so the pool can never
 *    deadlock on itself.
 *  - `CL_THREADS` environment override; `nthreads <= 1` never spawns
 *    a thread and costs one branch per call.
 */

#ifndef CL_UTIL_THREADPOOL_H
#define CL_UTIL_THREADPOOL_H

#include <cstddef>
#include <functional>
#include <memory>

namespace cl {

class ThreadPool
{
  public:
    /** @param nthreads Total workers including the calling thread;
     *  0 means "use the hardware concurrency". */
    explicit ThreadPool(unsigned nthreads);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Total workers (calling thread included). */
    unsigned threads() const { return nthreads_; }

    /**
     * Invoke fn(i) exactly once for every i in [begin, end), blocking
     * until all indices complete. Falls back to a plain serial loop
     * when the pool is size 1, the caller is itself a pool worker
     * (nested use), or the trip count is at most @p grain — short
     * ranges run inline on the caller with no enqueue, no wakeup, and
     * no synchronization, so callers whose per-index work is tiny
     * (e.g. one short SIMD-accelerated tower) don't pay pool overhead.
     * Inline and fanned-out execution are bit-identical by
     * construction.
     */
    void parallelFor(std::size_t begin, std::size_t end,
                     const std::function<void(std::size_t)> &fn,
                     std::size_t grain = 1);

    /**
     * True while the current thread is inside pool work or inside a
     * registered WorkerScope: any parallelFor call from such a thread
     * degrades to an inline serial loop instead of fanning out.
     */
    static bool inWorkerContext();

    /**
     * RAII marker registering the current thread as an execution-layer
     * worker for its lifetime. The task-graph runtime (src/runtime)
     * wraps each of its workers in one: a graph worker that reaches a
     * tower-parallel kernel then runs the kernel's parallelFor inline
     * on itself — inter-op parallelism replaces intra-op parallelism —
     * instead of contending for the global pool's job lock and
     * oversubscribing the machine with pool workers on top of graph
     * workers. Nests: the previous state is restored on destruction.
     */
    class WorkerScope
    {
      public:
        WorkerScope();
        ~WorkerScope();
        WorkerScope(const WorkerScope &) = delete;
        WorkerScope &operator=(const WorkerScope &) = delete;

      private:
        bool prev_;
    };

    /**
     * Process-wide pool, created on first use. Size: the CL_THREADS
     * environment variable if set, else the hardware concurrency.
     */
    static ThreadPool &global();

    /** Replace the global pool (tests/benchmarks sweeping worker
     *  counts). Must not race with in-flight parallelFor calls. */
    static void setGlobalThreads(unsigned nthreads);

  private:
    struct Impl;
    std::unique_ptr<Impl> impl_; // null when nthreads_ <= 1
    unsigned nthreads_;
};

/** Shorthand for ThreadPool::global().parallelFor(...). */
void parallelFor(std::size_t begin, std::size_t end,
                 const std::function<void(std::size_t)> &fn,
                 std::size_t grain = 1);

/** One "grain" of work: ranges whose total footprint is below this
 *  many words run inline rather than waking the pool. */
constexpr std::size_t kParallelGrainWords = std::size_t{1} << 14;

/**
 * Trip-count grain for a kernel touching ~@p words_per_index memory
 * words per index: parallelFor(..., parallelGrain(n)) runs inline
 * unless the range holds more than one grain of total work. Heavy
 * per-index kernels (a whole residue polynomial at production N) get
 * grain 1 — identical to the pre-grain behavior — while short towers
 * stay on the calling thread.
 */
constexpr std::size_t
parallelGrain(std::size_t words_per_index)
{
    return words_per_index >= kParallelGrainWords
               ? 1
               : kParallelGrainWords /
                     (words_per_index == 0 ? 1 : words_per_index);
}

} // namespace cl

#endif // CL_UTIL_THREADPOOL_H
