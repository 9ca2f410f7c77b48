/**
 * @file
 * Host execution of HomPrograms over the task-graph runtime.
 *
 * The workload generators (src/workloads) emit HomPrograms sized for
 * the accelerator (N = 64K, L = 57); the host library runs the same
 * dataflow at any ring size because the math is size-generic. The
 * runner *projects* a program onto the host context — each op's level
 * is clamped to the context's chain (monotonically, so the builder's
 * level-agreement invariants survive; ops whose level motion clamps
 * away degrade to copies) — then executes every op through the
 * Evaluator, either serially in program order or as a task graph over
 * the dedup'd dependence graph from src/compiler/schedule, one task
 * per op, ready-ordered by critical-path height.
 *
 * Determinism contract (the byte-identity tests pin this): graph and
 * serial execution produce bit-identical ciphertexts at any
 * CL_THREADS / CL_SIMD setting. Each Input op encrypts through its
 * own per-op-seeded Encryptor (a per-task PRNG stream — no shared
 * draw order to race on). Each distinct (plainId, level) plaintext is
 * encoded exactly once, in NTT form, by whichever task first needs it
 * (a per-key once-flag); its value depends only on the seed and the
 * key, never on which worker encodes it. Every op writes only its own
 * slot; an atomic use count releases each plaintext and each
 * non-Output ciphertext after its last consumer has read it. Scales
 * are forced to the context scale after every op so the projected
 * program never trips the evaluator's scale guards regardless of
 * clamped depth.
 */

#ifndef CL_RUNTIME_HOSTRUN_H
#define CL_RUNTIME_HOSTRUN_H

#include "ckks/bootstrap.h"
#include "compiler/homprogram.h"
#include "runtime/taskgraph.h"

namespace cl {

struct HostRunOptions
{
    ExecMode mode = execModeFromEnv();
    unsigned threads = 0;     ///< Graph workers; 0 = CL_THREADS.
    std::uint64_t seed = 1;   ///< Input/plaintext value material.
};

struct HostRunResult
{
    /** Ciphertexts of the program's Output ops, in program order. */
    std::vector<Ciphertext> outputs;
    /** FNV-1a over every output's level, scale, basis and residue
     *  words — equal iff the outputs are byte-identical. */
    std::uint64_t digest = 0;
    /** Plaintexts this run encoded: one per distinct (plainId,
     *  level), however many ops read it. */
    std::size_t plaintexts = 0;
    TaskGraphStats stats;
};

/**
 * Executes HomPrograms against one host context. Construction
 * generates the key material the program needs (public, relin, and
 * the rotation/conjugation keys of its projected rotation set);
 * `run` may be called repeatedly and concurrently is *not* required —
 * each run parallelizes internally.
 */
class HostRunner
{
  public:
    HostRunner(const CkksContext &ctx, const CkksEncoder &enc,
               KeyGenerator &keygen, const HomProgram &prog);

    /** Execute @p prog (the one the runner was keyed for, or any
     *  program whose projected rotation set is a subset). */
    HostRunResult run(const HomProgram &prog,
                      const HostRunOptions &opts = {}) const;

  private:
    unsigned effLevel(unsigned level) const;

    const CkksContext &ctx_;
    const CkksEncoder &enc_;
    Evaluator eval_;
    PublicKey pk_;
    SwitchKey relin_;
    GaloisKeys galois_;
};

/** FNV-1a digest of a ciphertext's exact bytes (level, scale, basis
 *  indices, residue words of both components). */
std::uint64_t digestCiphertext(std::uint64_t h, const Ciphertext &ct);

} // namespace cl

#endif // CL_RUNTIME_HOSTRUN_H
