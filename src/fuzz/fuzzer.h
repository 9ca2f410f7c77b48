/**
 * @file
 * Differential fuzzing across the three independent views of an FHE
 * program (DESIGN.md §7):
 *
 *  (a) the functional CKKS library — generate a random homomorphic
 *      program, execute it through Evaluator at small N, and check
 *      the decrypted outputs against a cleartext slot model;
 *  (b) the accounting layer — the OpCounter charges the Evaluator
 *      files must equal the ground-truth kernel instrumentation
 *      (util/instrument.h) exactly, and the compiler's tracked
 *      level/scale must equal the evaluator's actual level/scale;
 *  (c) the hardware stack — lower the same program, simulate the
 *      schedule, and run ScheduleVerifier over the recorded trace,
 *      asserting op-conservation invariants on the way through: one
 *      keyswitch per keyswitching op, and emitted NTT/CRB FU work
 *      equal to the lowering's NTT/CRB-MAC vector counts.
 *
 * Programs come in two families. Functional-safe programs (no
 * ModRaise) run every leg. Structural programs place bootstrap-entry
 * ModRaise ops, after which decrypted values are m + k·q0 — the
 * cleartext model cannot predict them — so they run legs (b)/(c)
 * only; the counter cross-check still runs because it is value-blind.
 *
 * Every mismatch is a bug in one of the three views by construction:
 * the generator only emits programs that are legal under the scheme's
 * documented preconditions (level alignment, scale tolerance,
 * capacity headroom).
 */

#ifndef CL_FUZZ_FUZZER_H
#define CL_FUZZ_FUZZER_H

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "ckks/encryptor.h"
#include "ckks/evaluator.h"
#include "compiler/schedule.h"
#include "runtime/taskgraph.h"

namespace cl {

/** Operation kinds the generator emits. Every kind maps both to an
 *  Evaluator call and to a HomBuilder call (Sub lowers as Add — the
 *  instruction shape and cost are identical). */
enum class GenKind
{
    Input,    ///< Fresh encryption at a chosen level and scale.
    Add,      ///< ct + ct (levels equal, scales bit-identical).
    Sub,      ///< ct - ct (same preconditions as Add).
    AddPlain, ///< ct + pt encoded at the ct's exact scale.
    SubPlain, ///< ct - pt.
    MulPlain, ///< ct * pt at the context scale.
    Mul,      ///< ct * ct + relinearize (no rescale).
    Rescale,  ///< Drop the last tower, divide the scale.
    Rotate,   ///< Slot rotation from the environment's key set.
    Conjugate,///< Complex conjugation.
    LevelDrop,///< Drop one tower without rescaling.
    ModRaise, ///< Bootstrap entry: raise to the top of the chain.
    Output    ///< Decrypt-and-check sink.
};

const char *genKindName(GenKind k);

/** One generated op. Operand fields reference earlier ops by index.
 *  `valueSeed` makes Input/plaintext contents a function of the op
 *  itself, so a program replays identically from its op list alone
 *  (the minimizer depends on this). */
struct GenOp
{
    GenKind kind = GenKind::Input;
    int a = -1;                  ///< First ciphertext operand.
    int b = -1;                  ///< Second ciphertext operand.
    int level = 0;               ///< Input level / ModRaise target.
    int scaleOf = -1;            ///< Input: op whose scale to copy
                                 ///  (-1 = the context scale).
    int steps = 0;               ///< Rotate step count.
    std::uint64_t valueSeed = 0; ///< Seed for input/plain contents.
};

/** A generated program: replayable from the op list alone. */
struct GenProgram
{
    std::uint64_t seed = 0; ///< Generator seed (0 for hand-built).
    std::vector<GenOp> ops;

    bool hasModRaise() const;
    std::size_t countKind(GenKind k) const;
};

/** Knobs for the random generator. */
struct FuzzConfig
{
    unsigned maxOps = 24;        ///< Target op count (pre-Output).
    unsigned inputs = 3;         ///< Fresh inputs seeded up front.
    bool allowModRaise = false;  ///< Place bootstrap-entry ops.
    /** Op-mix weights, indexed by GenKind (Input..ModRaise); Output
     *  is implicit. A zero weight disables the kind. */
    std::vector<unsigned> weights = {0, 4, 2, 3, 2, 4, 4, 3, 3, 2, 1, 0};
};

/**
 * Shared fuzzing environment: context, key material, and the fixed
 * rotation-step set the generator draws from. Built once and reused
 * across seeds (key generation dominates single-run cost).
 */
class FuzzEnv
{
  public:
    explicit FuzzEnv(const CkksParams &params = CkksParams::testSmall());

    const CkksContext &ctx() const { return *ctx_; }
    const CkksEncoder &encoder() const { return *encoder_; }
    const Evaluator &evaluator() const { return *evaluator_; }
    const PublicKey &publicKey() const { return pk_; }
    const SecretKey &secretKey() const { return keygen_->secretKey(); }
    const SwitchKey &relinKey() const { return relin_; }
    const GaloisKeys &galoisKeys() const { return galois_; }
    const std::vector<int> &rotationSteps() const { return steps_; }

    unsigned lMax() const { return ctx_->l(); }
    double contextScale() const { return ctx_->params().scale(); }
    /** Modulus bits available at a level (capacity for scale·mag). */
    double capacityBits(unsigned level) const;
    /** The prime a rescale at @p level divides out of the scale. */
    double lastModulus(unsigned level) const;

  private:
    std::unique_ptr<CkksContext> ctx_;
    std::unique_ptr<CkksEncoder> encoder_;
    std::unique_ptr<KeyGenerator> keygen_;
    std::unique_ptr<Evaluator> evaluator_;
    PublicKey pk_;
    SwitchKey relin_;
    GaloisKeys galois_;
    std::vector<int> steps_;
};

/** Per-value static state the generator/legality checker tracks,
 *  mirroring the evaluator's own double arithmetic exactly. */
struct TrackedValue
{
    unsigned level = 0;
    double scale = 0;
    double mag = 0;        ///< Bound on |slot value|.
    bool poisoned = false; ///< Downstream of a ModRaise.
};

/** Generate a random legal program from @p seed. Deterministic:
 *  identical (env params, cfg, seed) gives a byte-identical program. */
GenProgram generateProgram(const FuzzEnv &env, const FuzzConfig &cfg,
                           std::uint64_t seed);

/**
 * Re-derive per-op static state for @p prog, checking every generator
 * invariant (operand liveness, level agreement, scale pairing,
 * capacity headroom). Returns std::nullopt and a message if illegal —
 * the minimizer uses this to reject broken shrink candidates.
 */
std::optional<std::vector<TrackedValue>>
checkLegal(const FuzzEnv &env, const GenProgram &prog,
           std::string *why = nullptr);

/** Outcome of one oracle run. */
struct OracleResult
{
    bool ok = true;
    std::string failure;    ///< First mismatch, human-readable.
    GenKind failKind = GenKind::Output; ///< Kind of the failing op.
    int failOp = -1;        ///< Index of the failing op, -1 if global.
    double maxError = 0;    ///< Worst decrypt error over outputs.
    bool functionalRan = false;
    std::uint64_t simCycles = 0;
};

/** Which legs to run and against which chip configurations. */
struct OracleOptions
{
    bool functional = true;  ///< Leg (a): execute + decrypt check.
    bool structural = true;  ///< Leg (c): lower/simulate/verify.
    std::vector<std::string> chipConfigs = {"craterlake"};

    /** Schedule modes the structural leg lowers under. Each mode is
     *  a separate lower/simulate/verify pass, so {None, List} runs
     *  the scheduler differentially against the emission order. */
    std::vector<ScheduleMode> scheduleModes = {ScheduleMode::None};

    /** Execution modes for the ciphertext leg. Each mode executes the
     *  whole program between counter snapshots; with more than one,
     *  every later mode's ciphertexts must be *byte-identical* to the
     *  first's and all counter totals must agree — {Serial, Graph}
     *  runs the task-graph runtime differentially against program
     *  order. Defaults to serial (the historical oracle behavior);
     *  tools/fuzz_hom --exec selects others. */
    std::vector<ExecMode> execModes = {ExecMode::Serial};

    /** Multiplier on the decrypt-error bound. 1.0 for real runs; tests
     *  shrink it to force synthetic failures (e.g. to exercise the
     *  minimizer on a program that otherwise passes). */
    double tolScale = 1.0;
};

/** Run the three-way oracle over @p prog. */
OracleResult runOracle(const FuzzEnv &env, const GenProgram &prog,
                       const OracleOptions &opts = {});

/**
 * Greedy shrink: repeatedly try (1) deleting an op together with its
 * transitive dependents and (2) replacing an op by its first
 * ciphertext operand, keeping a candidate only if it stays legal and
 * still fails the oracle. Runs to a fixed point; idempotent on
 * already-minimal programs.
 */
GenProgram minimizeProgram(const FuzzEnv &env, const GenProgram &prog,
                           const OracleOptions &opts = {});

/** Serialize to the corpus JSON format (seed + op list + failure). */
std::string toJson(const GenProgram &prog,
                   const std::string &failure = "");

/** Parse a corpus JSON file's contents back into a program. Fatal on
 *  malformed input (corpus files are repo-controlled). */
GenProgram fromJson(const std::string &json);

} // namespace cl

#endif // CL_FUZZ_FUZZER_H
