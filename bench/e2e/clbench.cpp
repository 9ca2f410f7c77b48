/**
 * @file
 * clbench: the repository's end-to-end benchmark driver.
 *
 *   clbench --workload <bootstrap|hom-ops|lola-infer|paper-sim>
 *           --seed <n> --seconds <s> --trace <0|1>
 *           [--trace-file out.json] [--json result.json]
 *           [--git <describe>] [--smoke]
 *
 * One client thread issues requests back to back (a closed loop) for
 * --seconds of wall time; inside a request the library may use
 * T = min(nproc, 4) threads. Every output is checked outside the timer:
 * CKKS outputs decrypt to their cleartext within 12 bits, the task-graph
 * runtime is byte-checked against serial execution, and simulated
 * statistics must repeat exactly and pass the schedule verifier.
 *
 * --trace 0 prints the end-to-end metrics; --trace 1 prints the
 * per-layer metrics, alternates traced and untraced requests (their
 * difference is the tracing overhead), runs the layer probes after the
 * loop and writes the recorded spans as a Chrome trace_event file.
 * Each metric is printed as `name value unit`; the last line of stdout
 * is one JSON object {correct, attempted, failed, metrics}.
 *
 * The driver times the library's public entry points from outside and
 * reads its counters as deltas around them; spans inside the library
 * are not recorded here. README.md in this directory lists the
 * metrics, the workloads and why each was chosen.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "ckks/bootstrap.h"
#include "core/craterlake.h"
#include "poly/polypool.h"
#include "rns/simd/kernels.h"
#include "runtime/hostrun.h"
#include "util/instrument.h"
#include "util/threadpool.h"
#include "verify/verifier.h"
#include "workloads/benchmarks.h"

#ifndef CL_BENCH_BUILD_TYPE
#define CL_BENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace cl;
using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** splitmix64 finalizer: independent per-request streams from one seed. */
std::uint64_t
mixSeed(std::uint64_t a, std::uint64_t b)
{
    std::uint64_t z = a + 0x9e3779b97f4a7c15ull * (b + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

/** Linear interpolation between closest ranks; @p p in [0, 100]. */
double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const double pos = p / 100.0 * static_cast<double>(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    if (lo + 1 >= v.size())
        return v.back();
    return v[lo] + (pos - static_cast<double>(lo)) * (v[lo + 1] - v[lo]);
}

double
median(const std::vector<double> &v)
{
    return percentile(v, 50);
}

/** Median wall time of @p reps calls of @p fn, in seconds. */
double
timeMedian(int reps, const std::function<void()> &fn)
{
    std::vector<double> s;
    for (int r = 0; r < reps; ++r) {
        const auto t0 = Clock::now();
        fn();
        s.push_back(secondsSince(t0));
    }
    return median(s);
}

/** Geometric mean; exact for one value (cycle counts stay integers). */
double
geomean(const std::vector<double> &v)
{
    if (v.empty())
        return 0;
    double product = 1;
    for (double x : v)
        product *= x;
    return std::pow(product, 1.0 / static_cast<double>(v.size()));
}

// ---------------------------------------------------------------------
// Counters and spans
// ---------------------------------------------------------------------

/** Library counters, read as deltas around a call. */
struct Counters
{
    KernelCounts kernels;
    MemTraffic traffic;
    std::uint64_t poolAllocs = 0;
    std::uint64_t poolHits = 0;
    std::uint64_t poolMisses = 0;
    /** Keyswitch stages from a context's OpCounter (0 without one). */
    std::uint64_t decomposes = 0;
    std::uint64_t innerProducts = 0;
    std::uint64_t modDowns = 0;

    static Counters
    now(const OpCounter *ops = nullptr)
    {
        const PolyPoolStats p = polyPoolStats();
        Counters c{kernelCounters().snapshot(), memTraffic().snapshot(),
                   p.allocs, p.hits, p.misses};
        if (ops) {
            c.decomposes = ops->decomposes;
            c.innerProducts = ops->innerProducts;
            c.modDowns = ops->modDowns;
        }
        return c;
    }

    Counters
    operator-(const Counters &o) const
    {
        return {kernels - o.kernels,
                traffic - o.traffic,
                poolAllocs - o.poolAllocs,
                poolHits - o.poolHits,
                poolMisses - o.poolMisses,
                decomposes - o.decomposes,
                innerProducts - o.innerProducts,
                modDowns - o.modDowns};
    }

    Counters &
    operator+=(const Counters &o)
    {
        kernels.ntts += o.kernels.ntts;
        kernels.mults += o.kernels.mults;
        kernels.adds += o.kernels.adds;
        kernels.automorphisms += o.kernels.automorphisms;
        traffic.passes += o.traffic.passes;
        traffic.bytes += o.traffic.bytes;
        poolAllocs += o.poolAllocs;
        poolHits += o.poolHits;
        poolMisses += o.poolMisses;
        decomposes += o.decomposes;
        innerProducts += o.innerProducts;
        modDowns += o.modDowns;
        return *this;
    }
};

/**
 * In-memory span recorder. A span covers one call from this driver
 * into a library layer: name (layer.entry), start, end, parent span,
 * request id, and the counter deltas across it. Spans are written as
 * Chrome trace_event JSON when the run ends.
 */
class Tracer
{
  public:
    struct Span
    {
        std::string name;
        std::uint64_t request = 0;
        int parent = -1;
        double startUs = 0;
        double endUs = 0;
        Counters delta;
    };

    /** RAII span; a null tracer records nothing and reads no clock. */
    class Scope
    {
      public:
        Scope(Tracer *t, const char *name, std::uint64_t request)
            : t_(t)
        {
            if (!t_)
                return;
            idx_ = static_cast<int>(t_->spans_.size());
            Span s;
            s.name = name;
            s.request = request;
            s.parent = t_->open_.empty() ? -1 : t_->open_.back();
            s.startUs = t_->nowUs();
            t_->spans_.push_back(std::move(s));
            t_->open_.push_back(idx_);
            start_ = Counters::now();
        }
        ~Scope()
        {
            if (!t_)
                return;
            Span &s = t_->spans_[static_cast<std::size_t>(idx_)];
            s.delta = Counters::now() - start_;
            s.endUs = t_->nowUs();
            t_->open_.pop_back();
        }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Tracer *t_;
        int idx_ = -1;
        Counters start_;
    };

    std::size_t size() const { return spans_.size(); }

    void
    writeChrome(std::ostream &os) const
    {
        os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
        os << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,"
              "\"args\":{\"name\":\"client\"}}";
        for (const Span &s : spans_) {
            const std::string cat = s.name.substr(0, s.name.find('.'));
            char buf[160];
            std::snprintf(buf, sizeof(buf), "%.3f,\"dur\":%.3f", s.startUs,
                          s.endUs - s.startUs);
            os << ",\n{\"name\":\"" << s.name << "\",\"cat\":\"" << cat
               << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":" << buf
               << ",\"args\":{\"request\":" << s.request
               << ",\"parent\":" << s.parent
               << ",\"ntts\":" << s.delta.kernels.ntts
               << ",\"mults\":" << s.delta.kernels.mults
               << ",\"adds\":" << s.delta.kernels.adds
               << ",\"automorphisms\":" << s.delta.kernels.automorphisms
               << ",\"mem_passes\":" << s.delta.traffic.passes
               << ",\"mem_bytes\":" << s.delta.traffic.bytes
               << ",\"pool_allocs\":" << s.delta.poolAllocs
               << ",\"pool_hits\":" << s.delta.poolHits << "}}";
        }
        os << "\n]}\n";
    }

  private:
    double
    nowUs() const
    {
        return std::chrono::duration<double, std::micro>(Clock::now() -
                                                         epoch_)
            .count();
    }

    Clock::time_point epoch_ = Clock::now();
    std::vector<Span> spans_;
    std::vector<int> open_;
};

using Scope = Tracer::Scope;

// ---------------------------------------------------------------------
// Metric tables
// ---------------------------------------------------------------------

struct MetricDef
{
    std::string name;
    std::string unit;
    /** Deterministic for a given seed: two runs must agree exactly. */
    bool exact = false;
};

std::vector<MetricDef>
endToEndMetrics()
{
    return {
        {"setup_s", "s"},
        {"latency_ms_p50", "ms"},
        {"latency_ms_p75", "ms"},
        {"peak_rss_mb", "MB"},
        {"chip_cycles", "cycles", true},
    };
}

const char *const kSweepConfigs[] = {"craterlake", "f1plus"};

std::vector<MetricDef>
perLayerMetrics()
{
    std::vector<MetricDef> m = {
        {"rns.ntts", "count", true},
        {"rns.mults", "count", true},
        {"rns.adds", "count", true},
        {"rns.automorphisms", "count", true},
        {"rns.mem_passes", "count", true},
        {"rns.mem_mb", "MB", true},
        {"rns.ops_per_byte", "ops/B", true},
        {"rns.ntt_fwd_us", "us"},
        {"rns.ntt_inv_us", "us"},
        {"rns.baseconv_ms", "ms"},
        {"poly.allocs", "count"},
        {"poly.heap_allocs", "count"},
        {"poly.pool_hit_ratio", "ratio"},
        {"ckks.multiply_ms", "ms"},
        {"ckks.rescale_ms", "ms"},
        {"ckks.rotate_ms", "ms"},
        {"ckks.decompose_ms", "ms"},
        {"ckks.autdigits_ms", "ms"},
        {"ckks.innerproduct_ms", "ms"},
        {"ckks.moddown_ms", "ms"},
        {"ckks.decomposes", "count", true},
        {"ckks.inner_products", "count", true},
        {"ckks.mod_downs", "count", true},
        {"ckks.precision_bits", "bits"},
        {"ckks.modraise_pct", "%"},
        {"ckks.cts_pct", "%"},
        {"ckks.stc_pct", "%"},
        {"ckks.evalmod_pct", "%"},
        {"ckks.depth_used", "count", true},
        {"runtime.tasks", "count", true},
        {"runtime.edges", "count", true},
        {"runtime.critical_path", "count", true},
        {"runtime.steals", "count"},
        {"runtime.serial_ms", "ms"},
        {"runtime.speedup", "x"},
        {"runtime.parallel_eff", "ratio"},
        {"compiler.lower_ms", "ms"},
        {"compiler.instructions", "count", true},
        {"compiler.keyswitches", "count", true},
        {"sim.run_ms", "ms"},
        {"sim.kinst_per_s", "kinst/s"},
        {"sim.fu_util", "ratio", true},
        {"sim.mem_util", "ratio", true},
        {"sim.traffic_mwords", "Mwords", true},
        {"sim.deep_gmean_cycles", "cycles", true},
        {"sim.shallow_gmean_cycles", "cycles", true},
        {"sim.f1_speedup_deep_gmean", "x", true},
        {"sim.f1_speedup_shallow_gmean", "x", true},
    };
    for (const std::string &b : benchmarkNames())
        for (const char *cfg : kSweepConfigs)
            m.push_back({"sim.cycles." + b + "." + cfg, "cycles", true});
    for (const std::string &b : benchmarkNames()) {
        m.push_back({"sim.fu_util." + b, "ratio", true});
        m.push_back({"sim.mem_util." + b, "ratio", true});
        m.push_back({"sim.paper_ratio." + b, "ratio", true});
    }
    m.push_back({"workloads.generate_ms", "ms"});
    m.push_back({"trace.overhead_pct", "%"});
    m.push_back({"trace.requests", "count"});
    return m;
}

/** Table 3 of the paper: CraterLake execution time (ms), by slug. */
const std::map<std::string, double> kPaperCraterLakeMs = {
    {"resnet20", 249.45},  {"logreg", 119.52},     {"lstm", 138.00},
    {"boot-packed", 3.91}, {"boot-unpacked", 0.10}, {"lola-cifar", 50.50},
    {"lola-mnist", 0.14},  {"lola-mnist-ew", 0.24},
};

// ---------------------------------------------------------------------
// Host CKKS context and output checks
// ---------------------------------------------------------------------

/** A host CKKS instance: context, encoder, and key material. */
struct Host
{
    explicit Host(const CkksParams &p)
        : ctx(p), enc(ctx), keygen(ctx), pk(keygen.genPublicKey()),
          dec(ctx, keygen.secretKey()), eval(ctx)
    {
    }

    CkksContext ctx;
    CkksEncoder enc;
    KeyGenerator keygen;
    PublicKey pk;
    Decryptor dec;
    Evaluator eval;
};

std::vector<Complex>
seededValues(std::uint64_t seed, std::size_t slots, bool complex_part)
{
    FastRng rng(seed);
    std::vector<Complex> v(slots);
    for (auto &z : v) {
        const double re = rng.nextDouble() - 0.5;
        z = Complex(re, complex_part ? rng.nextDouble() - 0.5 : 0.0);
    }
    return v;
}

/** -log2 of the largest slot error against the cleartext. */
double
precisionBits(const Host &h, const Ciphertext &ct,
              const std::vector<Complex> &expect)
{
    const std::vector<Complex> got = h.dec.decryptValues(h.enc, ct);
    double err = 0;
    for (std::size_t i = 0; i < expect.size(); ++i)
        err = std::max(err, std::abs(got[i] - expect[i]));
    return err > 0 ? std::min(53.0, -std::log2(err)) : 53.0;
}

/** A request's output is a failure below this precision. */
constexpr double kMinBits = 12.0;

struct Check
{
    bool ok = true;
    /** Bits of precision; NaN when the output has no cleartext. */
    double bits = std::nan("");
};

Check
bitsCheck(double bits)
{
    return {bits >= kMinBits, bits};
}

// ---------------------------------------------------------------------
// Compile and simulate (the accelerator side of every workload)
// ---------------------------------------------------------------------

struct ChipJob
{
    std::string slug;
    ChipConfig cfg;
    const HomProgram *prog = nullptr;
    bool deep = false;
};

struct ChipResult
{
    SimStats stats;
    std::size_t instructions = 0;
    LowerStats lowering;
};

struct ChipPass
{
    std::vector<ChipResult> results; ///< Parallel to the jobs.
    double lowerS = 0;
    double simS = 0;
};

/** Accelerator::execute split into its two calls so each is timed. */
ChipPass
runChip(const std::vector<ChipJob> &jobs, Tracer *tr, std::uint64_t request)
{
    ChipPass pass;
    for (const ChipJob &job : jobs) {
        Lowering lower(job.cfg);
        ChipResult r;
        auto t0 = Clock::now();
        Program prog;
        {
            Scope s(tr, "compiler.lower", request);
            prog = lower.lower(*job.prog);
        }
        pass.lowerS += secondsSince(t0);
        t0 = Clock::now();
        {
            Scope s(tr, "sim.run", request);
            r.stats = Simulator(job.cfg).run(prog);
        }
        pass.simS += secondsSince(t0);
        r.instructions = prog.size();
        r.lowering = lower.stats();
        pass.results.push_back(std::move(r));
    }
    return pass;
}

bool
sameResults(const ChipPass &a, const ChipPass &b)
{
    if (a.results.size() != b.results.size())
        return false;
    for (std::size_t i = 0; i < a.results.size(); ++i) {
        if (!(a.results[i].stats == b.results[i].stats) ||
            a.results[i].instructions != b.results[i].instructions)
            return false;
    }
    return true;
}

// ---------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------

class Workload
{
  public:
    virtual ~Workload() = default;

    /** Context, keys, inputs and programs. Requests run afterwards. */
    virtual void setup(Tracer *tr) = 0;

    /** One timed request. */
    virtual void run(std::uint64_t i, Tracer *tr) = 0;

    /** Untimed check of request @p i's output. */
    virtual Check check(std::uint64_t i) = 0;

    /** Discarded requests that fill caches; counted in set-up time. */
    virtual unsigned warmups() const { return 1; }

    /** Programs modelling this request on the accelerator. */
    virtual const std::vector<ChipJob> &chipJobs() const = 0;

    /** Host CKKS instance the layer probes run on; null if none. */
    virtual Host *host() { return nullptr; }

    /** Checks run once after the loop; returns {attempted, failed}. */
    virtual std::pair<unsigned, unsigned> finalChecks() { return {0, 0}; }

    /** Per-layer metrics only this workload can produce. */
    virtual void layerMetrics(std::map<std::string, double> &, int) {}

    double generateS = 0; ///< Time spent generating chipJobs' programs.
};

/**
 * Bootstrap: refresh level-1 ciphertexts at logN = 10, L = 20,
 * alpha = 20, h = 16. The top ciphertext is ~0.34 MB, so the working
 * set stays in a 2 MiB L2: BSGS, hoisting, EvalMod arithmetic and the
 * diagonal cache dominate; the task graph and the simulator are
 * bypassed.
 */
class BootstrapWorkload : public Workload
{
  public:
    BootstrapWorkload(std::uint64_t seed, bool smoke)
        : seed_(seed), logN_(smoke ? 9 : 10)
    {
    }

    void
    setup(Tracer *tr) override
    {
        CkksParams p;
        p.logN = logN_;
        p.l = 20;
        p.alpha = 20;
        p.firstModBits = 50;
        p.scaleBits = 55;
        p.specialBits = 55;
        p.secretHamming = 16;
        p.seed = seed_;
        {
            Scope s(tr, "ckks.keygen", 0);
            host_ = std::make_unique<Host>(p);
            boot_ = std::make_unique<Bootstrapper>(host_->ctx, host_->enc,
                                                   host_->keygen);
        }
        const double app_scale = 0x1p40;
        for (std::uint64_t k = 0; k < kInputs; ++k) {
            values_.push_back(seededValues(mixSeed(seed_, k),
                                           host_->ctx.slots(), false));
            Encryptor e(host_->ctx, host_->pk, mixSeed(seed_, 100 + k));
            inputs_.push_back(e.encrypt(
                host_->enc.encode(values_.back(), app_scale, 1),
                app_scale));
        }
        const auto t0 = Clock::now();
        {
            Scope s(tr, "workloads.generate", 0);
            program_ = packedBootstrapping();
        }
        generateS = secondsSince(t0);
        jobs_ = {{"boot-packed", ChipConfig::craterLake(), &program_, true}};
    }

    void
    run(std::uint64_t i, Tracer *tr) override
    {
        Scope s(tr, "ckks.bootstrap", i);
        out_ = boot_->bootstrap(inputs_[i % kInputs]);
    }

    Check
    check(std::uint64_t i) override
    {
        return bitsCheck(precisionBits(*host_, out_, values_[i % kInputs]));
    }

    const std::vector<ChipJob> &chipJobs() const override { return jobs_; }
    Host *host() override { return host_.get(); }

    /** Stage shares at the levels bootstrap() feeds each stage. */
    void
    layerMetrics(std::map<std::string, double> &m, int reps) override
    {
        Evaluator &ev = host_->eval;
        const unsigned top = host_->ctx.l();
        const unsigned stc_level = top - boot_->depthUsed() + 1;
        const LinearTransformMode lt = BootstrapParams{}.ltMode;
        Ciphertext raised;
        const double total_s = timeMedian(
            reps, [&] { out_ = boot_->bootstrap(inputs_[0]); });
        const double raise_s = timeMedian(
            reps, [&] { raised = ev.modRaise(inputs_[0], top); });
        const double cts_s = timeMedian(
            reps, [&] { out_ = boot_->applyCoeffToSlot(raised, lt); });
        Encryptor e(host_->ctx, host_->pk, seed_);
        const Ciphertext stc_in = e.encryptValues(
            host_->enc, values_[0], host_->ctx.params().scale(), stc_level);
        const double stc_s = timeMedian(
            reps, [&] { out_ = boot_->applySlotToCoeff(stc_in, lt); });
        m["ckks.modraise_pct"] = 100 * raise_s / total_s;
        m["ckks.cts_pct"] = 100 * cts_s / total_s;
        m["ckks.stc_pct"] = 100 * stc_s / total_s;
        m["ckks.evalmod_pct"] =
            100 * (total_s - raise_s - cts_s - stc_s) / total_s;
        m["ckks.depth_used"] = boot_->depthUsed();
    }

  private:
    static constexpr std::uint64_t kInputs = 8;
    std::uint64_t seed_;
    unsigned logN_;
    std::unique_ptr<Host> host_;
    std::unique_ptr<Bootstrapper> boot_;
    std::vector<std::vector<Complex>> values_;
    std::vector<Ciphertext> inputs_;
    Ciphertext out_;
    HomProgram program_;
    std::vector<ChipJob> jobs_;
};

/**
 * Hom-ops: one HMult (multiply + relinearize + rescale) then one
 * HRotate of the product per request, over 8 fresh top-level
 * ciphertexts at logN = 15, L = 24, alpha = 8 (3 digits). One
 * ciphertext is ~13 MB, so every kernel streams past L2: NTT, base
 * conversion, fusion and the pool carry the load; bootstrapping and
 * the task graph are bypassed.
 */
class HomOpsWorkload : public Workload
{
  public:
    HomOpsWorkload(std::uint64_t seed, bool smoke)
        : seed_(seed), logN_(smoke ? 11 : 15)
    {
    }

    unsigned warmups() const override { return 2; }

    void
    setup(Tracer *tr) override
    {
        CkksParams p;
        p.logN = logN_;
        p.l = kLevels;
        p.alpha = kAlpha;
        p.seed = seed_;
        for (int s = 1; s <= kMaxStep; s *= 2)
            steps_.push_back(s);
        {
            Scope s(tr, "ckks.keygen", 0);
            host_ = std::make_unique<Host>(p);
            relin_ = host_->keygen.genRelinKey();
            galois_ = host_->keygen.genRotationKeys(steps_);
        }
        for (std::uint64_t k = 0; k < kInputs; ++k) {
            values_.push_back(seededValues(mixSeed(seed_, k),
                                           host_->ctx.slots(), true));
            Encryptor e(host_->ctx, host_->pk, mixSeed(seed_, 100 + k));
            inputs_.push_back(e.encryptValues(host_->enc, values_.back(),
                                              host_->ctx.params().scale(),
                                              kLevels));
        }
        const auto t0 = Clock::now();
        {
            Scope s(tr, "workloads.generate", 0);
            HomBuilder b("hom-ops", logN_, kLevels,
                         [](unsigned level) {
                             return static_cast<unsigned>(
                                 ceilDiv(level, kAlpha));
                         });
            auto x = b.input(kLevels);
            auto y = b.input(kLevels);
            b.output(b.rotate(b.mul(x, y), 1));
            program_ = b.take();
        }
        generateS = secondsSince(t0);
        jobs_ = {{"hom-ops", ChipConfig::craterLake(), &program_, false}};
    }

    void
    run(std::uint64_t i, Tracer *tr) override
    {
        const Pick pk = pick(i);
        const Evaluator &ev = host_->eval;
        Ciphertext prod;
        {
            Scope s(tr, "ckks.multiply", i);
            prod = ev.multiply(inputs_[pk.a], inputs_[pk.b], relin_);
        }
        {
            Scope s(tr, "ckks.rescale", i);
            ev.rescale(prod);
        }
        Scope s(tr, "ckks.rotate", i);
        out_ = ev.rotate(prod, pk.step, galois_);
    }

    Check
    check(std::uint64_t i) override
    {
        const Pick pk = pick(i);
        const std::size_t n = host_->ctx.slots();
        std::vector<Complex> expect(n);
        for (std::size_t k = 0; k < n; ++k) {
            const std::size_t src = (k + static_cast<std::size_t>(pk.step)) % n;
            expect[k] = values_[pk.a][src] * values_[pk.b][src];
        }
        return bitsCheck(precisionBits(*host_, out_, expect));
    }

    const std::vector<ChipJob> &chipJobs() const override { return jobs_; }
    Host *host() override { return host_.get(); }

  private:
    static constexpr unsigned kLevels = 24;
    static constexpr unsigned kAlpha = 8; ///< 3 keyswitch digits at L 24.
    static constexpr int kMaxStep = 128;
    static constexpr std::uint64_t kInputs = 8;

    struct Pick
    {
        std::size_t a, b;
        int step;
    };

    /** The operands and rotation of request @p i, from the seed. */
    Pick
    pick(std::uint64_t i) const
    {
        FastRng rng(mixSeed(seed_, 1000 + i));
        const std::size_t a = rng.nextBelow(kInputs);
        const std::size_t b = rng.nextBelow(kInputs);
        return {a, b, steps_[rng.nextBelow(steps_.size())]};
    }

    std::uint64_t seed_;
    unsigned logN_;
    std::unique_ptr<Host> host_;
    SwitchKey relin_;
    GaloisKeys galois_;
    std::vector<int> steps_;
    std::vector<std::vector<Complex>> values_;
    std::vector<Ciphertext> inputs_;
    Ciphertext out_;
    HomProgram program_;
    std::vector<ChipJob> jobs_;
};

/**
 * Lola-infer: HostRunner runs the LoLa-MNIST program (226 small ops on
 * a wide graph) at logN = 12, L = 4, alpha = 4 in graph mode on T
 * workers. Task dispatch, work stealing, plaintext encoding and pool
 * churn dominate; keyswitch kernels do little. Outputs are byte-checked
 * against serial execution, not value-checked: HostRunner projects the
 * program's depth and scales, so it has no cleartext reference.
 */
class LolaWorkload : public Workload
{
  public:
    LolaWorkload(std::uint64_t seed, bool smoke)
        : seed_(seed), logN_(smoke ? 9 : 12)
    {
    }

    /** Graph workers are spawned per run and the pool warms slowly. */
    unsigned warmups() const override { return 8; }

    void
    setup(Tracer *tr) override
    {
        CkksParams p;
        p.logN = logN_;
        p.l = 4;
        p.alpha = 4;
        p.seed = seed_;
        const auto t0 = Clock::now();
        {
            Scope s(tr, "workloads.generate", 0);
            program_ = benchmarkByName("lola-mnist");
        }
        generateS = secondsSince(t0);
        Scope s(tr, "ckks.keygen", 0);
        host_ = std::make_unique<Host>(p);
        runner_ = std::make_unique<HostRunner>(host_->ctx, host_->enc,
                                               host_->keygen, program_);
        jobs_ = {{"lola-mnist", ChipConfig::craterLake(), &program_, false}};
    }

    void
    run(std::uint64_t i, Tracer *tr) override
    {
        Scope s(tr, "runtime.host_run", i);
        HostRunOptions opts;
        opts.mode = ExecMode::Graph;
        opts.threads = ThreadPool::global().threads();
        opts.seed = seed_ + i;
        const HostRunResult r = runner_->run(program_, opts);
        digest_ = r.digest;
        stats_.push_back(r.stats);
    }

    /** Every 10th request is re-run serially; digests must agree. */
    Check
    check(std::uint64_t i) override
    {
        if (i % 10 != 0)
            return {};
        HostRunOptions opts;
        opts.mode = ExecMode::Serial;
        opts.seed = seed_ + i;
        return {runner_->run(program_, opts).digest == digest_};
    }

    const std::vector<ChipJob> &chipJobs() const override { return jobs_; }
    Host *host() override { return host_.get(); }

    /** Task-graph statistics of the measured requests. */
    void
    layerMetrics(std::map<std::string, double> &m, int) override
    {
        double edges = 0, critical = 0, steals = 0;
        const std::vector<TaskGraphStats> measured(
            stats_.begin() + warmups(), stats_.end());
        for (const TaskGraphStats &s : measured) {
            edges += static_cast<double>(s.edges);
            critical += static_cast<double>(s.criticalPath);
            steals += static_cast<double>(s.steals);
        }
        const double n = static_cast<double>(measured.size());
        m["runtime.tasks"] = static_cast<double>(measured.back().tasks);
        m["runtime.edges"] = edges / n;
        m["runtime.critical_path"] = critical / n;
        m["runtime.steals"] = steals / n;
    }

  private:
    std::uint64_t seed_;
    unsigned logN_;
    std::unique_ptr<Host> host_;
    std::unique_ptr<HostRunner> runner_;
    HomProgram program_;
    std::uint64_t digest_ = 0;
    std::vector<TaskGraphStats> stats_;
    std::vector<ChipJob> jobs_;
};

/**
 * Paper-sim: the Table 3 sweep — the 8 benchmarkSuite() programs on
 * CraterLake, and on F1+ with its own digit policy — compiled with the
 * default schedule and simulated, as bench/table3_performance does. No
 * CKKS runs. Simulated statistics are exact, so a change to the
 * modelled design shows exactly; host time shows compiler and
 * simulator speed. The seed is recorded but unused: the generators are
 * deterministic.
 */
class PaperSimWorkload : public Workload
{
  public:
    explicit PaperSimWorkload(bool smoke) : smoke_(smoke) {}

    void
    setup(Tracer *tr) override
    {
        const SecurityConfig sec = SecurityConfig::bits80();
        SecurityConfig sec_f1 = sec;
        sec_f1.policy = f1plusPolicy(sec.policy);
        const auto t0 = Clock::now();
        {
            Scope s(tr, "workloads.generate", 0);
            suite_ = benchmarkSuite(sec);
            suiteF1_ = benchmarkSuite(sec_f1);
        }
        generateS = secondsSince(t0);
        const std::vector<std::string> slugs = benchmarkNames();
        for (std::size_t b = 0; b < suite_.size(); ++b) {
            if (smoke_ && slugs[b] != "lola-mnist")
                continue;
            jobs_.push_back({slugs[b], ChipConfig::craterLake(),
                             &suite_[b].prog, suite_[b].deep});
            jobs_.push_back({slugs[b], ChipConfig::f1plus(),
                             &suiteF1_[b].prog, suite_[b].deep});
        }
    }

    void
    run(std::uint64_t i, Tracer *tr) override
    {
        last_ = runChip(jobs_, tr, i);
    }

    /** Simulated statistics must repeat exactly, sweep after sweep. */
    Check
    check(std::uint64_t) override
    {
        if (reference_.results.empty())
            reference_ = last_;
        return {sameResults(reference_, last_)};
    }

    const std::vector<ChipJob> &chipJobs() const override { return jobs_; }

    /** The schedule verifier replays every lowered program once. */
    std::pair<unsigned, unsigned>
    finalChecks() override
    {
        unsigned failed = 0;
        for (const ChipJob &job : jobs_) {
            Lowering lower(job.cfg);
            const Program prog = lower.lower(*job.prog);
            if (!verifySchedule(job.cfg, prog).ok())
                ++failed;
        }
        return {static_cast<unsigned>(jobs_.size()), failed};
    }

  private:
    bool smoke_;
    std::vector<NamedProgram> suite_;
    std::vector<NamedProgram> suiteF1_;
    std::vector<ChipJob> jobs_;
    ChipPass last_;
    ChipPass reference_;
};

std::unique_ptr<Workload>
makeWorkload(const std::string &name, std::uint64_t seed, bool smoke)
{
    if (name == "bootstrap")
        return std::make_unique<BootstrapWorkload>(seed, smoke);
    if (name == "hom-ops")
        return std::make_unique<HomOpsWorkload>(seed, smoke);
    if (name == "lola-infer")
        return std::make_unique<LolaWorkload>(seed, smoke);
    if (name == "paper-sim")
        return std::make_unique<PaperSimWorkload>(smoke);
    return nullptr;
}

// ---------------------------------------------------------------------
// Layer probes (traced run only, after the measured loop)
// ---------------------------------------------------------------------

/**
 * Kernel and evaluator probes on the workload's own host shape: one
 * residue NTT at its N, one mod-up base conversion, and each evaluator
 * entry point on fresh top-level ciphertexts. Paper-sim has no host
 * shape and probes the library's default parameters.
 */
void
probeHost(Host &h, std::uint64_t seed, int reps, Tracer *tr,
          std::map<std::string, double> &m)
{
    const CkksContext &ctx = h.ctx;
    const std::size_t n = ctx.n();
    {
        Scope s(tr, "rns.ntt", 0);
        const NttTables &ntt = ctx.chain().ntt(0);
        FastRng rng(seed);
        std::vector<u64> a(n);
        for (u64 &x : a)
            x = rng.nextBelow(ntt.q());
        m["rns.ntt_fwd_us"] =
            1e6 * timeMedian(reps * 10, [&] { ntt.forward(a.data()); });
        m["rns.ntt_inv_us"] =
            1e6 * timeMedian(reps * 10, [&] { ntt.inverse(a.data()); });
    }
    {
        // Mod-up of the first digit at the top level: alpha source
        // towers extended to the rest of the data basis and P.
        Scope s(tr, "rns.baseconv", 0);
        const std::vector<unsigned> data = ctx.dataIdx(ctx.l());
        const std::size_t alpha = std::min<std::size_t>(ctx.alpha(),
                                                         data.size());
        std::vector<unsigned> src(data.begin(), data.begin() + alpha);
        std::vector<unsigned> dst(data.begin() + alpha, data.end());
        for (unsigned i : ctx.specialIdx())
            dst.push_back(i);
        const BaseConverter &conv = ctx.converter(src, dst);
        FastRng rng(seed + 1);
        std::vector<std::vector<u64>> in(src.size(), std::vector<u64>(n));
        for (std::size_t t = 0; t < src.size(); ++t)
            for (u64 &x : in[t])
                x = rng.nextBelow(ctx.chain().modulus(src[t]));
        std::vector<std::vector<u64>> out;
        m["rns.baseconv_ms"] =
            1e3 * timeMedian(reps, [&] { conv.convert(in, out); });
    }

    Scope s(tr, "ckks.probe", 0);
    const Evaluator &ev = h.eval;
    const SwitchKey relin = h.keygen.genRelinKey();
    const GaloisKeys gk = h.keygen.genRotationKeys({1});
    const std::size_t galois = ev.galoisFromSteps(1);
    const SwitchKey &rot = gk.at(galois);
    Encryptor e(ctx, h.pk, seed);
    const double scale = ctx.params().scale();
    const Ciphertext x = e.encryptValues(
        h.enc, seededValues(seed, ctx.slots(), true), scale, ctx.l());
    const Ciphertext y = e.encryptValues(
        h.enc, seededValues(seed + 1, ctx.slots(), true), scale, ctx.l());
    Ciphertext prod, tmp;
    m["ckks.multiply_ms"] =
        1e3 * timeMedian(reps, [&] { prod = ev.multiply(x, y, relin); });
    m["ckks.rescale_ms"] = 1e3 * timeMedian(reps, [&] {
        tmp = prod;
        ev.rescale(tmp);
    });
    m["ckks.rotate_ms"] =
        1e3 * timeMedian(reps, [&] { tmp = ev.rotate(x, 1, gk); });
    KeySwitchDigits digits, rotated;
    m["ckks.decompose_ms"] = 1e3 * timeMedian(reps, [&] {
        digits = ev.decompose(x.c1, ctx.alpha());
    });
    m["ckks.autdigits_ms"] = 1e3 * timeMedian(reps, [&] {
        rotated = ev.automorphismDigits(digits, galois);
    });
    std::pair<RnsPoly, RnsPoly> acc;
    m["ckks.innerproduct_ms"] = 1e3 * timeMedian(reps, [&] {
        acc = ev.innerProduct(rotated, rot);
    });
    m["ckks.moddown_ms"] =
        1e3 * timeMedian(reps, [&] { tmp.c0 = ev.modDown(acc.first); });
}

/** Accelerator-side metrics from compile-and-simulate passes. */
void
chipMetrics(const std::vector<ChipJob> &jobs,
            const std::vector<ChipPass> &passes,
            std::map<std::string, double> &m)
{
    std::vector<double> lower_ms, sim_ms;
    for (const ChipPass &p : passes) {
        lower_ms.push_back(1e3 * p.lowerS);
        sim_ms.push_back(1e3 * p.simS);
    }
    m["compiler.lower_ms"] = median(lower_ms);
    m["sim.run_ms"] = median(sim_ms);

    const ChipPass &pass = passes.front();
    double insts = 0, keyswitches = 0, traffic = 0, fu = 0, mem = 0;
    unsigned cl_jobs = 0;
    std::vector<double> deep_cl, shallow_cl, deep_f1, shallow_f1;
    for (std::size_t j = 0; j < jobs.size(); ++j) {
        const ChipJob &job = jobs[j];
        const ChipResult &r = pass.results[j];
        insts += static_cast<double>(r.instructions);
        keyswitches += static_cast<double>(r.lowering.keyswitches);
        const double c = static_cast<double>(r.stats.cycles);
        m["sim.cycles." + job.slug + "." + job.cfg.name] = c;
        if (job.cfg.name == "craterlake") {
            ++cl_jobs;
            traffic += static_cast<double>(r.stats.totalTrafficWords());
            fu += r.stats.fuUtilization(job.cfg);
            mem += r.stats.memUtilization();
            m["sim.fu_util." + job.slug] = r.stats.fuUtilization(job.cfg);
            m["sim.mem_util." + job.slug] = r.stats.memUtilization();
        }
        // Table 3 summaries cover the paper's benchmarks only.
        const auto paper = kPaperCraterLakeMs.find(job.slug);
        if (paper == kPaperCraterLakeMs.end())
            continue;
        if (job.cfg.name == "craterlake") {
            m["sim.paper_ratio." + job.slug] =
                r.stats.seconds(job.cfg) * 1e3 / paper->second;
            (job.deep ? deep_cl : shallow_cl).push_back(c);
        } else {
            (job.deep ? deep_f1 : shallow_f1).push_back(c);
        }
    }
    m["compiler.instructions"] = insts;
    m["compiler.keyswitches"] = keyswitches;
    m["sim.kinst_per_s"] = insts / 1e3 / (median(sim_ms) / 1e3);
    m["sim.traffic_mwords"] = traffic / 1e6;
    m["sim.fu_util"] = cl_jobs ? fu / cl_jobs : 0;
    m["sim.mem_util"] = cl_jobs ? mem / cl_jobs : 0;
    m["sim.deep_gmean_cycles"] = geomean(deep_cl);
    m["sim.shallow_gmean_cycles"] = geomean(shallow_cl);
    // F1+ speed-ups need both configurations of a benchmark; the same
    // ratio of geomeans as bench/table3_performance prints.
    if (!deep_f1.empty() && deep_f1.size() == deep_cl.size())
        m["sim.f1_speedup_deep_gmean"] = geomean(deep_f1) / geomean(deep_cl);
    if (!shallow_f1.empty() && shallow_f1.size() == shallow_cl.size())
        m["sim.f1_speedup_shallow_gmean"] =
            geomean(shallow_f1) / geomean(shallow_cl);
}

double
chipCycles(const std::vector<ChipJob> &jobs, const ChipPass &pass)
{
    std::vector<double> c;
    for (std::size_t j = 0; j < jobs.size(); ++j)
        if (jobs[j].cfg.name == "craterlake")
            c.push_back(static_cast<double>(pass.results[j].stats.cycles));
    return geomean(c);
}

// ---------------------------------------------------------------------
// Command line, hygiene, output
// ---------------------------------------------------------------------

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 20;
    bool trace = false;
    bool smoke = false;
    std::string traceFile;
    std::string jsonFile;
    std::string gitDescribe = "unknown";
};

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "clbench: %s\nusage: clbench --workload "
                 "<bootstrap|hom-ops|lola-infer|paper-sim> --seed <n> "
                 "--seconds <s> --trace <0|1> [--trace-file out.json] "
                 "[--json result.json] [--git <describe>] [--smoke]\n",
                 msg);
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--smoke") {
            o.smoke = true;
            continue;
        }
        if (i + 1 >= argc)
            usage(("missing value for " + a).c_str());
        const std::string v = argv[++i];
        try {
            if (a == "--workload")
                o.workload = v;
            else if (a == "--seed")
                o.seed = std::stoull(v);
            else if (a == "--seconds")
                o.seconds = std::stod(v);
            else if (a == "--trace" && (v == "0" || v == "1"))
                o.trace = v == "1";
            else if (a == "--trace-file")
                o.traceFile = v;
            else if (a == "--json")
                o.jsonFile = v;
            else if (a == "--git")
                o.gitDescribe = v;
            else
                usage(("bad argument " + a + " " + v).c_str());
        } catch (const std::logic_error &) {
            usage(("bad value for " + a + ": " + v).c_str());
        }
    }
    if (o.workload.empty())
        usage("--workload is required");
    if (!(o.seconds > 0))
        usage("--seconds must be positive");
    return o;
}

/**
 * The benchmark measures only the default code paths of a Release
 * build. Refusing the knobs, instead of resetting them, keeps a stray
 * environment from shaping the numbers and keeps this driver free of
 * every knob a later change may delete.
 */
bool
hygieneOk()
{
    bool ok = true;
    if (std::strcmp(CL_BENCH_BUILD_TYPE, "Release") != 0) {
        std::fprintf(stderr,
                     "clbench: refusing to run a %s build; configure "
                     "with -DCMAKE_BUILD_TYPE=Release\n",
                     CL_BENCH_BUILD_TYPE);
        ok = false;
    }
    for (const char *knob : {"CL_SIMD", "CL_FUSE", "CL_FUSE_TILE", "CL_POOL",
                             "CL_POOL_MB", "CL_EXEC", "CL_THREADS"}) {
        if (std::getenv(knob)) {
            std::fprintf(stderr,
                         "clbench: refusing to run with %s set; the "
                         "benchmark measures default code paths only\n",
                         knob);
            ok = false;
        }
    }
    return ok;
}

/** All digits, and always a valid JSON number. */
std::string
num(double v)
{
    if (!std::isfinite(v))
        v = 0;
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

double
peakRssMb()
{
    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

/** Everything the measured loop observed. */
struct LoopResult
{
    std::vector<double> untracedMs;
    std::vector<double> tracedMs;
    Counters counters; ///< Summed over the requests, checks excluded.
    unsigned attempted = 0;
    unsigned failed = 0;
    double minBits = std::nan("");
    double seconds = 0;
    double peakRssMb = 0;

    double
    requests() const
    {
        return static_cast<double>(untracedMs.size() + tracedMs.size());
    }
};

/**
 * The closed loop: requests back to back until @p seconds have passed
 * (at least two; exactly two under --smoke), each checked outside the
 * timer. In a traced run every other request records spans, so the two
 * halves give the tracing overhead.
 */
LoopResult
measure(Workload &w, const Options &opt, Tracer *tr)
{
    LoopResult r;
    const unsigned min_requests = 2;
    const OpCounter *ops = w.host() ? &w.host()->ctx.ops() : nullptr;
    const auto start = Clock::now();
    for (std::uint64_t i = w.warmups();; ++i) {
        if (r.attempted >= min_requests &&
            (opt.smoke || secondsSince(start) >= opt.seconds))
            break;
        Tracer *const span_tr = r.attempted % 2 == 1 ? tr : nullptr;
        ++r.attempted;
        const Counters c0 = Counters::now(ops);
        const auto t0 = Clock::now();
        Check c;
        try {
            {
                Scope s(span_tr, "request", i);
                w.run(i, span_tr);
            }
            const double ms = 1e3 * secondsSince(t0);
            r.counters += Counters::now(ops) - c0;
            (span_tr ? r.tracedMs : r.untracedMs).push_back(ms);
            Scope s(span_tr, "check", i);
            c = w.check(i);
        } catch (const std::exception &e) {
            std::fprintf(stderr, "clbench: request %llu threw: %s\n",
                         static_cast<unsigned long long>(i), e.what());
            c.ok = false;
        }
        if (!c.ok) {
            ++r.failed;
            std::fprintf(stderr, "clbench: request %llu failed its check\n",
                         static_cast<unsigned long long>(i));
        }
        if (!std::isnan(c.bits))
            r.minBits = std::isnan(r.minBits) ? c.bits
                                              : std::min(r.minBits, c.bits);
    }
    r.seconds = secondsSince(start);
    // Peak memory of set-up and requests only: the checks that follow
    // are the benchmark's own work, and the schedule verifier's peak
    // varies with how many requests ran before it.
    r.peakRssMb = peakRssMb();
    return r;
}

/** Per-layer metrics of a traced run; runs the probes as it goes. */
void
perLayer(Workload &w, const LoopResult &r, const std::vector<ChipPass> &passes,
         const Options &opt, unsigned threads, Tracer *tr,
         std::map<std::string, double> &m)
{
    const int reps = opt.smoke ? 2 : 5;
    const double n_req = r.requests();
    const Counters &c = r.counters;
    const KernelCounts &k = c.kernels;
    auto per_request = [&](std::uint64_t v) {
        return static_cast<double>(v) / n_req;
    };
    m["rns.ntts"] = per_request(k.ntts);
    m["rns.mults"] = per_request(k.mults);
    m["rns.adds"] = per_request(k.adds);
    m["rns.automorphisms"] = per_request(k.automorphisms);
    m["rns.mem_passes"] = per_request(c.traffic.passes);
    m["rns.mem_mb"] = per_request(c.traffic.bytes) / 1e6;
    m["poly.allocs"] = per_request(c.poolAllocs);
    m["poly.heap_allocs"] = per_request(c.poolMisses);
    if (c.poolAllocs)
        m["poly.pool_hit_ratio"] = static_cast<double>(c.poolHits) /
                                   static_cast<double>(c.poolAllocs);
    m["ckks.decomposes"] = per_request(c.decomposes);
    m["ckks.inner_products"] = per_request(c.innerProducts);
    m["ckks.mod_downs"] = per_request(c.modDowns);
    if (!std::isnan(r.minBits))
        m["ckks.precision_bits"] = r.minBits;
    m["trace.requests"] = static_cast<double>(r.tracedMs.size());
    const double p50 = percentile(r.untracedMs, 50);
    if (!r.tracedMs.empty())
        m["trace.overhead_pct"] =
            100 * (percentile(r.tracedMs, 50) - p50) / p50;

    std::unique_ptr<Host> defaults;
    Host *h = w.host();
    if (!h) {
        defaults = std::make_unique<Host>(CkksParams{});
        h = defaults.get();
    }
    // Elementwise modular ops (an NTT counted as its butterflies) per
    // byte the kernels computed they moved.
    const double n = static_cast<double>(h->ctx.n());
    if (c.traffic.bytes)
        m["rns.ops_per_byte"] =
            (static_cast<double>(k.mults + k.adds) * n +
             static_cast<double>(k.ntts) * n / 2 * std::log2(n)) /
            static_cast<double>(c.traffic.bytes);
    probeHost(*h, opt.seed, reps, tr, m);
    chipMetrics(w.chipJobs(), passes, m);
    w.layerMetrics(m, reps);

    // The same request with the library on one thread.
    ThreadPool::setGlobalThreads(1);
    std::vector<double> serial_ms;
    const std::uint64_t next = w.warmups() + r.attempted;
    for (int i = 0; i < std::min(reps, 3); ++i) {
        const auto t0 = Clock::now();
        w.run(next + static_cast<std::uint64_t>(i), nullptr);
        serial_ms.push_back(1e3 * secondsSince(t0));
    }
    ThreadPool::setGlobalThreads(threads);
    m["runtime.serial_ms"] = median(serial_ms);
    m["runtime.speedup"] = median(serial_ms) / p50;
    m["runtime.parallel_eff"] = m["runtime.speedup"] / threads;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parseArgs(argc, argv);
    if (!hygieneOk())
        return 2;
    if (!makeWorkload(opt.workload, opt.seed, true))
        usage(("unknown workload " + opt.workload).c_str());

    const unsigned threads =
        std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
    ThreadPool::setGlobalThreads(threads);
    Tracer tracer;
    Tracer *const tr = opt.trace ? &tracer : nullptr;

    // Set up several times: setup_s is the median, the last one stays.
    std::vector<double> setup_s, generate_ms;
    std::unique_ptr<Workload> w;
    for (int k = 0; k < (opt.smoke ? 1 : 3); ++k) {
        w.reset();
        const auto t0 = Clock::now();
        Scope s(tr, "setup", 0);
        w = makeWorkload(opt.workload, opt.seed, opt.smoke);
        w->setup(tr);
        for (unsigned j = 0; j < w->warmups(); ++j) {
            w->run(j, tr);
            if (!w->check(j).ok) {
                std::fprintf(stderr, "clbench: warm-up request %u failed\n",
                             j);
                return 1;
            }
        }
        setup_s.push_back(secondsSince(t0));
        generate_ms.push_back(1e3 * w->generateS);
    }

    LoopResult r = measure(*w, opt, tr);
    const auto [final_attempted, final_failed] = w->finalChecks();
    r.attempted += final_attempted;
    r.failed += final_failed;

    std::vector<ChipPass> passes;
    for (int i = 0; i < (opt.trace ? 3 : 1); ++i) {
        Scope s(tr, "chip.pass", 0);
        passes.push_back(runChip(w->chipJobs(), tr, 0));
    }

    std::map<std::string, double> m;
    std::vector<MetricDef> defs;
    if (!opt.trace || opt.smoke) {
        m["setup_s"] = median(setup_s);
        m["latency_ms_p50"] = percentile(r.untracedMs, 50);
        m["latency_ms_p75"] = percentile(r.untracedMs, 75);
        m["peak_rss_mb"] = r.peakRssMb;
        m["chip_cycles"] = chipCycles(w->chipJobs(), passes.front());
        defs = endToEndMetrics();
    }
    if (opt.trace) {
        m["workloads.generate_ms"] = median(generate_ms);
        perLayer(*w, r, passes, opt, threads, tr, m);
        for (MetricDef &d : perLayerMetrics())
            defs.push_back(std::move(d));
    }

    // Emit exactly the metrics this mode owes, in table order; a metric
    // of a layer the workload does not use reads 0.
    std::ostringstream metrics_json;
    for (const MetricDef &d : defs) {
        const double v = m.count(d.name) ? m.at(d.name) : 0;
        const bool is_time = d.unit == "s" || d.unit == "ms" || d.unit == "us";
        if (is_time && !(v > 0)) {
            std::fprintf(stderr, "clbench: no measurement for %s\n",
                         d.name.c_str());
            return 1;
        }
        std::printf("%s %s %s\n", d.name.c_str(), num(v).c_str(),
                    d.unit.c_str());
        metrics_json << (metrics_json.tellp() ? ", " : "") << "\""
                     << d.name << "\": {\"value\": " << num(v)
                     << ", \"unit\": \"" << d.unit << "\"}";
    }

    const char *simd = simdBackendName(activeSimdBackend());
    std::printf("# workload %s seed %llu threads %u nproc %u simd %s "
                "build %s git %s\n",
                opt.workload.c_str(),
                static_cast<unsigned long long>(opt.seed), threads,
                std::thread::hardware_concurrency(), simd,
                CL_BENCH_BUILD_TYPE, opt.gitDescribe.c_str());
    std::printf("# requests %.0f (untraced %zu, traced %zu) in %.1f s\n",
                r.requests(), r.untracedMs.size(), r.tracedMs.size(),
                r.seconds);

    if (tr && !opt.traceFile.empty()) {
        std::ofstream os(opt.traceFile);
        tracer.writeChrome(os);
        if (!os) {
            std::fprintf(stderr, "clbench: cannot write %s\n",
                         opt.traceFile.c_str());
            return 1;
        }
    }
    if (!opt.jsonFile.empty()) {
        std::ofstream os(opt.jsonFile);
        os << "{\"stamp\": {\"workload\": \"" << opt.workload
           << "\", \"seed\": " << opt.seed << ", \"seconds\": "
           << num(opt.seconds) << ", \"trace\": " << (opt.trace ? 1 : 0)
           << ", \"smoke\": " << (opt.smoke ? 1 : 0)
           << ", \"nproc\": " << std::thread::hardware_concurrency()
           << ", \"threads\": " << threads << ", \"simd\": \"" << simd
           << "\", \"build_type\": \"" << CL_BENCH_BUILD_TYPE
           << "\", \"git\": \"" << opt.gitDescribe << "\"},\n"
           << " \"requests\": " << num(r.requests())
           << ", \"spans\": " << tracer.size() << ",\n \"exact\": [";
        bool first = true;
        for (const MetricDef &d : defs) {
            if (!d.exact)
                continue;
            os << (first ? "" : ", ") << "\"" << d.name << "\"";
            first = false;
        }
        os << "],\n \"metrics\": {" << metrics_json.str() << "}}\n";
        if (!os) {
            std::fprintf(stderr, "clbench: cannot write %s\n",
                         opt.jsonFile.c_str());
            return 1;
        }
    }

    std::printf("{\"correct\": %s, \"attempted\": %u, \"failed\": %u, "
                "\"metrics\": {%s}}\n",
                r.failed == 0 ? "true" : "false", r.attempted, r.failed,
                metrics_json.str().c_str());
    return 0;
}
