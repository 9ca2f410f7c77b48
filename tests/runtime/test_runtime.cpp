/**
 * @file
 * Task-graph runtime tests. Contracts pinned here:
 *
 *  - TaskGraph runs every task exactly once, never before its
 *    predecessors, at any worker count, and its stats (edges,
 *    critical path) match the graph structure;
 *  - a graph task that reaches a tower-parallel kernel runs the
 *    kernel's parallelFor inline on its own worker (no pool-on-pool
 *    deadlock, no oversubscription);
 *  - HostRunner's graph execution is *byte-identical* to serial
 *    execution on the full Sec 8 benchmark suite, at every worker
 *    count and every available SIMD backend, and reproduces digests
 *    pinned from an earlier build;
 *  - HostRunner encodes each shared plaintext once per run, however
 *    many concurrent tasks read it;
 *  - a batch of concurrent bootstrap() calls over one Bootstrapper
 *    is byte-identical to bootstrapping the batch serially.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "ckks/bootstrap.h"
#include "ckks/encryptor.h"
#include "rns/simd/kernels.h"
#include "runtime/hostrun.h"
#include "util/instrument.h"
#include "util/threadpool.h"
#include "workloads/benchmarks.h"

// Sanitizer builds run every instruction ~10x slower; keep the deep
// benchmark programs (tens of thousands of ops) out of those runs.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define CL_TEST_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define CL_TEST_SANITIZED 1
#endif
#endif

namespace cl {
namespace {

// ---------------------------------------------------------------
// TaskGraph
// ---------------------------------------------------------------

TEST(ExecMode, NamesRoundTrip)
{
    EXPECT_STREQ(execModeName(ExecMode::Serial), "serial");
    EXPECT_STREQ(execModeName(ExecMode::Graph), "graph");
    EXPECT_EQ(execModeByName("serial"), ExecMode::Serial);
    EXPECT_EQ(execModeByName("graph"), ExecMode::Graph);
}

/** Layered random-ish DAG: `width` tasks per layer, each depending on
 *  two tasks of the previous layer. Every task checks its
 *  predecessors retired first. */
void
runLayeredDag(ExecMode mode, unsigned threads)
{
    constexpr std::uint32_t kLayers = 8, kWidth = 16;
    TaskGraph g;
    std::vector<std::atomic<int>> done(kLayers * kWidth);
    std::vector<TaskGraph::TaskId> prev;
    std::atomic<int> violations{0};
    for (std::uint32_t layer = 0; layer < kLayers; ++layer) {
        std::vector<TaskGraph::TaskId> cur;
        for (std::uint32_t w = 0; w < kWidth; ++w) {
            std::vector<TaskGraph::TaskId> deps;
            if (layer > 0) {
                deps.push_back(prev[w]);
                deps.push_back(prev[(w + 7) % kWidth]);
            }
            const std::uint32_t slot = layer * kWidth + w;
            std::vector<TaskGraph::TaskId> deps_copy = deps;
            cur.push_back(g.add(
                [&, slot, deps_copy] {
                    for (TaskGraph::TaskId d : deps_copy) {
                        if (done[d].load(std::memory_order_acquire) != 1)
                            violations.fetch_add(1);
                    }
                    done[slot].fetch_add(1, std::memory_order_release);
                },
                std::move(deps), 1 + slot % 5));
        }
        prev = std::move(cur);
    }
    const TaskGraphStats stats = g.run(mode, threads);
    EXPECT_EQ(violations.load(), 0) << "a task ran before a predecessor";
    for (auto &d : done)
        EXPECT_EQ(d.load(), 1);
    EXPECT_EQ(stats.tasks, std::size_t{kLayers} * kWidth);
    EXPECT_EQ(stats.edges, std::size_t{kLayers - 1} * kWidth * 2);
}

TEST(TaskGraph, SerialRunsEveryTaskOnceInOrder)
{
    runLayeredDag(ExecMode::Serial, 1);
}

TEST(TaskGraph, GraphRunsEveryTaskOnceAtAnyWorkerCount)
{
    for (unsigned threads : {1u, 4u, 8u})
        runLayeredDag(ExecMode::Graph, threads);
}

TEST(TaskGraph, DuplicateDependenciesAreDeduped)
{
    TaskGraph g;
    std::atomic<int> ran{0};
    const auto a = g.add([&] { ran.fetch_add(1); });
    g.add([&] { ran.fetch_add(1); }, {a, a, a});
    const TaskGraphStats stats = g.run(ExecMode::Graph, 4);
    EXPECT_EQ(ran.load(), 2);
    EXPECT_EQ(stats.edges, 1u);
}

TEST(TaskGraph, CriticalPathIsWeightInclusive)
{
    // Diamond: a(2) -> {b(3), c(10)} -> d(4). Longest chain a,c,d = 16.
    TaskGraph g;
    const auto a = g.add([] {}, {}, 2);
    const auto b = g.add([] {}, {a}, 3);
    const auto c = g.add([] {}, {a}, 10);
    g.add([] {}, {b, c}, 4);
    const TaskGraphStats stats = g.run(ExecMode::Serial);
    EXPECT_EQ(stats.criticalPath, 16u);
    EXPECT_EQ(stats.edges, 4u);
}

TEST(TaskGraph, SerialModeStaysOnCallerInInsertionOrder)
{
    TaskGraph g;
    const auto self = std::this_thread::get_id();
    std::vector<int> order;
    for (int i = 0; i < 16; ++i) {
        g.add([&, i] {
            EXPECT_EQ(std::this_thread::get_id(), self);
            order.push_back(i); // no races: single-threaded by contract
        });
    }
    g.run(ExecMode::Serial, 8); // thread count must be ignored
    ASSERT_EQ(order.size(), 16u);
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(TaskGraph, RunTaskBatchRunsEveryClosure)
{
    for (ExecMode mode : {ExecMode::Serial, ExecMode::Graph}) {
        std::vector<std::atomic<int>> hits(32);
        std::vector<std::function<void()>> fns;
        for (std::size_t i = 0; i < hits.size(); ++i)
            fns.push_back([&hits, i] { hits[i].fetch_add(1); });
        const TaskGraphStats stats = runTaskBatch(fns, mode, 4);
        for (auto &h : hits)
            EXPECT_EQ(h.load(), 1);
        EXPECT_EQ(stats.tasks, hits.size());
        EXPECT_EQ(stats.edges, 0u);
    }
}

TEST(TaskGraph, NestedParallelForInsideGraphTaskInlines)
{
    // Regression for the pool-on-pool hazard: a graph task reaching a
    // tower-parallel kernel must run the kernel's parallelFor inline
    // on its own worker, not contend for the global pool.
    ThreadPool::setGlobalThreads(4);
    TaskGraph g;
    constexpr std::size_t kTasks = 16, kInner = 256;
    std::vector<std::atomic<int>> hits(kTasks * kInner);
    for (std::size_t t = 0; t < kTasks; ++t) {
        g.add([&, t] {
            EXPECT_TRUE(ThreadPool::inWorkerContext());
            const auto self = std::this_thread::get_id();
            parallelFor(0, kInner, [&](std::size_t i) {
                EXPECT_EQ(std::this_thread::get_id(), self);
                hits[t * kInner + i].fetch_add(1);
            });
        });
    }
    g.run(ExecMode::Graph, 4);
    for (auto &h : hits)
        EXPECT_EQ(h.load(), 1);
    ThreadPool::setGlobalThreads(1);
}

// ---------------------------------------------------------------
// HostRunner byte-identity on the benchmark suite
// ---------------------------------------------------------------

/** Small host context the benchmark programs are projected onto (the
 *  runner clamps levels; the math is size-generic). */
class HostRunnerTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        CkksParams p;
        p.logN = 8;
        p.l = 4;
        p.alpha = 4;
        ctx_ = std::make_unique<CkksContext>(p);
        enc_ = std::make_unique<CkksEncoder>(*ctx_);
        keygen_ = std::make_unique<KeyGenerator>(*ctx_);
    }

    /** Serial digest once, then graph digests at 1/4/8 workers; all
     *  must match bit-for-bit. Returns the serial digest. */
    std::uint64_t
    expectModeIdentity(const HomProgram &prog)
    {
        HostRunner runner(*ctx_, *enc_, *keygen_, prog);
        HostRunOptions opts;
        opts.mode = ExecMode::Serial;
        const HostRunResult ref = runner.run(prog, opts);
        EXPECT_EQ(ref.stats.tasks, prog.ops.size());
        EXPECT_FALSE(ref.outputs.empty()) << prog.name;
        for (unsigned threads : {1u, 4u, 8u}) {
            opts.mode = ExecMode::Graph;
            opts.threads = threads;
            const HostRunResult got = runner.run(prog, opts);
            EXPECT_EQ(got.digest, ref.digest)
                << prog.name << " diverged at " << threads << " workers";
            EXPECT_EQ(got.outputs.size(), ref.outputs.size());
        }
        return ref.digest;
    }

    std::unique_ptr<CkksContext> ctx_;
    std::unique_ptr<CkksEncoder> enc_;
    std::unique_ptr<KeyGenerator> keygen_;
};

/** The Sec 8 suite, iteration knobs turned down where the generators
 *  have them (the dataflow/op mix is unchanged; only repetition
 *  shrinks). Sanitizer builds keep the shallow half. */
std::vector<HomProgram>
testPrograms()
{
    const SecurityConfig sec = SecurityConfig::bits80();
    std::vector<HomProgram> progs;
    progs.push_back(unpackedBootstrapping());
    progs.push_back(lolaMnist(false));
    progs.push_back(lolaMnist(true));
    progs.push_back(packedBootstrapping(sec));
    progs.push_back(logisticRegression(sec, 2));
#if !defined(CL_TEST_SANITIZED)
    progs.push_back(lstm(sec, 2));
    progs.push_back(resnet20(sec));
    progs.push_back(lolaCifar());
#endif
    return progs;
}

TEST_F(HostRunnerTest, GraphMatchesSerialOnBenchmarkSuite)
{
    for (const HomProgram &prog : testPrograms()) {
        SCOPED_TRACE(prog.name);
        expectModeIdentity(prog);
    }
}

TEST_F(HostRunnerTest, RepeatedRunsAreDeterministic)
{
    const HomProgram prog = wideMultiplyGraph(57, 3, 8);
    HostRunner runner(*ctx_, *enc_, *keygen_, prog);
    HostRunOptions opts;
    opts.mode = ExecMode::Serial;
    const std::uint64_t first = runner.run(prog, opts).digest;
    EXPECT_EQ(runner.run(prog, opts).digest, first);
    opts.mode = ExecMode::Graph;
    opts.threads = 4;
    EXPECT_EQ(runner.run(prog, opts).digest, first);
}

TEST_F(HostRunnerTest, SeedChangesTheProgramInputs)
{
    const HomProgram prog = lolaMnist(false);
    HostRunner runner(*ctx_, *enc_, *keygen_, prog);
    HostRunOptions a, b;
    a.seed = 1;
    b.seed = 2;
    EXPECT_NE(runner.run(prog, a).digest, runner.run(prog, b).digest);
}

TEST_F(HostRunnerTest, ByteIdentityHoldsAcrossSimdBackends)
{
    // The determinism contract composes with the kernel backends: the
    // digest must not depend on the backend *or* the exec mode.
    std::vector<SimdBackend> backends{SimdBackend::Scalar};
    for (SimdBackend b : {SimdBackend::Avx2, SimdBackend::Avx512})
        if (kernelTableFor(b))
            backends.push_back(b);

    for (bool encrypted : {false, true}) {
        const HomProgram prog = lolaMnist(encrypted);
        HostRunner runner(*ctx_, *enc_, *keygen_, prog);
        const SimdBackend saved = activeSimdBackend();
        std::uint64_t ref = 0;
        for (std::size_t i = 0; i < backends.size(); ++i) {
            ASSERT_TRUE(setSimdBackend(backends[i]));
            HostRunOptions opts;
            opts.mode = ExecMode::Serial;
            const std::uint64_t serial = runner.run(prog, opts).digest;
            opts.mode = ExecMode::Graph;
            opts.threads = 4;
            const std::uint64_t graph = runner.run(prog, opts).digest;
            EXPECT_EQ(serial, graph);
            if (i == 0)
                ref = serial;
            else
                EXPECT_EQ(serial, ref) << "backend changed the bytes";
        }
        setSimdBackend(saved);
    }
}

TEST_F(HostRunnerTest, SharedPlaintextsAreEncodedOnce)
{
    // logreg's bootstraps reuse their transform plaintexts: the
    // graph's once-per-key cache (exercised concurrently here, and
    // under TSan in CI) must encode each (plainId, level) once, and
    // charge the one NTT it does per plaintext.
    const HomProgram prog =
        logisticRegression(SecurityConfig::bits80(), 8);
    std::size_t plain_ops = 0;
    std::set<std::pair<std::string, unsigned>> keys;
    u64 encrypt_ntts = 0;
    for (const HomOp &op : prog.ops) {
        if (op.kind == HomOpKind::AddPlain ||
            op.kind == HomOpKind::MulPlain) {
            ++plain_ops;
            keys.emplace(op.plainId, std::clamp(op.level, 1u, ctx_->l()));
        }
        // Inputs encrypt outside the evaluator, which transforms the
        // message and its three samples uncharged.
        if (op.kind == HomOpKind::Input)
            encrypt_ntts += 4 * std::clamp(op.outLevel, 1u, ctx_->l());
    }
    HostRunner runner(*ctx_, *enc_, *keygen_, prog);
    HostRunOptions opts;
    opts.mode = ExecMode::Serial;
    const HostRunResult ref = runner.run(prog, opts);
    EXPECT_LT(keys.size(), plain_ops);
    EXPECT_EQ(ref.plaintexts, keys.size());
    for (unsigned threads : {1u, 4u, 8u}) {
        opts.mode = ExecMode::Graph;
        opts.threads = threads;
        ctx_->ops().reset();
        kernelCounters().reset();
        const HostRunResult got = runner.run(prog, opts);
        EXPECT_EQ(got.digest, ref.digest) << threads << " workers";
        EXPECT_EQ(got.plaintexts, keys.size()) << threads << " workers";
        EXPECT_EQ(ctx_->ops().ntts + encrypt_ntts,
                  kernelCounters().snapshot().ntts)
            << threads << " workers";
    }
}

/**
 * Pinned bytes at logN 12, L 4 (the lola-infer workload's ring). The
 * identity tests above only compare runs of one build with each
 * other; these digests were captured before plaintext encoding moved
 * into the graph tasks, so a change to where or how often plaintexts
 * are encoded must still reproduce every output byte. logreg reuses
 * plaintexts across ops; lola-mnist-ew encrypts its weights, so it has
 * no plaintexts at all. The runners draw their keys from one
 * KeyGenerator in turn, so the order of the cases is part of the
 * pinned values.
 */
TEST(HostRunnerGolden, DigestsMatchPinnedValues)
{
    const CkksContext ctx(CkksParams::testSmall());
    const CkksEncoder enc(ctx);
    KeyGenerator keygen(ctx);
    struct Case
    {
        HomProgram prog;
        std::uint64_t digest;
    };
    std::vector<Case> cases = {
        {lolaMnist(false), 6120456506245554208ull},
        {lolaMnist(true), 4693974218992190692ull},
    };
#if !defined(CL_TEST_SANITIZED)
    // 1540 ops, 364 plain ops over 180 plaintexts (shared across its
    // bootstraps); SharedPlaintextsAreEncodedOnce covers the sharing
    // under sanitizers at a smaller ring.
    cases.push_back({logisticRegression(SecurityConfig::bits80(), 8),
                     1928103955079217744ull});
#endif
    for (const auto &c : cases) {
        SCOPED_TRACE(c.prog.name);
        HostRunner runner(ctx, enc, keygen, c.prog);
        HostRunOptions opts;
        opts.mode = ExecMode::Serial;
        EXPECT_EQ(runner.run(c.prog, opts).digest, c.digest) << "serial";
        for (unsigned threads : {1u, 4u}) {
            opts.mode = ExecMode::Graph;
            opts.threads = threads;
            EXPECT_EQ(runner.run(c.prog, opts).digest, c.digest)
                << "graph at " << threads << " workers";
        }
    }
}

// ---------------------------------------------------------------
// Concurrent bootstrapping through runTaskBatch
// ---------------------------------------------------------------

TEST(RuntimeBootstrap, BatchMatchesSerialByteForByte)
{
    // Deliberately NOT skipped under TSan: concurrent bootstrap()
    // calls sharing one diagonal cache are exactly the surface the
    // race detector should watch.
    CkksParams p;
    p.logN = 9;
    p.l = 20;
    p.alpha = 20;
    p.firstModBits = 50;
    p.scaleBits = 55;
    p.specialBits = 55;
    p.secretHamming = 16;
    CkksContext ctx(p);
    CkksEncoder enc(ctx);
    KeyGenerator keygen(ctx);
    const PublicKey pk = keygen.genPublicKey();
    Bootstrapper boot(ctx, enc, keygen);

    constexpr std::size_t kBatch = 3;
    const double app_scale = 1099511627776.0; // 2^40
    std::vector<Ciphertext> in(kBatch);
    for (std::size_t i = 0; i < kBatch; ++i) {
        FastRng rng(100 + i);
        std::vector<Complex> vals(ctx.slots());
        for (auto &z : vals)
            z = Complex(rng.nextDouble() - 0.5, 0);
        Encryptor encryptor(ctx, pk, 7 * i + 1);
        in[i] = encryptor.encrypt(enc.encode(vals, app_scale, 1),
                                  app_scale);
    }

    std::vector<Ciphertext> serial(kBatch), graph(kBatch);
    std::vector<std::function<void()>> jobs;
    for (std::size_t i = 0; i < kBatch; ++i)
        jobs.push_back([&, i] { serial[i] = boot.bootstrap(in[i]); });
    runTaskBatch(jobs, ExecMode::Serial);
    jobs.clear();
    for (std::size_t i = 0; i < kBatch; ++i)
        jobs.push_back([&, i] { graph[i] = boot.bootstrap(in[i]); });
    runTaskBatch(jobs, ExecMode::Graph, 4);

    for (std::size_t i = 0; i < kBatch; ++i) {
        const std::uint64_t a =
            digestCiphertext(1469598103934665603ull, serial[i]);
        const std::uint64_t b =
            digestCiphertext(1469598103934665603ull, graph[i]);
        EXPECT_EQ(a, b) << "batch element " << i;
    }
}

} // namespace
} // namespace cl
