/**
 * @file
 * Google-benchmark microbenchmarks of the scalar/vector kernels that
 * calibrate the CPU baseline (Sec 8): modular multiplication, NTTs
 * across sizes, changeRNSBase MACs, and the KSHGen expansion
 * (Keccak + rejection sampling).
 */

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>
#include <numeric>
#include <string>
#include <vector>

#include "poly/rnspoly.h"
#include "rns/baseconv.h"
#include "rns/kshgen.h"
#include "rns/ntt.h"
#include "rns/primes.h"
#include "rns/simd/kernels.h"
#include "util/prng.h"
#include "util/threadpool.h"

namespace {

using namespace cl;

/** Selects the backend named by the benchmark arg for the duration of
 *  one benchmark run, restoring the previous backend on exit. */
class BackendArg
{
  public:
    explicit BackendArg(benchmark::State &state, int arg_index = 0)
        : prev_(activeSimdBackend()),
          backend_(static_cast<SimdBackend>(state.range(arg_index)))
    {
        ok_ = setSimdBackend(backend_);
        if (!ok_)
            state.SkipWithError("backend unavailable on this host");
        else
            state.SetLabel(simdBackendName(backend_));
    }
    ~BackendArg() { setSimdBackend(prev_); }

    bool ok() const { return ok_; }
    SimdBackend backend() const { return backend_; }

  private:
    SimdBackend prev_;
    SimdBackend backend_;
    bool ok_;
};

constexpr int kScalar = static_cast<int>(SimdBackend::Scalar);
constexpr int kAvx2 = static_cast<int>(SimdBackend::Avx2);
constexpr int kAvx512 = static_cast<int>(SimdBackend::Avx512);

void
BM_ModMul(benchmark::State &state)
{
    const std::size_t n = 1 << 14;
    const u64 q = generateNttPrimes(28, n, 1)[0];
    std::vector<u64> a(n), b(n);
    FastRng rng(1);
    for (std::size_t i = 0; i < n; ++i) {
        a[i] = rng.nextBelow(q);
        b[i] = rng.nextBelow(q);
    }
    for (auto _ : state) {
        u64 acc = 0;
        for (std::size_t i = 0; i < n; ++i)
            acc ^= mulMod(a[i], b[i], q);
        benchmark::DoNotOptimize(acc);
    }
    state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_ModMul);

void
BM_ShoupMac(benchmark::State &state)
{
    const std::size_t n = 1 << 14;
    const u64 q = generateNttPrimes(28, n, 1)[0];
    std::vector<u64> x(n), acc(n, 0);
    FastRng rng(2);
    for (auto &v : x)
        v = rng.nextBelow(q);
    const ShoupMul c(987654321 % q, q);
    for (auto _ : state) {
        for (std::size_t i = 0; i < n; ++i)
            acc[i] = addMod(acc[i], c.mul(x[i], q), q);
        benchmark::DoNotOptimize(acc.data());
    }
    state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_ShoupMac);

void
BM_AddModVec(benchmark::State &state)
{
    BackendArg backend(state);
    if (!backend.ok())
        return;
    const std::size_t n = 1 << 14;
    const u64 q = generateNttPrimes(28, n, 1)[0];
    std::vector<u64> a(n), b(n);
    FastRng rng(11);
    for (std::size_t i = 0; i < n; ++i) {
        a[i] = rng.nextBelow(q);
        b[i] = rng.nextBelow(q);
    }
    for (auto _ : state) {
        kernels().addModVec(a.data(), b.data(), n, q);
        benchmark::DoNotOptimize(a.data());
    }
    state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_AddModVec)->Arg(kScalar)->Arg(kAvx2)->Arg(kAvx512);

void
BM_MulModVec(benchmark::State &state)
{
    // BM_ModMul through the kernel table: elementwise canonical
    // multiply at the 28-bit datapath width.
    BackendArg backend(state);
    if (!backend.ok())
        return;
    const std::size_t n = 1 << 14;
    const u64 q = generateNttPrimes(28, n, 1)[0];
    std::vector<u64> a(n), b(n);
    FastRng rng(12);
    for (std::size_t i = 0; i < n; ++i) {
        a[i] = rng.nextBelow(q);
        b[i] = rng.nextBelow(q);
    }
    for (auto _ : state) {
        kernels().mulModVec(a.data(), b.data(), n, q);
        benchmark::DoNotOptimize(a.data());
    }
    state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_MulModVec)->Arg(kScalar)->Arg(kAvx2)->Arg(kAvx512);

void
BM_MulModShoupVec(benchmark::State &state)
{
    BackendArg backend(state);
    if (!backend.ok())
        return;
    const std::size_t n = 1 << 14;
    const u64 q = generateNttPrimes(28, n, 1)[0];
    std::vector<u64> x(n), y(n);
    FastRng rng(13);
    for (auto &v : x)
        v = rng.nextBelow(q);
    const ShoupMul w(987654321 % q, q);
    for (auto _ : state) {
        kernels().mulModShoupVec(y.data(), x.data(), n, w.w, w.wPrec, q);
        benchmark::DoNotOptimize(y.data());
    }
    state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_MulModShoupVec)->Arg(kScalar)->Arg(kAvx2)->Arg(kAvx512);

void
BM_BaseConvMac(benchmark::State &state)
{
    // The changeRNSBase inner product alone (one destination tower,
    // 8 narrow source towers), isolating the fused MAC kernel.
    BackendArg backend(state);
    if (!backend.ok())
        return;
    const std::size_t n = 1 << 14;
    const std::size_t ls = 8;
    auto primes = generateNttPrimes(28, n, ls + 1);
    const u64 q = primes[ls];
    const u64 x_bound = *std::max_element(primes.begin(),
                                          primes.begin() + ls);
    std::vector<std::vector<u64>> x(ls);
    std::vector<const u64 *> xs(ls);
    std::vector<u64> cs(ls), y(n);
    FastRng rng(14);
    for (std::size_t i = 0; i < ls; ++i) {
        x[i].resize(n);
        for (auto &v : x[i])
            v = rng.nextBelow(primes[i]);
        xs[i] = x[i].data();
        cs[i] = rng.nextBelow(q);
    }
    for (auto _ : state) {
        kernels().baseconvMacVec(y.data(), xs.data(), cs.data(), ls, n,
                                 q, x_bound);
        benchmark::DoNotOptimize(y.data());
    }
    state.SetItemsProcessed(state.iterations() * n * ls); // MACs
}
BENCHMARK(BM_BaseConvMac)->Arg(kScalar)->Arg(kAvx2)->Arg(kAvx512);

void
BM_AutomorphismGather(benchmark::State &state)
{
    BackendArg backend(state);
    if (!backend.ok())
        return;
    const std::size_t n = 1 << 14;
    std::vector<u64> src(n), dst(n);
    std::vector<std::uint32_t> idx(n);
    FastRng rng(15);
    for (auto &v : src)
        v = rng.next64();
    std::iota(idx.begin(), idx.end(), 0u);
    for (std::size_t i = n; i > 1; --i)
        std::swap(idx[i - 1], idx[rng.nextBelow(i)]);
    for (auto _ : state) {
        kernels().gatherVec(dst.data(), src.data(), idx.data(), n);
        benchmark::DoNotOptimize(dst.data());
    }
    state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_AutomorphismGather)->Arg(kScalar)->Arg(kAvx2)->Arg(kAvx512);

void
BM_Ntt(benchmark::State &state)
{
    const std::size_t n = std::size_t{1} << state.range(0);
    const u64 q = generateNttPrimes(28, n, 1)[0];
    NttTables tables(n, q);
    std::vector<u64> a(n);
    FastRng rng(3);
    for (auto &v : a)
        v = rng.nextBelow(q);
    for (auto _ : state) {
        tables.forward(a.data());
        benchmark::DoNotOptimize(a.data());
    }
    state.SetItemsProcessed(state.iterations() * n / 2 *
                            log2Exact(n)); // butterflies
}
BENCHMARK(BM_Ntt)->Arg(12)->Arg(14)->Arg(16);

void
BM_Intt(benchmark::State &state)
{
    const std::size_t n = std::size_t{1} << state.range(0);
    const u64 q = generateNttPrimes(28, n, 1)[0];
    NttTables tables(n, q);
    std::vector<u64> a(n);
    FastRng rng(4);
    for (auto &v : a)
        v = rng.nextBelow(q);
    for (auto _ : state) {
        tables.inverse(a.data());
        benchmark::DoNotOptimize(a.data());
    }
    state.SetItemsProcessed(state.iterations() * n / 2 * log2Exact(n));
}
BENCHMARK(BM_Intt)->Arg(12)->Arg(16);

// ---- Wide-modulus kernels at N = 2^15 ------------------------------
// The 28-bit rows above exercise only the narrow vector arithmetic;
// these run the widths the CKKS workloads use (Args: {bits, backend}),
// so each kernel's scalar-vs-vector ratio is measured where it
// matters. 40 and 50 bits are hom-ops' primes, 55 the bootstrap
// chain's special primes, 60 the widest the lazy NTT takes.

constexpr std::size_t kWideN = std::size_t{1} << 15;

void
wideArgs(benchmark::internal::Benchmark *b)
{
    for (int bits : {40, 50, 55, 60})
        for (int backend : {kScalar, kAvx2, kAvx512})
            b->Args({bits, backend});
}

void
BM_WideNtt(benchmark::State &state)
{
    BackendArg backend(state, 1);
    if (!backend.ok())
        return;
    const u64 q = generateNttPrimes(state.range(0), kWideN, 1)[0];
    NttTables tables(kWideN, q);
    std::vector<u64> a(kWideN);
    FastRng rng(21);
    for (auto &v : a)
        v = rng.nextBelow(q);
    for (auto _ : state) {
        tables.forward(a.data());
        benchmark::DoNotOptimize(a.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() * kWideN / 2 *
                            log2Exact(kWideN)); // butterflies
}
BENCHMARK(BM_WideNtt)->Apply(wideArgs)->Unit(benchmark::kMicrosecond);

void
BM_WideIntt(benchmark::State &state)
{
    BackendArg backend(state, 1);
    if (!backend.ok())
        return;
    const u64 q = generateNttPrimes(state.range(0), kWideN, 1)[0];
    NttTables tables(kWideN, q);
    std::vector<u64> a(kWideN);
    FastRng rng(22);
    for (auto &v : a)
        v = rng.nextBelow(q);
    for (auto _ : state) {
        tables.inverse(a.data());
        benchmark::DoNotOptimize(a.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() * kWideN / 2 *
                            log2Exact(kWideN));
}
BENCHMARK(BM_WideIntt)->Apply(wideArgs)->Unit(benchmark::kMicrosecond);

void
BM_WideBaseConvMac(benchmark::State &state)
{
    // One destination row of an 8-term base conversion; the sources
    // are as wide as the destination.
    BackendArg backend(state, 1);
    if (!backend.ok())
        return;
    const std::size_t ls = 8;
    auto primes = generateNttPrimes(state.range(0), kWideN, ls + 1);
    const u64 q = primes[ls];
    const u64 x_bound =
        *std::max_element(primes.begin(), primes.begin() + ls);
    std::vector<std::vector<u64>> x(ls, std::vector<u64>(kWideN));
    std::vector<const u64 *> xs(ls);
    std::vector<u64> cs(ls), y(kWideN);
    FastRng rng(23);
    for (std::size_t i = 0; i < ls; ++i) {
        for (auto &v : x[i])
            v = rng.nextBelow(primes[i]);
        xs[i] = x[i].data();
        cs[i] = rng.nextBelow(q);
    }
    for (auto _ : state) {
        kernels().baseconvMacVec(y.data(), xs.data(), cs.data(), ls,
                                 kWideN, q, x_bound);
        benchmark::DoNotOptimize(y.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() * kWideN * ls); // MACs
}
BENCHMARK(BM_WideBaseConvMac)->Apply(wideArgs)
    ->Unit(benchmark::kMicrosecond);

void
BM_WideMulModVec(benchmark::State &state)
{
    BackendArg backend(state, 1);
    if (!backend.ok())
        return;
    const u64 q = generateNttPrimes(state.range(0), kWideN, 1)[0];
    std::vector<u64> a(kWideN), b(kWideN);
    FastRng rng(24);
    for (std::size_t i = 0; i < kWideN; ++i) {
        a[i] = rng.nextBelow(q);
        b[i] = rng.nextBelow(q);
    }
    for (auto _ : state) {
        kernels().mulModVec(a.data(), b.data(), kWideN, q);
        benchmark::DoNotOptimize(a.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() * kWideN);
}
BENCHMARK(BM_WideMulModVec)->Apply(wideArgs)
    ->Unit(benchmark::kMicrosecond);

void
BM_NttBatch(benchmark::State &state)
{
    // The tier-1 hot loop: forward NTT over a full RNS polynomial
    // (16 towers of N=2^16), swept across worker counts and kernel
    // backends. Towers are independent across moduli, so this is the
    // tower-parallelism the execution layer (and CraterLake's lanes)
    // exploit; backends multiply it by lane-parallelism within a
    // tower.
    BackendArg backend(state, 1);
    if (!backend.ok())
        return;
    const unsigned nthreads = static_cast<unsigned>(state.range(0));
    const std::size_t n = std::size_t{1} << 16;
    const std::size_t towers = 16;
    ThreadPool::setGlobalThreads(nthreads);

    auto primes = generateNttPrimes(28, n, towers);
    RnsChain chain(n, primes);
    std::vector<unsigned> idx;
    for (unsigned i = 0; i < towers; ++i)
        idx.push_back(i);
    RnsPoly p(chain, idx, false);
    FastRng rng(6);
    for (std::size_t t = 0; t < towers; ++t) {
        for (auto &v : p.residue(t))
            v = rng.nextBelow(p.modulus(t));
    }

    for (auto _ : state) {
        // One forward+inverse round trip per iteration keeps the
        // input valid without a copy inside the timed region.
        p.toNtt();
        p.toCoeff();
        benchmark::DoNotOptimize(p.data().data());
    }
    state.SetItemsProcessed(state.iterations() * towers * n *
                            log2Exact(n)); // butterflies, fwd+inv
    state.counters["workers"] = nthreads;
    ThreadPool::setGlobalThreads(1);
}
BENCHMARK(BM_NttBatch)
    ->Args({1, kScalar})->Args({2, kScalar})->Args({4, kScalar})
    ->Args({8, kScalar})
    ->Args({1, kAvx2})->Args({2, kAvx2})->Args({4, kAvx2})
    ->Args({8, kAvx2})
    ->Args({1, kAvx512})->Args({8, kAvx512})
    ->Unit(benchmark::kMillisecond);

void
BM_KeySwitchInnerParallel(benchmark::State &state)
{
    // changeRNSBase at keyswitch shape (8 -> 8 towers) across worker
    // counts; the MAC loops fan out per destination tower.
    const unsigned nthreads = static_cast<unsigned>(state.range(0));
    const std::size_t n = 1 << 14;
    const unsigned ls = 8;
    ThreadPool::setGlobalThreads(nthreads);
    auto primes = generateNttPrimes(28, n, 2 * ls);
    RnsChain chain(n, primes);
    std::vector<unsigned> src, dst;
    for (unsigned i = 0; i < ls; ++i) {
        src.push_back(i);
        dst.push_back(ls + i);
    }
    BaseConverter conv(chain, src, dst);
    std::vector<std::vector<u64>> in(ls, std::vector<u64>(n));
    FastRng rng(7);
    for (auto &res : in) {
        for (auto &v : res)
            v = rng.nextBelow(primes[0]);
    }
    std::vector<std::vector<u64>> out;
    for (auto _ : state) {
        conv.convert(in, out);
        benchmark::DoNotOptimize(out.data());
    }
    state.SetItemsProcessed(state.iterations() * n * ls * ls);
    state.counters["workers"] = nthreads;
    ThreadPool::setGlobalThreads(1);
}
BENCHMARK(BM_KeySwitchInnerParallel)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

void
BM_ChangeRnsBase(benchmark::State &state)
{
    const std::size_t n = 1 << 12;
    const unsigned ls = static_cast<unsigned>(state.range(0));
    auto primes = generateNttPrimes(28, n, 2 * ls);
    RnsChain chain(n, primes);
    std::vector<unsigned> src, dst;
    for (unsigned i = 0; i < ls; ++i) {
        src.push_back(i);
        dst.push_back(ls + i);
    }
    BaseConverter conv(chain, src, dst);
    std::vector<std::vector<u64>> in(ls, std::vector<u64>(n));
    FastRng rng(5);
    for (auto &res : in) {
        for (auto &v : res)
            v = rng.nextBelow(primes[0]);
    }
    std::vector<std::vector<u64>> out;
    for (auto _ : state) {
        conv.convert(in, out);
        benchmark::DoNotOptimize(out.data());
    }
    state.SetItemsProcessed(state.iterations() * n * ls * ls); // MACs
}
BENCHMARK(BM_ChangeRnsBase)->Arg(4)->Arg(8)->Arg(16);

void
BM_InvNttScaleStage(benchmark::State &state)
{
    // The iNTT's final two passes — last Gentleman-Sande stage and the
    // N^-1 scale — in the fused single-sweep kernel. Arg: backend.
    BackendArg backend(state);
    if (!backend.ok())
        return;
    state.SetLabel(simdBackendName(backend.backend()));
    const std::size_t t = 1 << 13; // half of an N=2^14 tower
    const u64 q = generateNttPrimes(28, 2 * t, 1)[0];
    const ShoupMul w(q - 2, q);
    const ShoupMul n_inv(invMod(2 * t % q, q), q);
    std::vector<u64> x(t), y(t);
    FastRng rng(21);
    for (std::size_t i = 0; i < t; ++i) {
        x[i] = rng.nextBelow(2 * q);
        y[i] = rng.nextBelow(2 * q);
    }
    // Outputs are canonical (< q ⊂ [0, 2q)), so repeated application
    // stays within the kernel's input domain.
    for (auto _ : state) {
        kernels().nttInvScaleButterflyVec(x.data(), y.data(), t, w.w,
                                          w.wPrec, n_inv.w, n_inv.wPrec,
                                          q);
        benchmark::DoNotOptimize(x.data());
        benchmark::DoNotOptimize(y.data());
    }
    state.SetItemsProcessed(state.iterations() * t);
}
BENCHMARK(BM_InvNttScaleStage)->Arg(kScalar)->Arg(kAvx2)->Arg(kAvx512);

void
BM_RescaleEpilogue(benchmark::State &state)
{
    // The coefficient-domain rescale correction for one kept tower:
    // the fused epilogue kernel with the identity N^-1 pair. Arg:
    // backend.
    BackendArg backend(state);
    if (!backend.ok())
        return;
    state.SetLabel(simdBackendName(backend.backend()));
    const std::size_t n = 1 << 14;
    auto primes = generateNttPrimes(28, n, 2);
    const u64 q = primes[0], ql = primes[1];
    const u64 half = ql / 2;
    const ShoupMul ql_inv(invMod(ql % q, q), q);
    const ShoupMul ident(1, q);
    const RescaleConsts rc{ident.w, ident.wPrec, ql,
                           half,    ql_inv.w,    ql_inv.wPrec};
    std::vector<u64> a(n), xl(n);
    FastRng rng(22);
    for (std::size_t i = 0; i < n; ++i) {
        a[i] = rng.nextBelow(q);
        xl[i] = rng.nextBelow(ql);
    }
    for (auto _ : state) {
        kernels().rescaleEpilogueVec(a.data(), xl.data(), n, &rc, q);
        benchmark::DoNotOptimize(a.data());
    }
    state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_RescaleEpilogue)->Arg(kScalar)->Arg(kAvx2)->Arg(kAvx512);

void
BM_ModDownEpilogue(benchmark::State &state)
{
    // The keyswitch mod-down boundary: forward-NTT lazy correction
    // plus the (acc - x) * P^-1 Shoup pass in one fused sweep. Arg:
    // backend.
    BackendArg backend(state);
    if (!backend.ok())
        return;
    state.SetLabel(simdBackendName(backend.backend()));
    const std::size_t n = 1 << 14;
    const u64 q = generateNttPrimes(28, n, 1)[0];
    const ShoupMul w(q - 7, q);
    std::vector<u64> x(n), acc(n), dst(n);
    FastRng rng(23);
    for (std::size_t i = 0; i < n; ++i) {
        x[i] = rng.nextBelow(4 * q);
        acc[i] = rng.nextBelow(q);
    }
    for (auto _ : state) {
        kernels().nttCorrectSubMulShoupVec(dst.data(), acc.data(),
                                           x.data(), n, w.w, w.wPrec, q);
        benchmark::DoNotOptimize(dst.data());
    }
    state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_ModDownEpilogue)->Arg(kScalar)->Arg(kAvx2)->Arg(kAvx512);

void
BM_KeySwitchInnerTiled(benchmark::State &state)
{
    // changeRNSBase at keyswitch shape (16 -> 16 towers) through the
    // tiled cache-resident pipeline.
    const std::size_t n = 1 << 14;
    const unsigned ls = 16;
    auto primes = generateNttPrimes(28, n, 2 * ls);
    RnsChain chain(n, primes);
    std::vector<unsigned> src, dst;
    for (unsigned i = 0; i < ls; ++i) {
        src.push_back(i);
        dst.push_back(ls + i);
    }
    BaseConverter conv(chain, src, dst);
    std::vector<std::vector<u64>> in(ls, std::vector<u64>(n));
    FastRng rng(24);
    for (auto &res : in) {
        for (auto &v : res)
            v = rng.nextBelow(primes[0]);
    }
    std::vector<std::vector<u64>> out;
    for (auto _ : state) {
        conv.convert(in, out);
        benchmark::DoNotOptimize(out.data());
    }
    state.SetItemsProcessed(state.iterations() * n * ls * ls); // MACs
}
BENCHMARK(BM_KeySwitchInnerTiled)->Unit(benchmark::kMillisecond);

void
BM_RescaleTower(benchmark::State &state)
{
    // Whole-poly rescale in the NTT domain (the evaluator's hot path
    // after every multiply): one iNTT of the dropped tower, then per
    // kept tower the centering pass, a forward NTT and the in-place
    // correction.
    const std::size_t n = 1 << 14;
    const unsigned towers = 8;
    auto primes = generateNttPrimes(28, n, towers);
    RnsChain chain(n, primes);
    std::vector<unsigned> idx;
    for (unsigned i = 0; i < towers; ++i)
        idx.push_back(i);
    RnsPoly base(chain, idx, false);
    FastRng rng(25);
    for (std::size_t t = 0; t < towers; ++t) {
        for (auto &v : base.residue(t))
            v = rng.nextBelow(base.modulus(t));
    }
    base.toNtt();
    for (auto _ : state) {
        state.PauseTiming();
        RnsPoly p = base;
        state.ResumeTiming();
        p.rescaleLastTower();
        benchmark::DoNotOptimize(p.data().data());
    }
    state.SetItemsProcessed(state.iterations() * (towers - 1) * n);
}
BENCHMARK(BM_RescaleTower)->Unit(benchmark::kMillisecond);

void
BM_KshGenExpansion(benchmark::State &state)
{
    // Seeded expansion of one residue polynomial, as the KSHGen unit
    // does on the fly (Sec 5.2).
    const std::size_t n = 1 << 14;
    const u64 q = generateNttPrimes(28, n, 1)[0];
    std::vector<u64> out(n);
    std::uint64_t domain = 0;
    for (auto _ : state) {
        RejectionSampler sampler(42, ++domain, q);
        sampler.fill(out.data(), n);
        benchmark::DoNotOptimize(out.data());
    }
    state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_KshGenExpansion);

void
BM_KeccakF1600(benchmark::State &state)
{
    std::array<std::uint64_t, 25> st{};
    st[0] = 1;
    for (auto _ : state) {
        keccakF1600(st);
        benchmark::DoNotOptimize(st.data());
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_KeccakF1600);

void
BM_KeccakF1600Lanes(benchmark::State &state)
{
    // The kernel table's lane-interleaved permutation; items are
    // states permuted, so items/s compares with BM_KeccakF1600.
    BackendArg backend(state);
    if (!backend.ok())
        return;
    const KernelTable &k = kernels();
    std::vector<std::uint64_t> st(25 * k.keccakLanes, 1);
    for (auto _ : state) {
        k.keccakF1600Lanes(st.data());
        benchmark::DoNotOptimize(st.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() * k.keccakLanes);
}
BENCHMARK(BM_KeccakF1600Lanes)->Arg(kScalar)->Arg(kAvx2)->Arg(kAvx512);

void
BM_KshGenBatchExpansion(benchmark::State &state)
{
    // BM_KshGenExpansion's polynomial for 8 towers at once through the
    // batch expander (one Keccak group on avx512, two on avx2).
    BackendArg backend(state);
    if (!backend.ok())
        return;
    const std::size_t n = 1 << 14, towers = 8;
    const std::vector<u64> moduli = generateNttPrimes(28, n, towers);
    std::vector<u64> out(towers * n);
    std::vector<u64 *> outs(towers);
    std::vector<std::uint64_t> domains(towers);
    for (std::size_t t = 0; t < towers; ++t)
        outs[t] = out.data() + t * n;
    std::uint64_t domain = 0;
    for (auto _ : state) {
        for (auto &d : domains)
            d = ++domain;
        expandUniform(42, domains.data(), moduli.data(), outs.data(),
                      towers, n);
        benchmark::DoNotOptimize(out.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() * towers * n);
}
BENCHMARK(BM_KshGenBatchExpansion)->Arg(kScalar)->Arg(kAvx2)->Arg(kAvx512);

} // namespace

#include "bench_main.h"

int
main(int argc, char **argv)
{
    return cl::bench::clBenchMain("cpu_kernels", argc, argv);
}
