/**
 * @file
 * Host CKKS pipeline benchmarks: the factored CoeffToSlot transform
 * (4 sparse DFT stages, the dominant non-EvalMod cost of
 * bootstrapping), under four execution strategies —
 *
 *   naive_fresh:  per-rotation keyswitch, diagonals re-encoded every
 *                 call (the historical baseline behavior);
 *   naive_cached: as above with cached diagonal plaintexts;
 *   hoisted:      one shared digit decompose per stage for all its
 *                 rotations, eager mod-downs;
 *   lazy:         the default configuration — shared decompose plus
 *                 extended-basis accumulation with one mod-down pair
 *                 per stage;
 *
 * plus the full bootstrap pipeline naive vs lazy.
 */

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "ckks/bootstrap.h"
#include "rns/simd/kernels.h"

namespace {

using namespace cl;

/** Shared context/keys/bootstrappers: built once, reused by every
 *  benchmark (key generation dominates setup, not measurement). */
struct Host
{
    std::unique_ptr<CkksContext> ctx;
    std::unique_ptr<CkksEncoder> enc;
    std::unique_ptr<KeyGenerator> keygen;
    PublicKey pk;
    std::unique_ptr<Encryptor> encryptor;
    std::unique_ptr<Bootstrapper> cached;   // default: cached diagonals
    std::unique_ptr<Bootstrapper> uncached; // re-encoded every call
    Ciphertext top;    // fresh ciphertext at the top of the chain
    Ciphertext bottom; // exhausted ciphertext at level 1

    Host()
    {
        CkksParams p;
        p.logN = 9;
        p.l = 20;
        p.alpha = 20;
        p.firstModBits = 50;
        p.scaleBits = 55;
        p.specialBits = 55;
        p.secretHamming = 16;
        ctx = std::make_unique<CkksContext>(p);
        enc = std::make_unique<CkksEncoder>(*ctx);
        keygen = std::make_unique<KeyGenerator>(*ctx);
        pk = keygen->genPublicKey();
        encryptor = std::make_unique<Encryptor>(*ctx, pk);

        cached = std::make_unique<Bootstrapper>(*ctx, *enc, *keygen);
        BootstrapParams bp;
        bp.cacheDiagonals = false;
        uncached =
            std::make_unique<Bootstrapper>(*ctx, *enc, *keygen, bp);

        FastRng rng(1);
        std::vector<Complex> v(ctx->slots());
        for (auto &z : v)
            z = Complex(rng.nextDouble() - 0.5, rng.nextDouble() - 0.5);
        const double app_scale = 1099511627776.0; // 2^40
        top = encryptor->encryptValues(*enc, v, ctx->params().scale(),
                                       ctx->l());
        bottom =
            encryptor->encrypt(enc->encode(v, app_scale, 1), app_scale);
    }
};

Host &
host()
{
    static Host h;
    return h;
}

/** Selects fused/composed pipelines for one run per the benchmark
 *  arg, restoring the previous gate on exit. */
class FusionArg
{
  public:
    FusionArg(benchmark::State &state, int arg_index)
        : prev_(fusionEnabled()),
          fused_(state.range(arg_index) != 0)
    {
        setFusionEnabled(fused_);
    }
    ~FusionArg() { setFusionEnabled(prev_); }

    bool fused() const { return fused_; }

  private:
    bool prev_;
    bool fused_;
};

/** Arg 0: 0 = naive_fresh, 1 = naive_cached, 2 = hoisted,
 *  3 = lazy (default).
 *  Arg 1: fused kernel pipelines (CL_FUSE) on/off; the composed leg
 *  is benchmarked only for the headline lazy variant. */
void
BM_CoeffToSlot(benchmark::State &state)
{
    Host &h = host();
    const int variant = static_cast<int>(state.range(0));
    FusionArg fuse(state, 1);
    const Bootstrapper &boot = variant == 0 ? *h.uncached : *h.cached;
    const LinearTransformMode mode =
        variant <= 1 ? LinearTransformMode::Naive
        : variant == 2 ? LinearTransformMode::HoistedEager
                       : LinearTransformMode::HoistedLazy;
    static const char *const kNames[] = {"naive_fresh", "naive_cached",
                                         "hoisted", "lazy"};
    state.SetLabel(std::string(kNames[variant]) +
                   (fuse.fused() ? "" : "/composed"));

    // Prime the diagonal cache outside the timed region.
    benchmark::DoNotOptimize(boot.applyCoeffToSlot(h.top, mode));
    for (auto _ : state) {
        Ciphertext out = boot.applyCoeffToSlot(h.top, mode);
        benchmark::DoNotOptimize(out.c0.data().data());
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CoeffToSlot)
    ->Args({0, 1})->Args({1, 1})->Args({2, 1})->Args({3, 1})
    ->Args({3, 0})
    ->Unit(benchmark::kMillisecond);

/** Arg 0: naive vs lazy pipeline; arg 1: fused kernel pipelines
 *  on/off (composed leg only for the lazy pipeline). */
void
BM_Bootstrap(benchmark::State &state)
{
    Host &h = host();
    const bool lazy = state.range(0) != 0;
    FusionArg fuse(state, 1);
    BootstrapParams bp;
    bp.ltMode = lazy ? LinearTransformMode::HoistedLazy
                     : LinearTransformMode::Naive;
    bp.cacheDiagonals = lazy; // naive leg models the historical cost
    state.SetLabel(std::string(lazy ? "lazy_cached" : "naive_fresh") +
                   (fuse.fused() ? "" : "/composed"));
    Bootstrapper boot(*h.ctx, *h.enc, *h.keygen, bp);
    // Prime the diagonal caches (including the ext-basis plaintexts)
    // outside the timed region.
    benchmark::DoNotOptimize(boot.bootstrap(h.bottom));
    for (auto _ : state) {
        Ciphertext fresh = boot.bootstrap(h.bottom);
        benchmark::DoNotOptimize(fresh.c0.data().data());
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Bootstrap)
    ->Args({0, 1})->Args({1, 1})->Args({1, 0})
    ->Unit(benchmark::kMillisecond);

/** Tower-tiled keyswitch inner product at a bandwidth-bound shape:
 *  logN = 13, dnum = 4 digits over a 20-tower extended basis, so one
 *  digit image is ~1.3 MB — past the CL_FUSE_TILE floor where the
 *  tiled sweep engages (the logN = 9 benchmarks above sit below it
 *  and adaptively fall back). Includes the rotation gather. Arg:
 *  fused (tiled) vs composed (materialized rotated digits). */
void
BM_KeySwitchInnerProduct(benchmark::State &state)
{
    struct Ip
    {
        std::unique_ptr<CkksContext> ctx;
        std::unique_ptr<CkksEncoder> enc;
        std::unique_ptr<KeyGenerator> keygen;
        std::unique_ptr<Evaluator> eval;
        GaloisKeys galois;
        std::size_t gal = 0;
        KeySwitchDigits digits;

        Ip()
        {
            CkksParams p;
            p.logN = 13;
            p.l = 16;
            p.alpha = 4;
            p.firstModBits = 50;
            p.scaleBits = 40;
            p.specialBits = 50;
            ctx = std::make_unique<CkksContext>(p);
            enc = std::make_unique<CkksEncoder>(*ctx);
            keygen = std::make_unique<KeyGenerator>(*ctx);
            eval = std::make_unique<Evaluator>(*ctx);
            galois = keygen->genRotationKeys({1}, /*conjugate=*/false);
            gal = eval->galoisFromSteps(1);
            const PublicKey pk = keygen->genPublicKey();
            Encryptor encryptor(*ctx, pk, 7);
            FastRng rng(31);
            std::vector<Complex> v(ctx->slots());
            for (auto &z : v)
                z = Complex(rng.nextDouble() - 0.5, 0);
            const Ciphertext ct = encryptor.encryptValues(
                *enc, v, ctx->params().scale(), ctx->l());
            digits = eval->decompose(ct.c1, ctx->alpha());
        }
    };
    static Ip ip;
    FusionArg fuse(state, 0);
    state.SetLabel(fuse.fused() ? "tiled" : "composed");
    for (auto _ : state) {
        auto acc = ip.eval->innerProduct(ip.digits,
                                         ip.galois.at(ip.gal), ip.gal);
        benchmark::DoNotOptimize(acc.first.data().data());
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_KeySwitchInnerProduct)->Arg(1)->Arg(0)
    ->Unit(benchmark::kMillisecond);

} // namespace

#include "bench_main.h"

int
main(int argc, char **argv)
{
    return cl::bench::clBenchMain("host_bootstrap", argc, argv);
}
