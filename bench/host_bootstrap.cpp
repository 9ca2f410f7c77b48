/**
 * @file
 * Host CKKS pipeline benchmarks: the factored CoeffToSlot transform
 * (4 sparse DFT stages, the dominant non-EvalMod cost of
 * bootstrapping) — one shared digit decompose per stage plus
 * extended-basis accumulation with one mod-down pair per stage — the
 * full bootstrap pipeline, and the tower-tiled keyswitch inner
 * product.
 */

#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "ckks/bootstrap.h"

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
    std::unique_ptr<Bootstrapper> boot;
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

        boot = std::make_unique<Bootstrapper>(*ctx, *enc, *keygen);

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

void
BM_CoeffToSlot(benchmark::State &state)
{
    Host &h = host();
    const LinearTransformMode mode = BootstrapParams{}.ltMode;
    // Prime the diagonal cache outside the timed region.
    benchmark::DoNotOptimize(h.boot->applyCoeffToSlot(h.top, mode));
    for (auto _ : state) {
        Ciphertext out = h.boot->applyCoeffToSlot(h.top, mode);
        benchmark::DoNotOptimize(out.c0.data().data());
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CoeffToSlot)->Unit(benchmark::kMillisecond);

void
BM_Bootstrap(benchmark::State &state)
{
    Host &h = host();
    Bootstrapper boot(*h.ctx, *h.enc, *h.keygen);
    // Prime the diagonal caches outside the timed region.
    benchmark::DoNotOptimize(boot.bootstrap(h.bottom));
    for (auto _ : state) {
        Ciphertext fresh = boot.bootstrap(h.bottom);
        benchmark::DoNotOptimize(fresh.c0.data().data());
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Bootstrap)->Unit(benchmark::kMillisecond);

/** Tower-tiled keyswitch inner product at a bandwidth-bound shape:
 *  logN = 13, dnum = 4 digits over a 20-tower extended basis, so one
 *  digit image is ~1.3 MB — past Evaluator::kTileMinBytes, where the
 *  tiled sweep engages (the logN = 9 benchmarks above sit below it
 *  and take the per-digit path). Includes the rotation gather. */
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
    for (auto _ : state) {
        auto acc = ip.eval->innerProduct(ip.digits,
                                         ip.galois.at(ip.gal), ip.gal);
        benchmark::DoNotOptimize(acc.first.data().data());
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_KeySwitchInnerProduct)->Unit(benchmark::kMillisecond);

} // namespace

#include "bench_main.h"

int
main(int argc, char **argv)
{
    return cl::bench::clBenchMain("host_bootstrap", argc, argv);
}
