/**
 * @file
 * Evaluator-level contracts for the fused kernel pipelines (DESIGN.md
 * §5e), at two contexts: CkksParams::testSmall(), whose extended-basis
 * digit image sits below Evaluator::kTileMinBytes (per-digit inner
 * product), and a logN 13 context with at least 16 extended towers,
 * above it (tower-tiled inner product):
 *  - a pipeline of rescales, keyswitches and a rotation reproduces
 *    pinned digests on every available kernel table. The digests were
 *    taken while the composed multi-pass sequences still ran in
 *    production and matched the fused ones byte for byte;
 *  - the tiled inner product with a fused digit automorphism equals
 *    the composed sequence automorphismDigits + innerProduct;
 *  - the OpCounter model equals the instrumented kernel counts on both
 *    sequences, and the two sequences count the same work.
 */

#include <gtest/gtest.h>

#include <cstdint>

#include "ckks/encryptor.h"
#include "ckks/evaluator.h"
#include "rns/simd/kernels.h"
#include "runtime/hostrun.h"
#include "util/instrument.h"

#include "../rns/kernel_test_util.h"

namespace cl {
namespace {

using test::TableGuard;
using test::TableId;

/** The context above the tile floor: 16 data + 4 special towers. */
CkksParams
tiledParams()
{
    return CkksParams::testDeep(13, 16, 4);
}

bool
sameCiphertext(const Ciphertext &a, const Ciphertext &b)
{
    return a.c0.data() == b.c0.data() && a.c1.data() == b.c1.data() &&
           a.scale == b.scale;
}

/** Keys, encryptor and evaluator over one parameter set, built in a
 *  fixed order so every run encrypts the same bytes. */
struct Harness
{
    explicit Harness(const CkksParams &params)
        : ctx(params), enc(ctx), keygen(ctx), pk(keygen.genPublicKey()),
          encryptor(ctx, pk), eval(ctx), relin(keygen.genRelinKey()),
          galois(keygen.genRotationKeys({1}, /*conjugate=*/false))
    {
    }

    Ciphertext
    encryptRandom(std::uint64_t seed)
    {
        FastRng rng(seed);
        std::vector<Complex> v(ctx.slots());
        for (auto &z : v)
            z = Complex(rng.nextDouble() * 2 - 1, 0);
        const double scale = ctx.params().scale();
        return encryptor.encrypt(enc.encode(v, scale, ctx.params().l),
                                 scale);
    }

    /** Tensor + relinearize (inner product + modDown), rescale on both
     *  the NTT and coefficient paths, and a rotation (automorphism
     *  fused into the inner product). Deterministic given the
     *  inputs. */
    Ciphertext
    runPipeline(const Ciphertext &a, const Ciphertext &b) const
    {
        Ciphertext prod = eval.multiply(a, b, relin);
        eval.rescale(prod);
        Ciphertext rot = eval.rotate(prod, 1, galois);
        Ciphertext sum = eval.add(rot, prod);
        Ciphertext sq = eval.square(sum, relin);
        eval.rescale(sq);
        return sq;
    }

    CkksContext ctx;
    CkksEncoder enc;
    KeyGenerator keygen;
    PublicKey pk;
    Encryptor encryptor;
    Evaluator eval;
    SwitchKey relin;
    GaloisKeys galois;
};

TEST(FusionTest, PipelinesMatchPinnedDigests)
{
    struct Case
    {
        const char *name;
        CkksParams params;
        std::uint64_t digest;
    };
    const Case cases[] = {
        {"testSmall", CkksParams::testSmall(), 0x71b54a2d27aaee67ull},
        {"logN13", tiledParams(), 0x5d3dfe611ea939afull},
    };
    TableGuard table_guard;
    for (const Case &c : cases) {
        Harness h(c.params);
        const Ciphertext a = h.encryptRandom(101);
        const Ciphertext b = h.encryptRandom(202);
        for (TableId id : test::availableTables(true)) {
            setKernelTable(*test::tableFor(id));
            const std::uint64_t d = digestCiphertext(
                1469598103934665603ull, h.runPipeline(a, b));
            EXPECT_EQ(d, c.digest)
                << c.name << " on " << test::tableName(id) << ": 0x"
                << std::hex << d;
        }
    }
}

TEST(FusionTest, HoistedRotationFusedMatchesComposed)
{
    // Above the floor: the 3-arg innerProduct (automorphism fused into
    // the tower-tiled MAC sweep) against the explicit
    // automorphismDigits + per-digit inner product, and the hoisted
    // rotation built on it against a fresh rotation.
    Harness h(tiledParams());
    const Ciphertext ct = h.encryptRandom(303);
    const std::size_t galois = h.eval.galoisFromSteps(1);
    const SwitchKey &key = h.galois.at(galois);
    const KeySwitchDigits digits = h.eval.decompose(ct.c1, key.alphaKs);
    ASSERT_GE(u64{digits.extIdx.size()} * h.ctx.n() * 8,
              Evaluator::kTileMinBytes);

    const auto fused = h.eval.innerProduct(digits, key, galois);
    const auto composed =
        h.eval.innerProduct(h.eval.automorphismDigits(digits, galois), key);
    EXPECT_TRUE(fused.first.data() == composed.first.data());
    EXPECT_TRUE(fused.second.data() == composed.second.data());

    EXPECT_TRUE(sameCiphertext(
        h.eval.rotateByGaloisHoisted(ct, galois, key, digits),
        h.eval.rotate(ct, 1, h.galois)));
}

TEST(FusionTest, TileFloorFallsBackToComposed)
{
    // Below the floor the 3-arg innerProduct runs the composed
    // per-digit sequence, so the crossover is invisible to callers.
    Harness h(CkksParams::testSmall());
    const Ciphertext ct = h.encryptRandom(808);
    const std::size_t galois = h.eval.galoisFromSteps(1);
    const SwitchKey &key = h.galois.at(galois);
    const KeySwitchDigits digits = h.eval.decompose(ct.c1, key.alphaKs);
    ASSERT_LT(u64{digits.extIdx.size()} * h.ctx.n() * 8,
              Evaluator::kTileMinBytes);

    const auto direct = h.eval.innerProduct(digits, key, galois);
    const auto composed =
        h.eval.innerProduct(h.eval.automorphismDigits(digits, galois), key);
    EXPECT_TRUE(direct.first.data() == composed.first.data());
    EXPECT_TRUE(direct.second.data() == composed.second.data());
}

TEST(FusionTest, OpCountsInvariantUnderFusion)
{
    // Fusion reorganizes memory passes; it must not change the modular
    // arithmetic. On the tiled context, the fused rotated inner
    // product and the composed automorphismDigits + innerProduct must
    // count the same model (OpCounter) and measured (kernel counter)
    // work, and model must equal measurement on each, as it must over
    // the whole tiled pipeline.
    Harness h(tiledParams());
    const Ciphertext a = h.encryptRandom(404);
    const Ciphertext b = h.encryptRandom(505);
    const std::size_t galois = h.eval.galoisFromSteps(1);
    const SwitchKey &key = h.galois.at(galois);
    const KeySwitchDigits digits = h.eval.decompose(a.c1, key.alphaKs);

    auto measure = [&](auto &&run) {
        h.ctx.ops().reset();
        kernelCounters().reset();
        run();
        return std::make_pair(OpCounter(h.ctx.ops()),
                              kernelCounters().snapshot());
    };
    const auto [model_f, meas_f] =
        measure([&] { h.eval.innerProduct(digits, key, galois); });
    const auto [model_c, meas_c] = measure([&] {
        h.eval.innerProduct(h.eval.automorphismDigits(digits, galois), key);
    });
    const auto [model_p, meas_p] = measure([&] { h.runPipeline(a, b); });

    EXPECT_EQ(model_f.polyMults, model_c.polyMults);
    EXPECT_EQ(model_f.polyAdds, model_c.polyAdds);
    EXPECT_EQ(model_f.ntts, model_c.ntts);
    EXPECT_EQ(model_f.automorphisms, model_c.automorphisms);
    EXPECT_EQ(model_f.innerProducts, model_c.innerProducts);

    EXPECT_EQ(meas_f.mults, meas_c.mults);
    EXPECT_EQ(meas_f.adds, meas_c.adds);
    EXPECT_EQ(meas_f.ntts, meas_c.ntts);
    EXPECT_EQ(meas_f.automorphisms, meas_c.automorphisms);

    for (const auto &[model, meas] :
         {std::make_pair(model_f, meas_f), std::make_pair(model_c, meas_c),
          std::make_pair(model_p, meas_p)}) {
        EXPECT_EQ(model.polyMults, meas.mults);
        EXPECT_EQ(model.polyAdds, meas.adds);
        EXPECT_EQ(model.ntts, meas.ntts);
        EXPECT_EQ(model.automorphisms, meas.automorphisms);
    }
    EXPECT_GT(meas_p.mults, 0u);
}

} // namespace
} // namespace cl
