/**
 * Determinism of the parallel execution layer: every tower-parallel
 * kernel must produce byte-identical ciphertexts at any worker count.
 * parallelFor only partitions which thread runs a tower, never what
 * the tower computes, so CL_THREADS=1 and CL_THREADS=8 must agree
 * exactly — this is the guarantee that lets servers scale worker
 * counts without changing results.
 */

#include <algorithm>
#include <memory>

#include <gtest/gtest.h>

#include "ckks/encryptor.h"
#include "ckks/evaluator.h"
#include "rns/simd/kernels.h"
#include "util/threadpool.h"

#include "../rns/kernel_test_util.h"

namespace cl {
namespace {

class ParallelDeterminismTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        ctx_ = std::make_unique<CkksContext>(CkksParams::testSmall());
        enc_ = std::make_unique<CkksEncoder>(*ctx_);
        keygen_ = std::make_unique<KeyGenerator>(*ctx_);
        pk_ = keygen_->genPublicKey();
        encryptor_ = std::make_unique<Encryptor>(*ctx_, pk_);
        eval_ = std::make_unique<Evaluator>(*ctx_);
        relin_ = keygen_->genRelinKey();
        galois_ = keygen_->genRotationKeys({1}, /*conjugate=*/false);
    }

    void
    TearDown() override
    {
        ThreadPool::setGlobalThreads(1); // leave no workers behind
    }

    /**
     * The chain under test: multiply + relinearize, rescale, rotate,
     * then modRaise (the bootstrap primitive) back to the top. This
     * exercises every parallelized kernel: NTTs, element-wise ops,
     * automorphism, rescale, base conversion, and keyswitching.
     */
    Ciphertext
    runChain(const Ciphertext &a, const Ciphertext &b)
    {
        Ciphertext prod = eval_->multiply(a, b, relin_);
        eval_->rescale(prod);
        Ciphertext rot = eval_->rotate(prod, 1, galois_);
        return eval_->modRaise(rot, ctx_->l());
    }

    std::unique_ptr<CkksContext> ctx_;
    std::unique_ptr<CkksEncoder> enc_;
    std::unique_ptr<KeyGenerator> keygen_;
    PublicKey pk_;
    std::unique_ptr<Encryptor> encryptor_;
    std::unique_ptr<Evaluator> eval_;
    SwitchKey relin_;
    GaloisKeys galois_;
};

TEST_F(ParallelDeterminismTest, ChainIsBitIdenticalAcrossWorkerCounts)
{
    FastRng rng(17);
    std::vector<Complex> va(ctx_->slots()), vb(ctx_->slots());
    for (std::size_t i = 0; i < ctx_->slots(); ++i) {
        va[i] = Complex(rng.nextDouble() * 2 - 1, 0);
        vb[i] = Complex(rng.nextDouble() * 2 - 1, 0);
    }
    const double s = ctx_->params().scale();
    const Ciphertext ca =
        encryptor_->encryptValues(*enc_, va, s, ctx_->l());
    const Ciphertext cb =
        encryptor_->encryptValues(*enc_, vb, s, ctx_->l());

    ThreadPool::setGlobalThreads(1);
    const Ciphertext serial = runChain(ca, cb);

    ThreadPool::setGlobalThreads(8);
    const Ciphertext parallel = runChain(ca, cb);

    ASSERT_EQ(serial.c0.towers(), parallel.c0.towers());
    EXPECT_TRUE(serial.c0.data() == parallel.c0.data())
        << "c0 diverged between 1 and 8 workers";
    EXPECT_TRUE(serial.c1.data() == parallel.c1.data())
        << "c1 diverged between 1 and 8 workers";
    EXPECT_EQ(serial.scale, parallel.scale);
}

TEST_F(ParallelDeterminismTest, RepeatedParallelRunsAgree)
{
    // Same worker count twice: guards against any hidden scheduling
    // dependence inside a single configuration.
    FastRng rng(23);
    std::vector<Complex> v(ctx_->slots());
    for (auto &z : v)
        z = Complex(rng.nextDouble() * 2 - 1, 0);
    const double s = ctx_->params().scale();
    const Ciphertext ct =
        encryptor_->encryptValues(*enc_, v, s, ctx_->l());

    ThreadPool::setGlobalThreads(8);
    const Ciphertext r1 = runChain(ct, ct);
    const Ciphertext r2 = runChain(ct, ct);
    EXPECT_TRUE(r1.c0.data() == r2.c0.data());
    EXPECT_TRUE(r1.c1.data() == r2.c1.data());
}

/** FNV-1a over a polynomial's basis, domain, and every residue word. */
std::uint64_t
digestPoly(std::uint64_t h, const RnsPoly &p)
{
    auto mix = [&h](std::uint64_t w) {
        for (unsigned b = 0; b < 8; ++b) {
            h ^= (w >> (8 * b)) & 0xff;
            h *= 1099511628211ull;
        }
    };
    mix(p.towers());
    for (unsigned idx : p.modIdx())
        mix(idx);
    mix(p.isNtt() ? 1 : 0);
    for (std::size_t t = 0; t < p.towers(); ++t)
        for (u64 w : p.residue(t))
            mix(w);
    return h;
}

std::uint64_t
digestSwitchKey(std::uint64_t h, const SwitchKey &k)
{
    for (unsigned j = 0; j < k.digits(); ++j)
        h = digestPoly(digestPoly(h, k.b[j]), k.a[j]);
    return h;
}

/** Digest of the public key, a relinearization key and rotation keys
 *  (with conjugation), generated from a fresh KeyGenerator. */
std::uint64_t
keyMaterialDigest(const CkksParams &params)
{
    CkksContext ctx(params);
    KeyGenerator keygen(ctx);
    const PublicKey pk = keygen.genPublicKey();
    std::uint64_t h = 1469598103934665603ull;
    h = digestPoly(digestPoly(h, pk.b), pk.a);
    h = digestSwitchKey(h, keygen.genRelinKey());
    for (const auto &[galois, key] :
         keygen.genRotationKeys({1, 3, -2}, /*conjugate=*/true).keys)
        h = digestSwitchKey(h ^ galois, key);
    return h;
}

TEST_F(ParallelDeterminismTest, KeyMaterialBitIdenticalAcrossWorkerCounts)
{
    // Key generation fans its towers out over the pool and over the
    // Keccak lanes of the active kernel table; neither may change a
    // byte. The digests were taken with the serial one-stream-at-a-time
    // generator. The first set has 5 data towers (public key) and
    // 7 extended towers per digit, neither a multiple of 4 or 8; the
    // second uses the 28-bit hardware-width primes.
    CkksParams odd = CkksParams::testSmall();
    odd.l = 5;
    odd.alpha = 2;
    struct Case
    {
        const char *name;
        CkksParams params;
        std::uint64_t digest;
    };
    const Case cases[] = {
        {"l5_alpha2", odd, 0x5400334782f9b4edull},
        {"hardwareWidth", CkksParams::hardwareWidth(11, 3, 3),
         0x504c53cccde813ecull},
    };
    test::TableGuard table_guard;
    for (const Case &c : cases) {
        for (test::TableId id : test::availableTables(true)) {
            setKernelTable(*test::tableFor(id));
            for (unsigned threads : {1u, 8u}) {
                ThreadPool::setGlobalThreads(threads);
                const std::uint64_t d = keyMaterialDigest(c.params);
                EXPECT_EQ(d, c.digest)
                    << c.name << " on " << test::tableName(id) << " at "
                    << threads << " workers: 0x" << std::hex << d;
            }
        }
    }
}

} // namespace
} // namespace cl
