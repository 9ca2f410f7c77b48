/** Tests for the CKKS canonical-embedding encoder. */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>

#include "ckks/encoder.h"
#include "util/prng.h"
#include "util/threadpool.h"

namespace cl {
namespace {

std::vector<Complex>
randomValues(std::size_t count, std::uint64_t seed)
{
    FastRng rng(seed);
    std::vector<Complex> v(count);
    for (auto &z : v)
        z = Complex(rng.nextDouble() * 2 - 1, rng.nextDouble() * 2 - 1);
    return v;
}

class EncoderTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        ctx_ = std::make_unique<CkksContext>(CkksParams::testSmall());
        enc_ = std::make_unique<CkksEncoder>(*ctx_);
    }

    std::unique_ptr<CkksContext> ctx_;
    std::unique_ptr<CkksEncoder> enc_;
};

TEST_F(EncoderTest, EncodeDecodeRoundTrip)
{
    auto vals = randomValues(ctx_->slots(), 1);
    auto plain = enc_->encode(vals, ctx_->params().scale(), ctx_->l());
    auto back = enc_->decode(plain, ctx_->params().scale());
    ASSERT_EQ(back.size(), ctx_->slots());
    for (std::size_t i = 0; i < vals.size(); ++i)
        EXPECT_NEAR(std::abs(back[i] - vals[i]), 0.0, 1e-6);
}

TEST_F(EncoderTest, EncodingIsAdditive)
{
    auto a = randomValues(ctx_->slots(), 2);
    auto b = randomValues(ctx_->slots(), 3);
    const double scale = ctx_->params().scale();
    auto pa = enc_->encode(a, scale, ctx_->l());
    auto pb = enc_->encode(b, scale, ctx_->l());
    pa += pb;
    auto sum = enc_->decode(pa, scale);
    for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_NEAR(std::abs(sum[i] - (a[i] + b[i])), 0.0, 1e-5);
}

TEST_F(EncoderTest, PolynomialMultIsSlotwiseMult)
{
    // The defining property of the canonical embedding: ring multiply
    // == element-wise slot multiply.
    auto a = randomValues(ctx_->slots(), 4);
    auto b = randomValues(ctx_->slots(), 5);
    const double scale = ctx_->params().scale();
    auto pa = enc_->encode(a, scale, ctx_->l());
    auto pb = enc_->encode(b, scale, ctx_->l());
    pa.toNtt();
    pb.toNtt();
    pa *= pb;
    auto prod = enc_->decode(pa, scale * scale);
    for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_NEAR(std::abs(prod[i] - a[i] * b[i]), 0.0, 1e-4);
}

TEST_F(EncoderTest, AutomorphismRotatesSlots)
{
    // x -> x^5 should rotate the packed vector by one slot.
    auto a = randomValues(ctx_->slots(), 6);
    const double scale = ctx_->params().scale();
    auto p = enc_->encode(a, scale, ctx_->l());
    auto r = p.automorphism(5);
    auto rot = enc_->decode(r, scale);
    const std::size_t n = a.size();
    // Determine rotation direction empirically but require it to be a
    // rotation by exactly one position one way or the other.
    double err_left = 0, err_right = 0;
    for (std::size_t i = 0; i < n; ++i) {
        err_left += std::abs(rot[i] - a[(i + 1) % n]);
        err_right += std::abs(rot[i] - a[(i + n - 1) % n]);
    }
    EXPECT_LT(std::min(err_left, err_right) / n, 1e-5);
    // Document the convention: galois element 5 = rotate left by 1.
    EXPECT_LT(err_left, err_right);
}

TEST_F(EncoderTest, ConjugationAutomorphism)
{
    auto a = randomValues(ctx_->slots(), 7);
    const double scale = ctx_->params().scale();
    auto p = enc_->encode(a, scale, ctx_->l());
    auto r = p.automorphism(2 * ctx_->n() - 1);
    auto conj = enc_->decode(r, scale);
    for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_NEAR(std::abs(conj[i] - std::conj(a[i])), 0.0, 1e-5);
}

TEST_F(EncoderTest, PartialPackingReplicates)
{
    // Encoding fewer values packs them into a smaller orbit; decode
    // returns the full-slot view with replication.
    std::vector<Complex> vals = {Complex(1.5, 0), Complex(-2.25, 0),
                                 Complex(0.5, 0), Complex(3.0, 0)};
    const double scale = ctx_->params().scale();
    auto p = enc_->encode(vals, scale, 1);
    auto full = enc_->decode(p, scale);
    const std::size_t reps = ctx_->slots() / 4;
    for (std::size_t r = 0; r < reps; ++r) {
        for (std::size_t i = 0; i < 4; ++i) {
            EXPECT_NEAR(std::abs(full[r * 4 + i] - vals[i]), 0.0, 1e-5)
                << "replica " << r << " slot " << i;
        }
    }
}

TEST_F(EncoderTest, CoeffEncodeDecodeRoundTrip)
{
    std::vector<double> coeffs = {1.0, -2.5, 3.25, 0.0, 7.75};
    auto p = enc_->encodeCoeffs(coeffs, 1 << 20, 2);
    auto back = enc_->decodeCoeffs(p, 1 << 20);
    for (std::size_t i = 0; i < coeffs.size(); ++i)
        EXPECT_NEAR(back[i], coeffs[i], 1e-5);
}

TEST_F(EncoderTest, FftSpecialInverseIsInverse)
{
    auto vals = randomValues(ctx_->slots(), 8);
    auto copy = vals;
    enc_->fftSpecialInv(copy);
    enc_->fftSpecial(copy);
    for (std::size_t i = 0; i < vals.size(); ++i)
        EXPECT_NEAR(std::abs(copy[i] - vals[i]), 0.0, 1e-9);
}

// ---------------------------------------------------------------
// Pinned bytes: the FFT, encode and decode outputs are fixed values,
// not just self-consistent ones. The digests below were captured
// before the FFT moved to precomputed twiddle tables, encode to
// round-once division-free reduction and decode to a parallel CRT
// loop; any of those rewrites must reproduce every bit.
// ---------------------------------------------------------------

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;

std::uint64_t
fnvWord(std::uint64_t h, std::uint64_t x)
{
    h ^= x;
    return h * 1099511628211ull;
}

std::uint64_t
digestValues(const std::vector<Complex> &v)
{
    std::uint64_t h = kFnvOffset;
    for (const Complex &z : v) {
        h = fnvWord(h, std::bit_cast<std::uint64_t>(z.real()));
        h = fnvWord(h, std::bit_cast<std::uint64_t>(z.imag()));
    }
    return h;
}

std::uint64_t
digestPoly(const RnsPoly &p)
{
    std::uint64_t h = fnvWord(kFnvOffset, p.towers());
    for (unsigned idx : p.modIdx())
        h = fnvWord(h, idx);
    h = fnvWord(h, p.isNtt() ? 1 : 0);
    for (std::size_t t = 0; t < p.towers(); ++t)
        for (u64 w : p.residue(t))
            h = fnvWord(h, w);
    return h;
}

/** Digests of one ring size; every field is pinned. */
struct EncoderDigests
{
    unsigned logN;
    std::uint64_t fft, fftInv, fftHalf, encodeL1, encodeL4,
        encodePartial, encodeWide, encodeCoeffs, decode, decodeWide;
};

class EncoderGolden : public ::testing::TestWithParam<EncoderDigests>
{
};

TEST_P(EncoderGolden, OutputsMatchPinnedDigests)
{
    const EncoderDigests &want = GetParam();
    CkksParams p = CkksParams::testSmall();
    p.logN = want.logN;
    const CkksContext ctx(p);
    const CkksEncoder enc(ctx);
    const std::size_t slots = ctx.slots();
    const double scale = p.scale();
    const double wide = std::ldexp(1.0, 80);

    auto v = randomValues(slots, 101);
    enc.fftSpecial(v);
    EXPECT_EQ(digestValues(v), want.fft) << "fftSpecial";
    v = randomValues(slots, 102);
    enc.fftSpecialInv(v);
    EXPECT_EQ(digestValues(v), want.fftInv) << "fftSpecialInv";
    v = randomValues(slots / 2, 103);
    enc.fftSpecial(v);
    enc.fftSpecialInv(v);
    EXPECT_EQ(digestValues(v), want.fftHalf) << "half-size round trip";

    const auto vals = randomValues(slots, 104);
    EXPECT_EQ(digestPoly(enc.encode(vals, scale, 1)), want.encodeL1)
        << "encode L1";
    const RnsPoly full = enc.encode(vals, scale, 4);
    EXPECT_EQ(digestPoly(full), want.encodeL4) << "encode L4";
    EXPECT_EQ(digestPoly(enc.encode(randomValues(slots / 4, 105), scale, 4)),
              want.encodePartial)
        << "partially packed encode";
    // 2^80 coefficients leave the signed 64-bit range: the exact
    // mantissa-times-power-of-two reduction path.
    const RnsPoly wide_plain = enc.encode(vals, wide, 4);
    EXPECT_EQ(digestPoly(wide_plain), want.encodeWide) << "2^80 encode";
    std::vector<double> coeffs(ctx.n());
    FastRng rng(106);
    for (double &c : coeffs)
        c = rng.nextDouble() * 2 - 1;
    EXPECT_EQ(digestPoly(enc.encodeCoeffs(coeffs, scale, 4)),
              want.encodeCoeffs)
        << "encodeCoeffs";

    // decode fans its CRT loop out over the pool: pin it at 1 and 4
    // workers.
    const unsigned saved = ThreadPool::global().threads();
    for (unsigned threads : {1u, 4u}) {
        ThreadPool::setGlobalThreads(threads);
        EXPECT_EQ(digestValues(enc.decode(full, scale)), want.decode)
            << "decode at " << threads << " workers";
        EXPECT_EQ(digestValues(enc.decode(wide_plain, wide)),
                  want.decodeWide)
            << "2^80 decode at " << threads << " workers";
    }
    ThreadPool::setGlobalThreads(saved);
}

INSTANTIATE_TEST_SUITE_P(
    RingSizes, EncoderGolden,
    ::testing::Values(
        EncoderDigests{10, 17904710992638622761ull, 18315278896893191585ull,
                       13324756823646453733ull, 16165706714453836421ull,
                       17980374818863497019ull, 4269636592674249379ull,
                       14023572118189305746ull, 4487113642144920755ull,
                       12730361771305655035ull, 553775000419180238ull},
        EncoderDigests{12, 1363986435020826605ull, 10044353297757303377ull,
                       14347908076687117914ull, 13232918697462249369ull,
                       11096052587917124987ull, 17960907873557647395ull,
                       15630478562301518351ull, 16817211912011085163ull,
                       3563115580143120701ull, 5622789470096833824ull},
        EncoderDigests{15, 3382973590525369879ull, 8422015154349083866ull,
                       16330261134512120315ull, 14696380586958805872ull,
                       14806789334243543923ull, 2619392411939537123ull,
                       11881316151270877530ull, 353871395870905139ull,
                       7076366101282837728ull, 6440007936471332820ull}),
    [](const ::testing::TestParamInfo<EncoderDigests> &info) {
        return "logN" + std::to_string(info.param.logN);
    });

} // namespace
} // namespace cl
