#include "encoder.h"

#include <cmath>

#include "util/biguint.h"
#include "util/threadpool.h"

namespace cl {

namespace {

void
arrayBitReverse(std::vector<Complex> &vals)
{
    const std::size_t n = vals.size();
    for (std::size_t i = 1, j = 0; i < n; ++i) {
        std::size_t bit = n >> 1;
        for (; j >= bit; bit >>= 1)
            j -= bit;
        j += bit;
        if (i < j)
            std::swap(vals[i], vals[j]);
    }
}

/** Round a real to an integer and embed it mod q. */
u64
scaleToMod(double v, u64 q)
{
    const double r = std::nearbyint(v);
    if (std::abs(r) < 9.0e18) {
        // Fits a signed 64-bit word: reduce directly.
        auto s = static_cast<long long>(r);
        return reduceSigned(s, q);
    }
    // Coefficients at large scales (e.g. plaintexts encoded at a
    // post-multiply 2^80 scale) exceed the 64-bit range, but the
    // rounded double is still an *exact* integer m·2^e with a 53-bit
    // mantissa — reduce that product mod q exactly. The straight
    // long-long cast here used to overflow silently, mis-encoding
    // every wide-scale plaintext.
    int e = 0;
    const double m = std::frexp(std::abs(r), &e); // |r| = m·2^e
    const auto mant = static_cast<u64>(std::ldexp(m, 53));
    CL_ASSERT(e >= 53, "wide-scale encode: unexpected exponent ", e);
    u64 res = mulMod(mant % q,
                     powMod(2, static_cast<u64>(e - 53), q), q);
    if (r < 0)
        res = res == 0 ? 0 : q - res;
    return res;
}

} // namespace

CkksEncoder::CkksEncoder(const CkksContext &ctx)
    : ctx_(ctx), slots_(ctx.slots()), m_(2 * ctx.n())
{
    ksiPows_.resize(m_ + 1);
    for (std::size_t j = 0; j <= m_; ++j) {
        const double theta = 2.0 * M_PI * static_cast<double>(j) /
                             static_cast<double>(m_);
        ksiPows_[j] = Complex(std::cos(theta), std::sin(theta));
    }
    rotGroup_.resize(slots_);
    std::size_t power = 1;
    for (std::size_t j = 0; j < slots_; ++j) {
        rotGroup_[j] = power;
        power = (power * 5) % m_;
    }
}

void
CkksEncoder::fftSpecialLevel(std::vector<Complex> &vals,
                             std::size_t len) const
{
    const std::size_t size = vals.size();
    const std::size_t lenh = len >> 1;
    const std::size_t lenq = len << 2;
    const std::size_t gap = m_ / lenq;
    for (std::size_t i = 0; i < size; i += len) {
        for (std::size_t j = 0; j < lenh; ++j) {
            const std::size_t idx = (rotGroup_[j] % lenq) * gap;
            const Complex u = vals[i + j];
            const Complex v = vals[i + j + lenh] * ksiPows_[idx];
            vals[i + j] = u + v;
            vals[i + j + lenh] = u - v;
        }
    }
}

void
CkksEncoder::fftSpecialInvLevel(std::vector<Complex> &vals,
                                std::size_t len) const
{
    const std::size_t size = vals.size();
    const std::size_t lenh = len >> 1;
    const std::size_t lenq = len << 2;
    const std::size_t gap = m_ / lenq;
    for (std::size_t i = 0; i < size; i += len) {
        for (std::size_t j = 0; j < lenh; ++j) {
            const std::size_t idx = (lenq - (rotGroup_[j] % lenq)) * gap;
            const Complex u = vals[i + j] + vals[i + j + lenh];
            const Complex v =
                (vals[i + j] - vals[i + j + lenh]) * ksiPows_[idx];
            vals[i + j] = u;
            vals[i + j + lenh] = v;
        }
    }
}

void
CkksEncoder::fftSpecial(std::vector<Complex> &vals) const
{
    const std::size_t size = vals.size();
    CL_ASSERT(isPowerOfTwo(size) && size <= slots_);
    arrayBitReverse(vals);
    for (std::size_t len = 2; len <= size; len <<= 1)
        fftSpecialLevel(vals, len);
}

void
CkksEncoder::fftSpecialInv(std::vector<Complex> &vals) const
{
    const std::size_t size = vals.size();
    CL_ASSERT(isPowerOfTwo(size) && size <= slots_);
    for (std::size_t len = size; len >= 2; len >>= 1)
        fftSpecialInvLevel(vals, len);
    arrayBitReverse(vals);
    const double inv = 1.0 / static_cast<double>(size);
    for (auto &v : vals)
        v *= inv;
}

RnsPoly
CkksEncoder::encode(const std::vector<Complex> &values, double scale,
                    unsigned l_cur) const
{
    return encode(values, scale, ctx_.dataIdx(l_cur));
}

RnsPoly
CkksEncoder::encode(const std::vector<Complex> &values, double scale,
                    const std::vector<unsigned> &mod_idx) const
{
    CL_ASSERT(values.size() <= slots_, "too many values: ", values.size());
    // Pack into a power-of-two number of slots; partially packed
    // ciphertexts replicate across the ring with a coefficient gap.
    std::size_t used = 1;
    while (used < values.size())
        used <<= 1;
    std::vector<Complex> vals(used, Complex(0, 0));
    std::copy(values.begin(), values.end(), vals.begin());
    fftSpecialInv(vals);

    const std::size_t n = ctx_.n();
    const std::size_t nh = n / 2;
    const std::size_t gap = nh / used;
    RnsPoly out(ctx_.chain(), mod_idx, false);
    parallelFor(0, out.towers(), [&](std::size_t t) {
        const u64 q = out.modulus(t);
        u64 *c = out.residue(t).data();
        for (std::size_t i = 0, idx = 0; i < used; ++i, idx += gap) {
            c[idx] = scaleToMod(vals[i].real() * scale, q);
            c[idx + nh] = scaleToMod(vals[i].imag() * scale, q);
        }
    });
    return out;
}

std::vector<Complex>
CkksEncoder::decode(const RnsPoly &plain, double scale) const
{
    RnsPoly p = plain;
    p.toCoeff();
    const std::size_t n = ctx_.n();
    const std::size_t nh = n / 2;
    // Reconstruct signed coefficients by exact CRT over as many
    // towers as fit the double exponent range (the value itself only
    // needs ~53 significant bits; extra towers just widen the window
    // so large intermediate products are centered correctly).
    std::size_t use = p.towers();
    double bits = 0;
    for (std::size_t t = 0; t < p.towers(); ++t) {
        bits += std::log2(static_cast<double>(p.modulus(t)));
        if (bits > 900) {
            use = t + 1;
            break;
        }
    }
    std::vector<u64> mods(use);
    for (std::size_t t = 0; t < use; ++t)
        mods[t] = p.modulus(t);
    const BigUint q_prod = BigUint::product(mods);

    // Precompute CRT terms: qHat_t = Q/q_t and qHatInv_t mod q_t.
    std::vector<BigUint> qhat(use);
    std::vector<u64> qhat_inv(use);
    for (std::size_t t = 0; t < use; ++t) {
        std::vector<u64> others;
        u64 inv = 1;
        for (std::size_t m = 0; m < use; ++m) {
            if (m == t)
                continue;
            others.push_back(mods[m]);
            inv = mulMod(inv, mods[m] % mods[t], mods[t]);
        }
        qhat[t] = BigUint::product(others);
        qhat_inv[t] = invMod(inv, mods[t]);
    }

    std::vector<double> coeff(n);
    for (std::size_t i = 0; i < n; ++i) {
        BigUint x(0);
        for (std::size_t t = 0; t < use; ++t) {
            const u64 c = mulMod(p.residue(t)[i], qhat_inv[t], mods[t]);
            BigUint term = qhat[t];
            term.mulU64(c);
            x += term;
        }
        // Reduce mod Q (sum of `use` terms each below Q).
        while (x >= q_prod)
            x -= q_prod;
        BigUint twice = x;
        twice += x;
        if (twice >= q_prod) {
            BigUint neg = q_prod;
            neg -= x;
            coeff[i] = -neg.toDouble();
        } else {
            coeff[i] = x.toDouble();
        }
    }

    std::vector<Complex> vals(nh);
    for (std::size_t i = 0; i < nh; ++i)
        vals[i] = Complex(coeff[i] / scale, coeff[i + nh] / scale);
    fftSpecial(vals);
    return vals;
}

RnsPoly
CkksEncoder::encodeCoeffs(const std::vector<double> &coeffs, double scale,
                          unsigned l_cur) const
{
    const std::size_t n = ctx_.n();
    CL_ASSERT(coeffs.size() <= n);
    RnsPoly out(ctx_.chain(), ctx_.dataIdx(l_cur), false);
    parallelFor(0, out.towers(), [&](std::size_t t) {
        const u64 q = out.modulus(t);
        u64 *c = out.residue(t).data();
        for (std::size_t i = 0; i < coeffs.size(); ++i)
            c[i] = scaleToMod(coeffs[i] * scale, q);
    });
    return out;
}

std::vector<double>
CkksEncoder::decodeCoeffs(const RnsPoly &plain, double scale) const
{
    RnsPoly p = plain;
    p.toCoeff();
    const u64 q0 = p.modulus(0);
    std::vector<double> out(ctx_.n());
    for (std::size_t i = 0; i < ctx_.n(); ++i)
        out[i] = static_cast<double>(centered(p.residue(0)[i], q0)) / scale;
    return out;
}

} // namespace cl
