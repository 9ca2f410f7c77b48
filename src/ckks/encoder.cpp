#include "encoder.h"

#include <algorithm>
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

/**
 * Embed a rounded real beyond the signed 64-bit range mod q.
 * Coefficients at large scales (e.g. plaintexts encoded at a
 * post-multiply 2^80 scale) exceed that range, but the rounded double
 * is still an *exact* integer m·2^e with a 53-bit mantissa — reduce
 * that product mod q exactly. (A straight long-long cast used to
 * overflow silently, mis-encoding every wide-scale plaintext.)
 */
u64
wideToMod(double r, u64 q)
{
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

/**
 * Real coefficients rounded to integers once, then reduced into any
 * number of towers without a division.
 */
class RoundedCoeffs
{
  public:
    /** Round v_i = @p value(i) for i in [0, @p count). */
    template <class Value>
    RoundedCoeffs(std::size_t count, Value value) : small_(count, 0)
    {
        for (std::size_t i = 0; i < count; ++i) {
            const double r = std::nearbyint(value(i));
            if (std::abs(r) < 9.0e18)
                small_[i] = static_cast<std::int64_t>(r);
            else
                wide_.emplace_back(i, r);
        }
    }

    /** out[i · @p stride] = v_i mod q for every i. */
    void
    reduce(u64 q, u64 *out, std::size_t stride) const
    {
        // s + 2^63 is non-negative, so the identity Shoup multiply
        // reduces it (for any 64-bit input) and subtracting 2^63 mod q
        // recovers s mod q. No step depends on the sign of s: random
        // signs would mispredict a negate-if-negative branch.
        const ShoupMul one(1, q);
        const u64 bias = (u64{1} << 63) % q;
        for (std::size_t i = 0; i < small_.size(); ++i) {
            const u64 x = static_cast<u64>(small_[i]) ^ (u64{1} << 63);
            u64 m = one.mulLazy(x, q);
            m = m >= q ? m - q : m;
            out[i * stride] = m >= bias ? m - bias : m + (q - bias);
        }
        for (const auto &[i, r] : wide_)
            out[i * stride] = wideToMod(r, q);
    }

  private:
    std::vector<std::int64_t> small_;              ///< 0 where wide.
    std::vector<std::pair<std::size_t, double>> wide_; ///< |v| >= 9e18.
};

/** Forward (and, conjugated in the exponent, inverse) special-FFT
 *  twiddle tables; see CkksEncoder::fwdTw_. */
void
buildTwiddles(std::size_t slots, std::size_t m, std::vector<Complex> &fwd,
              std::vector<Complex> &inv)
{
    std::vector<Complex> ksi(m + 1); // e^{2 pi i j / m}, j in [0, m]
    for (std::size_t j = 0; j <= m; ++j) {
        const double theta = 2.0 * M_PI * static_cast<double>(j) /
                             static_cast<double>(m);
        ksi[j] = Complex(std::cos(theta), std::sin(theta));
    }
    std::vector<std::size_t> rot(slots / 2); // 5^j mod m
    std::size_t power = 1;
    for (std::size_t &r : rot) {
        r = power;
        power = (power * 5) % m;
    }
    fwd.assign(slots, Complex(0, 0));
    inv.assign(slots, Complex(0, 0));
    for (std::size_t len = 2; len <= slots; len <<= 1) {
        const std::size_t lenh = len >> 1;
        const std::size_t lenq = len << 2;
        const std::size_t gap = m / lenq;
        for (std::size_t j = 0; j < lenh; ++j) {
            const std::size_t r = rot[j] % lenq;
            fwd[lenh - 1 + j] = ksi[r * gap];
            inv[lenh - 1 + j] = ksi[(lenq - r) * gap];
        }
    }
}

} // namespace

CkksEncoder::CkksEncoder(const CkksContext &ctx)
    : ctx_(ctx), slots_(ctx.slots())
{
    buildTwiddles(slots_, 2 * ctx.n(), fwdTw_, invTw_);
}

// The butterflies below spell out the complex products in real
// arithmetic, in the order std::complex's operator* evaluates them
// ((a+bi)(c+di) = (ac - bd) + (ad + bc)i), so the outputs are
// bit-identical to the operator form.

void
CkksEncoder::fftSpecialLevel(std::vector<Complex> &vals,
                             std::size_t len) const
{
    CL_ASSERT(len >= 2 && len <= slots_, "FFT level ", len);
    const std::size_t size = vals.size();
    const std::size_t lenh = len >> 1;
    const Complex *tw = fwdTw_.data() + (lenh - 1);
    for (std::size_t i = 0; i < size; i += len) {
        Complex *lo = vals.data() + i;
        Complex *hi = lo + lenh;
        for (std::size_t j = 0; j < lenh; ++j) {
            const double ur = lo[j].real(), ui = lo[j].imag();
            const double xr = hi[j].real(), xi = hi[j].imag();
            const double wr = tw[j].real(), wi = tw[j].imag();
            const double vr = xr * wr - xi * wi;
            const double vi = xr * wi + xi * wr;
            lo[j] = Complex(ur + vr, ui + vi);
            hi[j] = Complex(ur - vr, ui - vi);
        }
    }
}

void
CkksEncoder::fftSpecialInvLevel(std::vector<Complex> &vals,
                                std::size_t len) const
{
    CL_ASSERT(len >= 2 && len <= slots_, "FFT level ", len);
    const std::size_t size = vals.size();
    const std::size_t lenh = len >> 1;
    const Complex *tw = invTw_.data() + (lenh - 1);
    for (std::size_t i = 0; i < size; i += len) {
        Complex *lo = vals.data() + i;
        Complex *hi = lo + lenh;
        for (std::size_t j = 0; j < lenh; ++j) {
            const double ar = lo[j].real(), ai = lo[j].imag();
            const double br = hi[j].real(), bi = hi[j].imag();
            const double dr = ar - br, di = ai - bi;
            const double wr = tw[j].real(), wi = tw[j].imag();
            lo[j] = Complex(ar + br, ai + bi);
            hi[j] = Complex(dr * wr - di * wi, dr * wi + di * wr);
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

    // Round once; every tower reduces the same integers.
    const RoundedCoeffs re(used, [&](std::size_t i) {
        return vals[i].real() * scale;
    });
    const RoundedCoeffs im(used, [&](std::size_t i) {
        return vals[i].imag() * scale;
    });
    const std::size_t nh = ctx_.n() / 2;
    const std::size_t gap = nh / used;
    RnsPoly out(ctx_.chain(), mod_idx, false);
    parallelFor(0, out.towers(), [&](std::size_t t) {
        const u64 q = out.modulus(t);
        u64 *c = out.residue(t).data();
        re.reduce(q, c, gap);
        im.reduce(q, c + nh, gap);
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
    std::vector<ShoupMul> qhat_inv(use);
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
        qhat_inv[t] = ShoupMul(invMod(inv, mods[t]), mods[t]);
    }

    // Coefficients are independent: blocks of them run on the pool,
    // each with the same per-coefficient arithmetic as a serial loop.
    constexpr std::size_t kBlock = 512;
    std::vector<double> coeff(n);
    parallelFor(0, (n + kBlock - 1) / kBlock, [&](std::size_t b) {
        const std::size_t end = std::min(n, (b + 1) * kBlock);
        for (std::size_t i = b * kBlock; i < end; ++i) {
            BigUint x(0);
            for (std::size_t t = 0; t < use; ++t) {
                const u64 c = qhat_inv[t].mul(p.residue(t)[i], mods[t]);
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
    });

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
    const RoundedCoeffs rounded(coeffs.size(), [&](std::size_t i) {
        return coeffs[i] * scale;
    });
    RnsPoly out(ctx_.chain(), ctx_.dataIdx(l_cur), false);
    parallelFor(0, out.towers(), [&](std::size_t t) {
        rounded.reduce(out.modulus(t), out.residue(t).data(), 1);
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
