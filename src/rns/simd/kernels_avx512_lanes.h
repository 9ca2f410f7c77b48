/**
 * @file
 * The 8-lane AVX-512 lane type of kernels_vec_impl.h, shared by the
 * -mavx512f table (kernels_avx512.cpp) and the IFMA table
 * (kernels_avx512_ifma.cpp, which adds the IFMA multiplies). Native
 * unsigned 64-bit compares into mask registers and masked subtracts
 * do the conditional corrections.
 */

#ifndef CL_RNS_SIMD_KERNELS_AVX512_LANES_H
#define CL_RNS_SIMD_KERNELS_AVX512_LANES_H

#include "rns/simd/kernels_vec_impl.h"

namespace cl {
namespace simd {
namespace {

struct Avx512Lanes
{
    using R = __m512i;
    static constexpr std::size_t kLanes = 8;
    static constexpr bool kIfma = false;

    static R
    set1(u64 v)
    {
        return _mm512_set1_epi64(static_cast<long long>(v));
    }

    static R zero() { return _mm512_setzero_si512(); }
    static R load(const u64 *p) { return _mm512_loadu_si512(p); }
    static void store(u64 *p, R v) { _mm512_storeu_si512(p, v); }

    static R add(R a, R b) { return _mm512_add_epi64(a, b); }
    static R sub(R a, R b) { return _mm512_sub_epi64(a, b); }
    static R bitAnd(R a, R b) { return _mm512_and_si512(a, b); }
    static R bitOr(R a, R b) { return _mm512_or_si512(a, b); }
    static R bitXor(R a, R b) { return _mm512_xor_si512(a, b); }
    static R andNot(R a, R b) { return _mm512_and_si512(~a, b); }

    /** vprolq: rotate every lane left by N. (The all-lanes mask form
     *  avoids _mm512_rol_epi64's _mm512_undefined_epi32 source, which
     *  GCC flags as uninitialized.) */
    template <unsigned N>
    static R
    rotl(R a)
    {
        return _mm512_mask_rol_epi64(a, 0xff, a, N);
    }
    static R srli(R a, unsigned n) { return _mm512_srli_epi64(a, n); }
    static R slli(R a, unsigned n) { return _mm512_slli_epi64(a, n); }
    static R srl(R a, __m128i n) { return _mm512_srl_epi64(a, n); }
    static R sll(R a, __m128i n) { return _mm512_sll_epi64(a, n); }
    static R mul32(R a, R b) { return _mm512_mul_epu32(a, b); }

    static R
    csub(R r, R q)
    {
        return _mm512_mask_sub_epi64(r, _mm512_cmpge_epu64_mask(r, q), r, q);
    }

    static R
    subModQ(R a, R b, R q)
    {
        const __mmask8 borrow = _mm512_cmplt_epu64_mask(a, b);
        const R d = _mm512_sub_epi64(a, b);
        return _mm512_mask_add_epi64(d, borrow, d, q);
    }

    static R
    negMod(R x, R q)
    {
        return _mm512_maskz_sub_epi64(_mm512_cmpneq_epu64_mask(x, zero()),
                                      q, x);
    }

    static R
    gather(const u64 *src, const std::uint32_t *idx)
    {
        const __m256i iv =
            _mm256_loadu_si256(reinterpret_cast<const __m256i *>(idx));
        return _mm512_i32gather_epi64(iv, src, 8);
    }

    static R
    permute2(R a, R idx, R b)
    {
        return _mm512_permutex2var_epi64(a, idx, b);
    }
};

} // namespace
} // namespace simd
} // namespace cl

#endif // CL_RNS_SIMD_KERNELS_AVX512_LANES_H
