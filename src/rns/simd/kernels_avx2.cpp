/**
 * AVX2 backend table: kernels_vec_impl.h on 4 lanes of 64-bit
 * residues, with the narrow (q < 2^30) and wide (q < 2^62) lane
 * arithmetics. The NTT's short-block stages run the scalar reference.
 */

#include "rns/simd/kernels.h"

#if defined(__AVX2__)

#include "rns/simd/kernels_vec_impl.h"

namespace cl {
namespace simd {
namespace {

struct Avx2Lanes
{
    using R = __m256i;
    static constexpr std::size_t kLanes = 4;
    static constexpr bool kIfma = false;

    static R
    set1(u64 v)
    {
        return _mm256_set1_epi64x(static_cast<long long>(v));
    }

    static R zero() { return _mm256_setzero_si256(); }

    static R
    load(const u64 *p)
    {
        return _mm256_loadu_si256(reinterpret_cast<const __m256i *>(p));
    }

    static void
    store(u64 *p, R v)
    {
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(p), v);
    }

    static R add(R a, R b) { return _mm256_add_epi64(a, b); }
    static R sub(R a, R b) { return _mm256_sub_epi64(a, b); }
    static R bitAnd(R a, R b) { return _mm256_and_si256(a, b); }
    static R bitOr(R a, R b) { return _mm256_or_si256(a, b); }
    static R bitXor(R a, R b) { return _mm256_xor_si256(a, b); }
    static R andNot(R a, R b) { return _mm256_andnot_si256(a, b); }
    static R srli(R a, unsigned n) { return _mm256_srli_epi64(a, n); }
    static R slli(R a, unsigned n) { return _mm256_slli_epi64(a, n); }
    static R srl(R a, __m128i n) { return _mm256_srl_epi64(a, n); }
    static R sll(R a, __m128i n) { return _mm256_sll_epi64(a, n); }
    static R mul32(R a, R b) { return _mm256_mul_epu32(a, b); }

    /** All-ones lanes where a > b (unsigned). vpcmpgtq compares
     *  signed, so both sides get their sign bit flipped first: the
     *  lazy NTT operands reach 4q >= 2^63 for 61-62-bit primes. */
    static R
    greater(R a, R b)
    {
        const R sign = set1(u64{1} << 63);
        return _mm256_cmpgt_epi64(_mm256_xor_si256(a, sign),
                                  _mm256_xor_si256(b, sign));
    }

    static R
    csub(R r, R q)
    {
        return sub(r, _mm256_andnot_si256(greater(q, r), q));
    }

    static R
    subModQ(R a, R b, R q)
    {
        return add(sub(a, b), bitAnd(q, greater(b, a)));
    }

    static R
    negMod(R x, R q)
    {
        return _mm256_andnot_si256(_mm256_cmpeq_epi64(x, zero()),
                                   sub(q, x));
    }

    static R
    gather(const u64 *src, const std::uint32_t *idx)
    {
        const __m128i iv =
            _mm_loadu_si128(reinterpret_cast<const __m128i *>(idx));
        return _mm256_i32gather_epi64(
            reinterpret_cast<const long long *>(src), iv, 8);
    }
};

} // namespace

const KernelTable *
avx2Table()
{
    static const KernelTable table =
        makeTable<Avx2Lanes>(SimdBackend::Avx2, "avx2");
    return &table;
}

} // namespace simd
} // namespace cl

#else // !__AVX2__

namespace cl {
namespace simd {

const KernelTable *
avx2Table()
{
    return nullptr;
}

} // namespace simd
} // namespace cl

#endif
