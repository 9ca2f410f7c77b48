/**
 * AVX-512 IFMA backend table: kernels_vec_impl.h on 8 lanes with the
 * IFMA lane arithmetic for q < 2^50, built with -mavx512ifma.
 * kernels.cpp hands it out as the `avx512` table only when CPUID
 * reports avx512ifma.
 */

#include "rns/simd/kernels.h"

#if defined(__AVX512IFMA__)

#include "rns/simd/kernels_avx512_lanes.h"

namespace cl {
namespace simd {
namespace {

/** Avx512Lanes plus the 52-bit multiplies vpmadd52luq/vpmadd52huq. */
struct Avx512IfmaLanes : Avx512Lanes
{
    static constexpr bool kIfma = true;

    /** Low 52 bits of the lane products a*b, added to acc. */
    static R
    madd52lo(R acc, R a, R b)
    {
        return _mm512_madd52lo_epu64(acc, a, b);
    }

    /** Bits 52..103 of the lane products a*b, added to acc. */
    static R
    madd52hi(R acc, R a, R b)
    {
        return _mm512_madd52hi_epu64(acc, a, b);
    }
};

} // namespace
} // namespace simd
} // namespace cl

#endif // __AVX512IFMA__

namespace cl {
namespace simd {

const KernelTable *
avx512IfmaTable()
{
#if defined(__AVX512IFMA__)
    static const KernelTable table =
        makeTable<Avx512IfmaLanes>(SimdBackend::Avx512, "avx512");
    return &table;
#else
    return nullptr;
#endif
}

} // namespace simd
} // namespace cl
