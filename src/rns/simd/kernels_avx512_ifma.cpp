/**
 * AVX-512 IFMA backend table: kernels_avx512_impl.h with the IFMA lane
 * arithmetic for q < 2^50, built with -mavx512ifma. kernels.cpp hands
 * it out as the `avx512` table only when CPUID reports avx512ifma.
 */

#if defined(__AVX512IFMA__)
#define CL_SIMD_AVX512_IFMA 1
#endif

#include "rns/simd/kernels_avx512_impl.h"

namespace cl {
namespace simd {

const KernelTable *
avx512IfmaTable()
{
#if defined(CL_SIMD_AVX512_IFMA)
    static const KernelTable table = makeAvx512Table();
    return &table;
#else
    return nullptr;
#endif
}

} // namespace simd
} // namespace cl
