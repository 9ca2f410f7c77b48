/**
 * AVX-512F backend table: the narrow and wide lane arithmetics of
 * kernels_avx512_impl.h, built with -mavx512f only. This is the table
 * an AVX-512F CPU without IFMA runs, and the fallback on every CPU
 * when the compiler cannot target IFMA.
 */

#include "rns/simd/kernels_avx512_impl.h"

namespace cl {
namespace simd {

const KernelTable *
avx512Table()
{
#if defined(__AVX512F__)
    static const KernelTable table = makeAvx512Table();
    return &table;
#else
    return nullptr;
#endif
}

} // namespace simd
} // namespace cl
