/**
 * AVX-512F backend table: kernels_vec_impl.h on 8 lanes with the
 * narrow and wide lane arithmetics, built with -mavx512f only. This
 * is the table an AVX-512F CPU without IFMA runs, and the fallback on
 * every CPU when the compiler cannot target IFMA.
 */

#include "rns/simd/kernels.h"

#if defined(__AVX512F__)
#include "rns/simd/kernels_avx512_lanes.h"
#endif

namespace cl {
namespace simd {

const KernelTable *
avx512Table()
{
#if defined(__AVX512F__)
    static const KernelTable table =
        makeTable<Avx512Lanes>(SimdBackend::Avx512, "avx512");
    return &table;
#else
    return nullptr;
#endif
}

} // namespace simd
} // namespace cl
