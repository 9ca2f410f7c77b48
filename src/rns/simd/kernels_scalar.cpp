/** Scalar backend: the reference loops, verbatim. */

#include "rns/simd/kernels.h"
#include "rns/simd/ref_impl.h"

namespace cl {
namespace simd {

const KernelTable *
scalarTable()
{
    static const KernelTable table = {
        SimdBackend::Scalar,
        "scalar",
        &ref::addModVec,
        &ref::subModVec,
        &ref::mulModVec,
        &ref::mulAddModVec,
        &ref::negateVec,
        &ref::mulModShoupVec,
        &ref::baseconvMacVec,
        &ref::gatherVec,
        &ref::nttFwdButterflyVec,
        &ref::nttInvButterflyVec,
        &ref::nttFwdTailVec,
        &ref::nttInvTailVec,
        &ref::nttCorrectVec,
        &ref::nttScaleInvVec,
        &ref::nttInvScaleButterflyVec,
        &ref::rescaleEpilogueVec,
        &ref::rescaleNttFwdButterflyVec,
        &ref::nttCorrectSubMulShoupVec,
    };
    return &table;
}

} // namespace simd
} // namespace cl
