/** Scalar backend: the reference loops, verbatim. */

#include "rns/simd/kernels.h"
#include "rns/simd/ref_impl.h"
#include "util/prng.h"

#include <algorithm>

namespace cl {
namespace simd {
namespace {

/** One state per call: keccakF1600 on a copy of the 25 words. */
void
keccakF1600One(std::uint64_t *s)
{
    std::array<std::uint64_t, 25> state;
    std::copy_n(s, state.size(), state.begin());
    keccakF1600(state);
    std::copy(state.begin(), state.end(), s);
}

} // namespace

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
        &ref::rescaleCenterVec,
        &ref::nttCorrectSubMulShoupVec,
        1,
        &keccakF1600One,
    };
    return &table;
}

} // namespace simd
} // namespace cl
