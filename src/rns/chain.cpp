#include "chain.h"

#include "util/threadpool.h"

namespace cl {

RnsChain::RnsChain(std::size_t n, std::vector<u64> moduli)
    : n_(n), moduli_(std::move(moduli))
{
    CL_ASSERT(isPowerOfTwo(n_), "N must be a power of two");
    CL_ASSERT(!moduli_.empty(), "empty modulus chain");
    for (u64 q : moduli_) {
        CL_ASSERT((q - 1) % (2 * n_) == 0, "modulus ", q,
                  " not NTT-friendly for N=", n_);
    }
    ntt_.resize(moduli_.size());
    parallelFor(
        0, moduli_.size(),
        [&](std::size_t i) {
            ntt_[i] = std::make_unique<NttTables>(n_, moduli_[i]);
        },
        parallelGrain(2 * n_));
}

const AutomorphismMap &
RnsChain::automorphism(std::size_t k) const
{
    std::lock_guard<std::mutex> lk(autosMutex_);
    auto it = autos_.find(k);
    if (it == autos_.end()) {
        it = autos_
                 .emplace(k, std::make_unique<AutomorphismMap>(n_, k,
                                                               *ntt_[0]))
                 .first;
    }
    return *it->second;
}

} // namespace cl
