/** The KSHGen batch expander against the scalar RejectionSampler. */

#include <gtest/gtest.h>

#include <vector>

#include "rns/kshgen.h"
#include "rns/simd/kernels.h"
#include "util/prng.h"

#include "kernel_test_util.h"

namespace {

using namespace cl;
using namespace cl::test;

TEST(KshGen, ExpandUniformMatchesRejectionSampler)
{
    // Moduli just above a power of two put the accept bound near 8q,
    // so all three subtractions of the reduction fire; those just
    // below one put it near 4q. 2^61 + 1 and 2^62 - 57 hit the 63-bit
    // cap on the sampled width. Tower counts run past one Keccak group
    // on every table and leave the last group partly empty; lengths
    // straddle the 21-word rate block.
    const std::vector<u64> moduli = {
        2,
        3,
        (u64{1} << 27) + 29,
        (u64{1} << 28) - 57,
        (u64{1} << 40) + 15,
        (u64{1} << 50) - 27,
        (u64{1} << 55) + 3,
        (u64{1} << 61) + 1,
        (u64{1} << 62) - 57,
    };
    TableGuard guard;
    for (TableId id : availableTables(true)) {
        setKernelTable(*tableFor(id));
        for (std::size_t towers : {1u, 5u, 9u}) {
            for (std::size_t n : {1u, 21u, 22u, 1000u}) {
                std::vector<std::uint64_t> domains(towers);
                std::vector<u64> qs(towers);
                std::vector<std::vector<u64>> out(towers,
                                                  std::vector<u64>(n));
                std::vector<u64 *> outs(towers);
                for (std::size_t t = 0; t < towers; ++t) {
                    domains[t] = 0x10000 * n + t;
                    qs[t] = moduli[(t + n) % moduli.size()];
                    outs[t] = out[t].data();
                }
                expandUniform(7, domains.data(), qs.data(), outs.data(),
                              towers, n);
                for (std::size_t t = 0; t < towers; ++t) {
                    RejectionSampler sampler(7, domains[t], qs[t]);
                    std::vector<u64> expect(n);
                    sampler.fill(expect.data(), n);
                    ASSERT_EQ(out[t], expect)
                        << tableName(id) << " towers=" << towers
                        << " n=" << n << " tower " << t << " q=" << qs[t];
                }
            }
        }
    }
}

} // namespace
