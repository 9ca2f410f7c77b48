#include "kshgen.h"

#include <algorithm>
#include <array>

#include "rns/simd/kernels.h"
#include "util/common.h"
#include "util/prng.h"

namespace cl {

namespace {

/** Widest Keccak lane count of any kernel table (avx512). */
constexpr std::size_t kMaxLanes = 8;

/** RejectionSampler's accept rule for one modulus with its default
 *  2 extra bits: a masked word w is accepted when w < bound. */
struct AcceptRule
{
    u64 mask = 0, bound = 0, q = 0, q2 = 0, q4 = 0;

    AcceptRule() = default;

    explicit AcceptRule(u64 q_) : q(q_), q2(2 * q_), q4(4 * q_)
    {
        CL_ASSERT(q >= 2 && q < (u64{1} << 62), "modulus ", q,
                  " outside the expander's range");
        const unsigned bits =
            std::min(64u - __builtin_clzll(q - 1) + 2, 63u);
        const u64 range = u64{1} << bits;
        mask = range - 1;
        bound = range - range % q;
    }

    /** w mod q for an accepted w: q > 2^(bits-3) puts bound below
     *  8q, so 4q, 2q and q are each subtracted at most once. */
    u64
    reduce(u64 w) const
    {
        w -= w >= q4 ? q4 : 0;
        w -= w >= q2 ? q2 : 0;
        return w - (w >= q ? q : 0);
    }
};

/** One group of at most K.keccakLanes streams, permuted together. */
void
expandGroup(const KernelTable &K, std::uint64_t seed,
            const std::uint64_t *domains, const u64 *moduli,
            u64 *const *out, std::size_t count, std::size_t n)
{
    constexpr unsigned rate = keccak::kShake128RateWords;
    const std::size_t lanes = K.keccakLanes;
    // Word w of stream l at state[w * lanes + l]; lanes past count
    // permute an all-zero state nobody reads.
    std::array<std::uint64_t, 25 * kMaxLanes> state{};
    std::array<std::size_t, kMaxLanes> filled{};
    std::array<AcceptRule, kMaxLanes> rules;
    for (std::size_t l = 0; l < count; ++l) {
        // Shake128Stream's absorb: the 16-byte message (seed, domain)
        // and the SHAKE padding, all within the first block.
        state[0 * lanes + l] = seed;
        state[1 * lanes + l] = domains[l];
        state[2 * lanes + l] = 0x1fULL;
        state[(rate - 1) * lanes + l] = 0x8000000000000000ULL;
        rules[l] = AcceptRule(moduli[l]);
    }

    std::size_t open = count;
    while (open > 0) {
        K.keccakF1600Lanes(state.data());
        for (std::size_t l = 0; l < count; ++l) {
            std::size_t f = filled[l];
            if (f == n)
                continue;
            const AcceptRule &r = rules[l];
            u64 *dst = out[l];
            for (unsigned w = 0; w < rate && f < n; ++w) {
                const u64 x = state[w * lanes + l] & r.mask;
                dst[f] = r.reduce(x); // kept only when accepted
                f += x < r.bound;
            }
            filled[l] = f;
            open -= f == n;
        }
    }
}

} // namespace

void
expandUniform(std::uint64_t seed, const std::uint64_t *domains,
              const u64 *moduli, u64 *const *out, std::size_t towers,
              std::size_t n)
{
    const KernelTable &K = kernels();
    CL_ASSERT(K.keccakLanes >= 1 && K.keccakLanes <= kMaxLanes,
              "unsupported Keccak lane count ", K.keccakLanes);
    for (std::size_t t = 0; t < towers; t += K.keccakLanes) {
        const std::size_t count = std::min(K.keccakLanes, towers - t);
        expandGroup(K, seed, domains + t, moduli + t, out + t, count, n);
    }
}

} // namespace cl
