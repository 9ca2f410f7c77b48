/**
 * @file
 * Cryptographic pseudo-random generation used for keyswitch-hint
 * expansion (the software twin of CraterLake's KSHGen unit, Sec 5.2).
 *
 * The paper generates the pseudo-random half of each keyswitch hint
 * from a small seed with a Keccak-based PRNG (KangarooTwelve) followed
 * by rejection sampling modulo each RNS prime. We implement the
 * sponge core (Keccak-f[1600], SHAKE-128 parameters) and the same
 * rejection-sampling discipline, so the hardware KSHGen model and the
 * functional CKKS library expand identical hint data from a seed.
 */

#ifndef CL_UTIL_PRNG_H
#define CL_UTIL_PRNG_H

#include <array>
#include <cstdint>
#include <vector>

namespace cl {

/** Keccak-f[1600] step constants, shared by the scalar permutation and
 *  the lane-interleaved one of the SIMD kernel tables. */
namespace keccak {

/** Iota: the round constant XORed into lane 0 after each round. */
inline constexpr std::array<std::uint64_t, 24> kRoundConstants = {
    0x0000000000000001ULL, 0x0000000000008082ULL, 0x800000000000808aULL,
    0x8000000080008000ULL, 0x000000000000808bULL, 0x0000000080000001ULL,
    0x8000000080008081ULL, 0x8000000000008009ULL, 0x000000000000008aULL,
    0x0000000000000088ULL, 0x0000000080008009ULL, 0x000000008000000aULL,
    0x000000008000808bULL, 0x800000000000008bULL, 0x8000000000008089ULL,
    0x8000000000008003ULL, 0x8000000000008002ULL, 0x8000000000000080ULL,
    0x000000000000800aULL, 0x800000008000000aULL, 0x8000000080008081ULL,
    0x8000000000008080ULL, 0x0000000080000001ULL, 0x8000000080008008ULL,
};

/**
 * Rho and Pi as one cycle through the 24 lanes other than lane 0:
 * step i moves the lane that step i-1 displaced (lane 1 for i = 0)
 * into lane kPiLanes[i], rotated left by kRhoOffsets[i].
 */
inline constexpr std::array<unsigned, 24> kRhoOffsets = {
    1, 3, 6, 10, 15, 21, 28, 36, 45, 55, 2, 14,
    27, 41, 56, 8, 25, 43, 62, 18, 39, 61, 20, 44,
};

inline constexpr std::array<unsigned, 24> kPiLanes = {
    10, 7, 11, 17, 18, 3, 5, 16, 8, 21, 24, 4,
    15, 23, 19, 13, 12, 2, 20, 14, 22, 9, 6, 1,
};

/** SHAKE-128 rate in 64-bit words (168 bytes). */
inline constexpr unsigned kShake128RateWords = 168 / 8;

} // namespace keccak

/** One Keccak-f[1600] permutation over the 25-word sponge state. */
void keccakF1600(std::array<std::uint64_t, 25> &state);

/**
 * SHAKE-128 extendable-output function used as a seeded stream of
 * uniform 64-bit words. Deterministic for a given (seed, domain) pair.
 */
class Shake128Stream
{
  public:
    /**
     * @param seed Arbitrary caller seed (e.g., per-key master seed).
     * @param domain Domain-separation tag so independent hints drawn
     *        from one master seed never share a stream.
     */
    Shake128Stream(std::uint64_t seed, std::uint64_t domain);

    /** Next 64 uniformly random bits. */
    std::uint64_t next64();

    /** Next @p bits uniformly random low-order bits (bits <= 64). */
    std::uint64_t nextBits(unsigned bits);

    /** Total 64-bit words squeezed so far (for modeling throughput). */
    std::uint64_t wordsSqueezed() const { return wordsSqueezed_; }

  private:
    void squeezeBlock();

    static constexpr unsigned rateWords = keccak::kShake128RateWords;

    std::array<std::uint64_t, 25> state_{};
    std::array<std::uint64_t, rateWords> block_{};
    unsigned blockPos_;
    std::uint64_t wordsSqueezed_;
};

/**
 * Rejection sampler producing values uniform in [0, q) from a
 * Shake128Stream, mirroring the KSHGen pipeline: it draws
 * ceil(log2 q) + extraBits random bits per attempt, which reduces the
 * rejection probability below 2^-extraBits (Sec 5.2 "sampling
 * additional random bits per generated word").
 */
class RejectionSampler
{
  public:
    RejectionSampler(std::uint64_t seed, std::uint64_t domain,
                     std::uint64_t q, unsigned extra_bits = 2);

    /** Next uniform value modulo q. */
    std::uint64_t next();

    /** Fill @p out with n uniform values modulo q. */
    void fill(std::uint64_t *out, std::size_t n);

    /** Attempts made (accepted + rejected), for throughput modeling. */
    std::uint64_t attempts() const { return attempts_; }

    /** Values accepted so far. */
    std::uint64_t accepted() const { return accepted_; }

  private:
    Shake128Stream stream_;
    std::uint64_t q_;
    unsigned sampleBits_;
    std::uint64_t bound_; // largest multiple of q below 2^sampleBits
    std::uint64_t attempts_;
    std::uint64_t accepted_;
};

/**
 * Fast non-cryptographic PRNG (xoshiro256**) for test inputs and
 * noise sampling in the functional scheme, where reproducibility
 * matters but cryptographic strength is exercised elsewhere.
 */
class FastRng
{
  public:
    explicit FastRng(std::uint64_t seed);

    std::uint64_t next64();

    /** Uniform in [0, bound). */
    std::uint64_t nextBelow(std::uint64_t bound);

    /** Centered binomial sample with parameter eta (variance eta/2). */
    int nextCbd(unsigned eta = 21);

    /** Uniform ternary sample in {-1, 0, 1}. */
    int nextTernary();

    /** Uniform double in [0, 1). */
    double nextDouble();

  private:
    std::array<std::uint64_t, 4> s_;
};

} // namespace cl

#endif // CL_UTIL_PRNG_H
