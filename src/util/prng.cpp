#include "prng.h"

#include "common.h"

namespace cl {

namespace {

constexpr const auto &roundConstants = keccak::kRoundConstants;
constexpr const auto &rhoOffsets = keccak::kRhoOffsets;
constexpr const auto &piLanes = keccak::kPiLanes;

inline std::uint64_t
rotl64(std::uint64_t x, unsigned s)
{
    return (x << s) | (x >> (64 - s));
}

} // namespace

void
keccakF1600(std::array<std::uint64_t, 25> &state)
{
    for (unsigned round = 0; round < 24; ++round) {
        // Theta
        std::uint64_t c[5];
        for (unsigned x = 0; x < 5; ++x) {
            c[x] = state[x] ^ state[x + 5] ^ state[x + 10] ^ state[x + 15] ^
                   state[x + 20];
        }
        for (unsigned x = 0; x < 5; ++x) {
            std::uint64_t d = c[(x + 4) % 5] ^ rotl64(c[(x + 1) % 5], 1);
            for (unsigned y = 0; y < 5; ++y)
                state[x + 5 * y] ^= d;
        }
        // Rho and Pi
        std::uint64_t current = state[1];
        for (unsigned i = 0; i < 24; ++i) {
            unsigned lane = piLanes[i];
            std::uint64_t tmp = state[lane];
            state[lane] = rotl64(current, rhoOffsets[i]);
            current = tmp;
        }
        // Chi
        for (unsigned y = 0; y < 5; ++y) {
            std::uint64_t row[5];
            for (unsigned x = 0; x < 5; ++x)
                row[x] = state[x + 5 * y];
            for (unsigned x = 0; x < 5; ++x) {
                state[x + 5 * y] =
                    row[x] ^ (~row[(x + 1) % 5] & row[(x + 2) % 5]);
            }
        }
        // Iota
        state[0] ^= roundConstants[round];
    }
}

Shake128Stream::Shake128Stream(std::uint64_t seed, std::uint64_t domain)
    : blockPos_(rateWords), wordsSqueezed_(0)
{
    // Absorb a single 16-byte message (seed || domain) into the rate
    // portion, then apply SHAKE padding (0x1F ... 0x80) in-block.
    state_[0] ^= seed;
    state_[1] ^= domain;
    state_[2] ^= 0x1fULL;                  // SHAKE domain + pad10*1 start
    state_[rateWords - 1] ^= 0x8000000000000000ULL; // pad end
    keccakF1600(state_);
    for (unsigned i = 0; i < rateWords; ++i)
        block_[i] = state_[i];
    blockPos_ = 0;
}

void
Shake128Stream::squeezeBlock()
{
    keccakF1600(state_);
    for (unsigned i = 0; i < rateWords; ++i)
        block_[i] = state_[i];
    blockPos_ = 0;
}

std::uint64_t
Shake128Stream::next64()
{
    if (blockPos_ == rateWords)
        squeezeBlock();
    ++wordsSqueezed_;
    return block_[blockPos_++];
}

std::uint64_t
Shake128Stream::nextBits(unsigned bits)
{
    CL_ASSERT(bits >= 1 && bits <= 64, "bits=", bits);
    std::uint64_t w = next64();
    if (bits == 64)
        return w;
    return w & ((1ULL << bits) - 1);
}

RejectionSampler::RejectionSampler(std::uint64_t seed, std::uint64_t domain,
                                   std::uint64_t q, unsigned extra_bits)
    : stream_(seed, domain), q_(q), attempts_(0), accepted_(0)
{
    CL_ASSERT(q >= 2, "modulus too small: q=", q);
    unsigned qbits = 64 - __builtin_clzll(q - 1);
    sampleBits_ = qbits + extra_bits;
    if (sampleBits_ > 63)
        sampleBits_ = 63;
    std::uint64_t range = 1ULL << sampleBits_;
    bound_ = range - (range % q);
}

std::uint64_t
RejectionSampler::next()
{
    for (;;) {
        ++attempts_;
        std::uint64_t w = stream_.nextBits(sampleBits_);
        if (w < bound_) {
            ++accepted_;
            return w % q_;
        }
    }
}

void
RejectionSampler::fill(std::uint64_t *out, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        out[i] = next();
}

FastRng::FastRng(std::uint64_t seed)
{
    // SplitMix64 seeding, as recommended for xoshiro.
    std::uint64_t x = seed;
    for (auto &word : s_) {
        x += 0x9e3779b97f4a7c15ULL;
        std::uint64_t z = x;
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        word = z ^ (z >> 31);
    }
}

std::uint64_t
FastRng::next64()
{
    std::uint64_t result = rotl64(s_[1] * 5, 7) * 9;
    std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl64(s_[3], 45);
    return result;
}

std::uint64_t
FastRng::nextBelow(std::uint64_t bound)
{
    CL_ASSERT(bound > 0);
    // Rejection to avoid modulo bias.
    std::uint64_t threshold = (0 - bound) % bound;
    for (;;) {
        std::uint64_t r = next64();
        if (r >= threshold)
            return r % bound;
    }
}

int
FastRng::nextCbd(unsigned eta)
{
    CL_ASSERT(eta <= 32, "eta too large: ", eta);
    std::uint64_t w = next64();
    int a = __builtin_popcountll(w & ((1ULL << eta) - 1));
    int b = __builtin_popcountll((w >> 32) & ((1ULL << eta) - 1));
    return a - b;
}

int
FastRng::nextTernary()
{
    return static_cast<int>(nextBelow(3)) - 1;
}

double
FastRng::nextDouble()
{
    return static_cast<double>(next64() >> 11) * 0x1.0p-53;
}

} // namespace cl
