/**
 * @file
 * Key material for the CKKS scheme.
 *
 * Ciphertext convention: ct = (c0, c1) decrypts as m ≈ c0 + c1·s.
 *
 * A keyswitch hint (KSH, the paper's term; "switching key" in library
 * parlance) converts an encryption component under a source key into
 * one under the canonical secret s. It consists of `digits` pairs of
 * polynomials over the extended basis Q ∪ P. The a-halves are
 * pseudo-random and regenerable from (seed, domain) — exactly the
 * property CraterLake's KSHGen unit exploits to halve KSH storage and
 * bandwidth (Sec 5.2).
 */

#ifndef CL_CKKS_KEYS_H
#define CL_CKKS_KEYS_H

#include <map>
#include <vector>

#include "ckks/context.h"
#include "util/prng.h"

namespace cl {

struct SecretKey
{
    RnsPoly s; ///< Ternary secret over the full chain, NTT form.
};

struct PublicKey
{
    RnsPoly b; ///< -a·s + e over the data basis, NTT form.
    RnsPoly a; ///< Uniform, NTT form.
};

/**
 * One keyswitch hint: per-digit (b, a) pairs over Q ∪ P.
 *
 * The digit size alphaKs selects the boosted-keyswitching variant
 * (Sec 3.1): alphaKs = L is the 1-digit variant; alphaKs = ceil(L/t)
 * is the t-digit variant; alphaKs = 1 degenerates to the standard
 * (per-prime) keyswitching algorithm that prior accelerators target.
 */
struct SwitchKey
{
    std::vector<RnsPoly> b; ///< b_j = -a_j·s + e_j + W_j·s_src.
    std::vector<RnsPoly> a; ///< Pseudo-random halves.
    unsigned alphaKs = 0;   ///< Digit size (special moduli used).
    std::uint64_t seed = 0; ///< Seed regenerating every a_j.
    std::uint64_t domain = 0;

    unsigned digits() const { return static_cast<unsigned>(b.size()); }

    /** KSH footprint in residue-polynomial words when the
     *  pseudo-random half is regenerated on the fly. */
    std::size_t
    storedWords(bool kshgen) const
    {
        std::size_t words = 0;
        for (const auto &poly : b)
            words += poly.footprintWords();
        if (!kshgen) {
            for (const auto &poly : a)
                words += poly.footprintWords();
        }
        return words;
    }
};

/** Rotation keys indexed by automorphism exponent. */
struct GaloisKeys
{
    std::map<std::size_t, SwitchKey> keys;

    const SwitchKey &
    at(std::size_t galois) const
    {
        auto it = keys.find(galois);
        CL_ASSERT(it != keys.end(), "missing galois key for k=", galois);
        return it->second;
    }

    bool has(std::size_t galois) const { return keys.count(galois) != 0; }
};

/** A fresh ternary (ternary = true) or CBD polynomial drawn from
 *  @p rng, lifted into every tower of @p idx in parallel, in NTT
 *  form. Shared by key generation and encryption. */
RnsPoly sampleSmall(const CkksContext &ctx,
                    const std::vector<unsigned> &idx, FastRng &rng,
                    bool ternary);

/**
 * Generates all key material from the context's master seed.
 *
 * Noise and the secret come from one FastRng in a fixed serial order:
 * the secret, then each key's error polynomials in digit order. The
 * rest of every key is a pure function of those draws and the seeded
 * streams, so it is computed tower by tower on the thread pool with
 * the same bytes at any worker count and on any kernel table.
 */
class KeyGenerator
{
  public:
    explicit KeyGenerator(const CkksContext &ctx);

    const SecretKey &secretKey() const { return sk_; }

    PublicKey genPublicKey();

    /** Relinearization hint: s^2 -> s. Digit size 0 means "context
     *  default" (alpha special moduli, i.e., the most boosted form). */
    SwitchKey genRelinKey(unsigned alpha_ks = 0);

    /** Rotation hint for slot rotation by @p steps (may be negative). */
    SwitchKey genRotationKey(int steps, unsigned alpha_ks = 0);

    /** Conjugation hint (automorphism x -> x^{-1}). */
    SwitchKey genConjugationKey(unsigned alpha_ks = 0);

    /** Hints for a set of rotations, keyed by automorphism exponent. */
    GaloisKeys genRotationKeys(const std::vector<int> &steps,
                               bool conjugate = false);

    /** Galois exponent implementing rotation by @p steps. */
    std::size_t galoisFromSteps(int steps) const;

    /** General hint from an arbitrary source key to s. */
    SwitchKey genSwitchKey(const RnsPoly &s_src, std::uint64_t domain,
                           unsigned alpha_ks = 0);

  private:
    struct HalfPair;

    /** CBD error coefficients, the next n draws of noiseRng_. */
    std::vector<int> drawError();

    /** Every pair's a and b over @p idx, one task per group of
     *  kernels().keccakLanes towers of one pair. */
    void generatePairs(std::vector<HalfPair> &pairs,
                       const std::vector<unsigned> &idx);

    const CkksContext &ctx_;
    SecretKey sk_;
    FastRng noiseRng_;
    std::uint64_t domainCounter_;
};

} // namespace cl

#endif // CL_CKKS_KEYS_H
