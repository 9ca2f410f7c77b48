/**
 * @file
 * Batch expansion of keyswitch-hint pseudo-random halves — the host
 * twin of CraterLake's KSHGen unit (Sec 5.2), which regenerates the
 * uniform half of every hint from a seed fast enough never to stall
 * the chip.
 *
 * Each tower of a hint half is its own SHAKE-128 stream (seed,
 * domain) followed by rejection sampling modulo the tower's prime,
 * exactly as Shake128Stream and RejectionSampler define them. The
 * expander runs kernels().keccakLanes of those streams through one
 * lane-interleaved Keccak permutation (4 on avx2, 8 on avx512), then
 * applies each stream's accept rule word by word, so every tower
 * gets the very values RejectionSampler::fill would write.
 */

#ifndef CL_RNS_KSHGEN_H
#define CL_RNS_KSHGEN_H

#include <cstddef>
#include <cstdint>

#include "rns/modarith.h"

namespace cl {

/**
 * For t < @p towers, fill out[t][0, n) with exactly the n values
 * RejectionSampler(seed, domains[t], moduli[t]).fill(out[t], n)
 * writes (default extra bits, 2). Accepted words are below 8q, so
 * the reduction mod q is three conditional subtractions rather than
 * a division. Requires 2 <= moduli[t] < 2^62. Towers are permuted
 * kernels().keccakLanes at a time, so callers spreading towers over
 * threads hand each worker whole groups of that many.
 */
void expandUniform(std::uint64_t seed, const std::uint64_t *domains,
                   const u64 *moduli, u64 *const *out, std::size_t towers,
                   std::size_t n);

} // namespace cl

#endif // CL_RNS_KSHGEN_H
