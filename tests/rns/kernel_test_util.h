/**
 * @file
 * Helpers shared by the kernel-table property tests (test_simd.cpp,
 * test_fused.cpp): the tables under test, a guard restoring the active
 * table, the named prime widths, and salted random inputs.
 */

#ifndef CL_TESTS_RNS_KERNEL_TEST_UTIL_H
#define CL_TESTS_RNS_KERNEL_TEST_UTIL_H

#include <initializer_list>
#include <string>
#include <vector>

#include "rns/primes.h"
#include "rns/simd/kernels.h"
#include "util/prng.h"

namespace cl {
namespace test {

/**
 * A kernel table under test. The first three values equal
 * SimdBackend's, so tests parameterized on them keep the names and
 * printed parameters they had when the parameter was a SimdBackend.
 * Avx512F is avx512fKernelTable(): the AVX-512 backend without its
 * IFMA arithmetic, listed only on CPUs with IFMA, where the default
 * `avx512` table no longer runs the wide arithmetic below 2^50.
 */
enum class TableId
{
    Scalar = 0,
    Avx2 = 1,
    Avx512 = 2,
    Avx512F = 3,
};

inline const KernelTable *
tableFor(TableId id)
{
    if (id == TableId::Avx512F)
        return avx512fKernelTable();
    return kernelTableFor(static_cast<SimdBackend>(id));
}

/** Every table this CPU can run, scalar first when requested. */
inline std::vector<TableId>
availableTables(bool with_scalar)
{
    std::vector<TableId> v;
    if (with_scalar)
        v.push_back(TableId::Scalar);
    for (TableId id : {TableId::Avx2, TableId::Avx512}) {
        if (tableFor(id))
            v.push_back(id);
    }
    if (avx512fKernelTable() &&
        avx512fKernelTable() != kernelTableFor(SimdBackend::Avx512))
        v.push_back(TableId::Avx512F);
    return v;
}

inline std::string
tableName(TableId id)
{
    if (id == TableId::Avx512F)
        return "avx512f";
    return simdBackendName(static_cast<SimdBackend>(id));
}

/** Restores the active table on scope exit, so a failing test can't
 *  leak its override into later tests. */
class TableGuard
{
  public:
    TableGuard() : saved_(kernels()) {}
    ~TableGuard() { setKernelTable(saved_); }

  private:
    const KernelTable &saved_;
};

/** The named prime widths: the 28-bit hardware datapath width, 30/31
 *  bits (the last narrow and first wide primes), the CKKS widths
 *  40-62, 49-51 bits either side of the IFMA switch at 2^50, and
 *  61/62 bits, where 4q comes within a factor of two of 2^64. */
inline constexpr unsigned kPrimeWidths[] = {28, 30, 31, 40, 49, 50,
                                            51, 55, 60, 61, 62};

/** The @p count largest primes below 2^bits. Each lazy [0, 4q)
 *  operand then reaches just under 2^(bits+2): for 50 bits, just
 *  under the 2^52 IFMA operand bound. */
inline std::vector<u64>
largestPrimes(unsigned bits, std::size_t count)
{
    std::vector<u64> primes;
    for (u64 q = (u64{1} << bits) - 1; primes.size() < count; q -= 2) {
        if (isPrime(q))
            primes.push_back(q);
    }
    return primes;
}

inline u64
primeOfWidth(unsigned bits)
{
    return largestPrimes(bits, 1)[0];
}

/** Random values < bound, with the boundary values salted in at the
 *  front so every run exercises them at multiple lane positions. */
inline std::vector<u64>
randomVec(std::size_t n, u64 bound, u64 seed,
          std::initializer_list<u64> boundary = {})
{
    std::vector<u64> v(n);
    FastRng rng(seed);
    for (auto &x : v)
        x = rng.nextBelow(bound);
    std::size_t i = 0;
    for (u64 b : boundary) {
        if (i < n)
            v[i++] = b;
        // A second copy at an odd offset lands the boundary value in
        // a different vector lane (and in the scalar tail for small n).
        if (i + 5 < n)
            v[i + 5] = b;
    }
    return v;
}

} // namespace test
} // namespace cl

#endif // CL_TESTS_RNS_KERNEL_TEST_UTIL_H
