/** Runtime backend selection: CPUID probe + CL_SIMD override. */

#include "rns/simd/kernels.h"

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <mutex>

#include "util/common.h"

namespace cl {

namespace simd {

// One per backend translation unit; null when the backend was not
// compiled in (non-x86 host or compiler without the -m flags).
const KernelTable *scalarTable();
const KernelTable *avx2Table();
const KernelTable *avx512Table();
const KernelTable *avx512IfmaTable();

} // namespace simd

namespace {

bool
cpuSupports(SimdBackend b)
{
    switch (b) {
    case SimdBackend::Scalar:
        return true;
#if defined(__x86_64__) || defined(__i386__)
    case SimdBackend::Avx2:
        return __builtin_cpu_supports("avx2");
    case SimdBackend::Avx512:
        return __builtin_cpu_supports("avx512f");
#else
    case SimdBackend::Avx2:
    case SimdBackend::Avx512:
        return false;
#endif
    }
    return false;
}

bool
cpuSupportsIfma()
{
#if defined(__x86_64__) || defined(__i386__)
    return __builtin_cpu_supports("avx512ifma");
#else
    return false;
#endif
}

const KernelTable *
compiledTable(SimdBackend b)
{
    switch (b) {
    case SimdBackend::Scalar:
        return simd::scalarTable();
    case SimdBackend::Avx2:
        return simd::avx2Table();
    case SimdBackend::Avx512: {
        // The IFMA table runs only where CPUID reports avx512ifma; an
        // AVX-512F-only CPU never reaches an IFMA instruction.
        static const KernelTable *const avx512 =
            cpuSupportsIfma() && simd::avx512IfmaTable()
                ? simd::avx512IfmaTable()
                : simd::avx512Table();
        return avx512;
    }
    }
    return nullptr;
}

/** Parse CL_SIMD; returns true and sets @p out on a recognized name. */
bool
parseBackendName(const char *s, SimdBackend &out)
{
    if (std::strcmp(s, "scalar") == 0)
        out = SimdBackend::Scalar;
    else if (std::strcmp(s, "avx2") == 0)
        out = SimdBackend::Avx2;
    else if (std::strcmp(s, "avx512") == 0)
        out = SimdBackend::Avx512;
    else
        return false;
    return true;
}

const KernelTable *
resolveDefault()
{
    if (const char *env = std::getenv("CL_SIMD")) {
        SimdBackend req;
        if (!parseBackendName(env, req)) {
            warn(std::string("ignoring malformed CL_SIMD='") + env +
                 "' (want scalar|avx2|avx512)");
        } else if (const KernelTable *t = kernelTableFor(req)) {
            return t;
        } else {
            warn(std::string("CL_SIMD=") + env +
                 " unavailable on this host; using scalar kernels");
            return simd::scalarTable();
        }
    }
    for (SimdBackend b : {SimdBackend::Avx512, SimdBackend::Avx2}) {
        if (const KernelTable *t = kernelTableFor(b))
            return t;
    }
    return simd::scalarTable();
}

std::atomic<const KernelTable *> g_active{nullptr};

} // namespace

const KernelTable &
kernels()
{
    const KernelTable *t = g_active.load(std::memory_order_acquire);
    if (!t) {
        static std::once_flag once;
        std::call_once(once, [] {
            const KernelTable *expected = nullptr;
            // Keep a backend installed by an early setSimdBackend call.
            g_active.compare_exchange_strong(expected, resolveDefault(),
                                             std::memory_order_release,
                                             std::memory_order_relaxed);
        });
        t = g_active.load(std::memory_order_acquire);
    }
    return *t;
}

SimdBackend
activeSimdBackend()
{
    return kernels().id;
}

const KernelTable *
kernelTableFor(SimdBackend backend)
{
    if (!cpuSupports(backend))
        return nullptr;
    return compiledTable(backend);
}

const KernelTable *
avx512fKernelTable()
{
    if (!cpuSupports(SimdBackend::Avx512))
        return nullptr;
    return simd::avx512Table();
}

bool
setSimdBackend(SimdBackend backend)
{
    const KernelTable *t = kernelTableFor(backend);
    if (!t)
        return false;
    setKernelTable(*t);
    return true;
}

void
setKernelTable(const KernelTable &table)
{
    g_active.store(&table, std::memory_order_release);
}

const char *
simdBackendName(SimdBackend backend)
{
    switch (backend) {
    case SimdBackend::Scalar:
        return "scalar";
    case SimdBackend::Avx2:
        return "avx2";
    case SimdBackend::Avx512:
        return "avx512";
    }
    return "?";
}

} // namespace cl
