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

namespace {

// -1 = unresolved, 0 = composed, 1 = fused. Resolved lazily from
// CL_FUSE so tests that set the env before first library use see it.
std::atomic<int> g_fuse{-1};

} // namespace

bool
fusionEnabled()
{
    int v = g_fuse.load(std::memory_order_acquire);
    if (v < 0) {
        int resolved = 1;
        if (const char *env = std::getenv("CL_FUSE")) {
            if (std::strcmp(env, "0") == 0)
                resolved = 0;
            else if (std::strcmp(env, "1") != 0)
                warn(std::string("ignoring malformed CL_FUSE='") + env +
                     "' (want 0|1); fused pipelines stay on");
        }
        // Keep a value installed by an early setFusionEnabled call.
        g_fuse.compare_exchange_strong(v, resolved,
                                       std::memory_order_release,
                                       std::memory_order_acquire);
        if (v < 0)
            v = resolved;
    }
    return v != 0;
}

void
setFusionEnabled(bool enabled)
{
    g_fuse.store(enabled ? 1 : 0, std::memory_order_release);
}

namespace {

// ~0 = unresolved; resolved lazily from CL_FUSE_TILE (bytes).
std::atomic<u64> g_fuse_tile{~u64{0}};

} // namespace

u64
fusionTileMinBytes()
{
    u64 v = g_fuse_tile.load(std::memory_order_acquire);
    if (v == ~u64{0}) {
        u64 resolved = u64{1} << 20;
        if (const char *env = std::getenv("CL_FUSE_TILE")) {
            char *end = nullptr;
            const unsigned long long parsed =
                std::strtoull(env, &end, 10);
            if (end != env && *end == '\0' && parsed < ~u64{0})
                resolved = parsed;
            else
                warn(std::string("ignoring malformed CL_FUSE_TILE='") +
                     env + "' (want a byte count); floor stays " +
                     std::to_string(resolved));
        }
        // Keep a value installed by an early setFusionTileMinBytes.
        g_fuse_tile.compare_exchange_strong(v, resolved,
                                            std::memory_order_release,
                                            std::memory_order_acquire);
        if (v == ~u64{0})
            v = resolved;
    }
    return v;
}

void
setFusionTileMinBytes(u64 bytes)
{
    CL_ASSERT(bytes < ~u64{0}, "tile floor reserved sentinel");
    g_fuse_tile.store(bytes, std::memory_order_release);
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
