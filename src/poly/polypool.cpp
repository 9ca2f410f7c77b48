#include "polypool.h"

#include <atomic>
#include <cstdlib>
#include <mutex>
#include <new>
#include <unordered_map>
#include <vector>

#include "util/common.h"

#if defined(__SANITIZE_ADDRESS__)
#define CL_POOL_UNDER_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define CL_POOL_UNDER_ASAN 1
#endif
#endif
#ifndef CL_POOL_UNDER_ASAN
#define CL_POOL_UNDER_ASAN 0
#endif

namespace cl {

namespace {

/** Blocks below this size are not worth a free-list lookup. */
constexpr std::size_t kMinPooledBytes = 1024;

std::atomic<std::uint64_t> g_allocs{0};
std::atomic<std::uint64_t> g_hits{0};
std::atomic<std::uint64_t> g_misses{0};
std::atomic<std::uint64_t> g_frees{0};
std::atomic<std::uint64_t> g_parked{0};
std::atomic<std::uint64_t> g_liveBytes{0};
std::atomic<std::uint64_t> g_cachedBytes{0};

/** -1 = read CL_POOL on first use. */
std::atomic<int> g_enabled{-1};

int
envEnabled()
{
    if (const char *env = std::getenv("CL_POOL")) {
        const std::string v(env);
        if (v == "0" || v == "off" || v == "false")
            return 0;
        if (v == "1" || v == "on" || v == "true")
            return 1;
        warn("ignoring malformed CL_POOL='" + v + "'");
    }
    return CL_POOL_UNDER_ASAN ? 0 : 1;
}

std::size_t
capBytes()
{
    static const std::size_t cap = [] {
        std::size_t mb = 256;
        if (const char *env = std::getenv("CL_POOL_MB")) {
            char *end = nullptr;
            const long v = std::strtol(env, &end, 10);
            if (end != env && v >= 0)
                mb = static_cast<std::size_t>(v);
            else
                warn(std::string("ignoring malformed CL_POOL_MB='") +
                     env + "'");
        }
        return mb << 20;
    }();
    return cap;
}

/**
 * The process-wide free lists, keyed by exact byte size (PolyData
 * buffers are allocated at exact towers*N sizes, so exact keying
 * recycles every same-shape slab), under one mutex. The critical
 * section is a hash lookup plus a vector push/pop. Destroyed with the
 * other statics at exit, releasing parked blocks; `g_poolDead` keeps
 * frees that run later in static destruction from touching the
 * destroyed map.
 */
struct SharedPool
{
    std::mutex m;
    std::unordered_map<std::size_t, std::vector<void *>> bins;
    std::size_t bytes = 0; ///< Parked bytes; <= capBytes().

    /** Release every parked block. Caller holds m. */
    void
    releaseAll()
    {
        for (auto &[size, blocks] : bins) {
            for (void *p : blocks)
                ::operator delete(p);
        }
        bins.clear();
        g_cachedBytes.fetch_sub(bytes, std::memory_order_relaxed);
        bytes = 0;
    }

    ~SharedPool();
};

std::atomic<bool> g_poolDead{false};

SharedPool &
sharedPool()
{
    static SharedPool pool;
    return pool;
}

SharedPool::~SharedPool()
{
    std::lock_guard<std::mutex> lk(m);
    releaseAll();
    g_poolDead.store(true, std::memory_order_relaxed);
}

/** Whether a block of @p bytes takes the free-list path. */
bool
pooled(std::size_t bytes)
{
    return polyPoolEnabled() && bytes >= kMinPooledBytes &&
           !g_poolDead.load(std::memory_order_relaxed);
}

} // namespace

bool
polyPoolEnabled()
{
    int e = g_enabled.load(std::memory_order_relaxed);
    if (e < 0) {
        e = envEnabled();
        g_enabled.store(e, std::memory_order_relaxed);
    }
    return e != 0;
}

void
polyPoolSetEnabled(bool on)
{
    g_enabled.store(on ? 1 : 0, std::memory_order_relaxed);
}

PolyPoolStats
polyPoolStats()
{
    PolyPoolStats s;
    s.allocs = g_allocs.load(std::memory_order_relaxed);
    s.hits = g_hits.load(std::memory_order_relaxed);
    s.misses = g_misses.load(std::memory_order_relaxed);
    s.frees = g_frees.load(std::memory_order_relaxed);
    s.parked = g_parked.load(std::memory_order_relaxed);
    s.liveBytes = g_liveBytes.load(std::memory_order_relaxed);
    s.cachedBytes = g_cachedBytes.load(std::memory_order_relaxed);
    return s;
}

void
polyPoolResetStats()
{
    g_allocs.store(0, std::memory_order_relaxed);
    g_hits.store(0, std::memory_order_relaxed);
    g_misses.store(0, std::memory_order_relaxed);
    g_frees.store(0, std::memory_order_relaxed);
    g_parked.store(0, std::memory_order_relaxed);
    // liveBytes/cachedBytes track real state; never reset.
}

std::size_t
polyPoolCapBytes()
{
    return capBytes();
}

void
polyPoolTrim()
{
    if (g_poolDead.load(std::memory_order_relaxed))
        return;
    SharedPool &pool = sharedPool();
    std::lock_guard<std::mutex> lk(pool.m);
    pool.releaseAll();
}

void *
polyPoolAllocate(std::size_t bytes)
{
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    g_liveBytes.fetch_add(bytes, std::memory_order_relaxed);
    if (pooled(bytes)) {
        SharedPool &pool = sharedPool();
        std::lock_guard<std::mutex> lk(pool.m);
        auto it = pool.bins.find(bytes);
        if (it != pool.bins.end() && !it->second.empty()) {
            void *p = it->second.back();
            it->second.pop_back();
            pool.bytes -= bytes;
            g_hits.fetch_add(1, std::memory_order_relaxed);
            g_cachedBytes.fetch_sub(bytes, std::memory_order_relaxed);
            return p;
        }
    }
    g_misses.fetch_add(1, std::memory_order_relaxed);
    return ::operator new(bytes);
}

void
polyPoolDeallocate(void *p, std::size_t bytes) noexcept
{
    if (p == nullptr)
        return;
    g_frees.fetch_add(1, std::memory_order_relaxed);
    g_liveBytes.fetch_sub(bytes, std::memory_order_relaxed);
    if (pooled(bytes)) {
        SharedPool &pool = sharedPool();
        std::lock_guard<std::mutex> lk(pool.m);
        if (pool.bytes + bytes <= capBytes()) {
            pool.bins[bytes].push_back(p);
            pool.bytes += bytes;
            g_parked.fetch_add(1, std::memory_order_relaxed);
            g_cachedBytes.fetch_add(bytes, std::memory_order_relaxed);
            return;
        }
    }
    ::operator delete(p);
}

} // namespace cl
