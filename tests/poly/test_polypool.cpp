/** Tests for the pooled slab allocator behind RnsPoly: reuse (also
 *  across threads), live buffers never aliased, the process-wide cap,
 *  stats bookkeeping, leak-free trim, and clean pass-through when
 *  disabled. */

#include <algorithm>
#include <atomic>
#include <cstring>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "poly/polypool.h"
#include "poly/rnspoly.h"
#include "rns/primes.h"

namespace cl {
namespace {

/** Save/restore the enable flag and trim around each test so the
 *  assertions see only their own traffic. */
class PolyPoolTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        prev_ = polyPoolEnabled();
        polyPoolSetEnabled(true);
        polyPoolTrim();
        polyPoolResetStats();
    }
    void
    TearDown() override
    {
        polyPoolTrim();
        polyPoolSetEnabled(prev_);
    }
    bool prev_ = false;
};

// Large enough to be pooled (the pool passes tiny blocks through).
constexpr std::size_t kBytes = 1 << 16;

TEST_F(PolyPoolTest, FreedBlockIsReusedSameThread)
{
    void *a = polyPoolAllocate(kBytes);
    polyPoolDeallocate(a, kBytes);
    void *b = polyPoolAllocate(kBytes);
    EXPECT_EQ(a, b) << "same-size realloc must hit the free list";
    polyPoolDeallocate(b, kBytes);

    const PolyPoolStats s = polyPoolStats();
    EXPECT_EQ(s.allocs, 2u);
    EXPECT_EQ(s.hits, 1u);
    EXPECT_EQ(s.misses, 1u);
    EXPECT_EQ(s.frees, 2u);
}

TEST_F(PolyPoolTest, LiveBlocksAreNeverAliased)
{
    // Allocate many same-size blocks while all stay live: every
    // pointer must be distinct, and bytes written through one must
    // survive churn on the others.
    constexpr int kBlocks = 32;
    std::vector<unsigned char *> blocks;
    for (int i = 0; i < kBlocks; ++i) {
        auto *p = static_cast<unsigned char *>(polyPoolAllocate(kBytes));
        std::memset(p, i + 1, kBytes);
        blocks.push_back(p);
    }
    for (int i = 0; i < kBlocks; ++i)
        for (int j = i + 1; j < kBlocks; ++j)
            ASSERT_NE(blocks[i], blocks[j]);
    // Churn: recycle scratch blocks between integrity checks.
    for (int round = 0; round < 8; ++round) {
        void *scratch = polyPoolAllocate(kBytes);
        std::memset(scratch, 0xEE, kBytes);
        polyPoolDeallocate(scratch, kBytes);
    }
    for (int i = 0; i < kBlocks; ++i) {
        for (std::size_t b = 0; b < kBytes; b += kBytes / 7)
            ASSERT_EQ(blocks[i][b], static_cast<unsigned char>(i + 1));
        polyPoolDeallocate(blocks[i], kBytes);
    }
}

TEST_F(PolyPoolTest, TrimReleasesEverythingAndNothingLeaks)
{
    const PolyPoolStats before = polyPoolStats();
    std::vector<void *> blocks;
    for (int i = 0; i < 16; ++i)
        blocks.push_back(polyPoolAllocate(kBytes));
    EXPECT_EQ(polyPoolStats().liveBytes, before.liveBytes + 16 * kBytes);
    for (void *p : blocks)
        polyPoolDeallocate(p, kBytes);

    PolyPoolStats s = polyPoolStats();
    EXPECT_EQ(s.liveBytes, before.liveBytes) << "every byte returned";
    EXPECT_GT(s.cachedBytes, before.cachedBytes) << "frees parked";

    polyPoolTrim();
    s = polyPoolStats();
    EXPECT_EQ(s.cachedBytes, 0u) << "trim releases all parked blocks";
    EXPECT_EQ(s.liveBytes, before.liveBytes);
}

TEST_F(PolyPoolTest, DisabledPoolPassesThrough)
{
    polyPoolSetEnabled(false);
    polyPoolResetStats();
    void *a = polyPoolAllocate(kBytes);
    polyPoolDeallocate(a, kBytes);
    const PolyPoolStats s = polyPoolStats();
    EXPECT_EQ(s.hits, 0u);
    EXPECT_EQ(s.parked, 0u);
    EXPECT_EQ(s.cachedBytes, 0u);

    // A block parked while enabled must still free cleanly when the
    // pool is disabled before the next allocation (blocks always come
    // from operator new, so toggling mid-run is safe).
    polyPoolSetEnabled(true);
    void *b = polyPoolAllocate(kBytes);
    polyPoolDeallocate(b, kBytes);
    polyPoolSetEnabled(false);
    void *c = polyPoolAllocate(kBytes);
    polyPoolDeallocate(c, kBytes);
    polyPoolSetEnabled(true);
    polyPoolTrim();
    EXPECT_EQ(polyPoolStats().cachedBytes, 0u);
}

TEST_F(PolyPoolTest, BlockFreedOnAnotherThreadIsReused)
{
    // One process-wide list: a block parked by another thread must
    // satisfy this thread's next same-size allocation, and trim must
    // leave nothing cached afterwards.
    const PolyPoolStats before = polyPoolStats();
    void *freed = nullptr;
    std::thread t([&] {
        freed = polyPoolAllocate(kBytes);
        polyPoolDeallocate(freed, kBytes);
    });
    t.join();
    EXPECT_EQ(polyPoolStats().cachedBytes, before.cachedBytes + kBytes)
        << "the worker's free parked";
    void *p = polyPoolAllocate(kBytes);
    EXPECT_EQ(p, freed) << "the main thread reuses the worker's block";
    EXPECT_EQ(polyPoolStats().hits, before.hits + 1);
    polyPoolDeallocate(p, kBytes);

    polyPoolTrim();
    const PolyPoolStats s = polyPoolStats();
    EXPECT_EQ(s.cachedBytes, 0u) << "trim released the shared list";
    EXPECT_EQ(s.liveBytes, before.liveBytes);
}

TEST_F(PolyPoolTest, CapBoundsTheProcessTotal)
{
    // Several threads each free more than a share of the cap: the
    // bytes parked over all threads never exceed it, and the frees
    // beyond it release to the system allocator. The blocks are never
    // touched, so they cost address space, not resident memory.
    constexpr std::size_t kThreads = 4;
    const std::size_t cap = polyPoolCapBytes();
    const std::size_t block = std::max<std::size_t>(kBytes, cap / 32);
    const std::size_t per_thread = cap / block / kThreads + 4;
    std::vector<void *> blocks(kThreads * per_thread);
    for (void *&p : blocks)
        p = polyPoolAllocate(block);
    std::atomic<bool> over{false};
    std::vector<std::thread> threads;
    for (std::size_t i = 0; i < kThreads; ++i) {
        threads.emplace_back([&, i] {
            for (std::size_t k = 0; k < per_thread; ++k) {
                polyPoolDeallocate(blocks[i * per_thread + k], block);
                if (polyPoolStats().cachedBytes > cap)
                    over = true;
            }
        });
    }
    for (auto &t : threads)
        t.join();
    const PolyPoolStats s = polyPoolStats();
    EXPECT_FALSE(over) << "parked bytes exceeded the cap mid-run";
    EXPECT_LE(s.cachedBytes, cap);
    EXPECT_GT(s.parked, 0u) << "frees below the cap park";
    EXPECT_LT(s.parked, s.frees) << "frees above the cap release";
}

TEST_F(PolyPoolTest, RnsPolyRoundTripsThroughThePool)
{
    // End-to-end: RnsPoly's allocator must draw from the pool, and a
    // destroyed polynomial's slab must be recycled into the next
    // same-shape polynomial.
    const std::size_t n = 128;
    RnsChain chain(n, generateNttPrimes(40, n, 4));
    const std::vector<unsigned> idx = {0, 1, 2, 3};
    polyPoolResetStats();
    {
        RnsPoly p(chain, idx, false);
        (void)p;
    }
    const PolyPoolStats mid = polyPoolStats();
    EXPECT_GE(mid.parked, 1u) << "slab parked on destruction";
    {
        RnsPoly q(chain, idx, false);
        (void)q;
        EXPECT_GE(polyPoolStats().hits, 1u) << "slab reused";
    }
}

} // namespace
} // namespace cl
