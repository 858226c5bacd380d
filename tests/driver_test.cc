/**
 * @file
 * Unit tests for the driver layer: mempool size classes, recycling,
 * FIFO/stripe semantics, ring layout arithmetic, and register lines.
 */

#include <gtest/gtest.h>

#include <functional>
#include <set>

#include "driver/mempool.hh"
#include "driver/ring.hh"
#include "mem/platform.hh"
#include "sim/random.hh"

namespace {

using namespace ccn;
using driver::BufClass;
using driver::PacketBuf;

sim::Task
runBody(std::function<sim::Coro<void>()> body, bool &done)
{
    co_await body();
    done = true;
}

struct PoolFixture
{
    explicit PoolFixture(driver::MempoolConfig cfg)
        : system(simv, mem::icxConfig()), rng(3)
    {
        host = system.addAgent(0);
        nicA = system.addAgent(1);
        pool = std::make_unique<driver::Mempool>(system, cfg, rng);
    }

    void
    run(std::function<sim::Coro<void>()> body)
    {
        bool done = false;
        simv.spawn(runBody(std::move(body), done));
        simv.run();
        ASSERT_TRUE(done);
    }

    sim::Simulator simv;
    mem::CoherentSystem system;
    sim::Rng rng;
    std::unique_ptr<driver::Mempool> pool;
    mem::AgentId host = -1, nicA = -1;
};

TEST(Mempool, SizeClassSelection)
{
    driver::MempoolConfig cfg;
    cfg.largeCount = 64;
    cfg.smallCount = 64;
    PoolFixture f(cfg);
    f.run([&]() -> sim::Coro<void> {
        PacketBuf *small = co_await f.pool->alloc(f.host, 64);
        PacketBuf *large = co_await f.pool->alloc(f.host, 1500);
        EXPECT_NE(small, nullptr);
        EXPECT_NE(large, nullptr);
        if (!small || !large)
            co_return;
        EXPECT_EQ(small->cls, BufClass::Small);
        EXPECT_EQ(large->cls, BufClass::Large);
        EXPECT_EQ(small->capacity, 128u);
        EXPECT_EQ(large->capacity, 4096u);
        co_return;
    });
}

TEST(Mempool, SmallBuffersDisabledFallsBackToLarge)
{
    driver::MempoolConfig cfg;
    cfg.smallBuffers = false;
    cfg.largeCount = 64;
    PoolFixture f(cfg);
    f.run([&]() -> sim::Coro<void> {
        PacketBuf *b = co_await f.pool->alloc(f.host, 64);
        EXPECT_NE(b, nullptr);
        if (b) {
            EXPECT_EQ(b->cls, BufClass::Large);
        }
        co_return;
    });
}

TEST(Mempool, RecyclingReturnsMostRecentlyFreed)
{
    driver::MempoolConfig cfg;
    cfg.recycleCache = true;
    cfg.largeCount = 256;
    PoolFixture f(cfg);
    f.run([&]() -> sim::Coro<void> {
        PacketBuf *a = co_await f.pool->alloc(f.host, 1500);
        co_await f.pool->free(f.host, a);
        PacketBuf *b = co_await f.pool->alloc(f.host, 1500);
        EXPECT_EQ(a, b); // LIFO recycle: same buffer comes back.
        co_return;
    });
}

TEST(Mempool, FifoGlobalRingCyclesWithoutRecycling)
{
    driver::MempoolConfig cfg;
    cfg.recycleCache = false;
    cfg.nonSequentialFill = false;
    cfg.largeCount = 16;
    cfg.smallCount = 0;
    cfg.smallBuffers = false;
    PoolFixture f(cfg);
    f.run([&]() -> sim::Coro<void> {
        PacketBuf *a = co_await f.pool->alloc(f.host, 1500);
        co_await f.pool->free(f.host, a);
        // FIFO: the freed buffer goes to the back; the next alloc
        // returns a different buffer until the pool wraps.
        PacketBuf *b = co_await f.pool->alloc(f.host, 1500);
        EXPECT_NE(a, b);
        co_return;
    });
}

TEST(Mempool, ExhaustionReturnsShortCount)
{
    driver::MempoolConfig cfg;
    cfg.largeCount = 8;
    cfg.smallCount = 0;
    cfg.smallBuffers = false;
    cfg.recycleCache = false;
    PoolFixture f(cfg);
    f.run([&]() -> sim::Coro<void> {
        PacketBuf *bufs[16];
        int got = co_await f.pool->allocBurst(f.host, 1500, bufs, 16);
        EXPECT_EQ(got, 8);
        co_await f.pool->freeBurst(f.host, bufs, got);
        co_return;
    });
}

TEST(Mempool, StripesAreDisjoint)
{
    driver::MempoolConfig cfg;
    cfg.largeCount = 64;
    cfg.smallCount = 0;
    cfg.smallBuffers = false;
    cfg.recycleCache = false;
    cfg.stripes = 4;
    PoolFixture f(cfg);
    f.run([&]() -> sim::Coro<void> {
        std::set<PacketBuf *> seen;
        for (int s = 0; s < 4; ++s) {
            PacketBuf *bufs[16];
            int got = co_await f.pool->allocBurst(f.host, 1500, bufs,
                                                  16, s);
            EXPECT_EQ(got, 16);
            for (int i = 0; i < got; ++i)
                EXPECT_TRUE(seen.insert(bufs[i]).second);
        }
        co_return;
    });
}

TEST(Mempool, NonSequentialFillAvoidsAdjacentAllocs)
{
    driver::MempoolConfig cfg;
    cfg.largeCount = 512;
    cfg.smallCount = 0;
    cfg.smallBuffers = false;
    cfg.recycleCache = false;
    cfg.nonSequentialFill = true;
    PoolFixture f(cfg);
    f.run([&]() -> sim::Coro<void> {
        PacketBuf *bufs[64];
        int got = co_await f.pool->allocBurst(f.host, 1500, bufs, 64);
        int adjacent = 0;
        for (int i = 1; i < got; ++i) {
            if (bufs[i]->addr ==
                    bufs[i - 1]->addr + bufs[i - 1]->capacity ||
                bufs[i - 1]->addr ==
                    bufs[i]->addr + bufs[i]->capacity) {
                adjacent++;
            }
        }
        EXPECT_LT(adjacent, 4); // Sequential fill would give 63.
        co_return;
    });
}

TEST(DescRing, LayoutArithmetic)
{
    sim::Simulator simv;
    mem::CoherentSystem m(simv, mem::icxConfig());
    driver::DescRing grouped(m, 0, 64, driver::RingLayout::Grouped);
    driver::DescRing padded(m, 0, 64, driver::RingLayout::Padded);

    EXPECT_EQ(grouped.perLine(), 4u);
    EXPECT_EQ(padded.perLine(), 1u);
    // Four packed descriptors share a line; padded ones do not.
    EXPECT_EQ(grouped.lineOf(0), grouped.lineOf(3));
    EXPECT_NE(grouped.lineOf(3), grouped.lineOf(4));
    EXPECT_NE(padded.lineOf(0), padded.lineOf(1));
    // Group base rounds down to the line boundary.
    EXPECT_EQ(grouped.groupBase(6), 4u);
    EXPECT_EQ(grouped.groupBase(4), 4u);
    // Index wrapping.
    EXPECT_EQ(grouped.lineOf(64), grouped.lineOf(0));
    EXPECT_EQ(&grouped.slot(64), &grouped.slot(0));
}

TEST(DescRing, SlotsHoldLogicalState)
{
    sim::Simulator simv;
    mem::CoherentSystem m(simv, mem::icxConfig());
    driver::DescRing ring(m, 1, 16, driver::RingLayout::Grouped);
    ring.slot(5).len = 1234;
    ring.slot(5).ready = true;
    EXPECT_EQ(ring.slot(5 + 16).len, 1234u); // Same slot after wrap.
    EXPECT_TRUE(ring.slot(21).ready);
}

TEST(DescRing, RoundUpPow2)
{
    using driver::DescRing;
    EXPECT_EQ(DescRing::roundUpPow2(0), 1u);
    EXPECT_EQ(DescRing::roundUpPow2(1), 1u);
    EXPECT_EQ(DescRing::roundUpPow2(2), 2u);
    EXPECT_EQ(DescRing::roundUpPow2(3), 4u);
    EXPECT_EQ(DescRing::roundUpPow2(48), 64u);
    EXPECT_EQ(DescRing::roundUpPow2(512), 512u);
    EXPECT_EQ(DescRing::roundUpPow2(513), 1024u);
    EXPECT_EQ(DescRing::roundUpPow2(1u << 31), 1u << 31);
}

// Regression (batched publication): a blank descriptor mid-group is
// only skippable when the producer sealed the line. Before the fix the
// Grouped-layout consumer skipped to the next line on *any* mid-group
// blank, which leaps over descriptors a later batched flush writes
// into the open group. This exercises every partial fill of a 4-slot
// group (1..3 published descriptors) against the consumer's skip
// predicate.
TEST(DescRing, OpenGroupBlanksAreNotSkippable)
{
    sim::Simulator simv;
    mem::CoherentSystem m(simv, mem::icxConfig());
    for (std::uint32_t published = 1; published <= 3; ++published) {
        driver::DescRing ring(m, 0, 16, driver::RingLayout::Grouped);
        for (std::uint32_t i = 0; i < published; ++i)
            ring.slot(i).ready = true;
        // The consumer's skip predicate: blank, mid-group, sealed.
        auto skippable = [&](std::uint32_t idx) {
            return !ring.slot(idx).ready && (idx % ring.perLine()) != 0 &&
                   ring.lineSealed(idx);
        };
        // Open group: the first blank must be a wait, not a skip.
        EXPECT_FALSE(skippable(published))
            << "open group skipped at fill " << published;
        // A later flush continues mid-group and the consumer resumes.
        ring.slot(published).ready = true;
        EXPECT_TRUE(ring.slot(published).ready);
        // Producer abandons the remaining tail: now skipping is legal
        // for every blank after the seal (unless the group is full).
        ring.sealLine(published);
        for (std::uint32_t i = published + 1; i < ring.perLine(); ++i)
            EXPECT_TRUE(skippable(i)) << "sealed blank at " << i;
        // Recycling the line reopens the group.
        ring.clearSeal(published);
        for (std::uint32_t i = published + 1; i < ring.perLine(); ++i)
            EXPECT_FALSE(skippable(i));
    }
}

TEST(DescRing, SealsArePerLineAndWrap)
{
    sim::Simulator simv;
    mem::CoherentSystem m(simv, mem::icxConfig());
    driver::DescRing ring(m, 0, 16, driver::RingLayout::Grouped);
    ring.sealLine(5);
    // The seal covers the whole 4-slot group, not just one index.
    for (std::uint32_t i = 4; i < 8; ++i)
        EXPECT_TRUE(ring.lineSealed(i));
    EXPECT_FALSE(ring.lineSealed(3));
    EXPECT_FALSE(ring.lineSealed(8));
    // Index wrapping reaches the same group.
    EXPECT_TRUE(ring.lineSealed(5 + 16));
    ring.clearSeal(21); // Wrapped alias of 5.
    EXPECT_FALSE(ring.lineSealed(5));
    ring.sealLine(0);
    ring.sealLine(12);
    ring.clearAllSeals();
    for (std::uint32_t i = 0; i < 16; ++i)
        EXPECT_FALSE(ring.lineSealed(i));
}

/** Bitwise CRC-32C over one word: the reference the table must match. */
std::uint32_t
bitwiseCrc32cWord(std::uint32_t crc, std::uint64_t word)
{
    for (int i = 0; i < 8; ++i) {
        crc ^= static_cast<std::uint8_t>(word >> (i * 8));
        for (int b = 0; b < 8; ++b)
            crc = (crc >> 1) ^ (0x82f63b78u & (~(crc & 1u) + 1u));
    }
    return crc;
}

TEST(Crc32c, TableMatchesBitwiseReference)
{
    sim::Rng rng(0xc3c32c);
    for (int i = 0; i < 100000; ++i) {
        const auto crc = static_cast<std::uint32_t>(rng.next());
        const std::uint64_t word = rng.next();
        ASSERT_EQ(driver::crc32cWord(crc, word),
                  bitwiseCrc32cWord(crc, word))
            << "crc " << crc << " word " << word;
    }
    // RFC 3720 B.4 check values: 32 bytes of 0x00 and of 0xff.
    std::uint32_t zeros = ~0u, ones = ~0u;
    for (int i = 0; i < 4; ++i) {
        zeros = driver::crc32cWord(zeros, 0);
        ones = driver::crc32cWord(ones, ~std::uint64_t{0});
    }
    EXPECT_EQ(~zeros, 0x8a9136aau);
    EXPECT_EQ(~ones, 0x62a8ab43u);
}

TEST(Crc32c, SlotChecksumIsPinned)
{
    // Stamps of a fixed slot must not drift across CRC rewrites.
    driver::DescRing::Slot s;
    s.len = 1500;
    s.meta = 0x0123456789abcdefull;
    s.ready = true;
    s.gen = 7;
    EXPECT_EQ(driver::DescRing::slotChecksum(s), 0x8694700eu);
}

TEST(PublishBatch, FixedFillAndTimeout)
{
    driver::BatchPolicy pol;
    pol.mode = driver::BatchMode::Fixed;
    pol.size = 4;
    pol.flushTimeout = 100;
    driver::PublishBatch b(pol);
    EXPECT_TRUE(b.empty());
    EXPECT_FALSE(b.full());
    for (std::uint32_t i = 0; i < 3; ++i)
        b.stage(i, nullptr, 10 + i);
    EXPECT_EQ(b.size(), 3u);
    EXPECT_FALSE(b.full());
    // Timeout is measured from the *oldest* staged entry.
    EXPECT_EQ(b.oldestStagedAt(), 10u);
    EXPECT_FALSE(b.timedOut(109));
    EXPECT_TRUE(b.timedOut(110));
    b.stage(3, nullptr, 13);
    EXPECT_TRUE(b.full());
    auto entries = b.take(/*timeout_flush=*/false, /*backlog=*/0);
    ASSERT_EQ(entries.size(), 4u);
    EXPECT_EQ(entries.front().idx, 0u);
    EXPECT_EQ(entries.back().idx, 3u);
    EXPECT_TRUE(b.empty());
    EXPECT_EQ(b.oldestStagedAt(), 0u);
    // Fixed mode never moves the target.
    EXPECT_EQ(b.target(), 4u);
}

TEST(PublishBatch, AdaptiveGrowsUnderBacklogAndDecaysOnTimeout)
{
    driver::BatchPolicy pol;
    pol.mode = driver::BatchMode::Adaptive;
    pol.size = 4;
    pol.maxSize = 16;
    driver::PublishBatch b(pol);
    EXPECT_EQ(b.target(), 4u);
    // Full flush with a deeper backlog: target doubles, capped.
    for (std::uint32_t i = 0; i < 4; ++i)
        b.stage(i, nullptr, 0);
    (void)b.take(false, /*backlog=*/32);
    EXPECT_EQ(b.target(), 8u);
    for (std::uint32_t i = 0; i < 8; ++i)
        b.stage(i, nullptr, 0);
    (void)b.take(false, 32);
    EXPECT_EQ(b.target(), 16u);
    (void)b.take(false, 32);
    EXPECT_EQ(b.target(), 16u); // maxSize ceiling.
    // Timeout flush that caught the batch under half full: decay.
    b.stage(0, nullptr, 0);
    (void)b.take(/*timeout_flush=*/true, 0);
    EXPECT_EQ(b.target(), 8u);
    // Timeout flush at or above half occupancy keeps the target.
    for (std::uint32_t i = 0; i < 4; ++i)
        b.stage(i, nullptr, 0);
    (void)b.take(true, 0);
    EXPECT_EQ(b.target(), 8u);
}

// Regression: the ring wraps indices by masking with entries-1, which
// silently aliased distinct slots whenever a non-power-of-two size was
// requested (e.g. 48 -> mask 47 = 0b101111 maps 16 and 0 together).
// The ring now rounds the requested size up instead.
TEST(DescRing, NonPowerOfTwoSizeIsRoundedUp)
{
    sim::Simulator simv;
    mem::CoherentSystem m(simv, mem::icxConfig());
    driver::DescRing ring(m, 0, 48, driver::RingLayout::Grouped);
    EXPECT_EQ(ring.entries(), 64u);
    EXPECT_EQ(ring.mask(), 63u);
    // No two in-range indices may share a slot.
    for (std::uint32_t i = 1; i < ring.entries(); ++i)
        EXPECT_NE(&ring.slot(i), &ring.slot(0)) << "aliased at " << i;
    // Wrapping lands exactly one period later.
    EXPECT_EQ(&ring.slot(ring.entries()), &ring.slot(0));
    EXPECT_EQ(&ring.slot(ring.entries() + 5), &ring.slot(5));
}

} // namespace
