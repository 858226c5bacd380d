/**
 * @file
 * Tests for the coherent memory system, including the calibration
 * checks that tie the model to the paper's Figure 7 latencies and the
 * protocol behaviours (invalidation signaling, evictions, prefetch,
 * counters) the CC-NIC design depends on.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <functional>
#include <string>
#include <vector>

#include "mem/coherence.hh"
#include "mem/platform.hh"
#include "sim/simulator.hh"
#include "sim/task.hh"
#include "workload/chaos.hh"

namespace {

using namespace ccn;
using mem::Addr;
using mem::AgentId;
using mem::CoherentSystem;
using mem::kLineBytes;
using sim::Tick;

/** Run an async test body to completion on a fresh simulator. */
sim::Task
runBody(std::function<sim::Coro<void>()> body, bool &done)
{
    co_await body();
    done = true;
}

struct MemFixture
{
    explicit MemFixture(const mem::PlatformConfig &cfg)
        : system(simv, cfg)
    {
        reader0 = system.addAgent(0);  // "host" core, socket 0.
        writer0 = system.addAgent(0);  // another socket-0 core.
        writer1 = system.addAgent(1);  // remote ("NIC") core.
    }

    void
    run(std::function<sim::Coro<void>()> body)
    {
        bool done = false;
        simv.spawn(runBody(std::move(body), done));
        simv.run();
        ASSERT_TRUE(done) << "test body deadlocked";
    }

    sim::Simulator simv;
    CoherentSystem system;
    AgentId reader0 = -1, writer0 = -1, writer1 = -1;
};

double
nsBetween(Tick a, Tick b)
{
    return sim::toNs(b - a);
}

/** The directory agrees with every cache (first violation shown). */
void
expectDirectoryAgrees(const CoherentSystem &m)
{
    const std::vector<std::string> violations = m.auditDirectory();
    EXPECT_TRUE(violations.empty())
        << violations.size() << " violations, first: "
        << violations.front();
}

/** Every AgentCounters field of agent @p a, in declaration order. */
std::vector<std::uint64_t>
counts(const CoherentSystem &m, AgentId a)
{
    const mem::AgentCounters &k = m.counters(a);
    return {k.loads,       k.stores,     k.l2Hits,         k.l2Misses,
            k.llcHits,     k.dramReads,  k.remoteReads,    k.remoteRfos,
            k.prefetchIssued, k.prefetchRemote};
}

/** Measure the five Figure 7 access cases; tolerance is ±8%. */
void
checkFig7(const mem::PlatformConfig &cfg, double l_dram, double r_dram,
          double l_l2, double r_l2_rh, double r_l2_lh)
{
    MemFixture f(cfg);
    auto &m = f.system;
    double meas[5] = {0, 0, 0, 0, 0};

    f.run([&]() -> sim::Coro<void> {
        // Local DRAM: untouched line homed on the reader's socket.
        Addr a = m.alloc(0, kLineBytes);
        Tick t0 = f.simv.now();
        co_await m.load(f.reader0, a, 8);
        meas[0] = nsBetween(t0, f.simv.now());

        // Remote DRAM: untouched line homed on the remote socket.
        a = m.alloc(1, kLineBytes);
        t0 = f.simv.now();
        co_await m.load(f.reader0, a, 8);
        meas[1] = nsBetween(t0, f.simv.now());

        // Local L2: another same-socket core holds the line Modified.
        a = m.alloc(0, kLineBytes);
        co_await m.store(f.writer0, a, 8);
        co_await f.simv.delay(sim::fromUs(1.0));
        t0 = f.simv.now();
        co_await m.load(f.reader0, a, 8);
        meas[2] = nsBetween(t0, f.simv.now());

        // Remote L2, writer-homed (rh): remote core modified a line
        // homed on its own socket.
        a = m.alloc(1, kLineBytes);
        co_await m.store(f.writer1, a, 8);
        co_await f.simv.delay(sim::fromUs(1.0));
        t0 = f.simv.now();
        co_await m.load(f.reader0, a, 8);
        meas[3] = nsBetween(t0, f.simv.now());

        // Remote L2, reader-homed (lh): remote core modified a line
        // homed on the reader's socket; the reader's miss triggers a
        // speculative memory read.
        a = m.alloc(0, kLineBytes);
        co_await m.store(f.writer1, a, 8);
        co_await f.simv.delay(sim::fromUs(1.0));
        t0 = f.simv.now();
        co_await m.load(f.reader0, a, 8);
        meas[4] = nsBetween(t0, f.simv.now());
        co_return;
    });

    const double targets[5] = {l_dram, r_dram, l_l2, r_l2_rh, r_l2_lh};
    const char *names[5] = {"L DRAM", "R DRAM", "L L2", "R L2 (rh)",
                            "R L2 (lh)"};
    for (int i = 0; i < 5; ++i) {
        EXPECT_NEAR(meas[i], targets[i], targets[i] * 0.08)
            << cfg.name << " " << names[i];
    }
    // Orderings the paper calls out: remote DRAM ~2x local DRAM;
    // remote L2 faster than remote DRAM; reader-homed slower than
    // writer-homed.
    EXPECT_GT(meas[1], meas[0] * 1.7);
    EXPECT_LT(meas[3], meas[1]);
    EXPECT_GT(meas[4], meas[3]);
}

// ---------------------------------------------------------------------
// SetAssocCache contract: victim order, erase/clear, the Eviction
// record and set mapping.
// ---------------------------------------------------------------------

using mem::CacheEntry;
using mem::Eviction;
using mem::LineState;
using mem::SetAssocCache;

/** The n-th line of set 0 in a cache of @p sets sets. */
Addr
setLine(std::uint32_t sets, std::uint64_t n)
{
    return n * sets * kLineBytes;
}

TEST(SetAssocCache, VictimIsFirstInvalidWayElseLeastRecentlyTouched)
{
    SetAssocCache c(16, 4); // 4 sets of 4 ways.
    Eviction ev;
    CacheEntry *way[4];
    for (int i = 0; i < 4; ++i) {
        way[i] = c.insert(setLine(4, i), LineState::Shared, false, &ev);
        EXPECT_FALSE(ev.valid) << "way " << i;
    }
    // The set fills in way order.
    for (int i = 1; i < 4; ++i)
        EXPECT_EQ(way[i], way[0] + i);

    // Full set: the least recently touched line goes. Touching line 0
    // makes line 1 the oldest.
    EXPECT_EQ(c.touch(setLine(4, 0)), way[0]);
    EXPECT_EQ(c.insert(setLine(4, 4), LineState::Shared, false, &ev),
              way[1]);
    ASSERT_TRUE(ev.valid);
    EXPECT_EQ(ev.line, setLine(4, 1));

    // find() does not refresh age: line 2 is still the oldest.
    EXPECT_EQ(c.find(setLine(4, 2)), way[2]);
    EXPECT_EQ(c.insert(setLine(4, 5), LineState::Shared, false, &ev),
              way[2]);
    ASSERT_TRUE(ev.valid);
    EXPECT_EQ(ev.line, setLine(4, 2));

    // An invalid way is taken before any valid one, the first invalid
    // way before a later one, whatever the ages.
    ASSERT_TRUE(c.erase(setLine(4, 5))); // way 2, the youngest.
    ASSERT_TRUE(c.erase(setLine(4, 4))); // way 1.
    EXPECT_EQ(c.insert(setLine(4, 6), LineState::Shared, false, &ev),
              way[1]);
    EXPECT_FALSE(ev.valid);
    EXPECT_EQ(c.insert(setLine(4, 7), LineState::Shared, false, &ev),
              way[2]);
    EXPECT_FALSE(ev.valid);

    // Ages now, oldest first: line 3, line 0 (touched), 6, 7.
    EXPECT_EQ(c.insert(setLine(4, 8), LineState::Shared, false, &ev),
              way[3]);
    EXPECT_EQ(ev.line, setLine(4, 3));
    EXPECT_EQ(c.insert(setLine(4, 9), LineState::Shared, false, &ev),
              way[0]);
    EXPECT_EQ(ev.line, setLine(4, 0));

    // A touch of an absent line changes nothing.
    EXPECT_EQ(c.touch(setLine(4, 0)), nullptr);
    EXPECT_EQ(c.insert(setLine(4, 10), LineState::Shared, false, &ev),
              way[1]);
    EXPECT_EQ(ev.line, setLine(4, 6));
}

TEST(SetAssocCache, EraseAndClear)
{
    SetAssocCache c(16, 4);
    const Addr a = setLine(4, 0);
    const Addr b = a + kLineBytes; // Set 1.
    c.insert(a, LineState::Modified, true, nullptr);
    c.insert(b, LineState::Shared, false, nullptr);

    EXPECT_TRUE(c.erase(a));
    EXPECT_EQ(c.find(a), nullptr);
    EXPECT_EQ(c.touch(a), nullptr);
    EXPECT_FALSE(c.erase(a)) << "erasing an absent line";
    EXPECT_NE(c.find(b), nullptr) << "erase touched another line";

    // clear() drops every line: each set takes four fresh lines
    // before it evicts again.
    for (int i = 1; i < 4; ++i)
        c.insert(setLine(4, i), LineState::Shared, false, nullptr);
    c.clear();
    EXPECT_EQ(c.find(b), nullptr);
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(c.find(setLine(4, i)), nullptr) << i;
    Eviction ev;
    for (int i = 4; i < 8; ++i) {
        c.insert(setLine(4, i), LineState::Shared, false, &ev);
        EXPECT_FALSE(ev.valid) << i;
    }
    c.insert(setLine(4, 8), LineState::Shared, false, &ev);
    ASSERT_TRUE(ev.valid);
    EXPECT_EQ(ev.line, setLine(4, 4));
}

TEST(SetAssocCache, EvictionDescribesTheVictim)
{
    SetAssocCache c(2, 2); // One set of two ways.
    Eviction ev;
    CacheEntry *m = c.insert(0, LineState::Modified, true, &ev);
    EXPECT_FALSE(ev.valid);
    EXPECT_EQ(m->state, LineState::Modified);
    EXPECT_TRUE(m->dirty);
    m->readyAt = 1234;
    m->wasPrefetch = true;
    c.insert(kLineBytes, LineState::Exclusive, false, &ev);
    EXPECT_FALSE(ev.valid);

    // The victim's line, state and dirty bit, as they were in the
    // cache; the reused way starts with no fill time or prefetch mark.
    CacheEntry *s = c.insert(2 * kLineBytes, LineState::Shared, false, &ev);
    ASSERT_TRUE(ev.valid);
    EXPECT_EQ(ev.line, Addr{0});
    EXPECT_EQ(ev.state, LineState::Modified);
    EXPECT_TRUE(ev.dirty);
    EXPECT_EQ(s, m);
    EXPECT_EQ(s->state, LineState::Shared);
    EXPECT_FALSE(s->dirty);
    EXPECT_EQ(s->readyAt, Tick{0});
    EXPECT_FALSE(s->wasPrefetch);

    c.insert(3 * kLineBytes, LineState::Shared, false, &ev);
    ASSERT_TRUE(ev.valid);
    EXPECT_EQ(ev.line, kLineBytes);
    EXPECT_EQ(ev.state, LineState::Exclusive);
    EXPECT_FALSE(ev.dirty);

    // A null record is allowed.
    c.insert(4 * kLineBytes, LineState::Shared, false, nullptr);
    EXPECT_EQ(c.find(2 * kLineBytes), nullptr);
}

/** Lines a cache takes, filled in line order, before its first eviction. */
std::uint64_t
linesBeforeEviction(std::uint32_t lines, std::uint32_t ways)
{
    SetAssocCache c(lines, ways);
    Eviction ev;
    for (std::uint64_t n = 0;; ++n) {
        c.insert(n * kLineBytes, LineState::Shared, false, &ev);
        if (ev.valid)
            return n;
    }
}

/**
 * The set index is the line number modulo the set count, and the set
 * count is the largest power of two not above lines / ways. A
 * capacity whose set count is not a power of two therefore models
 * less than it is configured with: the ICX LLC holds 24 of its
 * 36 MiB, the SPR LLC 60 of its 105 MiB (DESIGN §6, item 8).
 */
TEST(SetAssocCache, SetCountIsLargestPowerOfTwoBelowLinesPerWay)
{
    {
        SetAssocCache c(24, 4); // 6 lines per way: 4 sets.
        Eviction ev;
        for (int i = 0; i < 4; ++i) {
            c.insert(setLine(4, i), LineState::Shared, false, &ev);
            EXPECT_FALSE(ev.valid) << i;
        }
        c.insert(setLine(4, 0) + kLineBytes, LineState::Shared, false,
                 &ev);
        EXPECT_FALSE(ev.valid) << "the next line maps to the next set";
        c.insert(setLine(4, 4), LineState::Shared, false, &ev);
        ASSERT_TRUE(ev.valid) << "4 lines apart share a set";
        EXPECT_EQ(ev.line, setLine(4, 0));
    }
    EXPECT_EQ(linesBeforeEviction(24, 4), 16u);
    EXPECT_EQ(linesBeforeEviction(7, 8), 8u) << "at least one set";

    constexpr std::uint64_t kMiB = 1024 * 1024;
    const mem::PlatformConfig icx = mem::icxConfig();
    const mem::PlatformConfig spr = mem::sprConfig();
    EXPECT_EQ(linesBeforeEviction(icx.l2Lines, icx.l2Ways),
              icx.l2Lines);
    EXPECT_EQ(linesBeforeEviction(spr.l2Lines, spr.l2Ways),
              spr.l2Lines);
    EXPECT_EQ(icx.llcLines * kLineBytes, 36 * kMiB);
    EXPECT_EQ(linesBeforeEviction(icx.llcLines, icx.llcWays) *
                  kLineBytes,
              24 * kMiB);
    EXPECT_EQ(spr.llcLines * kLineBytes, 105 * kMiB);
    EXPECT_EQ(linesBeforeEviction(spr.llcLines, spr.llcWays) *
                  kLineBytes,
              60 * kMiB);
}

/** SetAssocTags, the tag-only array the LLCs use, on its own. */
TEST(SetAssocTags, InsertTouchFindEraseClearForEachValid)
{
    using Tags = mem::SetAssocTags;
    Tags t(8, 2); // 4 sets of 2 ways.
    EXPECT_EQ(t.size(), 8u);

    // insert() returns the way it filled and reports the line that way
    // held: none while the set has an invalid way.
    Addr victim = 0;
    const std::size_t w0 = t.insert(setLine(4, 0), &victim);
    EXPECT_EQ(victim, Tags::kNoLine);
    const std::size_t w1 = t.insert(setLine(4, 1), &victim);
    EXPECT_EQ(victim, Tags::kNoLine);
    EXPECT_EQ(w1, w0 + 1) << "a set fills in way order";
    EXPECT_EQ(t.find(setLine(4, 1)), w1);
    EXPECT_EQ(t.find(setLine(4, 2)), Tags::kNoWay);

    // find() does not refresh age: line 0 is still the oldest.
    EXPECT_EQ(t.find(setLine(4, 0)), w0);
    EXPECT_EQ(t.insert(setLine(4, 2), &victim), w0);
    EXPECT_EQ(victim, setLine(4, 0));

    // touch() does: after it, line 2 is older than line 1.
    EXPECT_EQ(t.touch(setLine(4, 1)), w1);
    EXPECT_EQ(t.touch(setLine(4, 0)), Tags::kNoWay) << "absent line";
    EXPECT_EQ(t.insert(setLine(4, 3), &victim), w0);
    EXPECT_EQ(victim, setLine(4, 2));

    // Another set fills on its own; a null record is allowed.
    const Addr other = setLine(4, 0) + kLineBytes; // Set 1.
    t.insert(other, nullptr);

    // erase() frees the way, which the next insert takes first.
    EXPECT_TRUE(t.erase(setLine(4, 1)));
    EXPECT_FALSE(t.erase(setLine(4, 1))) << "erasing an absent line";
    EXPECT_EQ(t.find(setLine(4, 1)), Tags::kNoWay);
    EXPECT_EQ(t.insert(setLine(4, 4), &victim), w1);
    EXPECT_EQ(victim, Tags::kNoLine);

    // forEachValid() visits each valid way once, in way order.
    std::vector<std::pair<Addr, std::size_t>> seen;
    t.forEachValid([&](Addr line, std::size_t w) {
        seen.emplace_back(line, w);
    });
    const std::vector<std::pair<Addr, std::size_t>> expected = {
        {setLine(4, 3), w0}, {setLine(4, 4), w1},
        {other, t.find(other)}};
    EXPECT_EQ(seen, expected);
    EXPECT_GT(t.find(other), w1);

    // clear() drops every line: the set takes two lines before it
    // evicts again.
    t.clear();
    std::size_t valid = 0;
    t.forEachValid([&](Addr, std::size_t) { ++valid; });
    EXPECT_EQ(valid, 0u);
    EXPECT_EQ(t.find(other), Tags::kNoWay);
    EXPECT_EQ(t.insert(setLine(4, 5), &victim), w0);
    EXPECT_EQ(victim, Tags::kNoLine);
    EXPECT_EQ(t.insert(setLine(4, 6), &victim), w1);
    EXPECT_EQ(victim, Tags::kNoLine);
    EXPECT_EQ(t.insert(setLine(4, 7), &victim), w0);
    EXPECT_EQ(victim, setLine(4, 5));
}

/**
 * A CacheEntry packs its four fields into 8 bytes: a fill time up to
 * 2^60 - 1 survives, and each field can be written without moving the
 * others.
 */
TEST(CacheEntry, PackedFieldsKeepTheirValues)
{
    constexpr Tick kLatest = (Tick{1} << 60) - 1;
    constexpr LineState kStates[] = {LineState::Invalid, LineState::Shared,
                                     LineState::Exclusive,
                                     LineState::Modified};
    CacheEntry e;
    EXPECT_EQ(e.readyAt, Tick{0});
    EXPECT_EQ(e.state, LineState::Invalid);
    EXPECT_FALSE(e.dirty);
    EXPECT_FALSE(e.wasPrefetch);

    for (const Tick ready : {kLatest, kLatest - 12345, Tick{1}}) {
        for (const LineState state : kStates) {
            for (const bool dirty : {false, true}) {
                for (const bool prefetch : {false, true}) {
                    e.readyAt = ready;
                    e.state = state;
                    e.dirty = dirty;
                    e.wasPrefetch = prefetch;
                    EXPECT_EQ(e.readyAt, ready);
                    EXPECT_EQ(e.state, state);
                    EXPECT_EQ(e.dirty, dirty);
                    EXPECT_EQ(e.wasPrefetch, prefetch);

                    // Flip each flag back and forth alone.
                    e.wasPrefetch = !prefetch;
                    e.dirty = !dirty;
                    EXPECT_EQ(e.readyAt, ready);
                    EXPECT_EQ(e.state, state);
                    e.dirty = dirty;
                    e.wasPrefetch = prefetch;
                    e.state = LineState::Modified;
                    e.state = state;
                    EXPECT_EQ(e.readyAt, ready);
                    EXPECT_EQ(e.dirty, dirty);
                    EXPECT_EQ(e.wasPrefetch, prefetch);
                }
            }
        }
    }

    // The same through the cache: a way keeps a late fill time.
    SetAssocCache c(2, 2);
    CacheEntry *m = c.insert(0, LineState::Modified, true, nullptr);
    m->readyAt = kLatest;
    m->wasPrefetch = true;
    const CacheEntry *found = c.find(0);
    ASSERT_EQ(found, m);
    EXPECT_EQ(found->readyAt, kLatest);
    EXPECT_EQ(found->state, LineState::Modified);
    EXPECT_TRUE(found->dirty);
    EXPECT_TRUE(found->wasPrefetch);
}

TEST(Fig7Calibration, Icx)
{
    checkFig7(mem::icxConfig(), 72, 144, 48, 114, 119);
}

TEST(Fig7Calibration, Spr)
{
    checkFig7(mem::sprConfig(), 108, 191, 82, 171, 174);
}

TEST(Coherence, ExclusiveUpgradeIsLocal)
{
    MemFixture f(mem::icxConfig());
    auto &m = f.system;
    f.run([&]() -> sim::Coro<void> {
        Addr a = m.alloc(0, kLineBytes);
        co_await m.load(f.reader0, a, 8); // E state.
        Tick t0 = f.simv.now();
        co_await m.store(f.reader0, a, 8); // E->M silently.
        EXPECT_LE(nsBetween(t0, f.simv.now()), 5.0);
        co_return;
    });
    EXPECT_EQ(m.counters(f.reader0).remoteRfos, 0u);
}

TEST(Coherence, StoreInvalidatesRemoteSharer)
{
    MemFixture f(mem::icxConfig());
    auto &m = f.system;
    f.run([&]() -> sim::Coro<void> {
        Addr a = m.alloc(0, kLineBytes);
        co_await m.load(f.reader0, a, 8);  // local E.
        co_await m.load(f.writer1, a, 8);  // remote S (downgrades).
        std::uint32_t v0 = m.lineVersion(a);
        co_await m.store(f.reader0, a, 8); // upgrade, invalidate remote.
        EXPECT_NE(m.lineVersion(a), v0);
        // The remote reader now misses and must fetch across sockets.
        auto before = m.counters(f.writer1).remoteReads;
        co_await m.load(f.writer1, a, 8);
        EXPECT_EQ(m.counters(f.writer1).remoteReads, before + 1);
        co_return;
    });
    // The upgrading store crossed the interconnect to invalidate.
    EXPECT_GE(m.counters(f.reader0).remoteRfos, 1u);
}

TEST(Coherence, WaitLineChangeWakesOnWrite)
{
    MemFixture f(mem::icxConfig());
    auto &m = f.system;
    Addr a = m.alloc(0, kLineBytes);
    Tick woke_at = 0;
    bool woke = false;

    struct Waiter
    {
        static sim::Task
        run(MemFixture &f, CoherentSystem &m, Addr a, bool &woke,
            Tick &woke_at)
        {
            co_await m.load(f.writer1, a, 8);
            std::uint32_t v = m.lineVersion(a);
            co_await m.waitLineChange(a, v);
            woke = true;
            woke_at = f.simv.now();
        }
    };
    struct Writer
    {
        static sim::Task
        run(MemFixture &f, CoherentSystem &m, Addr a)
        {
            co_await f.simv.delay(sim::fromUs(1.0));
            co_await m.store(f.reader0, a, 8);
        }
    };
    f.simv.spawn(Waiter::run(f, m, a, woke, woke_at));
    f.simv.spawn(Writer::run(f, m, a));
    f.simv.run();
    EXPECT_TRUE(woke);
    // Wakes at write completion, at or after the store began.
    EXPECT_GE(woke_at, sim::fromUs(1.0));
    EXPECT_LT(woke_at, sim::fromUs(2.0));
}

TEST(Coherence, WaitLineChangeReturnsImmediatelyOnStaleVersion)
{
    MemFixture f(mem::icxConfig());
    auto &m = f.system;
    f.run([&]() -> sim::Coro<void> {
        Addr a = m.alloc(0, kLineBytes);
        std::uint32_t v = m.lineVersion(a);
        co_await m.store(f.reader0, a, 8);
        Tick t0 = f.simv.now();
        co_await m.waitLineChange(a, v); // version already moved.
        EXPECT_EQ(f.simv.now(), t0);
        co_return;
    });
}

TEST(Coherence, L2EvictionFallsBackToLlc)
{
    auto cfg = mem::icxConfig();
    MemFixture f(cfg);
    auto &m = f.system;
    f.run([&]() -> sim::Coro<void> {
        // Fill one L2 set past associativity with same-set lines.
        const std::uint64_t set_stride =
            static_cast<std::uint64_t>(kLineBytes) *
            (cfg.l2Lines / cfg.l2Ways < 1024 ? 1024 : 1024);
        Addr base = m.alloc(0, set_stride * (cfg.l2Ways + 4), 1 << 20);
        for (std::uint32_t i = 0; i < cfg.l2Ways + 2; ++i)
            co_await m.store(f.reader0, base + i * set_stride, 8);
        // The first line was evicted (dirty) into the LLC; re-reading
        // it is an LLC hit, much faster than DRAM.
        auto llc_before = m.counters(f.reader0).llcHits;
        Tick t0 = f.simv.now();
        co_await m.load(f.reader0, base, 8);
        EXPECT_EQ(m.counters(f.reader0).llcHits, llc_before + 1);
        EXPECT_LT(nsBetween(t0, f.simv.now()), 45.0);
        co_return;
    });
}

TEST(Coherence, PrefetcherStreamsAndCanBeDisabled)
{
    MemFixture f(mem::icxConfig());
    auto &m = f.system;
    f.run([&]() -> sim::Coro<void> {
        Addr a = m.alloc(0, 64 * kLineBytes);
        for (int i = 0; i < 16; ++i)
            co_await m.load(f.reader0, a + i * kLineBytes, 8);
        EXPECT_GT(m.counters(f.reader0).prefetchIssued, 8u);
        // Prefetched lines satisfy later demand loads.
        EXPECT_GT(m.counters(f.reader0).l2Hits, 6u);

        m.setPrefetch(0, false);
        auto issued = m.counters(f.reader0).prefetchIssued;
        Addr b = m.alloc(0, 64 * kLineBytes);
        for (int i = 0; i < 16; ++i)
            co_await m.load(f.reader0, b + i * kLineBytes, 8);
        EXPECT_EQ(m.counters(f.reader0).prefetchIssued, issued);
        co_return;
    });
}

TEST(Coherence, NtStoreBypassesCachesAndInvalidates)
{
    MemFixture f(mem::icxConfig());
    auto &m = f.system;
    f.run([&]() -> sim::Coro<void> {
        Addr a = m.alloc(1, kLineBytes); // homed remote.
        co_await m.load(f.writer1, a, 8); // remote core caches it.
        std::uint32_t v = m.lineVersion(a);
        co_await m.ntStoreRange(f.reader0, a, kLineBytes);
        EXPECT_NE(m.lineVersion(a), v);
        // Data is in home DRAM only: remote core's reload is a miss
        // that goes to its local DRAM, not a cache hit.
        auto dram_before = m.counters(f.writer1).dramReads;
        co_await m.load(f.writer1, a, 8);
        EXPECT_EQ(m.counters(f.writer1).dramReads, dram_before + 1);
        co_return;
    });
}

TEST(Coherence, FlushWritesBackAndInvalidates)
{
    MemFixture f(mem::icxConfig());
    auto &m = f.system;
    f.run([&]() -> sim::Coro<void> {
        Addr a = m.alloc(0, kLineBytes);
        co_await m.store(f.reader0, a, 8);
        co_await m.flush(f.reader0, a, kLineBytes);
        // Reload comes from DRAM.
        auto dram_before = m.counters(f.reader0).dramReads;
        co_await m.load(f.reader0, a, 8);
        EXPECT_EQ(m.counters(f.reader0).dramReads, dram_before + 1);
        co_return;
    });
}

TEST(Coherence, RangeOverlapBeatsSerialAccess)
{
    MemFixture f(mem::sprConfig());
    auto &m = f.system;
    f.run([&]() -> sim::Coro<void> {
        // 24 lines (a 1.5KB packet) from remote cache: overlapped
        // fetch must be much faster than 24 serial remote latencies.
        const std::uint32_t n = 24;
        Addr a = m.alloc(1, n * kLineBytes);
        co_await m.storeRange(f.writer1, a, n * kLineBytes);
        Tick t0 = f.simv.now();
        co_await m.loadRange(f.reader0, a, n * kLineBytes);
        const double ns = nsBetween(t0, f.simv.now());
        EXPECT_LT(ns, 24 * 171.0 * 0.5);
        EXPECT_GT(ns, 171.0); // But not faster than one access.
        co_return;
    });
}

TEST(Coherence, AtomicRmwGainsOwnership)
{
    MemFixture f(mem::icxConfig());
    auto &m = f.system;
    f.run([&]() -> sim::Coro<void> {
        Addr a = m.alloc(0, kLineBytes);
        co_await m.load(f.writer1, a, 8);
        co_await m.atomicRmw(f.reader0, a);
        // Remote copy is gone; writer1 reload crosses the socket.
        auto before = m.counters(f.writer1).remoteReads;
        co_await m.load(f.writer1, a, 8);
        EXPECT_EQ(m.counters(f.writer1).remoteReads, before + 1);
        co_return;
    });
}

TEST(Coherence, CountersTrackRemoteTraffic)
{
    MemFixture f(mem::icxConfig());
    auto &m = f.system;
    f.run([&]() -> sim::Coro<void> {
        Addr a = m.alloc(1, 4 * kLineBytes);
        // Four demand remote DRAM reads.
        for (int i = 0; i < 4; ++i)
            co_await m.load(f.reader0, a + i * kLineBytes, 8);
        co_return;
    });
    const auto &c = m.counters(f.reader0);
    // Demand remote reads plus possibly prefetch traffic; demand count
    // must be exact.
    EXPECT_EQ(c.remoteReads + c.prefetchRemote >= 4, true);
    EXPECT_EQ(c.loads, 4u);
    EXPECT_EQ(m.upiBytesInto(0) > 0, true);
}

TEST(Coherence, DropCachesForcesMisses)
{
    MemFixture f(mem::icxConfig());
    auto &m = f.system;
    f.run([&]() -> sim::Coro<void> {
        Addr a = m.alloc(0, kLineBytes);
        co_await m.load(f.reader0, a, 8);
        m.dropCaches();
        auto miss_before = m.counters(f.reader0).l2Misses;
        co_await m.load(f.reader0, a, 8);
        EXPECT_EQ(m.counters(f.reader0).l2Misses, miss_before + 1);
        co_return;
    });
}

TEST(Coherence, AllocRespectsHomingAndAlignment)
{
    MemFixture f(mem::icxConfig());
    auto &m = f.system;
    Addr a0 = m.alloc(0, 100, 64);
    Addr a1 = m.alloc(1, 100, 4096);
    EXPECT_EQ(mem::homeSocket(a0), 0);
    EXPECT_EQ(mem::homeSocket(a1), 1);
    EXPECT_EQ(a1 % 4096, 0u);
    EXPECT_NE(mem::lineOf(a0), mem::lineOf(m.alloc(0, 1, 64)));
}

/**
 * The directory agrees with the caches after every kind of access. The
 * caches are a few sets large, so a random mix over 512 lines on both
 * sockets evicts from L2s and LLCs all the time.
 */
TEST(Coherence, DirectoryAgreesWithCachesOnEveryPath)
{
    mem::PlatformConfig cfg = mem::icxConfig();
    cfg.l2Lines = 32; // 8 sets of 4 ways.
    cfg.l2Ways = 4;
    cfg.llcLines = 128; // 32 sets of 4 ways.
    cfg.llcWays = 4;
    MemFixture f(cfg);
    auto &m = f.system;
    const AgentId agents[] = {f.reader0, f.writer0, f.writer1,
                              m.addAgent(1)};
    const Addr base[] = {m.alloc(0, 256 * kLineBytes),
                         m.alloc(1, 256 * kLineBytes)};
    std::vector<std::string> violations;
    int ops = 0;
    f.run([&]() -> sim::Coro<void> {
        sim::Rng r(7);
        for (; ops < 3000 && violations.empty(); ++ops) {
            const AgentId a = agents[r.below(4)];
            const Addr addr = base[r.below(2)] + r.below(256) * kLineBytes;
            const int s = m.agentSocket(a);
            const std::vector<CoherentSystem::Span> spans = {
                {addr, 100}, {addr + 8 * kLineBytes, 64}};
            switch (r.below(12)) {
              case 0:
                co_await m.load(a, addr, 8);
                break;
              case 1:
                co_await m.store(a, addr, 8);
                break;
              case 2:
                co_await m.atomicRmw(a, addr);
                break;
              case 3:
                co_await m.loadRange(a, addr, 4 * kLineBytes);
                break;
              case 4:
                co_await m.storeRange(a, addr, 4 * kLineBytes);
                break;
              case 5:
                co_await m.accessMulti(a, spans, r.below(2) == 0);
                break;
              case 6:
                co_await m.postMulti(a, spans, nullptr);
                break;
              case 7:
                co_await m.ntStoreRange(a, addr, 2 * kLineBytes);
                break;
              case 8:
                co_await m.flush(a, addr, 2 * kLineBytes);
                break;
              case 9:
                m.ddioWrite(s, addr, 2 * kLineBytes, f.simv.now());
                break;
              case 10:
                m.dmaRead(s, addr, 2 * kLineBytes, f.simv.now());
                break;
              default:
                m.touchLine(a, addr);
                break;
            }
            if (ops == 1500)
                m.dropCaches();
            violations = m.auditDirectory();
        }
        co_return;
    });
    EXPECT_EQ(ops, 3000);
    EXPECT_TRUE(violations.empty())
        << "after op " << ops << ": " << violations.size()
        << " violations, first: " << violations.front();
}

TEST(Coherence, DeterministicReplay)
{
    auto run_once = [] {
        MemFixture f(mem::sprConfig());
        auto &m = f.system;
        f.run([&]() -> sim::Coro<void> {
            Addr a = m.alloc(0, 256 * kLineBytes);
            for (int rep = 0; rep < 3; ++rep) {
                co_await m.storeRange(f.writer1, a, 256 * kLineBytes);
                co_await m.loadRange(f.reader0, a, 256 * kLineBytes);
            }
            co_return;
        });
        return f.simv.now();
    };
    EXPECT_EQ(run_once(), run_once());
}

/**
 * Pins the range entry points' timing on ICX: the MSHR issue window
 * (40 lines > mshrsPerCore = 12), a multi-span walk with an empty and a
 * line-crossing span, store-buffer admission of back-to-back posted
 * writes (36 + 30 lines > storeBufDepth = 56), the NT-store window, a
 * flush, the publish-at-end wake of a poller on a range-written line,
 * and a timed wait that expires. The expected values were recorded
 * from the model; any change to them changes the modeled machine.
 */
TEST(Coherence, RangeTimingPinned)
{
    MemFixture f(mem::icxConfig());
    auto &m = f.system;
    const std::uint32_t n = 40;
    const Addr a = m.alloc(1, n * kLineBytes);
    const Addr b = m.alloc(0, n * kLineBytes);
    const Addr c = m.alloc(1, 64 * kLineBytes);
    const Addr d = m.alloc(0, 20 * kLineBytes);
    const Addr idle = m.alloc(0, kLineBytes);
    std::vector<Tick> done;      // Each operation's return, in order.
    std::vector<Tick> published; // postMulti on_complete ticks.
    std::vector<Tick> woke;      // Poller wakes.

    struct Poller
    {
        static sim::Task
        run(sim::Simulator &simv, CoherentSystem &m, Addr line,
            std::vector<Tick> &woke)
        {
            // Woken by the line's own write, then held until the whole
            // range publishes.
            for (int i = 0; i < 2; ++i) {
                co_await m.waitLineChange(line, m.lineVersion(line));
                woke.push_back(simv.now());
            }
        }
    };

    const std::vector<CoherentSystem::Span> spans{
        {b, 0}, {b + kLineBytes - 8, 16}, {a, 20 * kLineBytes}};
    const std::vector<CoherentSystem::Span> post1{
        {c, 20 * kLineBytes}, {c + 40 * kLineBytes, 16 * kLineBytes}};
    const std::vector<CoherentSystem::Span> post2{{a, 30 * kLineBytes}};
    const std::function<void()> note = [&] {
        published.push_back(f.simv.now());
    };
    f.run([&]() -> sim::Coro<void> {
        co_await m.loadRange(f.reader0, a, n * kLineBytes);
        done.push_back(f.simv.now());
        f.simv.spawn(Poller::run(f.simv, m, a + 5 * kLineBytes, woke));
        co_await f.simv.delay(1);
        co_await m.storeRange(f.writer1, a, n * kLineBytes);
        done.push_back(f.simv.now());
        co_await m.loadRange(f.writer0, a, n * kLineBytes);
        done.push_back(f.simv.now());
        co_await m.storeRange(f.reader0, b, n * kLineBytes);
        done.push_back(f.simv.now());
        co_await m.accessMulti(f.writer1, spans, false);
        done.push_back(f.simv.now());
        co_await m.accessMulti(f.writer0, spans, true);
        done.push_back(f.simv.now());
        co_await m.postMulti(f.reader0, post1, note);
        done.push_back(f.simv.now());
        co_await m.postMulti(f.reader0, post2, note);
        done.push_back(f.simv.now());
        co_await m.ntStoreRange(f.writer0, d, 20 * kLineBytes);
        done.push_back(f.simv.now());
        co_await m.flush(f.writer1, a, 20 * kLineBytes);
        done.push_back(f.simv.now());
        co_await m.waitLineChangeUntil(idle, m.lineVersion(idle),
                                       f.simv.now() + sim::fromNs(300));
        done.push_back(f.simv.now());
        co_return;
    });

    // loadRange, storeRange, loadRange, storeRange, accessMulti read
    // and write, postMulti x2, ntStoreRange, flush, expired wait.
    EXPECT_EQ(done, (std::vector<Tick>{446553, 1049098, 1395256, 1684476,
                                       1803862, 2033772, 2039901, 2184624,
                                       2268219, 2768219, 3068219}));
    EXPECT_EQ(published, (std::vector<Tick>{2472241, 2543616}));
    // The second wake is the storeRange's own return: the publish.
    EXPECT_EQ(woke, (std::vector<Tick>{566940, 1049098}));

    using V = std::vector<std::uint64_t>;
    EXPECT_EQ(counts(m, f.reader0), (V{1, 3, 74, 72, 0, 46, 2, 28, 94, 64}));
    EXPECT_EQ(counts(m, f.writer0), (V{1, 21, 38, 24, 0, 2, 2, 22, 42, 38}));
    EXPECT_EQ(counts(m, f.writer1), (V{1, 1, 20, 42, 0, 0, 2, 40, 22, 22}));
    EXPECT_EQ(m.upiBytesInto(0), 11840u);
    EXPECT_EQ(m.upiBytesInto(1), 6336u);
}

/**
 * Pins every leg of the single-line protocol walk on ICX: one scripted
 * operation per branch, each on a line of its own. The lines are
 * page-aligned, so no two misses of one core form a prefetch stream,
 * and each measured operation starts 1 us after its setup unless the
 * branch needs the line busy. The expected values were recorded from
 * the model; any change to them changes the modeled machine.
 */
TEST(Coherence, WalkLegsPinned)
{
    const mem::PlatformConfig cfg = mem::icxConfig();
    MemFixture f(cfg);
    auto &m = f.system;
    const AgentId reader1 = m.addAgent(1); // A second socket-1 core.
    // One more line than an LLC set has ways, all in one set and homed
    // on socket 1.
    const Addr llc_stride =
        std::bit_floor(cfg.llcLines / cfg.llcWays) * kLineBytes;
    const Addr victims =
        m.alloc(1, (cfg.llcWays + 1) * llc_stride, llc_stride);
    auto fresh = [&](int home) { return m.alloc(home, kLineBytes, 4096); };
    const Tick gap = sim::fromUs(1.0);
    std::vector<Tick> done; // Each measured operation's completion.
    auto mark = [&] { done.push_back(f.simv.now()); };

    f.run([&]() -> sim::Coro<void> {
        // Read misses from memory, local then remote; then a read hit
        // and write hits on the E and then M copy.
        Addr x = fresh(0);
        co_await m.load(f.reader0, x, 8);
        mark();
        co_await m.load(f.reader0, x, 8);
        mark();
        co_await m.store(f.reader0, x, 8);
        mark();
        co_await m.store(f.reader0, x, 8);
        mark();
        co_await m.load(f.reader0, fresh(1), 8);
        mark();

        // Read miss from a local L2 owner.
        x = fresh(0);
        co_await m.store(f.writer0, x, 8);
        co_await f.simv.delay(gap);
        co_await m.load(f.reader0, x, 8);
        mark();
        // From a remote L2 owner (writer-homed), then the same with
        // the read queued behind the owner's write.
        x = fresh(1);
        co_await m.store(f.writer1, x, 8);
        co_await f.simv.delay(gap);
        co_await m.load(f.reader0, x, 8);
        mark();
        x = fresh(1);
        co_await m.store(f.writer1, x, 8);
        co_await m.load(f.reader0, x, 8);
        mark();
        // A reader-homed forward: plus the speculative memory read.
        x = fresh(0);
        co_await m.store(f.writer1, x, 8);
        co_await f.simv.delay(gap);
        co_await m.load(f.reader0, x, 8);
        mark();
        // A migratory handoff: two writers, then a read of the M copy.
        x = fresh(1);
        co_await m.store(f.writer0, x, 8);
        co_await f.simv.delay(gap);
        co_await m.store(f.writer1, x, 8);
        co_await f.simv.delay(gap);
        co_await m.load(f.reader0, x, 8);
        mark();
        // From the local LLC, then from the remote LLC.
        x = fresh(0);
        m.ddioWrite(0, x, 8, f.simv.now());
        co_await f.simv.delay(gap);
        co_await m.load(f.reader0, x, 8);
        mark();
        x = fresh(0);
        m.ddioWrite(1, x, 8, f.simv.now());
        co_await f.simv.delay(gap);
        co_await m.load(f.reader0, x, 8);
        mark();

        // Upgrades of a Shared copy: other copies only on the local
        // socket, then one on the remote socket.
        x = fresh(0);
        co_await m.load(f.reader0, x, 8);
        co_await m.load(f.writer0, x, 8);
        co_await f.simv.delay(gap);
        co_await m.store(f.reader0, x, 8);
        mark();
        x = fresh(0);
        co_await m.load(f.reader0, x, 8);
        co_await m.load(f.writer1, x, 8);
        co_await f.simv.delay(gap);
        co_await m.store(f.reader0, x, 8);
        mark();

        // Write misses from a remote dirty owner, writer- then
        // reader-homed, and from a local one.
        x = fresh(1);
        co_await m.store(f.writer1, x, 8);
        co_await f.simv.delay(gap);
        co_await m.store(f.reader0, x, 8);
        mark();
        x = fresh(0);
        co_await m.store(f.writer1, x, 8);
        co_await f.simv.delay(gap);
        co_await m.store(f.reader0, x, 8);
        mark();
        x = fresh(0);
        co_await m.store(f.writer0, x, 8);
        co_await f.simv.delay(gap);
        co_await m.store(f.reader0, x, 8);
        mark();
        // From the local LLC, then from the remote LLC.
        x = fresh(0);
        m.ddioWrite(0, x, 8, f.simv.now());
        co_await f.simv.delay(gap);
        co_await m.store(f.reader0, x, 8);
        mark();
        x = fresh(0);
        m.ddioWrite(1, x, 8, f.simv.now());
        co_await f.simv.delay(gap);
        co_await m.store(f.reader0, x, 8);
        mark();
        // From memory, local then remote.
        co_await m.store(f.reader0, fresh(0), 8);
        mark();
        co_await m.store(f.reader0, fresh(1), 8);
        mark();
        // With only remote Shared copies: local memory supplies the
        // data, and the invalidate/ack round trip crosses the link.
        x = fresh(0);
        co_await m.load(f.writer1, x, 8);
        co_await m.load(reader1, x, 8);
        co_await f.simv.delay(gap);
        co_await m.store(f.reader0, x, 8);
        mark();

        // Writebacks: a dirty flush of a line homed on the other
        // socket, and DDIO filling an LLC set past its ways, whose
        // dirty victim writes back to socket 1.
        x = fresh(1);
        co_await m.store(f.reader0, x, 8);
        co_await f.simv.delay(gap);
        co_await m.flush(f.reader0, x, kLineBytes);
        mark();
        for (std::uint32_t i = 0; i <= cfg.llcWays; ++i)
            m.ddioWrite(0, victims + i * llc_stride, 8, f.simv.now());
        co_return;
    });

    // Read misses from memory, read hit, write hits on E and M, remote
    // memory; from a local L2 owner, a remote one, queued, reader-homed,
    // a migratory handoff, the local and the remote LLC; upgrades, local
    // then remote; write misses from a remote owner, reader-homed, a
    // local owner, the local and the remote LLC, memory local and
    // remote, the round trip; the flush.
    EXPECT_EQ(done,
              (std::vector<Tick>{72305, 76305, 80305, 84305, 229996,
                                 1350301, 2537992, 2676452, 3942529,
                                 6323992, 7356992, 8463378, 9615683,
                                 10834605, 12022296, 13288373, 14422678,
                                 15469678, 16576064, 16648369, 16794060,
                                 18122518, 19293209}));

    using V = std::vector<std::uint64_t>;
    EXPECT_EQ(counts(m, f.reader0), (V{12, 13, 3, 22, 1, 8, 6, 7, 0, 0}));
    EXPECT_EQ(counts(m, f.writer0), (V{1, 3, 0, 4, 0, 3, 0, 1, 0, 0}));
    EXPECT_EQ(counts(m, f.writer1), (V{2, 6, 0, 8, 0, 6, 2, 3, 0, 0}));
    EXPECT_EQ(counts(m, reader1), (V{1, 0, 0, 1, 0, 0, 0, 0, 0, 0}));
    EXPECT_EQ(m.upiBytesInto(0), 1056u);
    EXPECT_EQ(m.upiBytesInto(1), 768u);
}

/**
 * Pingpong shape check (Figure 8): co-locating the two signal words on
 * one cache line must beat separate lines by the paper's 1.7-2.4x.
 */
double
pingpongNs(CoherentSystem &m, sim::Simulator &simv, AgentId ping_agent,
           AgentId pong_agent, Addr r1, Addr r2, int rounds)
{
    struct State
    {
        std::uint64_t ping = 0, pong = 0;
        Tick start = 0;
        std::vector<Tick> rtts;
    };
    State st;

    struct Ping
    {
        static sim::Task
        run(CoherentSystem &m, sim::Simulator &simv, AgentId a, Addr r1,
            Addr r2, int rounds, State &st)
        {
            for (int i = 1; i <= rounds; ++i) {
                st.start = simv.now();
                co_await m.store(a, r1, 8);
                // Logical visibility follows physical completion: the
                // value is published once the store's coherence
                // transaction is done.
                st.ping = static_cast<std::uint64_t>(i);
                for (;;) {
                    co_await m.load(a, r2, 8);
                    if (st.pong == static_cast<std::uint64_t>(i))
                        break;
                    co_await m.waitLineChange(mem::lineOf(r2),
                                              m.lineVersion(r2));
                }
                st.rtts.push_back(simv.now() - st.start);
            }
        }
    };
    struct Pong
    {
        static sim::Task
        run(CoherentSystem &m, AgentId a, Addr r1, Addr r2, int rounds,
            State &st)
        {
            for (int i = 1; i <= rounds; ++i) {
                for (;;) {
                    co_await m.load(a, r1, 8);
                    if (st.ping == static_cast<std::uint64_t>(i))
                        break;
                    co_await m.waitLineChange(mem::lineOf(r1),
                                              m.lineVersion(r1));
                }
                co_await m.store(a, r2, 8);
                st.pong = static_cast<std::uint64_t>(i);
            }
        }
    };
    simv.spawn(Ping::run(m, simv, ping_agent, r1, r2, rounds, st));
    simv.spawn(Pong::run(m, pong_agent, r1, r2, rounds, st));
    simv.run();
    // Median round trip.
    std::sort(st.rtts.begin(), st.rtts.end());
    return sim::toNs(st.rtts[st.rtts.size() / 2]);
}

TEST(FaultInjection, PoisonVisibleExactlyDuringWindow)
{
    MemFixture f(mem::icxConfig());
    auto &m = f.system;
    f.run([&]() -> sim::Coro<void> {
        Addr a = m.alloc(0, 2 * kLineBytes);
        Addr other = a + kLineBytes;

        // Zero-cost path: nothing armed, queries are free and false.
        EXPECT_FALSE(m.faultsArmed());
        EXPECT_FALSE(m.rangePoisoned(a, kLineBytes));

        const Tick hold = sim::fromUs(2.0);
        const Tick t0 = f.simv.now();
        m.injectPoison(a, hold);
        EXPECT_TRUE(m.faultsArmed());
        EXPECT_EQ(m.telemetry().poisonInjected.value(), 1u);

        // The scheduled reader (inside the window) observes poison;
        // the neighbouring line never does.
        EXPECT_TRUE(m.rangePoisoned(a, 8));
        EXPECT_FALSE(m.rangePoisoned(other, 8));
        co_await f.simv.delayUntil(t0 + hold - 1);
        EXPECT_TRUE(m.rangePoisoned(a, kLineBytes));
        EXPECT_EQ(m.telemetry().poisonReads.value(), 2u);

        // One tick past the window the line reads clean again, and
        // observations stop counting.
        co_await f.simv.delayUntil(t0 + hold);
        EXPECT_FALSE(m.rangePoisoned(a, kLineBytes));
        EXPECT_EQ(m.telemetry().poisonReads.value(), 2u);
        co_return;
    });
    expectDirectoryAgrees(m);
}

TEST(FaultInjection, TornWindowBounded)
{
    MemFixture f(mem::icxConfig());
    auto &m = f.system;
    f.run([&]() -> sim::Coro<void> {
        Addr a = m.alloc(0, kLineBytes);
        const Tick hold = sim::fromUs(1.0);
        const Tick t0 = f.simv.now();
        m.injectTorn(a, hold);
        EXPECT_EQ(m.telemetry().tornInjected.value(), 1u);

        // Stale exactly while the window is open — a validating
        // consumer rejects the slot — and clean the tick it closes.
        EXPECT_TRUE(m.rangeStale(a, kLineBytes));
        co_await f.simv.delayUntil(t0 + hold - 1);
        EXPECT_TRUE(m.rangeStale(a, 8));
        co_await f.simv.delayUntil(t0 + hold);
        EXPECT_FALSE(m.rangeStale(a, kLineBytes));

        // Torn lines are stale, not poisoned: the poison query never
        // fires for them.
        EXPECT_EQ(m.telemetry().poisonReads.value(), 0u);
        co_return;
    });
    expectDirectoryAgrees(m);
}

TEST(FaultInjection, StuckLineHoldsVersionUntilWindowCloses)
{
    MemFixture f(mem::icxConfig());
    auto &m = f.system;
    f.run([&]() -> sim::Coro<void> {
        Addr a = m.alloc(0, kLineBytes);
        const std::uint32_t v0 = m.lineVersion(a);

        const Tick hold = sim::fromUs(5.0);
        const Tick t0 = f.simv.now();
        m.injectStuck(a, hold);
        EXPECT_EQ(m.telemetry().stuckInjected.value(), 1u);

        // A write lands during the window, but the stuck invalidation
        // keeps pollers on the held version: the line looks unchanged
        // (and stale) until the window expires.
        co_await m.store(f.writer1, a, 8);
        EXPECT_EQ(m.lineVersion(a), v0);
        EXPECT_TRUE(m.rangeStale(a, kLineBytes));

        co_await f.simv.delayUntil(t0 + hold + 1);
        EXPECT_GT(m.lineVersion(a), v0);
        EXPECT_FALSE(m.rangeStale(a, kLineBytes));
        co_return;
    });
    expectDirectoryAgrees(m);
}

TEST(FaultInjection, BrownoutStretchesOnlyTargetAgentOps)
{
    MemFixture f(mem::icxConfig());
    auto &m = f.system;
    f.run([&]() -> sim::Coro<void> {
        Addr a = m.alloc(0, kLineBytes);
        Addr b = m.alloc(0, kLineBytes);

        // Baseline: a local-DRAM load with no fault armed.
        Tick t0 = f.simv.now();
        co_await m.load(f.reader0, a, 8);
        const Tick clean = f.simv.now() - t0;

        m.injectBrownout(f.reader0, 4.0, sim::fromUs(50.0));
        EXPECT_EQ(m.telemetry().brownouts.value(), 1u);

        // The browned-out agent's ops stretch by ~the factor...
        t0 = f.simv.now();
        co_await m.load(f.reader0, b, 8);
        const Tick stretched = f.simv.now() - t0;
        EXPECT_GE(stretched, 3 * clean);
        EXPECT_GT(m.telemetry().brownoutStretchedOps.value(), 0u);

        // ...while another agent on the same socket is untouched.
        Addr c = m.alloc(0, kLineBytes);
        t0 = f.simv.now();
        co_await m.load(f.writer0, c, 8);
        EXPECT_LT(f.simv.now() - t0, 2 * clean);
        co_return;
    });
    expectDirectoryAgrees(m);
}

TEST(FaultInjection, ScheduleIsSeedDeterministic)
{
    // Same seed, same config → bit-identical injection schedules;
    // a different seed must actually move events. (The schedule is
    // the only source of randomness in a chaos run, so this is the
    // reproducibility guarantee for failing runs.)
    auto events_for = [](std::uint64_t seed) {
        sim::Simulator simv;
        workload::ChaosConfig cfg;
        cfg.seed = seed;
        cfg.start = sim::fromUs(10.0);
        cfg.end = sim::fromUs(400.0);
        cfg.poisons = 4;
        cfg.torns = 3;
        cfg.stuckLines = 2;
        cfg.brownouts = 2;
        workload::ChaosSchedule s(simv, cfg, {});
        return s.events();
    };

    const auto a = events_for(0xfeedULL);
    const auto b = events_for(0xfeedULL);
    ASSERT_EQ(a.size(), b.size());
    ASSERT_EQ(a.size(), 3u + 2u + 2u + 4u + 3u + 2u + 2u);
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].at, b[i].at) << i;
        EXPECT_EQ(static_cast<int>(a[i].kind),
                  static_cast<int>(b[i].kind))
            << i;
    }

    const auto c = events_for(0xbeefULL);
    bool any_moved = false;
    for (std::size_t i = 0; i < a.size() && !any_moved; ++i)
        any_moved = a[i].at != c[i].at;
    EXPECT_TRUE(any_moved) << "seed change did not move any event";
}

TEST(Fig8Shape, ColocationBeatsSeparateLines)
{
    auto cfg = mem::icxConfig();
    double separate_ns = 0, colocated_ns = 0;
    {
        MemFixture f(cfg);
        Addr r1 = f.system.alloc(0, kLineBytes);
        Addr r2 = f.system.alloc(0, kLineBytes);
        separate_ns =
            pingpongNs(f.system, f.simv, f.reader0, f.writer1, r1, r2, 51);
    }
    {
        MemFixture f(cfg);
        Addr line = f.system.alloc(0, kLineBytes);
        colocated_ns = pingpongNs(f.system, f.simv, f.reader0, f.writer1,
                                  line, line + 8, 51);
    }
    const double ratio = separate_ns / colocated_ns;
    EXPECT_GE(ratio, 1.5) << "separate=" << separate_ns
                          << " colocated=" << colocated_ns;
    EXPECT_LE(ratio, 2.6) << "separate=" << separate_ns
                          << " colocated=" << colocated_ns;
}

} // namespace
