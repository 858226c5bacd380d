/**
 * @file
 * Property-based tests swept over the configuration space with
 * parameterized gtest:
 *
 *  - Packet conservation: every transmitted packet is received exactly
 *    once, in order, for every combination of descriptor layout,
 *    signaling mode, buffer-management mode, and platform, and for
 *    every PIO preset, publish-batching mode and frame size.
 *  - Mempool invariants: no double allocation, full conservation of
 *    buffers across random alloc/free sequences, for every pool
 *    configuration.
 *  - Coherence determinism and version monotonicity under random
 *    multi-agent access sequences.
 *  - Directory agreement: after every conservation run and random
 *    access sequence, the coherence directory matches the caches.
 */

#include <gtest/gtest.h>

#include <functional>
#include <iostream>
#include <set>
#include <string>
#include <tuple>
#include <type_traits>
#include <vector>

#include "ccnic/ccnic.hh"
#include "driver/mempool.hh"
#include "driver/ring.hh"
#include "mem/platform.hh"
#include "pio/pio.hh"

namespace {

using namespace ccn;
using driver::PacketBuf;

sim::Task
runBody(std::function<sim::Coro<void>()> body, bool &done)
{
    co_await body();
    done = true;
}

/** The directory agrees with every cache (first violations shown). */
void
expectDirectoryAgrees(const mem::CoherentSystem &system)
{
    const std::vector<std::string> violations = system.auditDirectory();
    std::string first;
    for (std::size_t i = 0; i < violations.size() && i < 5; ++i)
        first += "\n  " + violations[i];
    EXPECT_TRUE(violations.empty())
        << violations.size() << " directory violations:" << first;
}

// ---------------------------------------------------------------------
// Packet conservation, shared by every family's sweep.
// ---------------------------------------------------------------------

/** The traffic of one conservation run. */
struct Traffic
{
    bool oddTx = false; ///< TX bursts cycle 1..7 instead of 8.
    int rxBurst = 8;
    int packets = 200;
    std::uint32_t bytes = 64; ///< Frame length.
};

/** What one conservation run saw. */
struct Delivery
{
    std::vector<std::uint64_t> received; ///< userData in arrival order.
    sim::Tick lastReap = 0;
    bool done = false; ///< Every packet arrived and the NIC was reset.
};

/**
 * Loop @p t's packets through queue 0 of the started @p nic, reaping
 * as it sends, then quiesce and reset it so the rings or slot arrays
 * give back every buffer they still hold.
 */
Delivery
runConservation(sim::Simulator &simv, mem::CoherentSystem &system,
                driver::NicInterface &nic, const Traffic &t)
{
    Delivery out;
    auto body = [&]() -> sim::Coro<void> {
        const mem::AgentId agent = nic.hostAgent(0);
        std::uint64_t next_send = 0;
        int round = 0;
        PacketBuf *tx[8];
        PacketBuf *rx[8];
        while (static_cast<int>(out.received.size()) < t.packets) {
            // Send in small bursts while packets remain.
            if (next_send < static_cast<std::uint64_t>(t.packets)) {
                const int burst = t.oddTx ? 1 + round++ % 7 : 8;
                const int want = static_cast<int>(std::min<std::uint64_t>(
                    burst,
                    static_cast<std::uint64_t>(t.packets) - next_send));
                int got = co_await nic.allocBufs(0, t.bytes, tx, want);
                if (got > 0) {
                    std::vector<mem::CoherentSystem::Span> spans;
                    for (int i = 0; i < got; ++i)
                        spans.push_back({tx[i]->addr, t.bytes});
                    co_await system.postMulti(agent, spans, nullptr);
                    for (int i = 0; i < got; ++i) {
                        tx[i]->len = t.bytes;
                        tx[i]->txTime = simv.now();
                        tx[i]->userData = next_send + i;
                    }
                    int sent = co_await nic.txBurst(0, tx, got);
                    next_send += static_cast<std::uint64_t>(sent);
                    if (sent < got)
                        co_await nic.freeBufs(0, tx + sent, got - sent);
                }
            }
            int nr = co_await nic.rxBurst(0, rx, t.rxBurst);
            for (int i = 0; i < nr; ++i)
                out.received.push_back(rx[i]->userData);
            if (nr > 0) {
                out.lastReap = simv.now();
                co_await nic.freeBufs(0, rx, nr);
            }
            if (nr == 0 &&
                next_send >= static_cast<std::uint64_t>(t.packets)) {
                co_await nic.idleWait(0,
                                      simv.now() + sim::fromUs(20.0));
            }
        }
        // Every buffer is back with the host: a reset must find the
        // rest of them in the rings.
        co_await nic.quiesce();
        co_await nic.reset();
        co_return;
    };
    simv.spawn(runBody(body, out.done));
    simv.run(sim::fromUs(30000.0));
    return out;
}

/** Cross-socket line transfers of the run, for its digest. */
std::string
remoteDigest(const mem::CoherentSystem &system)
{
    std::uint64_t remote_reads = 0;
    std::uint64_t remote_rfos = 0;
    for (mem::AgentId a = 0; a < system.numAgents(); ++a) {
        remote_reads += system.counters(a).remoteReads;
        remote_rfos += system.counters(a).remoteRfos;
    }
    return " remote_reads=" + std::to_string(remote_reads) +
           " remote_rfos=" + std::to_string(remote_rfos);
}

/**
 * Every packet arrived exactly once and in order (one queue keeps
 * FIFO), the reset left no buffer behind, and the directory agrees
 * with the caches.
 */
void
expectConserved(const Delivery &d, int packets, driver::NicInterface &nic,
                const mem::CoherentSystem &system)
{
    ASSERT_TRUE(d.done) << "loopback delivered " << d.received.size()
                        << " of " << packets << " packets";
    ASSERT_EQ(d.received.size(), static_cast<std::size_t>(packets));
    for (int i = 0; i < packets; ++i) {
        EXPECT_EQ(d.received[static_cast<std::size_t>(i)],
                  static_cast<std::uint64_t>(i));
    }
    EXPECT_EQ(nic.auditLeaks(), 0u);
    expectDirectoryAgrees(system);
}

// ---------------------------------------------------------------------
// Packet conservation across the CC-NIC configuration space.
// ---------------------------------------------------------------------

/**
 * One conservation run. The default is the base sweep: bursts of 8 on
 * both sides over a 512-entry ring. A slow reaper (RX bursts of 1 or 2
 * under odd TX bursts) keeps the RX ring full, so the device producer
 * laps onto lines the host has not cleared yet; odd TX bursts also end
 * groups mid-line, which is what sealing and publish batching act on.
 */
struct CcNicParam
{
    driver::RingLayout layout;
    driver::SignalMode signal;
    bool nicMgmt;
    const char *platform;
    driver::BatchMode batch = driver::BatchMode::Off;
    bool oddTx = false; ///< TX bursts cycle 1..7 instead of 8.
    int rxBurst = 8;
    std::uint32_t ringEntries = 512;
    int packets = 200;
};

class CcNicConservation
    : public ::testing::TestWithParam<CcNicParam>
{};

TEST_P(CcNicConservation, EveryPacketDeliveredExactlyOnceInOrder)
{
    const CcNicParam p = GetParam();
    const mem::PlatformConfig plat = std::string(p.platform) == "ICX"
                                         ? mem::icxConfig()
                                         : mem::sprConfig();

    sim::Simulator simv;
    mem::CoherentSystem system(simv, plat);
    sim::Rng rng(41);
    auto cfg = ccnic::optimizedConfig(1, 0, plat);
    cfg.layout = p.layout;
    cfg.signal = p.signal;
    cfg.nicBufferMgmt = p.nicMgmt;
    if (!p.nicMgmt)
        cfg.pool.sharedAccess = false;
    cfg.ringEntries = p.ringEntries;
    cfg.batch.mode = p.batch;
    ccnic::CcNic nic(simv, system, cfg, 0, 1, rng);
    nic.start();

    const Delivery d = runConservation(
        simv, system, nic, {p.oddTx, p.rxBurst, p.packets});

    // Run digest: equal digests mean an identical modeled run.
    std::cout << "digest last_reap=" << d.lastReap
              << " signal_reads=" << nic.signalReads()
              << " signal_writes=" << nic.signalWrites()
              << remoteDigest(system) << "\n";
    expectConserved(d, p.packets, nic, system);
}

std::vector<CcNicParam>
allConfigs(driver::BatchMode batch, bool odd_tx)
{
    std::vector<CcNicParam> out;
    for (auto layout : {driver::RingLayout::Grouped,
                        driver::RingLayout::Packed,
                        driver::RingLayout::Padded})
        for (auto signal :
             {driver::SignalMode::Inline, driver::SignalMode::Register})
            for (bool nic_mgmt : {true, false})
                for (const char *plat : {"ICX", "SPR"})
                    out.push_back(
                        {layout, signal, nic_mgmt, plat, batch, odd_tx});
    return out;
}

std::string
configName(const CcNicParam &p)
{
    std::string name;
    if (p.rxBurst != 8) {
        name += "Ring" + std::to_string(p.ringEntries) + "Rx" +
                std::to_string(p.rxBurst);
    } else if (p.oddTx) {
        name += p.batch == driver::BatchMode::Off     ? "BatchOff"
                : p.batch == driver::BatchMode::Fixed ? "Batch4"
                                                      : "BatchAdaptive";
    }
    name += p.layout == driver::RingLayout::Grouped  ? "Grouped"
            : p.layout == driver::RingLayout::Packed ? "Packed"
                                                     : "Padded";
    name += p.signal == driver::SignalMode::Inline ? "Inline" : "Register";
    name += p.nicMgmt ? "NicMgmt" : "HostMgmt";
    name += p.platform;
    return name;
}

std::string
testName(const ::testing::TestParamInfo<CcNicParam> &info)
{
    return configName(info.param);
}

/** Failure messages name the configuration, not its bytes. */
void
PrintTo(const CcNicParam &p, std::ostream *os)
{
    *os << configName(p);
}

INSTANTIATE_TEST_SUITE_P(
    AllConfigs, CcNicConservation,
    ::testing::ValuesIn(allConfigs(driver::BatchMode::Off, false)),
    testName);

// Odd TX bursts under every publish-batching mode. With bursts of 8,
// batch 4 would give the same run as off in every configuration.
INSTANTIATE_TEST_SUITE_P(
    PublishBatch, CcNicConservation,
    ::testing::ValuesIn([] {
        std::vector<CcNicParam> out;
        for (auto mode : {driver::BatchMode::Off, driver::BatchMode::Fixed,
                          driver::BatchMode::Adaptive}) {
            const auto part = allConfigs(mode, true);
            out.insert(out.end(), part.begin(), part.end());
        }
        return out;
    }()),
    testName);

// The optimized configuration behind a slow reaper, long enough for
// the device to lap every ring several times.
INSTANTIATE_TEST_SUITE_P(
    SlowReaper, CcNicConservation,
    ::testing::ValuesIn([] {
        std::vector<CcNicParam> out;
        const std::pair<std::uint32_t, int> rings[] = {
            {64, 400}, {128, 1000}, {512, 4000}};
        for (const auto &[ring, packets] : rings)
            for (int rx : {1, 2})
                out.push_back({driver::RingLayout::Grouped,
                               driver::SignalMode::Inline, true, "ICX",
                               driver::BatchMode::Off, true, rx, ring,
                               packets});
        return out;
    }()),
    testName);

// ---------------------------------------------------------------------
// Packet conservation over PIO message slots.
// ---------------------------------------------------------------------

/**
 * One PIO conservation run. The base sweep sends bursts of 8 (or odd
 * bursts) through the default 64-slot arrays, with 64 B frames inline
 * or 1024 B frames spilled to the pool. A slow reaper on 8 or 16 slots
 * keeps both arrays full, so each producer laps onto slots whose
 * credit, or its own publish, is still in flight.
 */
struct PioParam
{
    bool cxl;
    const char *platform;
    driver::BatchMode batch = driver::BatchMode::Off;
    bool oddTx = false;   ///< TX bursts cycle 1..7 instead of 8.
    bool spilled = false; ///< 1024 B frames instead of 64 B.
    int rxBurst = 8;
    std::uint32_t numSlots = 64;
    int packets = 200;
};

class PioConservation : public ::testing::TestWithParam<PioParam>
{};

TEST_P(PioConservation, EveryPacketDeliveredExactlyOnceInOrder)
{
    const PioParam p = GetParam();
    const mem::PlatformConfig plat = std::string(p.platform) == "ICX"
                                         ? mem::icxConfig()
                                         : mem::sprConfig();

    sim::Simulator simv;
    mem::CoherentSystem system(simv, plat);
    sim::Rng rng(41);
    auto cfg = p.cxl ? pio::cxlConfig(1, 0, plat) : pio::upiConfig(1, 0, plat);
    cfg.numSlots = p.numSlots;
    cfg.batch.mode = p.batch;
    pio::PioNic nic(simv, system, cfg, 0, 1, rng);
    nic.start();

    const Delivery d = runConservation(
        simv, system, nic,
        {p.oddTx, p.rxBurst, p.packets, p.spilled ? 1024u : 64u});

    std::cout << "digest last_reap=" << d.lastReap
              << " slot_polls=" << nic.slotPolls()
              << " slot_writes=" << nic.slotWrites()
              << " spills=" << nic.spills() << remoteDigest(system)
              << "\n";
    expectConserved(d, p.packets, nic, system);
}

std::string
pioName(const PioParam &p)
{
    std::string name;
    if (p.rxBurst != 8) {
        name += "Slots" + std::to_string(p.numSlots) + "Rx" +
                std::to_string(p.rxBurst);
    } else {
        name += p.batch == driver::BatchMode::Off     ? "BatchOff"
                : p.batch == driver::BatchMode::Fixed ? "Batch4"
                                                      : "BatchAdaptive";
        name += p.oddTx ? "OddTx" : "Tx8";
    }
    name += p.cxl ? "Cxl" : "Upi";
    name += p.spilled ? "Spilled" : "Inline";
    name += p.platform;
    return name;
}

void
PrintTo(const PioParam &p, std::ostream *os)
{
    *os << pioName(p);
}

INSTANTIATE_TEST_SUITE_P(
    AllConfigs, PioConservation,
    ::testing::ValuesIn([] {
        std::vector<PioParam> out;
        for (bool cxl : {false, true})
            for (const char *plat : {"ICX", "SPR"})
                for (auto mode :
                     {driver::BatchMode::Off, driver::BatchMode::Fixed,
                      driver::BatchMode::Adaptive})
                    for (bool odd_tx : {false, true})
                        for (bool spilled : {false, true})
                            out.push_back(
                                {cxl, plat, mode, odd_tx, spilled});
        return out;
    }()),
    [](const ::testing::TestParamInfo<PioParam> &info) {
        return pioName(info.param);
    });

// Odd TX bursts behind a slow reaper on small slot arrays, so both
// producers lap the array many times.
INSTANTIATE_TEST_SUITE_P(
    SlowReaper, PioConservation,
    ::testing::ValuesIn([] {
        std::vector<PioParam> out;
        for (std::uint32_t slots : {8u, 16u})
            for (int rx : {1, 2})
                for (bool spilled : {false, true})
                    out.push_back({false, "ICX", driver::BatchMode::Off,
                                   true, spilled, rx, slots, 400});
        return out;
    }()),
    [](const ::testing::TestParamInfo<PioParam> &info) {
        return pioName(info.param);
    });

// ---------------------------------------------------------------------
// Mempool invariants across the pool configuration space.
// ---------------------------------------------------------------------

using PoolParam = std::tuple<bool /*small*/, bool /*recycle*/,
                             bool /*nonseq*/, bool /*shared*/,
                             int /*stripes*/>;

class PoolInvariants : public ::testing::TestWithParam<PoolParam>
{};

TEST_P(PoolInvariants, NoDoubleAllocationAndFullConservation)
{
    const auto [small, recycle, nonseq, shared, stripes] = GetParam();
    sim::Simulator simv;
    mem::CoherentSystem system(simv, mem::icxConfig());
    const mem::AgentId a0 = system.addAgent(0);
    const mem::AgentId a1 = system.addAgent(1);
    sim::Rng rng(13);

    driver::MempoolConfig cfg;
    cfg.largeCount = 128;
    cfg.smallCount = 128;
    cfg.smallBuffers = small;
    cfg.recycleCache = recycle;
    cfg.nonSequentialFill = nonseq;
    cfg.sharedAccess = shared;
    cfg.stripes = stripes;
    driver::Mempool pool(system, cfg, rng);

    bool done = false;
    auto body = [&]() -> sim::Coro<void> {
        sim::Rng r(99);
        std::set<PacketBuf *> held;
        std::vector<PacketBuf *> order;
        for (int iter = 0; iter < 400; ++iter) {
            const mem::AgentId ag = r.chance(0.5) ? a0 : a1;
            const int stripe =
                static_cast<int>(r.below(
                    static_cast<std::uint64_t>(stripes)));
            if (r.chance(0.6) && held.size() < 100) {
                PacketBuf *bufs[8];
                const std::uint32_t hint =
                    r.chance(0.5) ? 64u : 1500u;
                int got = co_await pool.allocBurst(
                    ag, hint,
                    bufs, static_cast<int>(1 + r.below(8)), stripe);
                for (int i = 0; i < got; ++i) {
                    // Property: never hand out a buffer twice.
                    EXPECT_TRUE(held.insert(bufs[i]).second);
                    order.push_back(bufs[i]);
                }
            } else if (!order.empty()) {
                const std::size_t n =
                    1 + r.below(std::min<std::uint64_t>(
                            8, order.size()));
                std::vector<PacketBuf *> frees(order.end() - n,
                                               order.end());
                order.resize(order.size() - n);
                for (PacketBuf *b : frees)
                    held.erase(b);
                co_await pool.freeBurst(ag, frees.data(),
                                        static_cast<int>(n), stripe);
            }
        }
        // Return everything and check conservation: all buffers are
        // free again (in recycle stacks or global rings).
        if (!order.empty()) {
            co_await pool.freeBurst(a0, order.data(),
                                    static_cast<int>(order.size()), 0);
        }
        co_return;
    };
    simv.spawn(runBody(body, done));
    simv.run();
    ASSERT_TRUE(done);

    // Drain: with recycling off, everything must be in the global
    // rings; with it on, the recycle stacks hold the remainder. Either
    // way, re-allocating everything must succeed exactly once.
    bool done2 = false;
    auto drain = [&]() -> sim::Coro<void> {
        std::set<PacketBuf *> seen;
        for (int stripe = 0; stripe < stripes; ++stripe) {
            for (;;) {
                PacketBuf *bufs[16];
                int got = co_await pool.allocBurst(a0, 1500, bufs, 16,
                                                   stripe);
                for (int i = 0; i < got; ++i)
                    EXPECT_TRUE(seen.insert(bufs[i]).second);
                if (got < 16)
                    break;
            }
        }
        const std::size_t total =
            pool.totalCount(driver::BufClass::Large);
        EXPECT_LE(seen.size(), total);
        // With recycling, up to 2 agents' stacks may retain buffers.
        const std::size_t retained = 2 * cfg.recycleDepth;
        EXPECT_GE(seen.size(),
                  total > retained ? total - retained : 0);
        co_return;
    };
    simv.spawn(runBody(drain, done2));
    simv.run();
    ASSERT_TRUE(done2);
}

INSTANTIATE_TEST_SUITE_P(
    AllPools, PoolInvariants,
    ::testing::Combine(::testing::Bool(), ::testing::Bool(),
                       ::testing::Bool(), ::testing::Bool(),
                       ::testing::Values(1, 4)));

// ---------------------------------------------------------------------
// Coherence determinism and version monotonicity under random access
// sequences.
// ---------------------------------------------------------------------

class CoherenceRandom : public ::testing::TestWithParam<int>
{};

TEST_P(CoherenceRandom, DeterministicAndMonotonic)
{
    const int seed = GetParam();
    auto run_once = [&](std::vector<std::uint32_t> *versions) {
        sim::Simulator simv;
        mem::CoherentSystem m(simv, mem::icxConfig());
        const mem::AgentId a0 = m.addAgent(0);
        const mem::AgentId a1 = m.addAgent(1);
        const mem::AgentId a2 = m.addAgent(1);
        const mem::Addr base = m.alloc(0, 64 * mem::kLineBytes);
        bool done = false;
        auto body = [&]() -> sim::Coro<void> {
            sim::Rng r(static_cast<std::uint64_t>(seed));
            std::uint32_t last_version = 0;
            const mem::Addr hot = base; // One hot line.
            for (int i = 0; i < 300; ++i) {
                const mem::AgentId ag =
                    (r.below(3) == 0) ? a0 : (r.below(2) ? a1 : a2);
                const mem::Addr addr =
                    base + r.below(64) * mem::kLineBytes;
                switch (r.below(5)) {
                  case 0:
                    co_await m.load(ag, addr, 8);
                    break;
                  case 1:
                    co_await m.store(ag, addr, 8);
                    break;
                  case 2:
                    co_await m.store(ag, hot, 8);
                    break;
                  case 3:
                    co_await m.atomicRmw(ag, hot);
                    break;
                  default:
                    co_await m.loadRange(ag, addr, 4 * mem::kLineBytes);
                    break;
                }
                // Property: line versions never decrease.
                const std::uint32_t v = m.lineVersion(hot);
                EXPECT_GE(v, last_version);
                last_version = v;
            }
            co_return;
        };
        simv.spawn(runBody(body, done));
        simv.run();
        EXPECT_TRUE(done);
        expectDirectoryAgrees(m);
        versions->push_back(m.lineVersion(base));
        versions->push_back(
            static_cast<std::uint32_t>(simv.now() & 0xffffffffu));
    };
    std::vector<std::uint32_t> first, second;
    run_once(&first);
    run_once(&second);
    // Property: bit-identical replay.
    EXPECT_EQ(first, second);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CoherenceRandom,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

// ---------------------------------------------------------------------
// Descriptor integrity: the generation-tag + CRC-32C stamp.
// ---------------------------------------------------------------------

/**
 * Property: a published (stamped) descriptor rejects *every* possible
 * single-bit corruption of its checksummed fields — buffer pointer,
 * length, generation tag, metadata, and the checksum itself. This is
 * the guarantee the hardened consumers (CcNic/PcieNic slotValid, PIO
 * sequence checks) lean on when they treat a verification miss as a
 * torn/corrupt slot and re-poll.
 */
TEST(DescriptorIntegrity, EverySingleBitCorruptionRejected)
{
    sim::Simulator simv;
    mem::CoherentSystem system(simv, mem::icxConfig());
    driver::DescRing ring(system, 0, 8, driver::RingLayout::Grouped);

    // The checksum covers the pointer's bit pattern only; corrupted
    // pointers are never dereferenced.
    PacketBuf real;
    for (std::uint32_t idx = 0; idx < 3; ++idx) {
        auto &s = ring.slot(idx);
        s.buf = &real;
        s.len = 1000 + idx;
        s.meta = 0xabcdef01ull + idx;
        s.ready = true;
        ring.stampSlot(idx);
        ASSERT_TRUE(ring.slotValid(idx));

        const auto flip_check = [&](auto &field, int bit) {
            using F = std::remove_reference_t<decltype(field)>;
            const F orig = field;
            field = static_cast<F>(orig ^ (std::uint64_t{1} << bit));
            EXPECT_FALSE(ring.slotValid(idx))
                << "slot " << idx << " bit " << bit
                << " corruption accepted";
            field = orig;
            EXPECT_TRUE(ring.slotValid(idx));
        };
        for (int b = 0; b < 32; ++b)
            flip_check(s.len, b);
        for (int b = 0; b < 64; ++b)
            flip_check(s.meta, b);
        for (int b = 0; b < 32; ++b)
            flip_check(s.gen, b);
        for (int b = 0; b < 32; ++b)
            flip_check(s.csum, b);
        // Pointer corruption: flip bits of the stored address value.
        for (int b = 0; b < 48; ++b) {
            PacketBuf *const orig = s.buf;
            s.buf = reinterpret_cast<PacketBuf *>(
                reinterpret_cast<std::uintptr_t>(orig) ^
                (std::uintptr_t{1} << b));
            EXPECT_FALSE(ring.slotValid(idx))
                << "slot " << idx << " buf bit " << b
                << " corruption accepted";
            s.buf = orig;
            EXPECT_TRUE(ring.slotValid(idx));
        }

        // A recycled (cleared) slot is never valid, even with its
        // old contents intact — gen 0 / csum 0 is the unstamped
        // sentinel.
        ring.clearStamp(idx);
        EXPECT_FALSE(ring.slotValid(idx));
        ring.stampSlot(idx);
        EXPECT_TRUE(ring.slotValid(idx));
    }

    // Generation tags are unique across publications: restamping the
    // same logical content yields a different stamp (so a consumer
    // holding a stale copy of an earlier generation cannot collide).
    auto &s0 = ring.slot(0);
    const std::uint32_t gen_before = s0.gen;
    const std::uint32_t csum_before = s0.csum;
    ring.stampSlot(0);
    EXPECT_NE(s0.gen, gen_before);
    EXPECT_NE(s0.csum, csum_before);
}

} // namespace
