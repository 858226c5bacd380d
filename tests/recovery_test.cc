/**
 * @file
 * Failure-detection and recovery tests: heartbeat-based wedge
 * detection by the driver Watchdog, buffer reclaim across NIC
 * hot-reset, transport survival of a device reset (no committed op
 * lost or duplicated), and the full seeded chaos acceptance run.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "ccnic/ccnic.hh"
#include "driver/ring.hh"
#include "driver/watchdog.hh"
#include "mem/platform.hh"
#include "obs/obs.hh"
#include "obs/sampler.hh"
#include "net/fabric.hh"
#include "scenario/world.hh"
#include "transport/transport.hh"
#include "workload/chaos.hh"
#include "workload/clientserver.hh"

namespace {

using namespace ccn;
using transport::Connection;
using transport::Endpoint;
using transport::Segment;
using transport::TransportConfig;

/** One host with a loopback CC-NIC. */
struct LoopbackWorld
{
    LoopbackWorld(int queues = 1, driver::BatchPolicy batch = {})
        : plat(mem::icxConfig()), memA(simv, plat), rng(5)
    {
        auto cfg = ccnic::optimizedConfig(queues, 0, plat);
        cfg.batch = batch;
        nic = std::make_unique<ccnic::CcNic>(simv, memA, cfg, 0, 1,
                                             rng);
        nic->start();
    }

    mem::PlatformConfig plat;
    sim::Simulator simv;
    mem::CoherentSystem memA;
    sim::Rng rng;
    std::unique_ptr<ccnic::CcNic> nic;
};

TEST(Recovery, WatchdogStaysQuietOnHealthyDevice)
{
    LoopbackWorld w;
    driver::Watchdog wd(w.simv, *w.nic);
    wd.start(sim::fromUs(300.0));
    w.simv.run(sim::fromUs(300.0));

    EXPECT_GT(wd.stats().checks.value(), 10u);
    EXPECT_EQ(wd.stats().failures.value(), 0u);
    EXPECT_EQ(wd.stats().recoveries.value(), 0u);
}

sim::Task
submitHeldBatchTask(LoopbackWorld &w, int n, bool *done)
{
    driver::PacketBuf *bufs[16];
    const int got = co_await w.nic->allocBufs(0, 64, bufs, n);
    EXPECT_EQ(got, n);
    for (int i = 0; i < got; ++i) {
        bufs[i]->len = 64;
        bufs[i]->dst = 0;
        bufs[i]->flowId = static_cast<std::uint64_t>(i);
    }
    const int tx = co_await w.nic->txBurst(0, bufs, got);
    EXPECT_EQ(tx, got);
    *done = true;
    co_return;
}

// Regression (watchdog vs signal coalescing): descriptors staged in a
// publish batch are host-held by design, not parked in a stalled
// device. Before the fix the stall check read txOutstanding > 0 with
// txCompleted frozen as a ring stall, so a partial batch waiting out
// its flush timeout got a healthy device hot-reset. The stall check
// now discounts health().txHeldInBatch.
TEST(Recovery, WatchdogIgnoresPublishBatchHold)
{
    driver::BatchPolicy batch;
    batch.mode = driver::BatchMode::Fixed;
    batch.size = 16; // More than we submit: the batch never fills...
    batch.flushTimeout = sim::fromUs(100000.0); // ...or times out.
    LoopbackWorld w(1, batch);

    driver::Watchdog wd(w.simv, *w.nic); // 5us checks, 4-check stall.
    bool failed = false;
    wd.onFailure([&](driver::FailureKind) { failed = true; });
    wd.start(sim::fromUs(300.0));

    bool done = false;
    w.simv.spawn(submitHeldBatchTask(w, 3, &done));
    w.simv.run(sim::fromUs(300.0));

    ASSERT_TRUE(done);
    // The three descriptors sat held in the batch the whole run (60
    // watchdog checks, far beyond the 4-check stall threshold)...
    EXPECT_EQ(w.nic->health(0).txOutstanding, 3u);
    EXPECT_EQ(w.nic->health(0).txHeldInBatch, 3u);
    // ...and the watchdog correctly stayed quiet.
    EXPECT_GT(wd.stats().checks.value(), 10u);
    EXPECT_EQ(wd.stats().ringStalls.value(), 0u);
    EXPECT_EQ(wd.stats().failures.value(), 0u);
    EXPECT_FALSE(failed);
}

// ---------------------------------------------------------------------
// Device lifecycle conformance: every interface family, one test body.
// ---------------------------------------------------------------------

/** Every interface-family key, for the conformance suites. */
std::vector<const char *>
familyKeys()
{
    std::vector<const char *> keys;
    for (const scenario::InterfaceFamily &f :
         scenario::interfaceFamilies())
        keys.push_back(f.key);
    return keys;
}

/**
 * The shared device lifecycle on a one-queue loopback world of each
 * family: heartbeat silence after a wedge, watchdog hot-reset, and
 * buffer reclaim across quiesce/reset/reinit.
 */
class FamilyLifecycle : public ::testing::TestWithParam<const char *>
{
  protected:
    std::unique_ptr<scenario::World> w =
        scenario::worldFactory(GetParam(), mem::icxConfig(), 1)();
};

TEST_P(FamilyLifecycle, WatchdogDetectsWedgeAndRecovers)
{
    driver::Watchdog wd(w->simv, *w->nic);
    wd.start(sim::fromUs(400.0));

    bool failed = false;
    driver::FailureKind kind = driver::FailureKind::RingStall;
    wd.onFailure([&](driver::FailureKind k) {
        failed = true;
        kind = k;
    });

    w->simv.scheduleCallback(sim::fromUs(50.0),
                             [&] { w->nic->wedge(); });
    w->simv.run(sim::fromUs(400.0));

    EXPECT_TRUE(failed);
    EXPECT_EQ(kind, driver::FailureKind::MissedHeartbeat);
    EXPECT_GE(wd.stats().failures.value(), 1u);
    EXPECT_GE(wd.stats().recoveries.value(), 1u);
    EXPECT_GE(wd.recoveryLatency().count(), 1u);
    EXPECT_TRUE(w->nic->operational());
    EXPECT_FALSE(w->nic->wedged()); // reinit() clears the wedge.
}

/** Submit frames, freeze the device mid-flight, hot-reset, audit. */
sim::Task
txWedgeResetTask(scenario::World &w, std::uint32_t len, bool *done)
{
    driver::NicInterface &nic = *w.nic;
    driver::PacketBuf *bufs[16];
    const int got = co_await nic.allocBufs(0, len, bufs, 16);
    EXPECT_GT(got, 0); // ASSERT_* returns void; not usable in a coro.
    if (got == 0) {
        *done = true;
        co_return;
    }
    for (int i = 0; i < got; ++i) {
        bufs[i]->len = len;
        bufs[i]->dst = 0;
        bufs[i]->flowId = static_cast<std::uint64_t>(i);
    }
    const int tx = co_await nic.txBurst(0, bufs, got);
    // Anything the device rejected is still host-owned: hand it back.
    if (tx < got)
        co_await nic.freeBufs(0, bufs + tx, got - tx);

    // Freeze the device with descriptors outstanding, then run the
    // full recovery cycle. reset() must find and reclaim every
    // device-held buffer.
    nic.wedge();
    co_await w.simv.delay(sim::fromUs(5.0));
    EXPECT_GT(nic.pool().outstandingCount(driver::BufClass::Small) +
                  nic.pool().outstandingCount(driver::BufClass::Large),
              0u);
    co_await nic.quiesce();
    co_await nic.reset();
    co_await nic.reinit();
    *done = true;
    co_return;
}

/** Closed-loop round trips on queue 0; checks metadata survives. */
sim::Task
roundTripTask(driver::NicInterface &nic, sim::Simulator &simv,
              int rounds, int *completed)
{
    driver::PacketBuf *buf = nullptr;
    driver::PacketBuf *rx[8];
    // Prime the RX side first: a PCIe device drops an arrival that
    // finds no posted buffer, and its host posts blanks from rxBurst.
    EXPECT_EQ(co_await nic.rxBurst(0, rx, 8), 0);
    co_await simv.delay(sim::fromUs(10.0));
    for (int i = 0; i < rounds; ++i) {
        const int got = co_await nic.allocBufs(0, 64, &buf, 1);
        EXPECT_EQ(got, 1);
        if (got != 1)
            co_return;
        buf->len = 64;
        buf->flowId = 100u + static_cast<unsigned>(i);
        buf->userData = 5000u + static_cast<unsigned>(i);
        const int tx = co_await nic.txBurst(0, &buf, 1);
        EXPECT_EQ(tx, 1);
        if (tx != 1) {
            co_await nic.freeBufs(0, &buf, 1);
            co_return;
        }
        int n = 0;
        while (n == 0) {
            co_await nic.idleWait(0, simv.now() + sim::fromUs(50));
            n = co_await nic.rxBurst(0, rx, 8);
        }
        EXPECT_EQ(n, 1);
        EXPECT_EQ(rx[0]->len, 64u);
        EXPECT_EQ(rx[0]->flowId, 100u + static_cast<unsigned>(i));
        EXPECT_EQ(rx[0]->userData, 5000u + static_cast<unsigned>(i));
        co_await nic.freeBufs(0, rx, n);
        (*completed)++;
    }
    co_return;
}

TEST_P(FamilyLifecycle, ResetReclaimsOutstandingBuffers)
{
    // PIO carries small frames inline in its message slots; a
    // spill-sized frame makes the slots hold pool buffers.
    const bool pio = std::string(GetParam()).rfind("pio", 0) == 0;
    bool done = false;
    w->simv.spawn(txWedgeResetTask(*w, pio ? 1024 : 64, &done));
    w->simv.run(sim::fromUs(200.0));

    ASSERT_TRUE(done);
    EXPECT_EQ(w->nic->auditLeaks(), 0u); // allocated == freed.
    EXPECT_TRUE(w->nic->operational());
    for (int q = 0; q < w->nic->numQueues(); ++q)
        EXPECT_EQ(w->nic->health(q).txOutstanding, 0u);

    // The recovered device still moves traffic.
    int completed = 0;
    w->simv.spawn(roundTripTask(*w->nic, w->simv, 8, &completed));
    w->simv.run(w->simv.now() + sim::fromUs(300.0));
    EXPECT_EQ(completed, 8);
}

INSTANTIATE_TEST_SUITE_P(Families, FamilyLifecycle,
                         ::testing::ValuesIn(familyKeys()));

/** Two CC-NIC hosts with transport endpoints over a fabric. */
struct TransportWorld
{
    TransportWorld(std::uint64_t seed, const net::LinkConfig &link,
                   const TransportConfig &tp = {})
        : plat(mem::icxConfig()), memA(simv, plat), memB(simv, plat),
          rngA(seed), rngB(seed + 1)
    {
        auto cfg = ccnic::optimizedConfig(1, 0, plat);
        cfg.loopback = false;
        nicA = std::make_unique<ccnic::CcNic>(simv, memA, cfg, 0, 1,
                                              rngA);
        nicB = std::make_unique<ccnic::CcNic>(simv, memB, cfg, 0, 1,
                                              rngB);
        nicA->start();
        nicB->start();
        fabric = std::make_unique<net::Fabric>(simv);
        addrA = fabric->attach("hostA", net::hooksFor(*nicA), link);
        addrB = fabric->attach("hostB", net::hooksFor(*nicB), link);
        epA = std::make_unique<Endpoint>(simv, memA, *nicA, tp, "A");
        epB = std::make_unique<Endpoint>(simv, memB, *nicB, tp, "B");
    }

    mem::PlatformConfig plat;
    sim::Simulator simv;
    mem::CoherentSystem memA, memB;
    sim::Rng rngA, rngB;
    std::unique_ptr<ccnic::CcNic> nicA, nicB;
    std::unique_ptr<net::Fabric> fabric;
    std::uint32_t addrA = 0, addrB = 0;
    std::unique_ptr<Endpoint> epA, epB;
};

sim::Task
recvLoop(Connection *c, sim::Tick until,
         std::vector<std::uint64_t> *out)
{
    Segment seg;
    while (co_await c->recv(&seg, until))
        out->push_back(seg.userData);
    co_return;
}

sim::Task
pacedSendLoop(sim::Simulator &simv, Endpoint &ep, std::uint32_t dst,
              int n, sim::Tick gap, int *accepted)
{
    Connection *c = co_await ep.connect(dst, /*flow_id=*/7);
    if (c->state() != Connection::State::Open)
        co_return;
    for (int i = 0; i < n; ++i) {
        co_await simv.delay(gap);
        if (!co_await c->send(256, 1000u + static_cast<unsigned>(i)))
            co_return;
        if (accepted)
            (*accepted)++;
    }
    co_return;
}

TEST(Recovery, TransportSurvivesDeviceReset)
{
    net::LinkConfig link;
    link.gbps = 25.0;
    TransportWorld w(9, link);
    const sim::Tick until = sim::fromUs(600.0);

    std::vector<std::uint64_t> got;
    w.epB->onAccept([&](Connection *c) {
        w.simv.spawn(recvLoop(c, until, &got));
    });
    w.epA->start(until);
    w.epB->start(until);

    driver::Watchdog wd(w.simv, *w.nicA);
    wd.onFailure([&](driver::FailureKind) {
        w.epA->deviceResetBegin();
    });
    wd.onRecovered(
        [&](sim::Tick) { w.epA->deviceResetComplete(); });
    wd.start(until);

    const int n = 64;
    int accepted = 0;
    w.simv.spawn(pacedSendLoop(w.simv, *w.epA, w.addrB, n,
                               sim::fromUs(2.0), &accepted));
    // Wedge the sender's NIC mid-stream; the watchdog hot-resets it
    // and the transport resynchronizes from its SACK state.
    w.simv.scheduleCallback(sim::fromUs(70.0),
                            [&] { w.nicA->wedge(); });
    w.simv.run(until + sim::fromUs(10.0));

    EXPECT_GE(wd.stats().recoveries.value(), 1u);
    EXPECT_GE(w.epA->stats().deviceResets.value(), 1u);
    EXPECT_EQ(w.epA->stats().aborts.value(), 0u);

    // Every accepted segment arrives exactly once, in order: the
    // reset neither lost nor duplicated committed sends.
    ASSERT_EQ(accepted, n);
    ASSERT_EQ(got.size(), static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i)
        EXPECT_EQ(got[static_cast<std::size_t>(i)],
                  1000u + static_cast<unsigned>(i));
}

TEST(Recovery, ChaosKvRecoveryRun)
{
    const auto plat = mem::icxConfig();
    sim::Simulator simv;
    mem::CoherentSystem server_mem(simv, plat), client_mem(simv, plat);
    sim::Rng rng_s(3), rng_c(4);

    auto mk = [&](mem::CoherentSystem &m, int queues, sim::Rng &rng) {
        auto cfg = ccnic::optimizedConfig(queues, 0, plat);
        cfg.loopback = false;
        auto nic = std::make_unique<ccnic::CcNic>(simv, m, cfg, 0, 1,
                                                  rng);
        nic->start();
        return nic;
    };
    auto server_nic = mk(server_mem, 2, rng_s);
    auto client_nic = mk(client_mem, 1, rng_c);

    net::Fabric fabric(simv);
    net::LinkConfig link;
    link.gbps = 25.0;
    link.faults.dropRate = 0.01; // 1% random wire loss throughout.
    link.faults.seed = 77;
    const auto server_addr =
        fabric.attach("server", net::hooksFor(*server_nic), link);
    const auto client_addr =
        fabric.attach("client", net::hooksFor(*client_nic), link);

    workload::ClientServerConfig cfg;
    cfg.kv.serverThreads = 2;
    cfg.kv.numObjects = 1u << 12;
    cfg.offeredOps = 5e5;
    cfg.clientQueues = 1;
    cfg.window = sim::fromUs(400.0);
    cfg.drain = sim::fromUs(3000.0);
    cfg.tp.minRto = sim::fromUs(50.0); // Above this fabric's RTT p99.

    workload::ChaosConfig chaos; // 3 wedges, 2 flaps, 2 bursts.
    const auto r = workload::runKvClientServerChaos(
        simv, server_mem, *server_nic, client_mem, *client_nic,
        fabric, server_addr, client_addr, cfg, chaos);

    // The schedule really fired.
    EXPECT_EQ(r.wedgesInjected, 3u);
    EXPECT_EQ(r.flapsInjected, 2u);
    EXPECT_EQ(r.burstsInjected, 2u);

    // Every wedge was detected and hot-reset.
    EXPECT_GE(r.recoveries, 3u);
    EXPECT_GE(r.deviceResets, 3u);
    EXPECT_GT(r.recoveryP50Ns, 0.0);

    // Recovery invariants: no committed op lost or duplicated, no
    // buffer leaked, all rings alive at the end.
    EXPECT_GT(r.kv.requestsSent, 50u);
    EXPECT_EQ(r.kv.lostRequests, 0u);
    EXPECT_EQ(r.kv.duplicateResponses, 0u);
    EXPECT_EQ(r.kv.connAborts, 0u);
    EXPECT_EQ(r.leakedBufs, 0u);
    EXPECT_TRUE(r.ringsLive);
}

// The chaos acceptance run again, now with adaptive signal coalescing
// on both NICs. The recovery invariants must hold unchanged, and —
// the watchdog regression at fleet scale — no coalescing hold may be
// misread as a ring stall: every reset traces to an injected wedge,
// zero spurious.
TEST(Recovery, ChaosKvRecoveryRunWithBatching)
{
    const auto plat = mem::icxConfig();
    sim::Simulator simv;
    mem::CoherentSystem server_mem(simv, plat), client_mem(simv, plat);
    sim::Rng rng_s(3), rng_c(4);

    auto mk = [&](mem::CoherentSystem &m, int queues, sim::Rng &rng) {
        auto cfg = ccnic::optimizedConfig(queues, 0, plat);
        cfg.loopback = false;
        cfg.batch.mode = driver::BatchMode::Adaptive;
        cfg.batch.size = 8;
        auto nic = std::make_unique<ccnic::CcNic>(simv, m, cfg, 0, 1,
                                                  rng);
        nic->start();
        return nic;
    };
    auto server_nic = mk(server_mem, 2, rng_s);
    auto client_nic = mk(client_mem, 1, rng_c);

    net::Fabric fabric(simv);
    net::LinkConfig link;
    link.gbps = 25.0;
    link.faults.dropRate = 0.01;
    link.faults.seed = 77;
    const auto server_addr =
        fabric.attach("server", net::hooksFor(*server_nic), link);
    const auto client_addr =
        fabric.attach("client", net::hooksFor(*client_nic), link);

    workload::ClientServerConfig cfg;
    cfg.kv.serverThreads = 2;
    cfg.kv.numObjects = 1u << 12;
    cfg.offeredOps = 5e5;
    cfg.clientQueues = 1;
    cfg.window = sim::fromUs(400.0);
    cfg.drain = sim::fromUs(3000.0);
    cfg.tp.minRto = sim::fromUs(50.0);

    // Time-series sampler for the burst-decay regression below:
    // recovery problems must be visible as *rates*, not hide in
    // end-of-run totals.
    obs::Sampler sampler(simv, sim::fromUs(25.0));
    sampler.start();

    workload::ChaosConfig chaos; // 3 wedges, 2 flaps, 2 bursts.
    const auto r = workload::runKvClientServerChaos(
        simv, server_mem, *server_nic, client_mem, *client_nic,
        fabric, server_addr, client_addr, cfg, chaos);

    EXPECT_EQ(r.wedgesInjected, 3u);

    // Zero spurious resets: batching held descriptors back many times
    // during the run, and none of those holds was misread as a
    // failure — every recovery traces to an injected wedge. (A wedge
    // may legitimately be caught by either detector; what must never
    // happen is a fourth reset with no wedge behind it.)
    EXPECT_EQ(r.recoveries, r.wedgesInjected);
    EXPECT_EQ(r.deviceResets, r.recoveries);

    // Coalescing must not weaken any recovery invariant.
    EXPECT_GT(r.kv.requestsSent, 50u);
    EXPECT_EQ(r.kv.lostRequests, 0u);
    EXPECT_EQ(r.kv.duplicateResponses, 0u);
    EXPECT_EQ(r.kv.connAborts, 0u);
    EXPECT_EQ(r.leakedBufs, 0u);
    EXPECT_TRUE(r.ringsLive);

    // Burst decay: each chaos event produces a spike of per-interval
    // drops / retransmits, and with batching on those spikes must die
    // out — the final stretch of the run (several sampler intervals,
    // well inside the drain window) shows zero new drops or
    // retransmits. A recovery regression that kept retransmitting
    // would fail here even though the end totals above still balance.
    sim::Tick last_tick = 0;
    for (const auto &row : obs::Sampler::rows())
        if (row.run == sampler.runId())
            last_tick = std::max(last_tick, row.tick);
    ASSERT_GT(last_tick, 0u); // The sampler really ran.
    const sim::Tick decay_window = 8 * sampler.interval();
    for (const char *metric :
         {"transport.retransmits", "net.link.fault_drops"}) {
        sim::Tick last_spike = 0;
        std::uint64_t spikes = 0;
        for (const auto &row : obs::Sampler::rows()) {
            if (row.run != sampler.runId() || row.metric != metric ||
                row.delta == 0) {
                continue;
            }
            spikes++;
            last_spike = std::max(last_spike, row.tick);
        }
        // The chaos schedule really produced a spike to decay.
        EXPECT_GT(spikes, 0u) << metric;
        EXPECT_LE(last_spike + decay_window, last_tick)
            << metric << " still spiking at run end";
    }
}

// ---------------------------------------------------------------------
// Memory chaos: coherence-layer faults against the hardened datapath.
// ---------------------------------------------------------------------

/**
 * The seeded memory-chaos acceptance run, one per interface family:
 * poison, torn-visibility, stuck-line and brownout events land on the
 * client NIC's live datapath lines over clean links while the reliable
 * KV workload runs. The integrity machinery (generation+checksum
 * stamps, poison-aware retry, watchdog escalation) must absorb every
 * event with zero lost or duplicated operations and a clean leak
 * audit.
 */
class MemChaosFamily : public ::testing::TestWithParam<const char *>
{};

TEST_P(MemChaosFamily, ZeroLossUnderMemoryChaos)
{
    const std::string family = GetParam();
    const auto plat = mem::icxConfig();
    sim::Simulator simv;

    auto server = scenario::makeHost(simv, family, plat, 2, 3);
    auto client = scenario::makeHost(simv, family, plat, 1, 4);

    net::Fabric fabric(simv);
    net::LinkConfig link;
    link.gbps = 25.0;
    const auto server_addr =
        fabric.attach("server", scenario::hostHooks(*server), link);
    const auto client_addr =
        fabric.attach("client", scenario::hostHooks(*client), link);

    workload::ClientServerConfig cfg;
    cfg.kv.serverThreads = 2;
    cfg.kv.numObjects = 1u << 12;
    cfg.offeredOps = 5e5;
    cfg.clientQueues = 1;
    cfg.window = sim::fromUs(400.0);
    cfg.drain = sim::fromUs(3000.0);
    cfg.tp.minRto = sim::fromUs(50.0);

    workload::ChaosConfig chaos;
    chaos.nicWedges = 0; // Pure memory chaos.
    chaos.linkFlaps = 0;
    chaos.lossBursts = 0;
    chaos.poisons = 3;
    chaos.torns = 2;
    chaos.stuckLines = 1;
    chaos.brownouts = 2;

    const auto r = workload::runKvClientServerChaos(
        simv, server->system, *server->nic, client->system,
        *client->nic, fabric, server_addr, client_addr, cfg, chaos);

    // The schedule really fired every event class.
    EXPECT_EQ(r.poisonsInjected, 3u) << family;
    EXPECT_EQ(r.tornsInjected, 2u) << family;
    EXPECT_EQ(r.stucksInjected, 1u) << family;
    EXPECT_EQ(r.brownoutsInjected, 2u) << family;

    // The hardened datapath absorbed the poison with localized
    // retries rather than letting it escalate to permanent failure.
    EXPECT_GT(r.integrityRetries, 0u) << family;
    EXPECT_FALSE(r.deviceFailed) << family;

    // Exactly-once: no committed operation lost or duplicated, no
    // buffer leaked, all rings alive at the end.
    EXPECT_GT(r.kv.requestsSent, 50u) << family;
    EXPECT_EQ(r.kv.lostRequests, 0u) << family;
    EXPECT_EQ(r.kv.duplicateResponses, 0u) << family;
    EXPECT_EQ(r.kv.connAborts, 0u) << family;
    EXPECT_EQ(r.leakedBufs, 0u) << family;
    EXPECT_TRUE(r.ringsLive) << family;
}

INSTANTIATE_TEST_SUITE_P(Families, MemChaosFamily,
                         ::testing::Values("ccnic", "pcie_e810",
                                           "pio"));

/**
 * Reset-storm guard (escalation stage 3): a permanently wedged device
 * re-wedges after every hot-reset, so resets can never fix it. The
 * watchdog's reset budget must converge to a terminal fail-over —
 * bounded resets, device declared failed, every in-flight client op
 * resolved (no duplicates, no hang), and the leak audit clean.
 */
TEST(Recovery, ResetBudgetConvergesToFailoverOnWedgedDevice)
{
    const auto plat = mem::icxConfig();
    sim::Simulator simv;
    mem::CoherentSystem server_mem(simv, plat), client_mem(simv, plat);
    sim::Rng rng_s(3), rng_c(4);

    auto mk = [&](mem::CoherentSystem &m, int queues, sim::Rng &rng) {
        auto cfg = ccnic::optimizedConfig(queues, 0, plat);
        cfg.loopback = false;
        auto nic = std::make_unique<ccnic::CcNic>(simv, m, cfg, 0, 1,
                                                  rng);
        nic->start();
        return nic;
    };
    auto server_nic = mk(server_mem, 2, rng_s);
    auto client_nic = mk(client_mem, 1, rng_c);

    net::Fabric fabric(simv);
    net::LinkConfig link;
    link.gbps = 25.0;
    const auto server_addr =
        fabric.attach("server", net::hooksFor(*server_nic), link);
    const auto client_addr =
        fabric.attach("client", net::hooksFor(*client_nic), link);

    workload::ClientServerConfig cfg;
    cfg.kv.serverThreads = 2;
    cfg.kv.numObjects = 1u << 12;
    cfg.offeredOps = 5e5;
    cfg.clientQueues = 1;
    cfg.window = sim::fromUs(400.0);
    cfg.drain = sim::fromUs(3000.0);
    cfg.tp.minRto = sim::fromUs(50.0);

    workload::ChaosConfig chaos;
    chaos.nicWedges = 1; // One wedge; permanentWedge does the rest.
    chaos.linkFlaps = 0;
    chaos.lossBursts = 0;
    chaos.permanentWedge = true;

    driver::WatchdogConfig wd;
    wd.resetBudget = 2;
    wd.budgetWindow = sim::fromUs(2000.0);

    const auto r = workload::runKvClientServerChaos(
        simv, server_mem, *server_nic, client_mem, *client_nic,
        fabric, server_addr, client_addr, cfg, chaos, wd);

    // The storm was bounded by the budget, then went terminal.
    EXPECT_TRUE(r.deviceFailed);
    EXPECT_EQ(r.recoveries, 2u); // Exactly resetBudget hot-resets.

    // Every client op resolved: nothing duplicated, nothing leaked,
    // and the aborted connections surfaced the failure instead of
    // hanging (the run completing inside its horizon is itself the
    // convergence proof).
    EXPECT_GT(r.kv.requestsSent, 0u);
    EXPECT_EQ(r.kv.duplicateResponses, 0u);
    EXPECT_GE(r.kv.connAborts, 1u);
    EXPECT_EQ(r.leakedBufs, 0u);
}

} // namespace
