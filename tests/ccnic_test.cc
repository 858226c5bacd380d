/**
 * @file
 * Integration tests for the CC-NIC interface: loopback correctness,
 * latency/throughput sanity on both platform models, the unoptimized
 * baseline's relative behaviour, and the design-feature toggles.
 */

#include <gtest/gtest.h>

#include "ccnic/ccnic.hh"
#include "mem/platform.hh"
#include "obs/span.hh"
#include "workload/loopback.hh"

namespace {

using namespace ccn;

struct World
{
    explicit World(const mem::PlatformConfig &plat,
                   const ccnic::CcNicConfig &cfg)
        : system(simv, plat), rng(7),
          nic(simv, system, cfg, /*host=*/0, /*nic=*/1, rng)
    {
        nic.start();
    }

    sim::Simulator simv;
    mem::CoherentSystem system;
    sim::Rng rng;
    ccnic::CcNic nic;
};

TEST(CcNicWire, FcsOfFixedPacketIsPinned)
{
    // Wire stamps of a fixed packet must not drift across CRC rewrites.
    ccnic::WirePacket pkt;
    pkt.len = 1500;
    pkt.flowId = 0x1122334455667788ull;
    pkt.userData = 0x99aabbccddeeff00ull;
    pkt.segments = 2;
    pkt.dst = 42;
    pkt.tp.srcConn = 3;
    pkt.tp.dstConn = 5;
    pkt.tp.seq = 1000;
    pkt.tp.ack = 999;
    pkt.tp.sack = 0xf0f0;
    pkt.tp.credits = 64;
    pkt.tp.flags = 0x11;
    EXPECT_EQ(ccnic::wireFcs(pkt), 0x381dada6u);
    EXPECT_TRUE(ccnic::fcsOk(pkt));
    pkt.fcs = ccnic::wireFcs(pkt);
    EXPECT_TRUE(ccnic::fcsOk(pkt));
    pkt.tp.seq ^= 1;
    EXPECT_FALSE(ccnic::fcsOk(pkt));
}

TEST(CcNicLoopback, ClosedLoopDeliversEveryPacket)
{
    World w(mem::icxConfig(), ccnic::optimizedConfig(1, 0));
    workload::LoopbackConfig cfg;
    cfg.threads = 1;
    cfg.closedWindow = 1;
    cfg.window = sim::fromUs(300.0);
    auto r = workload::runLoopback(w.simv, w.system, w.nic, cfg);
    EXPECT_GT(r.rxPackets, 100u);
    EXPECT_EQ(r.txDrops, 0u);
    // Singleton loopback latency: sub-microsecond on ICX (paper: 490ns
    // minimum; our model is within ~40%).
    EXPECT_LT(r.minNs, 900.0);
    EXPECT_GT(r.minNs, 300.0);
}

TEST(CcNicLoopback, OpenLoopThroughputScalesWithLoad)
{
    double low, high;
    {
        World w(mem::icxConfig(), ccnic::optimizedConfig(1, 0));
        workload::LoopbackConfig cfg;
        cfg.offeredPps = 1e6;
        auto r = workload::runLoopback(w.simv, w.system, w.nic, cfg);
        low = r.achievedMpps;
        EXPECT_NEAR(r.achievedMpps, 1.0, 0.25);
    }
    {
        World w(mem::icxConfig(), ccnic::optimizedConfig(1, 0));
        workload::LoopbackConfig cfg;
        cfg.offeredPps = 8e6;
        auto r = workload::runLoopback(w.simv, w.system, w.nic, cfg);
        high = r.achievedMpps;
        EXPECT_NEAR(r.achievedMpps, 8.0, 2.0);
    }
    EXPECT_GT(high, low * 4);
}

TEST(CcNicLoopback, SingleCorePeakRateIsTensOfMpps)
{
    // Paper §5.3: ~20-30Mpps per core at 64B on ICX (330Mpps / 14-16
    // cores).
    World w(mem::icxConfig(), ccnic::optimizedConfig(1, 0));
    workload::LoopbackConfig cfg;
    cfg.offeredPps = 100e6; // Far beyond one core.
    auto r = workload::runLoopback(w.simv, w.system, w.nic, cfg);
    EXPECT_GT(r.achievedMpps, 10.0);
    EXPECT_LT(r.achievedMpps, 45.0);
}

TEST(CcNicLoopback, UnoptimizedBaselineIsSlowerAndHigherLatency)
{
    workload::LoopbackConfig probe;
    probe.closedWindow = 1;
    probe.window = sim::fromUs(300.0);

    double opt_min, unopt_min;
    {
        World w(mem::icxConfig(), ccnic::optimizedConfig(1, 0));
        opt_min =
            workload::runLoopback(w.simv, w.system, w.nic, probe).minNs;
    }
    {
        World w(mem::icxConfig(), ccnic::unoptimizedConfig(1, 0));
        unopt_min =
            workload::runLoopback(w.simv, w.system, w.nic, probe).minNs;
    }
    // Paper §5.2: unopt has 2.1x higher minimum latency than CC-NIC.
    EXPECT_GT(unopt_min, opt_min * 1.5);
    EXPECT_LT(unopt_min, opt_min * 3.5);

    // Throughput: unopt shows 79% lower throughput (§5.2); require at
    // least a 2x gap per core.
    double opt_pps, unopt_pps;
    workload::LoopbackConfig load;
    load.offeredPps = 100e6;
    {
        World w(mem::icxConfig(), ccnic::optimizedConfig(1, 0));
        opt_pps =
            workload::runLoopback(w.simv, w.system, w.nic, load)
                .achievedMpps;
    }
    {
        World w(mem::icxConfig(), ccnic::unoptimizedConfig(1, 0));
        unopt_pps =
            workload::runLoopback(w.simv, w.system, w.nic, load)
                .achievedMpps;
    }
    EXPECT_GT(opt_pps, unopt_pps * 2.0);
}

TEST(CcNicLoopback, LargePacketsMoveRealBandwidth)
{
    World w(mem::sprConfig(), ccnic::optimizedConfig(1, 0));
    workload::LoopbackConfig cfg;
    cfg.pktSize = 1500;
    cfg.offeredPps = 4e6;
    auto r = workload::runLoopback(w.simv, w.system, w.nic, cfg);
    EXPECT_GT(r.gbps, 20.0);
}

TEST(CcNicFeatures, RegisterSignalingRaisesMinLatency)
{
    workload::LoopbackConfig probe;
    probe.closedWindow = 1;
    probe.window = sim::fromUs(300.0);
    double inline_min, reg_min;
    {
        World w(mem::sprConfig(), ccnic::optimizedConfig(1, 0));
        inline_min =
            workload::runLoopback(w.simv, w.system, w.nic, probe).minNs;
    }
    {
        auto cfg = ccnic::optimizedConfig(1, 0);
        cfg.signal = driver::SignalMode::Register;
        World w(mem::sprConfig(), cfg);
        reg_min =
            workload::runLoopback(w.simv, w.system, w.nic, probe).minNs;
    }
    // Figure 14a: inline signaling cuts minimum latency by ~37%.
    EXPECT_GT(reg_min, inline_min * 1.2);
}

TEST(CcNicFeatures, SharedPoolBeatsHostManagedBuffers)
{
    workload::LoopbackConfig load;
    load.offeredPps = 100e6;
    double shared_pps, hostmgd_pps;
    {
        World w(mem::sprConfig(), ccnic::optimizedConfig(1, 0));
        shared_pps =
            workload::runLoopback(w.simv, w.system, w.nic, load)
                .achievedMpps;
    }
    {
        auto cfg = ccnic::optimizedConfig(1, 0);
        cfg.nicBufferMgmt = false;
        cfg.pool.sharedAccess = false;
        World w(mem::sprConfig(), cfg);
        hostmgd_pps =
            workload::runLoopback(w.simv, w.system, w.nic, load)
                .achievedMpps;
    }
    // Figure 15: removing NIC buffer management costs throughput.
    EXPECT_GT(shared_pps, hostmgd_pps * 1.1);
}

TEST(CcNicLoopback, MultiQueueScalesThroughput)
{
    double one, four;
    workload::LoopbackConfig load;
    load.offeredPps = 200e6;
    {
        World w(mem::icxConfig(), ccnic::optimizedConfig(1, 0));
        load.threads = 1;
        one = workload::runLoopback(w.simv, w.system, w.nic, load)
                  .achievedMpps;
    }
    {
        World w(mem::icxConfig(), ccnic::optimizedConfig(4, 0));
        load.threads = 4;
        four = workload::runLoopback(w.simv, w.system, w.nic, load)
                   .achievedMpps;
    }
    EXPECT_GT(four, one * 2.5);
}

// Regression: a non-power-of-two ringEntries used to flow straight
// into DescRing's mask arithmetic, aliasing slots. The CcNic ctor now
// normalizes the configured size; the effective value is visible in
// config().
TEST(CcNicConfig, NonPowerOfTwoRingEntriesIsNormalized)
{
    ccnic::CcNicConfig cfg = ccnic::optimizedConfig(1, 0);
    cfg.ringEntries = 100;
    World w(mem::icxConfig(), cfg);
    EXPECT_EQ(w.nic.config().ringEntries, 128u);

    // The normalized ring still moves traffic correctly.
    workload::LoopbackConfig load;
    load.threads = 1;
    load.closedWindow = 1;
    load.window = sim::fromUs(100.0);
    auto r = workload::runLoopback(w.simv, w.system, w.nic, load);
    EXPECT_GT(r.rxPackets, 50u);
    EXPECT_EQ(r.txDrops, 0u);
}

// The signal-read/write telemetry moves with traffic: a loopback run
// must publish TX signals and poll ring signal lines.
TEST(CcNicTelemetry, SignalCountersMoveWithTraffic)
{
    // Drop contributions retired by earlier tests' worlds so the
    // registry total can be compared against this instance alone.
    obs::Registry::global().reset();
    World w(mem::icxConfig(), ccnic::optimizedConfig(1, 0));
    workload::LoopbackConfig cfg;
    cfg.threads = 1;
    cfg.closedWindow = 4;
    cfg.window = sim::fromUs(100.0);
    auto r = workload::runLoopback(w.simv, w.system, w.nic, cfg);
    ASSERT_GT(r.rxPackets, 0u);
    EXPECT_GT(w.nic.signalWrites(), 0u);
    EXPECT_GT(w.nic.signalReads(), 0u);
    EXPECT_EQ(obs::Registry::global().value("ccnic.signal_writes"),
              w.nic.signalWrites());
}

// Lifecycle spans on a loss-free loopback: sampling every packet, the
// per-stage histograms must telescope exactly — the sum of the six
// adjacent-stage latencies of every committed span equals its
// host-to-host latency, so the histogram sums match to the tick.
TEST(CcNicTelemetry, LossFreeSpanStageSumsMatchEndToEnd)
{
    obs::SpanTable &st = obs::SpanTable::global();
    st.reset();
    st.setSampleEvery(1);

    World w(mem::icxConfig(), ccnic::optimizedConfig(1, 0));
    workload::LoopbackConfig cfg;
    cfg.threads = 1;
    cfg.closedWindow = 1;
    cfg.window = sim::fromUs(300.0);
    auto r = workload::runLoopback(w.simv, w.system, w.nic, cfg);
    ASSERT_GT(r.rxPackets, 100u);

    EXPECT_GT(st.committed(), 0u);
    EXPECT_EQ(st.incomplete(), 0u);
    const stats::Histogram *e2e = st.endToEnd("ccnic");
    ASSERT_NE(e2e, nullptr);
    EXPECT_EQ(e2e->count(), st.committed());

    std::uint64_t stage_sum = 0;
    for (std::size_t i = 0; i + 1 < obs::kSpanStages; ++i) {
        const stats::Histogram *h = st.stageHist("ccnic", i);
        ASSERT_NE(h, nullptr);
        EXPECT_EQ(h->count(), e2e->count());
        stage_sum += h->sum();
    }
    EXPECT_EQ(stage_sum, e2e->sum());

    st.setSampleEvery(16);
    st.reset();
}

} // namespace
