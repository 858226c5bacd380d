/**
 * @file
 * Integration tests for the application layer: KV store correctness
 * and saturation behaviour, TAS-lite RPC scaling with fast-path
 * threads, and the wire model's caps.
 */

#include <gtest/gtest.h>

#include "apps/kvstore.hh"
#include "apps/tcprpc.hh"
#include "mem/platform.hh"
#include "nic/pcie_nic.hh"

namespace {

using namespace ccn;

struct CcWorld
{
    explicit CcWorld(int threads)
        : system(simv, mem::icxConfig()), rng(5)
    {
        auto cfg = ccnic::optimizedConfig(threads, 0, system.config());
        cfg.loopback = false;
        nic = std::make_unique<ccnic::CcNic>(simv, system, cfg, 0, 1,
                                             rng);
        nic->start();
    }

    sim::Simulator simv;
    mem::CoherentSystem system;
    sim::Rng rng;
    std::unique_ptr<ccnic::CcNic> nic;
};

sim::Task
sweepTask(driver::NicInterface &nic, bool *done)
{
    co_await nic.quiesce();
    co_await nic.reset();
    *done = true;
}

/** Runs the KV store, then checks a reset returns every buffer. */
apps::KvResult
runKv(CcWorld &w, apps::KvConfig cfg)
{
    apps::WireModel wire(w.simv, 76e6, 25e9);
    const apps::KvResult r = apps::runKvStore(
        w.simv, w.system, *w.nic,
        [&](int q, const ccnic::WirePacket &p) {
            w.nic->injectRx(q, p);
        },
        [&](std::function<void(int, const ccnic::WirePacket &)> s) {
            w.nic->setTxSink(std::move(s));
        },
        wire, cfg);
    bool swept = false;
    w.simv.spawn(sweepTask(*w.nic, &swept));
    w.simv.run(w.simv.now() + sim::fromUs(500.0));
    EXPECT_TRUE(swept);
    EXPECT_EQ(w.nic->auditLeaks(), 0u);
    return r;
}

TEST(KvStore, ServesRequestsUnderModestLoad)
{
    CcWorld w(2);
    apps::KvConfig cfg;
    cfg.serverThreads = 2;
    cfg.numObjects = 1u << 14;
    cfg.offeredOps = 4e6;
    cfg.window = sim::fromUs(200.0);
    auto r = runKv(w, cfg);
    // Offered 4Mops across the window; nearly all served.
    EXPECT_NEAR(r.mopsPerSec, 4.0, 1.0);
    EXPECT_GT(r.served, 300u);
}

TEST(KvStore, MoreThreadsServeMore)
{
    apps::KvConfig cfg;
    cfg.numObjects = 1u << 14;
    cfg.offeredOps = 60e6;
    cfg.window = sim::fromUs(150.0);
    double two, six;
    {
        CcWorld w(2);
        cfg.serverThreads = 2;
        two = runKv(w, cfg).mopsPerSec;
    }
    {
        CcWorld w(6);
        cfg.serverThreads = 6;
        six = runKv(w, cfg).mopsPerSec;
    }
    EXPECT_GT(six, two * 1.8);
}

TEST(KvStore, GeoMovesMoreBytesPerOp)
{
    apps::KvConfig cfg;
    cfg.numObjects = 1u << 14;
    cfg.offeredOps = 6e6;
    cfg.window = sim::fromUs(150.0);
    double ads_bpo, geo_bpo;
    {
        CcWorld w(4);
        cfg.serverThreads = 4;
        cfg.sizes = workload::SizeDist::ads();
        auto r = runKv(w, cfg);
        ads_bpo = r.gbpsOut / std::max(0.001, r.mopsPerSec);
    }
    {
        CcWorld w(4);
        cfg.serverThreads = 4;
        cfg.sizes = workload::SizeDist::geo();
        auto r = runKv(w, cfg);
        geo_bpo = r.gbpsOut / std::max(0.001, r.mopsPerSec);
    }
    EXPECT_GT(geo_bpo, ads_bpo * 2.0);
}

TEST(TcpRpc, FastPathThreadsScaleThroughput)
{
    auto run = [](int threads) {
        CcWorld w(threads);
        apps::WireModel wire(w.simv, 76e6, 25e9);
        apps::TcpRpcConfig cfg;
        cfg.fastPathThreads = threads;
        cfg.offeredOps = 80e6;
        cfg.window = sim::fromUs(150.0);
        return apps::runTcpRpc(w.simv, w.system, *w.nic, wire, cfg)
            .mopsPerSec;
    };
    const double one = run(1);
    const double three = run(3);
    EXPECT_GT(one, 2.0);
    EXPECT_GT(three, one * 1.8);
}

TEST(WireModel, CapsPacketAndByteRates)
{
    sim::Simulator simv;
    apps::WireModel wire(simv, 10e6, 1e9);
    // 1000 64B packets: pps-capped at 10M/s -> last exits ~100us.
    sim::Tick last = 0;
    for (int i = 0; i < 1000; ++i)
        last = wire.admit(64);
    EXPECT_NEAR(sim::toUs(last), 100.0, 12.0);
    // Large packets: byte-capped at 1GB/s.
    apps::WireModel wire2(simv, 1e9, 1e9);
    last = 0;
    for (int i = 0; i < 100; ++i)
        last = wire2.admit(10000);
    EXPECT_NEAR(sim::toUs(last), 1000.0, 100.0);
}

} // namespace
