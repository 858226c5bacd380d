/**
 * @file
 * Tests for the network fabric subsystem: link serialization and
 * tail-drop accounting, switch forwarding, RSS flow steering, and
 * deterministic end-to-end delivery between two full CC-NIC hosts.
 */

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <vector>

#include "ccnic/ccnic.hh"
#include "mem/platform.hh"
#include "net/fabric.hh"
#include "workload/clientserver.hh"

namespace {

using namespace ccn;
using ccnic::WirePacket;

WirePacket
makePkt(std::uint32_t len, std::uint64_t flow, std::uint32_t dst = 0)
{
    WirePacket p;
    p.len = len;
    p.flowId = flow;
    p.dst = dst;
    return p;
}

TEST(Link, DeliversInOrderWithSerializationAndPropagation)
{
    sim::Simulator simv;
    net::LinkConfig cfg;
    cfg.gbps = 10.0;
    cfg.propDelay = sim::fromNs(500.0);
    net::Link link(simv, cfg);

    std::vector<std::pair<sim::Tick, std::uint64_t>> arrivals;
    link.setSink([&](const WirePacket &p) {
        arrivals.emplace_back(simv.now(), p.flowId);
    });

    for (std::uint64_t i = 0; i < 10; ++i)
        EXPECT_TRUE(link.send(makePkt(1000, i)));
    simv.run();

    ASSERT_EQ(arrivals.size(), 10u);
    for (std::uint64_t i = 0; i < 10; ++i)
        EXPECT_EQ(arrivals[i].second, i); // FIFO.
    // First packet: (1000+24)B at 1.25GB/s = 819.2ns, +500ns prop.
    EXPECT_NEAR(sim::toNs(arrivals[0].first), 819.2 + 500.0, 1.0);
    // Back-to-back packets are spaced by serialization time.
    EXPECT_NEAR(sim::toNs(arrivals[1].first - arrivals[0].first), 819.2,
                1.0);
    EXPECT_EQ(link.stats().txPackets, 10u);
    EXPECT_EQ(link.stats().txBytes, 10000u);
    EXPECT_EQ(link.stats().drops, 0u);
}

TEST(Link, TailDropsWhenQueueSaturates)
{
    sim::Simulator simv;
    net::LinkConfig cfg;
    cfg.gbps = 1.0;
    cfg.queuePackets = 8;
    net::Link link(simv, cfg);

    std::uint64_t delivered = 0;
    link.setSink([&](const WirePacket &) { delivered++; });

    const std::uint64_t offered = 100;
    std::uint64_t accepted = 0;
    for (std::uint64_t i = 0; i < offered; ++i)
        accepted += link.send(makePkt(1500, i)) ? 1 : 0;
    simv.run();

    EXPECT_EQ(accepted, 8u);
    EXPECT_EQ(link.stats().drops, offered - accepted);
    EXPECT_EQ(link.stats().txPackets + link.stats().drops, offered);
    EXPECT_EQ(delivered, accepted);
    EXPECT_LE(link.stats().peakQueue, cfg.queuePackets);
    EXPECT_GT(link.stats().dropBytes, 0u);
}

TEST(Switch, ForwardsByTableAndDropsUnknown)
{
    sim::Simulator simv;
    net::Switch sw(simv);

    net::LinkConfig lcfg;
    net::Link out0(simv, lcfg), out1(simv, lcfg);
    std::vector<std::uint64_t> got0, got1;
    out0.setSink([&](const WirePacket &p) { got0.push_back(p.flowId); });
    out1.setSink([&](const WirePacket &p) { got1.push_back(p.flowId); });

    sw.addPort(&out0);
    sw.addPort(&out1);
    sw.bind(/*addr=*/10, /*port=*/0);
    sw.bind(/*addr=*/20, /*port=*/1);

    sw.ingress(0, makePkt(64, 1, /*dst=*/20)); // 0 -> 1.
    sw.ingress(1, makePkt(64, 2, /*dst=*/10)); // 1 -> 0.
    sw.ingress(0, makePkt(64, 3, /*dst=*/99)); // Unknown.
    sw.ingress(0, makePkt(64, 4, /*dst=*/10)); // Reflection.
    simv.run();

    EXPECT_EQ(got0, (std::vector<std::uint64_t>{2}));
    EXPECT_EQ(got1, (std::vector<std::uint64_t>{1}));
    EXPECT_EQ(sw.stats().forwarded, 2u);
    EXPECT_EQ(sw.stats().unknownDrops, 1u);
    EXPECT_EQ(sw.stats().reflectDrops, 1u);
}

TEST(Fabric, RssSteeringSpreadsFlowsAcrossRxQueues)
{
    sim::Simulator simv;
    net::Fabric fabric(simv);

    // Sender stub: we only need the TX sink the fabric installs.
    std::function<void(int, const WirePacket &)> sender_tx;
    net::NicPortHooks sender;
    sender.setTxSink =
        [&](std::function<void(int, const WirePacket &)> s) {
            sender_tx = std::move(s);
        };
    sender.injectRx = [](int, const WirePacket &) {};
    sender.numQueues = 1;

    // Receiver stub: record which queue each flow lands on.
    const int kQueues = 8;
    std::map<std::uint64_t, std::set<int>> flow_queues;
    std::vector<std::uint64_t> per_queue(kQueues, 0);
    net::NicPortHooks receiver;
    receiver.setTxSink =
        [](std::function<void(int, const WirePacket &)>) {};
    receiver.injectRx = [&](int q, const WirePacket &p) {
        flow_queues[p.flowId].insert(q);
        per_queue[static_cast<std::size_t>(q)]++;
    };
    receiver.numQueues = kQueues;

    fabric.attach("sender", std::move(sender));
    const std::uint32_t dst =
        fabric.attach("receiver", std::move(receiver));

    const int kFlows = 512;
    for (int f = 0; f < kFlows; ++f) {
        for (int rep = 0; rep < 3; ++rep) {
            sender_tx(0, makePkt(
                             64, static_cast<std::uint64_t>(f) * 7 + 1,
                             dst));
        }
    }
    simv.run();

    // Every packet of one flow lands on one queue.
    for (const auto &[flow, queues] : flow_queues)
        EXPECT_EQ(queues.size(), 1u) << "flow " << flow;
    // Distinct flows spread over every queue, roughly evenly.
    const double mean = 3.0 * kFlows / kQueues;
    for (int q = 0; q < kQueues; ++q) {
        EXPECT_GT(per_queue[static_cast<std::size_t>(q)], 0u);
        EXPECT_LT(static_cast<double>(
                      per_queue[static_cast<std::size_t>(q)]),
                  2.0 * mean);
    }
}

/** Two full CC-NIC hosts on a fabric; host A transmits to host B. */
struct TwoHostWorld
{
    explicit TwoHostWorld(std::uint64_t seed)
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
        addrA = fabric->attach("hostA", net::hooksFor(*nicA));
        addrB = fabric->attach("hostB", net::hooksFor(*nicB));
    }

    mem::PlatformConfig plat;
    sim::Simulator simv;
    mem::CoherentSystem memA, memB;
    sim::Rng rngA, rngB;
    std::unique_ptr<ccnic::CcNic> nicA, nicB;
    std::unique_ptr<net::Fabric> fabric;
    std::uint32_t addrA = 0, addrB = 0;
};

sim::Task
sendN(sim::Simulator &simv, mem::CoherentSystem &m, ccnic::CcNic &nic,
      std::uint32_t dst, int n)
{
    const mem::AgentId agent = nic.hostAgent(0);
    for (int i = 0; i < n; ++i) {
        driver::PacketBuf *buf = nullptr;
        while (co_await nic.allocBufs(0, 256, &buf, 1) != 1)
            co_await simv.delay(sim::fromNs(100.0));
        buf->len = 256;
        buf->txTime = simv.now();
        buf->flowId = static_cast<std::uint64_t>(i);
        buf->userData = static_cast<std::uint64_t>(i) + 1000;
        buf->dst = dst;
        buf->src = 0;
        std::vector<mem::CoherentSystem::Span> span{{buf->addr, 256}};
        co_await m.postMulti(agent, span, nullptr);
        while (co_await nic.txBurst(0, &buf, 1) != 1)
            co_await simv.delay(sim::fromNs(100.0));
    }
    co_return;
}

sim::Task
recvAll(sim::Simulator &simv, ccnic::CcNic &nic, sim::Tick until,
        std::vector<std::uint64_t> *order, std::uint32_t *src_seen)
{
    driver::PacketBuf *bufs[16];
    while (simv.now() < until) {
        const int nr = co_await nic.rxBurst(0, bufs, 16);
        if (nr == 0) {
            co_await nic.idleWait(0, until);
            continue;
        }
        for (int i = 0; i < nr; ++i) {
            order->push_back(bufs[i]->userData);
            *src_seen = bufs[i]->src;
        }
        co_await nic.freeBufs(0, bufs, nr);
    }
    co_return;
}

std::vector<std::uint64_t>
runTwoHost(std::uint64_t seed, std::uint32_t *src_seen)
{
    TwoHostWorld w(seed);
    std::vector<std::uint64_t> order;
    const sim::Tick until = sim::fromUs(200.0);
    w.simv.spawn(sendN(w.simv, w.memA, *w.nicA, w.addrB, 64));
    w.simv.spawn(recvAll(w.simv, *w.nicB, until, &order, src_seen));
    w.simv.run(sim::fromUs(250.0));

    // Per-port accounting covers the whole transfer.
    const auto a = w.fabric->counters(w.addrA);
    const auto b = w.fabric->counters(w.addrB);
    EXPECT_EQ(a.txPackets, 64u);
    EXPECT_EQ(a.txDrops, 0u);
    EXPECT_EQ(b.rxPackets, 64u);
    EXPECT_EQ(b.rxDrops, 0u);
    EXPECT_EQ(b.rxBytes, 64u * 256u);
    return order;
}

TEST(Fabric, TwoHostDeliveryIsCompleteOrderedAndDeterministic)
{
    std::uint32_t src1 = 0, src2 = 0;
    const auto run1 = runTwoHost(99, &src1);
    const auto run2 = runTwoHost(99, &src2);

    ASSERT_EQ(run1.size(), 64u);
    for (std::size_t i = 0; i < run1.size(); ++i)
        EXPECT_EQ(run1[i], i + 1000); // In-order delivery.
    EXPECT_EQ(run1, run2);            // Bit-identical across runs.
    // The fabric stamped the sender's address.
    EXPECT_EQ(src1, 1u);
    EXPECT_EQ(src1, src2);
}

TEST(Fabric, ClientServerKvSmokeTest)
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
    fabric.attach("client", net::hooksFor(*client_nic), link);

    workload::ClientServerConfig cfg;
    cfg.kv.serverThreads = 2;
    cfg.kv.numObjects = 1u << 12;
    cfg.offeredOps = 1e6;
    cfg.clientQueues = 1;
    cfg.window = sim::fromUs(150.0);

    const auto r = workload::runKvClientServer(
        simv, server_mem, *server_nic, client_mem, *client_nic,
        server_addr, cfg);

    EXPECT_GT(r.requestsSent, 50u);
    EXPECT_GT(r.responses, 50u);
    EXPECT_LE(r.responses, r.requestsSent);
    // RTT must include two fabric traversals (≥ 2x propagation).
    EXPECT_GT(r.rttMinNs, 1000.0);
    EXPECT_GE(r.rttP99Ns, r.rttP50Ns);
    EXPECT_GT(r.achievedMops, 0.1);
}

} // namespace
