/**
 * @file
 * Client-server KV store over the network fabric: throughput and RTT
 * versus link bandwidth. Unlike the loopback benches, both endpoints
 * here are complete hosts (own CoherentSystem + CC-NIC) joined by
 * modeled links and a switch, so the sweep exposes the transition from
 * application-bound to fabric-bound operation: at high bandwidth the
 * server's service rate limits throughput, while skinny links shift
 * the bottleneck to the server uplink, whose bounded egress queue
 * tail-drops response traffic instead of blocking the simulation.
 *
 * A second sweep runs the same workload over the reliable transport
 * with random loss injected on every link: goodput and RTT tails
 * degrade with the loss rate while the retransmission machinery keeps
 * the request stream complete (zero lost requests), and per-port drop
 * counters from the fabric quantify what the links actually ate.
 */

#include "bench/common.hh"
#include "net/fabric.hh"
#include "stats/json.hh"
#include "workload/chaos.hh"
#include "workload/clientserver.hh"

using namespace ccn;

namespace {

/**
 * The two hosts of every point, on the ICX model: a 4-queue server
 * (seed 11) and a 2-queue client (seed 12) of one interface family,
 * each attached to the fabric through @p link. The sampler starts
 * first, so each point records its own time-series rows.
 */
struct TwoHosts
{
    TwoHosts(const std::string &family, const net::LinkConfig &link)
        : sampler(simv)
    {
        sampler.start();
        server = scenario::makeHost(simv, family, plat, 4, 11);
        client = scenario::makeHost(simv, family, plat, 2, 12);
        serverAddr =
            fabric.attach("server", scenario::hostHooks(*server), link);
        clientAddr =
            fabric.attach("client", scenario::hostHooks(*client), link);
    }

    const mem::PlatformConfig plat = mem::icxConfig();
    sim::Simulator simv;
    obs::Sampler sampler;
    std::unique_ptr<scenario::HostWorld> server;
    std::unique_ptr<scenario::HostWorld> client;
    net::Fabric fabric{simv};
    std::uint32_t serverAddr = 0;
    std::uint32_t clientAddr = 0;
};

/** A clean 25 Gb/s link with a 128-packet queue. */
net::LinkConfig
link25()
{
    net::LinkConfig link;
    link.gbps = 25.0;
    link.queuePackets = 128;
    return link;
}

/** link25() with seeded random loss. */
net::LinkConfig
lossyLink(double loss_rate)
{
    net::LinkConfig link = link25();
    link.faults.dropRate = loss_rate;
    link.faults.seed = 99;
    return link;
}

/** The KV workload every point offers: 4 server threads, 2 client queues. */
workload::ClientServerConfig
kvConfig(double offered, double window_us)
{
    workload::ClientServerConfig cfg;
    cfg.kv.serverThreads = 4;
    cfg.kv.numObjects = 1u << 16;
    cfg.kv.sizes = workload::SizeDist::ads();
    cfg.offeredOps = offered;
    cfg.clientQueues = 2;
    cfg.window = sim::fromUs(window_us);
    return cfg;
}

struct FabricPoint
{
    workload::ClientServerResult r;
    net::PortCounters server, client;
};

FabricPoint
runPoint(double gbps, std::size_t queue_pkts, double offered)
{
    net::LinkConfig link;
    link.gbps = gbps;
    link.queuePackets = queue_pkts;
    TwoHosts h("ccnic", link);

    FabricPoint p;
    p.r = workload::runKvClientServer(
        h.simv, h.server->system, *h.server->nic, h.client->system,
        *h.client->nic, h.serverAddr, kvConfig(offered, 250.0));
    p.server = h.fabric.counters(h.serverAddr);
    p.client = h.fabric.counters(h.clientAddr);
    return p;
}

struct LossPoint
{
    workload::ReliableClientServerResult r;
    net::PortCounters server, client;
};

LossPoint
runLossPoint(double loss_rate, double offered)
{
    // The loss-free run's time-series rows feed the
    // "timeseries_lossfree" section the counters gate rate-checks
    // (retransmit deltas must stay zero without loss).
    TwoHosts h("ccnic", lossyLink(loss_rate));

    auto cfg = kvConfig(offered, 250.0);
    cfg.drain = sim::fromUs(2000.0); // Loss recovery needs headroom.
    // RTT p99 on this fabric reaches ~15-25 us under response bursts;
    // the default 10 us RTO floor (tuned for loopback RTTs) would fire
    // spuriously on a loss-free run.
    cfg.tp.minRto = sim::fromUs(50.0);

    LossPoint p;
    p.r = workload::runKvClientServerReliable(
        h.simv, h.server->system, *h.server->nic, h.client->system,
        *h.client->nic, h.serverAddr, cfg);
    p.server = h.fabric.counters(h.serverAddr);
    p.client = h.fabric.counters(h.clientAddr);
    return p;
}

/**
 * One seeded memory-chaos run for an interface family: coherence-layer
 * poison, torn-visibility, stuck-line and brownout events land on the
 * client NIC's live datapath lines while the reliable KV workload
 * runs. Links are clean — every anomaly comes from the memory system,
 * so lost/duplicated ops here would indict the integrity machinery,
 * not the wire.
 */
struct MemChaosPoint
{
    workload::ChaosKvResult c;
    double availabilityPct = 0; ///< responses / sent, percent.
};

MemChaosPoint
runMemChaosPoint(const std::string &family, double offered)
{
    TwoHosts h(family, link25());

    auto cfg = kvConfig(offered, 400.0);
    cfg.drain = sim::fromUs(3000.0); // Recovery needs headroom.
    cfg.tp.minRto = sim::fromUs(50.0);

    workload::ChaosConfig chaos;
    chaos.seed = 0xc4a05ULL;
    chaos.nicWedges = 0; // Pure memory chaos: no wedges/flaps/loss.
    chaos.linkFlaps = 0;
    chaos.lossBursts = 0;
    chaos.poisons = 3;
    chaos.torns = 2;
    chaos.stuckLines = 1;
    chaos.brownouts = 2;

    MemChaosPoint p;
    p.c = workload::runKvClientServerChaos(
        h.simv, h.server->system, *h.server->nic, h.client->system,
        *h.client->nic, h.fabric, h.serverAddr, h.clientAddr, cfg, chaos);
    if (p.c.kv.requestsSent > 0) {
        p.availabilityPct =
            100.0 * static_cast<double>(p.c.kv.responses) /
            static_cast<double>(p.c.kv.requestsSent);
    }
    return p;
}

/** One seeded chaos run: wedges + flaps + loss on 25 Gb/s links. */
workload::ChaosKvResult
runChaosPoint(double loss_rate, double offered)
{
    TwoHosts h("ccnic", lossyLink(loss_rate));

    auto cfg = kvConfig(offered, 400.0);
    cfg.drain = sim::fromUs(3000.0); // Recovery + loss need headroom.
    cfg.tp.minRto = sim::fromUs(50.0); // Same floor as the loss sweep.

    workload::ChaosConfig chaos;
    chaos.seed = 0xc4a05ULL;
    return workload::runKvClientServerChaos(
        h.simv, h.server->system, *h.server->nic, h.client->system,
        *h.client->nic, h.fabric, h.serverAddr, h.clientAddr, cfg, chaos);
}

} // namespace

int
main(int argc, char **argv)
{
    const auto opts = bench::BenchOptions::parse(argc, argv);

    // The loss-free reliable point runs first: its counter snapshot
    // ("counters_lossfree") feeds tools/counters_gate.py and must not
    // include retransmissions provoked by the lossy sweeps below. The
    // same isolation applies to its time-series rows.
    obs::Sampler::clearRows();
    const auto base = runLossPoint(0.0, 1e6);
    const auto counters_lossfree = obs::Registry::global().snapshot();
    const auto timeseries_lossfree = obs::Sampler::table();

    stats::banner("Fabric KV store: client-server throughput vs link "
                  "bandwidth (ICX, 4 server threads)");
    stats::Table t({"link_gbps", "offered_Mops", "served_Mops",
                    "gbps_to_client", "rtt_p50_ns", "rtt_p99_ns",
                    "uplink_drops", "note"});
    for (const double gbps : {2.5, 5.0, 10.0, 25.0, 50.0, 100.0}) {
        const auto p = runPoint(gbps, 128, 2e6);
        const std::uint64_t drops =
            p.server.txDrops + p.server.rxDrops + p.client.txDrops +
            p.client.rxDrops;
        t.row().cell(gbps, 1).cell(p.r.offeredMops, 2)
            .cell(p.r.achievedMops, 2).cell(p.r.gbpsIn, 1)
            .cell(p.r.rttP50Ns, 0).cell(p.r.rttP99Ns, 0).cell(drops)
            .cell(drops ? "fabric-bound (tail drops)"
                        : "application-bound");
    }
    t.print();

    stats::banner("Reliable transport: goodput and RTT vs injected "
                  "loss (25 Gb/s links)");
    stats::Table lt({"loss_rate", "goodput_Mops", "gbps_to_client",
                     "rtt_p50_ns", "rtt_p99_ns", "retransmits",
                     "lost_requests", "srv_port_drops",
                     "cli_port_drops", "srv_tail_drops",
                     "cli_tail_drops"});
    const auto lossRow = [&lt](double loss, const LossPoint &p) {
        lt.row().cell(loss, 3).cell(p.r.achievedMops, 2)
            .cell(p.r.gbpsIn, 2).cell(p.r.rttP50Ns, 0)
            .cell(p.r.rttP99Ns, 0).cell(p.r.retransmits)
            .cell(p.r.lostRequests)
            .cell(p.server.faultDrops + p.server.downDrops)
            .cell(p.client.faultDrops + p.client.downDrops)
            .cell(p.server.txDrops + p.server.rxDrops)
            .cell(p.client.txDrops + p.client.rxDrops);
    };
    lossRow(0.0, base);
    for (const double loss : {0.001, 0.005, 0.01, 0.02, 0.05})
        lossRow(loss, runLossPoint(loss, 1e6));
    lt.print();

    stats::banner("Chaos mode: NIC wedges + link flaps + loss bursts "
                  "under 1% wire loss (seeded)");
    const auto c = runChaosPoint(0.01, 1e6);
    stats::Table ct({"wedges", "flaps", "bursts", "recoveries",
                     "device_resets", "recovery_p50_ns",
                     "recovery_p99_ns", "recovery_max_ns",
                     "dup_responses", "lost_requests", "leaked_bufs",
                     "rings_live"});
    ct.row().cell(c.wedgesInjected).cell(c.flapsInjected)
        .cell(c.burstsInjected).cell(c.recoveries)
        .cell(c.deviceResets).cell(c.recoveryP50Ns, 0)
        .cell(c.recoveryP99Ns, 0).cell(c.recoveryMaxNs, 0)
        .cell(c.kv.duplicateResponses).cell(c.kv.lostRequests)
        .cell(c.leakedBufs).cell(c.ringsLive ? 1 : 0);
    ct.print();

    stats::banner("Memory-chaos mode: coherence-layer poison/torn/"
                  "stuck/brownout per interface family (seeded, clean "
                  "links)");
    stats::Table mt({"interface", "poisons", "torns", "stuck", "brownouts",
                     "integrity_retries", "integrity_faults",
                     "recoveries", "recovery_p50_ns", "recovery_p99_ns",
                     "lost_requests", "dup_responses",
                     "availability_pct", "leaked_bufs", "rings_live"});
    for (const char *family : {"ccnic", "pcie_e810", "pio"}) {
        const auto mp = runMemChaosPoint(family, 1e6);
        mt.row().cell(scenario::familyLabel(family))
            .cell(mp.c.poisonsInjected).cell(mp.c.tornsInjected)
            .cell(mp.c.stucksInjected).cell(mp.c.brownoutsInjected)
            .cell(mp.c.integrityRetries).cell(mp.c.integrityFaults)
            .cell(mp.c.recoveries).cell(mp.c.recoveryP50Ns, 0)
            .cell(mp.c.recoveryP99Ns, 0).cell(mp.c.kv.lostRequests)
            .cell(mp.c.kv.duplicateResponses)
            .cell(mp.availabilityPct, 2).cell(mp.c.leakedBufs)
            .cell(mp.c.ringsLive ? 1 : 0);
    }
    mt.print();

    stats::JsonReport json("fabric_kvstore");
    json.add("throughput_vs_bandwidth", t);
    json.add("goodput_vs_loss", lt);
    json.add("chaos_recovery", ct);
    json.add("mem_chaos", mt);
    json.add("counters_lossfree", counters_lossfree);
    json.add("timeseries_lossfree", timeseries_lossfree);
    ccn::bench::addObsSections(json);
    json.write();
    opts.finish();
    return 0;
}
