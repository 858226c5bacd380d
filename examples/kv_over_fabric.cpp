/**
 * @file
 * Example: the KV store served across the network fabric. Two full
 * hosts — each with its own coherent memory system and CC-NIC — are
 * attached to a switch through bandwidth-limited links. The server
 * host runs the §5.7 KV application; the client host drives open-loop
 * requests through its own driver TX path and measures RTT end to
 * end. A second run squeezes the links to show tail-drop behaviour
 * under saturation: throughput degrades and drops are counted, but
 * nothing deadlocks. A third run rides the reliable transport across
 * lossy links (--loss-rate, --seed): random drops are injected on
 * every link and the retransmission machinery delivers every request
 * anyway.
 *
 * Usage: kv_over_fabric [--loss-rate R] [--seed N]
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>

#include "mem/platform.hh"
#include "net/fabric.hh"
#include "scenario/world.hh"
#include "workload/clientserver.hh"

using namespace ccn;

namespace {

void
runOnce(const char *label, double gbps, std::size_t queue_pkts,
        double offered_ops)
{
    const auto plat = mem::icxConfig();
    sim::Simulator simv;
    auto server = scenario::makeHost(simv, "ccnic", plat, /*queues=*/4,
                                     /*seed=*/5);
    auto client = scenario::makeHost(simv, "ccnic", plat, /*queues=*/2,
                                     /*seed=*/6);

    net::Fabric fabric(simv);
    net::LinkConfig link;
    link.gbps = gbps;
    link.propDelay = sim::fromNs(500.0);
    link.queuePackets = queue_pkts;
    const std::uint32_t server_addr =
        fabric.attach("server", scenario::hostHooks(*server), link);
    fabric.attach("client", scenario::hostHooks(*client), link);

    workload::ClientServerConfig cfg;
    cfg.kv.serverThreads = 4;
    cfg.kv.numObjects = 1u << 16;
    cfg.kv.sizes = workload::SizeDist::ads();
    cfg.offeredOps = offered_ops;
    cfg.clientQueues = 2;
    cfg.window = sim::fromUs(300.0);

    const auto r = workload::runKvClientServer(
        simv, server->system, *server->nic, client->system, *client->nic,
        server_addr, cfg);

    std::printf("\n[%s] %.0f Gbps links, %zu-packet queues, "
                "%.1f Mops offered:\n",
                label, gbps, queue_pkts, r.offeredMops);
    std::printf("  served %.2f Mops (%llu responses, %.1f Gbps into "
                "the client)\n",
                r.achievedMops,
                static_cast<unsigned long long>(r.responses), r.gbpsIn);
    std::printf("  RTT min/p50/p95/p99: %.0f / %.0f / %.0f / %.0f ns\n",
                r.rttMinNs, r.rttP50Ns, r.rttP95Ns, r.rttP99Ns);
    fabric.report(std::cout);
}

void
runReliable(double loss_rate, std::uint64_t seed, double offered_ops)
{
    const auto plat = mem::icxConfig();
    sim::Simulator simv;
    auto server = scenario::makeHost(simv, "ccnic", plat, /*queues=*/4,
                                     /*seed=*/5);
    auto client = scenario::makeHost(simv, "ccnic", plat, /*queues=*/2,
                                     /*seed=*/6);

    net::Fabric fabric(simv);
    net::LinkConfig link;
    link.gbps = 25.0;
    link.propDelay = sim::fromNs(500.0);
    link.queuePackets = 128;
    link.faults.dropRate = loss_rate;
    link.faults.seed = seed;
    const std::uint32_t server_addr =
        fabric.attach("server", scenario::hostHooks(*server), link);
    fabric.attach("client", scenario::hostHooks(*client), link);

    workload::ClientServerConfig cfg;
    cfg.kv.serverThreads = 4;
    cfg.kv.numObjects = 1u << 16;
    cfg.kv.sizes = workload::SizeDist::ads();
    cfg.offeredOps = offered_ops;
    cfg.clientQueues = 2;
    cfg.window = sim::fromUs(300.0);
    cfg.drain = sim::fromUs(2000.0);
    cfg.seed = seed;

    const auto r = workload::runKvClientServerReliable(
        simv, server->system, *server->nic, client->system, *client->nic,
        server_addr, cfg);

    std::printf("\n[reliable] %.2f%% loss on every link (seed %llu), "
                "%.1f Mops offered:\n",
                loss_rate * 100.0,
                static_cast<unsigned long long>(seed), r.offeredMops);
    std::printf("  goodput %.2f Mops (%llu/%llu responses, %.1f Gbps "
                "into the client)\n",
                r.achievedMops,
                static_cast<unsigned long long>(r.responses),
                static_cast<unsigned long long>(r.requestsSent),
                r.gbpsIn);
    std::printf("  lost requests %llu, retransmits %llu, timeouts "
                "%llu, window stalls %llu, aborts %llu\n",
                static_cast<unsigned long long>(r.lostRequests),
                static_cast<unsigned long long>(r.retransmits),
                static_cast<unsigned long long>(r.timeouts),
                static_cast<unsigned long long>(r.windowStalls),
                static_cast<unsigned long long>(r.connAborts));
    std::printf("  RTT min/p50/p95/p99: %.0f / %.0f / %.0f / %.0f ns\n",
                r.rttMinNs, r.rttP50Ns, r.rttP95Ns, r.rttP99Ns);
    fabric.report(std::cout);
}

} // namespace

int
main(int argc, char **argv)
{
    double loss_rate = 0.01;
    std::uint64_t seed = 7;
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        auto value = [&](const char *flag) -> const char * {
            const std::size_t n = std::strlen(flag);
            if (std::strncmp(arg, flag, n) != 0)
                return nullptr;
            if (arg[n] == '=')
                return arg + n + 1;
            if (arg[n] == '\0' && i + 1 < argc)
                return argv[++i];
            return nullptr;
        };
        if (const char *v = value("--loss-rate")) {
            loss_rate = std::atof(v);
        } else if (const char *v = value("--seed")) {
            seed = std::strtoull(v, nullptr, 10);
        } else {
            std::fprintf(stderr,
                         "usage: %s [--loss-rate R] [--seed N]\n",
                         argv[0]);
            return 2;
        }
    }

    // Healthy: 100GbE with deep queues; the application, not the
    // fabric, is the bottleneck.
    runOnce("healthy", 100.0, 256, 2e6);

    // Saturated: skinny 5Gbps links. Response traffic (zero-copy GET
    // payloads) overruns the server's uplink queue; the fabric
    // tail-drops and keeps running.
    runOnce("saturated", 5.0, 64, 2e6);

    // Reliable: the same workload over the transport, with every
    // link randomly dropping packets. Nothing is lost end to end.
    runReliable(loss_rate, seed, 1e6);
    return 0;
}
