/**
 * @file
 * Figure 19 reproduction: key-value store throughput versus
 * application thread count for the Ads and Geo object distributions,
 * comparing the CC-NIC (overlay), unoptimized UPI, and direct PCIe
 * (CX6) interfaces. The wire model caps packet and byte rates at the
 * CX6's 2x100GbE envelope, as in the paper's overlay methodology.
 */

#include "apps/kvstore.hh"
#include "bench/common.hh"
#include "stats/json.hh"

using namespace ccn;
using namespace ccn::bench;

namespace {

double
kvMopsAt(const char *kind, int threads, const workload::SizeDist &dist,
         double offered)
{
    auto icx = mem::icxConfig();
    std::unique_ptr<World> w;
    if (std::string(kind) == "pcie") {
        w = makePcieWorld(icx, nic::cx6Params(), threads);
    } else {
        auto cfg = std::string(kind) == "ccnic"
                       ? ccnic::optimizedConfig(threads, 0, icx)
                       : ccnic::unoptimizedConfig(threads, 0, icx);
        cfg.loopback = false;
        w = makeCcNicWorld(icx, cfg);
    }
    apps::WireModel wire(w->simv, 76e6, 25e9);
    apps::KvConfig cfg;
    cfg.serverThreads = threads;
    cfg.sizes = dist;
    cfg.numObjects = 1u << 18; // Scaled object count (same Zipf skew).
    cfg.offeredOps = offered;
    cfg.window = sim::fromUs(150.0);
    driver::NicInterface &nic = *w->nic;
    auto inject = [&](int q, const ccnic::WirePacket &p) {
        nic.injectRx(q, p);
    };
    auto set_sink =
        [&](std::function<void(int, const ccnic::WirePacket &)> s) {
            nic.setTxSink(std::move(s));
        };
    return apps::runKvStore(w->simv, w->system, nic, inject, set_sink,
                            wire, cfg)
        .mopsPerSec;
}

/** Peak of an offered-load sweep (the maximum sustainable rate). */
double
kvMops(const char *kind, int threads, const workload::SizeDist &dist)
{
    double best = 0;
    for (double per_thread : {5e6, 8e6, 12e6}) {
        const double offered =
            std::min(100e6, per_thread * threads + 2e6);
        best = std::max(best, kvMopsAt(kind, threads, dist, offered));
    }
    return best;
}

} // namespace

int
main()
{
    stats::JsonReport json("fig19_kvstore");
    stats::banner("Figure 19: KV store throughput vs thread count "
                  "(ICX, CX6-capped wire)");
    stats::Table t({"dist", "threads", "CC-NIC", "UPI-unopt", "PCIe",
                    "paper_anchor"});
    for (const char *dist : {"ads", "geo"}) {
        auto d = std::string(dist) == "ads"
                     ? workload::SizeDist::ads()
                     : workload::SizeDist::geo();
        for (int threads : {1, 2, 4, 8, 12, 16}) {
            t.row().cell(dist).cell(threads)
                .cell(kvMops("ccnic", threads, d), 1)
                .cell(kvMops("unopt", threads, d), 1)
                .cell(kvMops("pcie", threads, d), 1)
                .cell(std::string(dist) == "ads"
                          ? (threads == 8
                                 ? "paper: CC-NIC saturates (42.3M)"
                                 : (threads == 16
                                        ? "paper: PCIe saturates (37M)"
                                        : "-"))
                          : (threads == 4
                                 ? "paper: CC-NIC saturates (17.9M)"
                                 : (threads == 8
                                        ? "paper: PCIe saturates "
                                          "(17.8M)"
                                        : "-")));
        }
    }
    t.print();
    json.add("kv_throughput", t);
    ccn::bench::addObsSections(json);
    json.write();
    return 0;
}
