/**
 * @file
 * Table 2 reproduction: peak throughput and the thread count needed to
 * reach >=95% of peak, for the KV store (Ads, Geo) and the TAS-lite
 * TCP echo RPC service, comparing CC-NIC (overlay) and direct PCIe
 * (CX6) interfaces.
 */

#include "apps/tcprpc.hh"
#include "bench/common.hh"
#include "stats/json.hh"

using namespace ccn;
using namespace ccn::bench;

namespace {

/** Peak of @p run over @p counts, and the first count within 5% of it. */
template <typename RunFn>
std::pair<double, int>
peakAndThreads(const std::vector<int> &counts, RunFn run)
{
    double peak = 0;
    std::vector<double> at(counts.size());
    for (std::size_t i = 0; i < counts.size(); ++i) {
        at[i] = run(counts[i]);
        peak = std::max(peak, at[i]);
    }
    for (std::size_t i = 0; i < counts.size(); ++i) {
        if (at[i] >= 0.95 * peak)
            return {peak, counts[i]};
    }
    return {peak, counts.back()};
}

double
runRpcAt(const char *key, int threads, double offered)
{
    auto w = worldFactory(key, mem::icxConfig(), threads, false)();
    // The CX6 caps 64B echo RPCs below its raw packet rate (TAS's
    // measured ceiling, §5.7).
    apps::WireModel wire(w->simv, 66e6, 25e9);
    apps::TcpRpcConfig cfg;
    cfg.fastPathThreads = threads;
    cfg.offeredOps = offered;
    cfg.window = sim::fromUs(150.0);
    return apps::runTcpRpc(w->simv, w->system, *w->nic, wire, cfg)
        .mopsPerSec;
}

double
runRpc(const char *key, int threads)
{
    double best = 0;
    for (double per_thread : {8e6, 12e6, 17e6}) {
        const double offered =
            std::min(70e6, per_thread * threads + 2e6);
        best = std::max(best, runRpcAt(key, threads, offered));
    }
    return best;
}

} // namespace

int
main()
{
    stats::JsonReport json("table2_applications");
    stats::banner("Table 2: application peak Mops and threads to "
                  "reach >=95% of peak");
    stats::Table t({"workload", "PCIe_Mops", "CC-NIC_Mops",
                    "PCIe_threads", "CC-NIC_threads", "paper"});
    const std::vector<int> kv_counts = {2, 4, 8, 12, 16};
    const std::vector<int> rpc_counts = {1, 2, 3, 4, 5, 6, 8};

    for (const char *dist : {"ads", "geo"}) {
        const auto d = std::string(dist) == "ads"
                           ? workload::SizeDist::ads()
                           : workload::SizeDist::geo();
        auto kv = [&](const char *key) {
            return peakAndThreads(kv_counts, [&](int n) {
                return kvPeakMops(key, n, d);
            });
        };
        const auto [p_peak, p_thr] = kv("pcie_cx6");
        const auto [c_peak, c_thr] = kv("ccnic");
        t.row().cell(std::string("KV store (") + dist + ")")
            .cell(p_peak, 1).cell(c_peak, 1).cell(p_thr).cell(c_thr)
            .cell(std::string(dist) == "ads"
                      ? "37.0 / 42.3 Mops; 16 -> 8 threads"
                      : "17.8 / 17.9 Mops; 8 -> 4 threads");
    }

    auto rpc = [&](const char *key) {
        return peakAndThreads(rpc_counts,
                              [&](int n) { return runRpc(key, n); });
    };
    const auto [rpc_p_peak, rpc_p_thr] = rpc("pcie_cx6");
    const auto [rpc_c_peak, rpc_c_thr] = rpc("ccnic");
    t.row().cell("TCP echo RPC").cell(rpc_p_peak, 1)
        .cell(rpc_c_peak, 1).cell(rpc_p_thr).cell(rpc_c_thr)
        .cell("58.3 / 64.6 Mops; 5 -> 3 threads");
    t.print();
    json.add("applications", t);
    ccn::bench::addObsSections(json);
    json.write();
    return 0;
}
