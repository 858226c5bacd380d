/**
 * @file
 * Figure 12 reproduction: loopback peak rate, minimum latency, and
 * latency under 80% load for CC-NIC and CX6 on ICX across core counts
 * and packet sizes, with the §5.3 summary metrics.
 */

#include "bench/common.hh"
#include "stats/json.hh"

using namespace ccn;
using namespace ccn::bench;

int
main()
{
    stats::JsonReport json("fig12_loopback_icx");
    auto icx = mem::icxConfig();
    stats::banner("Figure 12: loopback vs core count, ICX");
    stats::Table t({"series", "pkt", "cores", "peak_Mpps", "Gbps",
                    "min_ns", "lat80_ns"});
    for (std::uint32_t pkt : {64u, 1500u}) {
        for (int cores : {1, 2, 4, 8, 16}) {
            const auto mk = worldFactory("ccnic", icx, cores);
            workload::LoopbackConfig cfg;
            cfg.threads = cores;
            cfg.pktSize = pkt;
            const double guess =
                (pkt == 64 ? 23e6 : 1.8e6) * cores;
            auto peak = findPeak(mk, cfg, guess);
            t.row().cell("CC-NIC").cell(static_cast<std::uint64_t>(pkt))
                .cell(cores).cell(peak.achievedMpps, 1)
                .cell(peak.gbps, 1)
                .cell(minLatencyNs(mk, pkt), 0)
                .cell(latencyAtLoadNs(mk, cfg,
                                      peak.achievedMpps * 1e6, 0.8), 0);
        }
        for (int cores : {1, 4, 16}) {
            const auto mk = worldFactory("pcie_cx6", icx, cores);
            workload::LoopbackConfig cfg;
            cfg.threads = cores;
            cfg.pktSize = pkt;
            const double guess = (pkt == 64 ? 5.5e6 : 1.4e6) * cores;
            auto peak = findPeak(mk, cfg, guess);
            t.row().cell("CX6").cell(static_cast<std::uint64_t>(pkt))
                .cell(cores).cell(peak.achievedMpps, 1)
                .cell(peak.gbps, 1)
                .cell(minLatencyNs(mk, pkt), 0)
                .cell(latencyAtLoadNs(mk, cfg,
                                      peak.achievedMpps * 1e6, 0.8), 0);
        }
    }
    t.print();
    json.add("loopback_vs_cores", t);

    stats::banner("Sec 5.3 anchors (paper: CC-NIC min 490ns; 80% load "
                  "latency 88% below CX6; CX6 min 2116ns)");
    ccn::bench::addObsSections(json);
    json.write();
    return 0;
}
