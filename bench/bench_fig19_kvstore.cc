/**
 * @file
 * Figure 19 reproduction: key-value store throughput versus
 * application thread count for the Ads and Geo object distributions,
 * comparing the CC-NIC (overlay), unoptimized UPI, and direct PCIe
 * (CX6) interfaces. The wire model caps packet and byte rates at the
 * CX6's 2x100GbE envelope, as in the paper's overlay methodology.
 */

#include "bench/common.hh"
#include "stats/json.hh"

using namespace ccn;
using namespace ccn::bench;

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
                .cell(kvPeakMops("ccnic", threads, d), 1)
                .cell(kvPeakMops("upi_unopt", threads, d), 1)
                .cell(kvPeakMops("pcie_cx6", threads, d), 1)
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
