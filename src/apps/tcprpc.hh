/**
 * @file
 * TAS-lite TCP echo RPC service (§5.7).
 *
 * Models the paper's TAS experiment: userspace TCP fast-path threads
 * handle the per-packet data plane (flow-state lookups plus protocol
 * processing) over the NIC interface, echoing 64B RPCs for a fixed
 * population of flows. The experiment measures how many fast-path
 * threads are needed to reach 95% of peak throughput for each NIC
 * interface; the TCP state machine itself is abstracted into its
 * per-packet cost (documented substitution in DESIGN.md).
 */

#ifndef CCN_APPS_TCPRPC_HH
#define CCN_APPS_TCPRPC_HH

#include <functional>

#include "apps/kvstore.hh" // WireModel.
#include "driver/nic_iface.hh"
#include "mem/coherence.hh"

namespace ccn::apps {

/** TAS-lite configuration. */
struct TcpRpcConfig
{
    int fastPathThreads = 3;   ///< Fast-path (data plane) threads.
    double offeredOps = 120e6; ///< Offered beyond peak.
    sim::Tick window = sim::fromUs(200.0);
    std::uint64_t seed = 21;
};

struct TcpRpcResult
{
    double mopsPerSec = 0;
    std::uint64_t served = 0;
};

/** Run the echo RPC service and measure served throughput. */
TcpRpcResult runTcpRpc(
    sim::Simulator &sim, mem::CoherentSystem &mem_system,
    driver::NicInterface &nic,
    std::function<void(int, const ccnic::WirePacket &)> inject,
    std::function<void(
        std::function<void(int, const ccnic::WirePacket &)>)>
        set_tx_sink,
    WireModel &wire, const TcpRpcConfig &cfg);

} // namespace ccn::apps

#endif // CCN_APPS_TCPRPC_HH
