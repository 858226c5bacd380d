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

#include "apps/overlay.hh"
#include "mem/coherence.hh"

namespace ccn::apps {

/** TAS-lite configuration. */
struct TcpRpcConfig
{
    int fastPathThreads = 3;   ///< Fast-path (data plane) threads.
    double offeredOps = 120e6; ///< Offered beyond peak.
    sim::Tick window = sim::fromUs(200.0);
};

/**
 * Run the echo RPC service on @p nic (already started, loopback off)
 * behind the overlay harness (runOverlay), injecting into and sinking
 * from the NIC directly, and measure served throughput. One client
 * from Rng(21) offers cfg.offeredOps of 64-byte RPCs over 96 flows;
 * a flow's requests go to queue flow % queues.
 */
OverlayResult runTcpRpc(sim::Simulator &sim,
                        mem::CoherentSystem &mem_system,
                        driver::NicInterface &nic, WireModel &wire,
                        const TcpRpcConfig &cfg);

} // namespace ccn::apps

#endif // CCN_APPS_TCPRPC_HH
