/**
 * @file
 * The §5.7 overlay method, written once for every application study.
 *
 * Open-loop clients sit on the far side of a rate-capped wire model
 * (the CX6's 2x100GbE stand-in) and inject requests into the server
 * NIC's RX queues; a response counts when it leaves that wire inside
 * the measurement window. The KV store (kvstore.hh) and the TCP echo
 * RPC service (tcprpc.hh) bring only their server threads and the way
 * they fill a request.
 */

#ifndef CCN_APPS_OVERLAY_HH
#define CCN_APPS_OVERLAY_HH

#include <algorithm>
#include <cstdint>
#include <functional>
#include <vector>

#include "driver/nic_iface.hh"
#include "sim/random.hh"
#include "sim/sync.hh"

namespace ccn::apps {

/** Rate-capped full-duplex wire (the CX6 2x100GbE stand-in). */
class WireModel
{
  public:
    WireModel(sim::Simulator &sim, double pps_cap, double bytes_per_sec)
        : pps(sim, pps_cap), bytes(sim, bytes_per_sec)
    {}

    /**
     * Admit one packet; returns its wire-exit time. Multi-segment
     * packets consume one descriptor/WQE slot per segment (§5.7: the
     * extbuf GET path stresses the NIC's descriptor rate).
     */
    sim::Tick
    admit(std::uint32_t len, std::uint32_t segments = 1)
    {
        const sim::Tick a = pps.reserve(segments);
        const sim::Tick b = bytes.reserve(len);
        return std::max(a, b);
    }

    sim::CalendarResource pps;
    sim::CalendarResource bytes;
};

/** Hands one frame to, or takes one from, NIC queue q. */
using FrameFn = std::function<void(int q, const driver::WirePacket &)>;

/**
 * Fills request @p n of one client from the client's @p rng (the
 * frame's len, flowId and userData) and returns its server queue.
 */
using RequestMaker = std::function<int(sim::Rng &rng, std::uint64_t n,
                                       driver::WirePacket &pkt)>;

/** What the server sent inside one overlay window. */
struct OverlayResult
{
    double mopsPerSec = 0;
    double gbpsOut = 0;
    std::uint64_t served = 0;
};

/**
 * Run one overlay measurement. The window opens after a 50 us warmup.
 * @p set_tx_sink installs a sink that passes each response through
 * @p wire (one slot per segment) and counts it, with its bytes, if it
 * leaves inside the window. @p start_servers spawns the server
 * threads, which stop at the window end it is given. Then one client
 * per seed in @p client_seeds offers an equal share of @p offered_ops
 * from Rng(seed): each request draws its Poisson gap, stops at the
 * window end, is filled by @p make_request, and reaches @p inject when
 * it leaves an inbound copy of @p wire that all clients share. The
 * simulation runs 20 us past the window end.
 */
OverlayResult runOverlay(
    sim::Simulator &sim, FrameFn inject,
    const std::function<void(FrameFn)> &set_tx_sink, WireModel &wire,
    sim::Tick window, const std::function<void(sim::Tick)> &start_servers,
    double offered_ops, const std::vector<std::uint64_t> &client_seeds,
    const RequestMaker &make_request);

/**
 * Send responses @p resp[0, @p nresp) on queue @p q, backing off
 * 200 ns while the TX ring is full; once @p until has passed, free
 * the unsent rest. Then free the @p nr requests @p reqs.
 */
sim::Coro<void> sendAndFree(sim::Simulator &sim,
                            driver::NicInterface &nic, int q,
                            driver::PacketBuf **resp, int nresp,
                            driver::PacketBuf **reqs, int nr,
                            sim::Tick until);

} // namespace ccn::apps

#endif // CCN_APPS_OVERLAY_HH
