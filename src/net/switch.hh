/**
 * @file
 * Output-queued Ethernet-style switch.
 *
 * Ports are egress Links (each with its own bounded queue, so
 * congestion on one port never blocks another). Forwarding uses a
 * static address/port table populated by bind(), augmented with
 * source-address learning on ingress. A packet whose destination is
 * unknown is dropped and counted rather than flooded, keeping
 * delivery deterministic. Forwarding charges a fixed cut-through
 * latency before the packet is offered to the egress port's queue.
 */

#ifndef CCN_NET_SWITCH_HH
#define CCN_NET_SWITCH_HH

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "net/link.hh"

namespace ccn::net {

/** Switch parameters. */
struct SwitchConfig
{
    sim::Tick forwardLat = sim::fromNs(300.0); ///< Cut-through latency.
    bool learning = true; ///< Learn src → ingress-port mappings.
};

/** Per-switch counters (registry-backed, "net.switch.*"). */
struct SwitchStats
{
    obs::Counter forwarded{
        "net.switch.forwarded"};    ///< Packets offered to an egress.
    obs::Counter unknownDrops{
        "net.switch.unknown_drops"}; ///< No forwarding-table match.
    obs::Counter reflectDrops{
        "net.switch.reflect_drops"}; ///< Dst resolved to ingress port.
};

/** A multi-port store-and-forward element. */
class Switch
{
  public:
    Switch(sim::Simulator &sim, const SwitchConfig &cfg = {})
        : sim_(sim), cfg_(cfg)
    {}

    /** Add a port whose egress is @p link. Returns the port number. */
    int
    addPort(Link *link)
    {
        ports_.push_back(link);
        return static_cast<int>(ports_.size()) - 1;
    }

    /** Statically map address @p addr to @p port. */
    void bind(std::uint32_t addr, int port) { table_[addr] = port; }

    /** Accept a packet arriving on @p in_port and forward it. */
    void ingress(int in_port, const WirePacket &pkt);

    const SwitchStats &stats() const { return stats_; }

  private:
    sim::Simulator &sim_;
    SwitchConfig cfg_;
    std::vector<Link *> ports_;
    std::unordered_map<std::uint32_t, int> table_;
    SwitchStats stats_;
};

} // namespace ccn::net

#endif // CCN_NET_SWITCH_HH
