/**
 * @file
 * Network fabric: multi-host topologies over switched links.
 *
 * A Fabric owns a Switch and, per attached NIC, a full-duplex pair of
 * Links (uplink NIC → switch, downlink switch → NIC). Attaching a NIC
 * assigns it a fabric address (a MAC stand-in), hooks its TX sink so
 * transmitted packets enter the uplink, and delivers switched packets
 * into the NIC's RX queues with RSS-style flow steering: the packet's
 * flowId is hashed onto one of the destination NIC's queues, so one
 * flow always lands on one queue while distinct flows spread across
 * all of them.
 *
 * NICs are attached through type-erased hooks (NicPortHooks);
 * hooksFor() builds them for any driver::NicInterface. The NIC must
 * be configured with loopback disabled; otherwise its TX sink is never
 * consulted.
 */

#ifndef CCN_NET_FABRIC_HH
#define CCN_NET_FABRIC_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "driver/nic_iface.hh"
#include "net/link.hh"
#include "net/switch.hh"

namespace ccn::net {

/** Type-erased attachment surface of a NIC instance. */
struct NicPortHooks
{
    /// Install the fabric's TX sink on the NIC (setTxSink).
    std::function<void(std::function<void(int, const WirePacket &)>)>
        setTxSink;
    /// Deliver a packet into NIC RX queue q (injectRx).
    std::function<void(int, const WirePacket &)> injectRx;
    int numQueues = 1;
};

/** Attachment hooks for a NIC of any interface family. */
NicPortHooks hooksFor(driver::NicInterface &nic);

/**
 * RSS hash: mix a flow identifier into a queue index. A stand-in for
 * Toeplitz hashing over the 5-tuple (splitmix64 finalizer).
 */
inline std::uint32_t
rssQueue(std::uint64_t flow_id, int num_queues)
{
    std::uint64_t z = flow_id + 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    z ^= z >> 31;
    return static_cast<std::uint32_t>(
        z % static_cast<std::uint64_t>(num_queues));
}

/** Aggregated per-port view assembled from link and port counters. */
struct PortCounters
{
    std::uint64_t txPackets = 0; ///< NIC → fabric, past the uplink.
    std::uint64_t txBytes = 0;
    std::uint64_t rxPackets = 0; ///< Fabric → NIC, delivered.
    std::uint64_t rxBytes = 0;
    std::uint64_t txDrops = 0;   ///< Tail-dropped at the uplink queue.
    std::uint64_t rxDrops = 0;   ///< Tail-dropped at the downlink queue.

    /// @name Fault-injection losses, both directions combined.
    /// @{
    std::uint64_t faultDrops = 0; ///< Random/forced packet loss.
    std::uint64_t downDrops = 0;  ///< Lost while a link was dark.
    std::uint64_t dups = 0;       ///< Duplicates injected.
    std::uint64_t reorders = 0;   ///< Packets reordered.
    std::uint64_t corrupts = 0;   ///< Payloads corrupted.
    /// @}
};

/** Switched multi-host topology builder. */
class Fabric
{
  public:
    explicit Fabric(sim::Simulator &sim) : sim_(sim), switch_(sim) {}

    /**
     * Attach a NIC as a fabric port with the given per-direction link
     * parameters. Returns the port's fabric address (never 0).
     */
    std::uint32_t attach(const std::string &name, NicPortHooks hooks,
                         const LinkConfig &uplink,
                         const LinkConfig &downlink);

    /** Attach with symmetric link parameters. */
    std::uint32_t
    attach(const std::string &name, NicPortHooks hooks,
           const LinkConfig &both = {})
    {
        return attach(name, std::move(hooks), both, both);
    }

    /** Counters for the port with fabric address @p addr. */
    PortCounters counters(std::uint32_t addr) const;

    /// @name Direct link access (fault forcing, flap control).
    /// @{
    Link &uplinkOf(std::uint32_t addr);
    Link &downlinkOf(std::uint32_t addr);
    /// @}

    Switch &fabricSwitch() { return switch_; }
    const Switch &fabricSwitch() const { return switch_; }

    /** Print a per-port counter table (for examples/benches). */
    void report(std::ostream &os) const;

  private:
    struct Port
    {
        std::string name;
        std::uint32_t addr = 0;
        NicPortHooks hooks;
        std::unique_ptr<Link> up;   ///< NIC → switch.
        std::unique_ptr<Link> down; ///< Switch → NIC.
        obs::Counter rxPackets{"net.fabric.rx_packets"};
        obs::Counter rxBytes{"net.fabric.rx_bytes"};
    };

    const Port &portFor(std::uint32_t addr) const;

    sim::Simulator &sim_;
    Switch switch_;
    std::vector<std::unique_ptr<Port>> ports_;
};

} // namespace ccn::net

#endif // CCN_NET_FABRIC_HH
