/**
 * @file
 * Point-to-point network link model.
 *
 * A Link is one direction of a cable: packets enter a bounded egress
 * queue, serialize onto the wire at the configured bandwidth (FIFO,
 * one at a time), and arrive at the far end after a fixed propagation
 * delay. When the egress queue is full, newly offered packets are
 * tail-dropped — the fabric never blocks a sender, mirroring how a
 * real switch port sheds load. Serialization and propagation overlap:
 * multiple packets can be in flight across the propagation delay while
 * the next one occupies the transmitter.
 *
 * Fault injection: a link can be configured with seeded random drop,
 * duplication, reordering, and payload corruption, plus periodic
 * up/down flapping, so transport recovery paths can be exercised
 * deterministically. Reordering is modeled as swap-ahead: a selected
 * packet is held at the receive end until the next packet overtakes it
 * (or a hold timeout flushes it). Corruption flips a payload bit
 * without fixing the frame check sequence, so a receiver that verifies
 * the FCS (driver::fcsOk) sees a CRC error, not wrong data. Tests can
 * also force the next N packets to be dropped / corrupted / reordered
 * exactly, independent of the random profile.
 */

#ifndef CCN_NET_LINK_HH
#define CCN_NET_LINK_HH

#include <cstdint>
#include <functional>
#include <optional>
#include <string>

#include "driver/packet.hh"
#include "obs/obs.hh"
#include "sim/random.hh"
#include "sim/simulator.hh"
#include "sim/sync.hh"

namespace ccn::net {

using driver::WirePacket;

/** Fault-injection profile for one link direction. */
struct FaultProfile
{
    double dropRate = 0.0;    ///< P(packet silently lost).
    double dupRate = 0.0;     ///< P(packet delivered twice).
    double reorderRate = 0.0; ///< P(packet held for swap-ahead).
    double corruptRate = 0.0; ///< P(payload bit flip, FCS stale).
    std::uint64_t seed = 1;   ///< Per-link fault RNG seed.

    /// Held (reordered) packets flush after this even if nothing
    /// overtakes them, so a tail packet is delayed, not lost.
    sim::Tick reorderHold = sim::fromUs(2.0);

    /// @name Link flapping. With both nonzero the link cycles
    /// upTime carrier / downTime dark; packets arriving while dark
    /// are lost (counted as downDrops).
    /// @{
    sim::Tick upTime = 0;
    sim::Tick downTime = 0;
    /// @}

    bool
    any() const
    {
        return dropRate > 0 || dupRate > 0 || reorderRate > 0 ||
               corruptRate > 0 || (upTime > 0 && downTime > 0);
    }
};

/** Link parameters: rate, distance, and egress buffering. */
struct LinkConfig
{
    double gbps = 100.0;                       ///< Line rate.
    sim::Tick propDelay = sim::fromNs(500.0);  ///< One-way propagation.

    /// Egress queue bound in packets; offers beyond it tail-drop.
    std::size_t queuePackets = 256;

    /// Per-frame wire overhead (Ethernet preamble + FCS + IFG).
    std::uint32_t framingBytes = 24;

    FaultProfile faults; ///< Fault injection (default: none).

    double bytesPerSec() const { return sim::gbpsToBytesPerSec(gbps); }
};

/**
 * Per-link counters. Registry-backed: every link also contributes to
 * the process-wide "net.link.*" obs metrics (counters sum across
 * links, the peak-queue gauge takes the max).
 */
struct LinkStats
{
    obs::Counter txPackets{
        "net.link.tx_packets"};  ///< Packets that finished serializing.
    obs::Counter txBytes{"net.link.tx_bytes"}; ///< Payload bytes delivered.
    obs::Counter drops{"net.link.drops"};      ///< Tail-dropped packets.
    obs::Counter dropBytes{
        "net.link.drop_bytes"};  ///< Payload bytes tail-dropped.
    obs::Gauge peakQueue{
        "net.link.peak_queue"};  ///< Egress queue high-water mark.

    /// @name Fault-injection counters.
    /// @{
    obs::Counter faultDrops{
        "net.link.fault_drops"}; ///< Randomly / forcibly lost.
    obs::Counter downDrops{
        "net.link.down_drops"};  ///< Lost while the link was dark.
    obs::Counter dups{"net.link.dups"}; ///< Duplicates injected.
    obs::Counter reorders{
        "net.link.reorders"};    ///< Packets held for swap-ahead.
    obs::Counter corrupts{
        "net.link.corrupts"};    ///< Payload corruptions injected.
    /// @}
};

/**
 * One direction of a modeled cable. The receive end is a callback so
 * a link can terminate at a switch port, a NIC, or a test probe.
 */
class Link
{
  public:
    Link(sim::Simulator &sim, const LinkConfig &cfg,
         std::string name = "link");

    /** Set the far-end delivery callback. */
    void
    setSink(std::function<void(const WirePacket &)> sink)
    {
        sink_ = std::move(sink);
    }

    /**
     * Offer a packet to the egress queue. Returns false (and counts a
     * drop) when the queue is full or the link is dark; never blocks
     * the caller.
     */
    bool send(const WirePacket &pkt);

    /// @name Deterministic fault forcing (tests / chaos harnesses).
    /// The next @p n packets reaching the receive end suffer the
    /// fault, ahead of any random profile.
    /// @{
    void forceDrop(std::uint64_t n) { forceDrop_ += n; }
    void forceCorrupt(std::uint64_t n) { forceCorrupt_ += n; }
    void forceReorder(std::uint64_t n) { forceReorder_ += n; }
    /// @}

    /** Carrier state (false while flapped dark). */
    bool up() const { return up_; }

    /** Force carrier state (overrides flapping until the next cycle). */
    void setUp(bool up) { up_ = up; }

    const LinkConfig &config() const { return cfg_; }
    const LinkStats &stats() const { return stats_; }
    const std::string &name() const { return name_; }

  private:
    sim::Task drainTask();
    sim::Task flapTask();

    /** Fault pipeline at the receive end. */
    void arrive(WirePacket pkt);
    void deliver(const WirePacket &pkt);

    sim::Simulator &sim_;
    LinkConfig cfg_;
    std::string name_;
    sim::Mailbox<WirePacket> queue_;
    std::function<void(const WirePacket &)> sink_;
    LinkStats stats_;

    /// @name Per-link labeled children ("net.link.*{link=<name>}").
    /// The family objects own the children; the raw pointers cache
    /// this link's child so drop paths skip the label lookup.
    /// @{
    obs::LabeledCounter dropsByLink_{"net.link.drops", "link"};
    obs::LabeledCounter faultDropsByLink_{"net.link.fault_drops",
                                          "link"};
    obs::LabeledCounter downDropsByLink_{"net.link.down_drops", "link"};
    obs::LabeledGauge peakQueueByLink_{"net.link.peak_queue", "link"};
    obs::Counter *dropsL_ = nullptr;
    obs::Counter *faultDropsL_ = nullptr;
    obs::Counter *downDropsL_ = nullptr;
    obs::Gauge *peakQueueL_ = nullptr;
    /// @}

    sim::Rng faultRng_;
    bool up_ = true;
    std::uint64_t forceDrop_ = 0;
    std::uint64_t forceCorrupt_ = 0;
    std::uint64_t forceReorder_ = 0;
    std::optional<WirePacket> held_; ///< Swap-ahead reorder slot.
    std::uint64_t heldGen_ = 0;      ///< Guards stale hold flushes.
};

} // namespace ccn::net

#endif // CCN_NET_LINK_HH
