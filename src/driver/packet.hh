/**
 * @file
 * Packet buffer representation.
 *
 * A PacketBuf is the logical view of a pre-allocated packet buffer in
 * simulated memory (the mbuf analogue of the paper's DPDK-style data
 * plane). The simulator is access-accurate rather than byte-accurate:
 * payload contents are represented by the metadata a workload needs
 * (length, timestamp, flow/user tags) while every byte of the payload
 * is still charged through the memory system when written or read.
 * A WirePacket is the same payload on the wire between NICs.
 */

#ifndef CCN_DRIVER_PACKET_HH
#define CCN_DRIVER_PACKET_HH

#include <cstdint>

#include "mem/addr.hh"
#include "obs/span.hh"
#include "sim/time.hh"

namespace ccn::driver {

/** Buffer size class within a pool. */
enum class BufClass : std::uint8_t
{
    Small, ///< Subdivided small buffer (128B; §3.3).
    Large, ///< MTU-sized buffer (4KB).
};

/// @name Reliable transport header (src/transport).
/// @{

/** Transport packet type flags. */
enum TpFlags : std::uint16_t
{
    kTpSyn = 1u << 0,    ///< Connection request.
    kTpSynAck = 1u << 1, ///< Connection accept.
    kTpData = 1u << 2,   ///< Carries one application segment.
    kTpAck = 1u << 3,    ///< ack/sack/credits fields are valid.
    kTpRst = 1u << 4,    ///< Peer aborted the connection.
};

/**
 * Reliable-transport header carried in packet metadata, end to end
 * (stamped into the PacketBuf by the sender, copied onto the
 * WirePacket by the NIC TX engine, and restored into the receive
 * buffer by the NIC RX engine). All-zero means "not transport
 * traffic": raw fabric users never populate it.
 */
struct TransportHeader
{
    std::uint32_t srcConn = 0; ///< Sender-side connection id (1-based).
    std::uint32_t dstConn = 0; ///< Receiver-side id (0 until SYN-ACK).
    std::uint32_t seq = 0;     ///< Data segment sequence number.
    std::uint32_t ack = 0;     ///< Cumulative: next expected seq.
    std::uint64_t sack = 0;    ///< Bitmap of seqs in (ack, ack+64].
    std::uint16_t credits = 0; ///< Receive buffer grant beyond ack.
    std::uint16_t flags = 0;   ///< TpFlags combination.
};
/// @}

/** One packet buffer: simulated placement plus logical payload. */
struct PacketBuf
{
    mem::Addr addr = 0;          ///< Payload start address.
    std::uint32_t capacity = 0;  ///< Buffer size in bytes.
    std::uint32_t len = 0;       ///< Current payload length.
    BufClass cls = BufClass::Large;
    std::uint32_t poolIndex = 0; ///< Pool bookkeeping handle.

    /// @name Logical payload (what the benchmarks exchange).
    /// @{
    sim::Tick txTime = 0;    ///< Timestamp written by the generator.
    std::uint64_t flowId = 0;
    std::uint64_t userData = 0;
    std::uint32_t src = 0;   ///< Fabric source address (0 = unset).
    std::uint32_t dst = 0;   ///< Fabric destination address.
    TransportHeader tp;      ///< Reliable-transport header (optional).
    /// @}

    /// Lifecycle span slot (1-in-N sampled; inactive on most
    /// packets). Activated by the NIC at TX enqueue, carried across
    /// the wire, committed at host reap. See obs/span.hh.
    obs::PacketSpan span;

    /// Second payload segment for zero-copy multi-segment TX (the
    /// DPDK extbuf pattern used by the key-value store's GET path).
    PacketBuf *nextSeg = nullptr;
    /// Length contributed by the external segment.
    std::uint32_t segLen = 0;

    /** Total wire length including chained segments. */
    std::uint32_t
    wireLen() const
    {
        return len + (nextSeg ? segLen : 0);
    }
};

/** A packet on the (modeled) wire: logical contents only. */
struct WirePacket
{
    std::uint32_t len = 0;
    sim::Tick txTime = 0;
    std::uint64_t flowId = 0;
    std::uint64_t userData = 0;
    std::uint8_t segments = 1; ///< Descriptor slots consumed (extbuf).

    /// @name Fabric addressing (src/net). 0 means "unset": the fabric
    /// stamps src with the sending port's address on ingress, and a
    /// dst of 0 never matches a forwarding-table entry.
    /// @{
    std::uint32_t src = 0;
    std::uint32_t dst = 0;
    /// @}

    /// Reliable-transport header (all-zero for raw traffic).
    TransportHeader tp;

    /// Frame check sequence stamped by the NIC TX engine; 0 means
    /// "unstamped" (packets injected directly by tests/harnesses).
    std::uint32_t fcs = 0;

    /// Lifecycle span slot riding across the wire (not FCS-covered:
    /// telemetry, not packet contents). See obs/span.hh.
    obs::PacketSpan span;
};

/**
 * The wire image of @p b carrying @p len bytes. The lifecycle span
 * moves onto the wire: the buffer is about to be recycled and must not
 * keep an active slot. @p chained: a chained second segment counts as
 * a second descriptor slot.
 */
inline WirePacket
takeWire(PacketBuf &b, std::uint32_t len, bool chained = true)
{
    WirePacket w{len, b.txTime, b.flowId, b.userData, 1,
                 b.src, b.dst, b.tp, 0, b.span};
    if (chained && b.nextSeg)
        w.segments = 2;
    b.span.clear();
    return w;
}

/** Land wire packet @p w, span included, in receive buffer @p b. */
inline void
fromWire(PacketBuf &b, const WirePacket &w)
{
    b.len = w.len;
    b.txTime = w.txTime;
    b.flowId = w.flowId;
    b.userData = w.userData;
    b.src = w.src;
    b.dst = w.dst;
    b.tp = w.tp;
    b.span = w.span;
}

/**
 * CRC-32C over the packet's logical contents. Fabric addressing is
 * excluded from the covered fields because the source address is
 * stamped by the fabric port after the NIC computes the FCS.
 */
std::uint32_t wireFcs(const WirePacket &pkt);

/** Verify the FCS; unstamped packets (fcs == 0) always pass. */
inline bool
fcsOk(const WirePacket &pkt)
{
    return pkt.fcs == 0 || pkt.fcs == wireFcs(pkt);
}

} // namespace ccn::driver

#endif // CCN_DRIVER_PACKET_HH
