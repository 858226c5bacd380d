/**
 * @file
 * Reliable, connection-oriented transport over the network fabric.
 *
 * An Endpoint runs on one host, on top of its NIC's burst interface:
 * per-queue receive pumps demultiplex arriving packets to Connections
 * by connection id, and a coarse timer task drives retransmission.
 * Xu & Roscoe argue transport services belong next to the NIC
 * interface; here the transport is the layer an application talks to
 * instead of raw TX/RX bursts, and every transport packet still
 * crosses the full driver + coherent-memory + fabric path.
 *
 * A Connection provides:
 *  - a lightweight SYN / SYN-ACK handshake (retried like data);
 *  - per-segment sequence numbers with cumulative ACKs plus a SACK
 *    bitmap covering the 64 sequence numbers above the cumulative ack
 *    (the window is capped at 64 segments so SACK always covers the
 *    whole flight);
 *  - retransmission from an RTT-estimated timeout (Jacobson/Karels
 *    SRTT/RTTVAR, Karn's rule on retransmitted samples) with
 *    exponential backoff, plus 3-dup-ack fast retransmit;
 *  - bounded retries: a connection that makes no progress for
 *    maxRetries consecutive timeouts aborts and surfaces the error to
 *    the application (send()/recv() return false, state() == Error);
 *  - a credit sliding window: the receiver advertises how many more
 *    segments its buffer can take beyond the cumulative ack, and
 *    send() suspends — backpressuring the caller — while the flight
 *    would exceed either the credit grant or the configured window,
 *    so a well-dimensioned window never overflows the link's
 *    tail-drop queue;
 *  - in-order delivery: out-of-order segments are buffered and
 *    reassembled, duplicates are suppressed and re-acked.
 *
 * Payload corruption is handled below the transport: the NIC stamps a
 * CRC on TX and discards FCS-mismatched packets on RX, so the
 * transport sees corruption as loss and recovers by retransmission.
 */

#ifndef CCN_TRANSPORT_TRANSPORT_HH
#define CCN_TRANSPORT_TRANSPORT_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "driver/nic_iface.hh"
#include "mem/coherence.hh"
#include "obs/obs.hh"
#include "sim/random.hh"
#include "sim/simulator.hh"
#include "sim/sync.hh"

namespace ccn::transport {

/// @name RFC 1982-style serial-number arithmetic.
/// Sequence numbers live in a 32-bit circular space; magnitude
/// comparison breaks at the wrap (e.g. seq 3 is *after* seq
/// 0xFFFFFFFE). As long as compared values are within 2^31 of each
/// other — guaranteed here by the ≤64-segment window — the sign of
/// the wrapped difference gives the circular order.
/// @{
constexpr bool
seqLt(std::uint32_t a, std::uint32_t b)
{
    return static_cast<std::int32_t>(a - b) < 0;
}

constexpr bool
seqGt(std::uint32_t a, std::uint32_t b)
{
    return static_cast<std::int32_t>(a - b) > 0;
}

constexpr bool seqLeq(std::uint32_t a, std::uint32_t b) { return !seqGt(a, b); }
constexpr bool seqGeq(std::uint32_t a, std::uint32_t b) { return !seqLt(a, b); }

/** Map comparator ordering sequence numbers circularly. */
struct SeqLess
{
    bool
    operator()(std::uint32_t a, std::uint32_t b) const
    {
        return seqLt(a, b);
    }
};
/// @}

/** Transport tuning knobs. */
struct TransportConfig
{
    /// Maximum in-flight (unacked) segments per connection; clamped
    /// to 64 so the SACK bitmap covers the whole flight. Also the
    /// receiver's reassembly/delivery buffer, whose free space is the
    /// credit grant.
    std::uint32_t window = 64;

    sim::Tick minRto = sim::fromUs(10.0);  ///< RTO lower clamp.
    sim::Tick maxRto = sim::fromUs(100.0); ///< RTO upper clamp.
    sim::Tick initialRto = sim::fromUs(25.0); ///< Before any RTT sample.

    /// Consecutive no-progress timeouts before the connection aborts.
    int maxRetries = 10;

    /// Initial sequence number for both directions of every
    /// connection (both endpoints must agree — the handshake does not
    /// negotiate an ISN). A test/debug knob: start near UINT32_MAX to
    /// exercise sequence wraparound immediately.
    std::uint32_t initialSeq = 0;
};

/**
 * Endpoint-wide counters (all connections combined). Registry-backed:
 * every instance also contributes to the process-wide obs metrics of
 * the same names, which benches dump into their "counters" section.
 */
struct TransportStats
{
    obs::Counter dataSent{"transport.data_sent"};   ///< First transmissions.
    obs::Counter retransmits{"transport.retransmits"}; ///< Timeout rtx.
    obs::Counter fastRetransmits{
        "transport.fast_retransmits"};              ///< Dup-ack rtx.
    obs::Counter acksSent{"transport.acks_sent"};   ///< Pure ACK frames.
    obs::Counter dataDelivered{
        "transport.data_delivered"};                ///< Handed to apps.
    obs::Counter dupsReceived{
        "transport.dups_received"};                 ///< Duplicates dropped.
    obs::Counter outOfOrder{"transport.out_of_order"}; ///< Buffered early.
    obs::Counter windowStalls{
        "transport.window_stalls"};                 ///< send() had to wait.
    obs::Counter timeouts{"transport.timeouts"};    ///< RTO expirations.
    obs::Counter aborts{"transport.aborts"};        ///< Connections errored.
    obs::Counter orphanPackets{
        "transport.orphan_packets"};                ///< No matching conn.
    obs::Counter deviceResets{
        "transport.device_resets"};                 ///< Local NIC resets seen.
    obs::Counter resetResyncs{
        "transport.reset_resyncs"};                 ///< Segments re-sent to
                                                    ///< resync after a reset
                                                    ///< (not retransmits: the
                                                    ///< loss was local).
    obs::Counter deviceFailovers{
        "transport.device_failovers"};              ///< Permanent local NIC
                                                    ///< failures surfaced.

    /// Per-connection retransmit breakdown
    /// ("transport.retransmits_total{conn=N}", timeout + fast
    /// combined). Bounded: connections past the first 8 fold into
    /// {conn=other}.
    obs::LabeledCounter retransmitsByConn{
        "transport.retransmits_total", "conn", 8};
};

/** One application-visible message. */
struct Segment
{
    std::uint32_t len = 0;
    std::uint64_t flowId = 0;
    std::uint64_t userData = 0;
    sim::Tick txTime = 0; ///< Original sender stamp (end-to-end RTT).
};

class Endpoint;

/** One reliable bidirectional connection. */
class Connection
{
  public:
    enum class State
    {
        Connecting, ///< SYN sent, awaiting SYN-ACK.
        Open,
        Error, ///< Aborted after max retries or peer RST.
    };

    /**
     * Send one segment of @p len bytes. Suspends while the send
     * window or the peer's credit grant is exhausted. @p tx_time of 0
     * means "stamp with the current time" (pass a request's original
     * stamp through a response for end-to-end RTT measurement).
     * Returns false if the connection is (or becomes) errored.
     */
    sim::Coro<bool> send(std::uint32_t len, std::uint64_t user_data,
                         sim::Tick tx_time = 0);

    /**
     * Receive the next in-order segment, waiting until @p deadline.
     * Returns false on timeout or when the connection is errored and
     * drained.
     */
    sim::Coro<bool> recv(Segment *out, sim::Tick deadline);

    State state() const { return state_; }
    std::uint32_t id() const { return localId_; }
    std::uint64_t flowId() const { return flowId_; }
    int queue() const { return q_; } ///< NIC queue (RSS-steered).

    /** Unacked segments currently in flight. */
    std::uint32_t inFlight() const { return sndNext_ - sndUna_; }

    /** True while the local device is being reset (RTO paused). */
    bool recovering() const { return recovering_; }

  private:
    friend class Endpoint;

    Connection(Endpoint &ep, std::uint32_t local_id);

    bool canSend() const;
    std::uint16_t myCredits() const;
    std::uint64_t sackBits() const;
    void rttSample(sim::Tick rtt);
    sim::Tick rtoFromEstimate() const;

    /** One in-flight segment awaiting acknowledgment. */
    struct Unacked
    {
        std::uint32_t len = 0;
        std::uint64_t userData = 0;
        sim::Tick txTime = 0;
        sim::Tick sentAt = 0;
        bool retransmitted = false; ///< Karn: skip RTT sample.
        bool sacked = false;        ///< Peer holds it; don't resend.
    };

    Endpoint &ep_;
    std::uint32_t localId_;
    std::uint32_t peerConn_ = 0;
    std::uint32_t peerAddr_ = 0;
    std::uint64_t flowId_ = 0;
    int q_ = 0; ///< NIC queue this connection transmits on.
    State state_ = State::Connecting;

    // Sender.
    std::uint32_t sndUna_ = 0;  ///< Oldest unacked seq.
    std::uint32_t sndNext_ = 0; ///< Next seq to assign.
    std::map<std::uint32_t, Unacked, SeqLess> unacked_;
    std::uint32_t windowLimit_ = 0; ///< ack + credits (serial max).
    std::uint32_t dupAcks_ = 0;
    sim::Tick rto_;
    sim::Tick rtxDeadline_ = sim::kTickMax;
    sim::Tick srtt_ = 0, rttvar_ = 0;
    bool haveRtt_ = false;
    int retries_ = 0; ///< Consecutive timeouts without progress.
    bool recovering_ = false; ///< Local device reset in progress:
                              ///< RTO paused, no retry accounting.
    sim::Gate sendGate_; ///< Window opened / handshake done / abort.

    // Receiver.
    std::uint32_t rcvNext_ = 0; ///< Next expected seq.
    std::map<std::uint32_t, Segment, SeqLess> oord_; ///< Early segments.
    std::deque<Segment> rxq_; ///< In-order, undelivered segments.
    sim::Gate rxGate_;
    bool advertisedZero_ = false; ///< Must send a window update.
};

/**
 * Transport instance bound to one host's NIC. start() spawns the
 * per-queue receive pumps and the retransmission timer; they exit
 * once the given horizon passes.
 */
class Endpoint
{
  public:
    Endpoint(sim::Simulator &sim, mem::CoherentSystem &mem_system,
             driver::NicInterface &nic,
             const TransportConfig &cfg = {},
             std::string name = "ep");

    /** Spawn receive pumps and the timer. Call once before running. */
    void start(sim::Tick run_until);

    /**
     * Open a connection to the endpoint at fabric address
     * @p remote_addr. @p flow_id labels all the connection's packets
     * (it determines RSS queue placement on both hosts). Suspends
     * through the handshake; the returned connection is Open, or
     * Error if the handshake exhausted its retries.
     */
    sim::Coro<Connection *> connect(std::uint32_t remote_addr,
                                    std::uint64_t flow_id);

    /** Callback invoked for each passively accepted connection. */
    void
    onAccept(std::function<void(Connection *)> cb)
    {
        acceptCb_ = std::move(cb);
    }

    /// @name Device-reset survival.
    /// The local NIC's Watchdog calls these around a hot-reset. A
    /// reset is *not* peer loss: in-flight segments died in the local
    /// rings, the peer is fine, and the RTT estimate is still valid —
    /// so instead of burning retries toward abort, connections pause
    /// their RTO and, once the device is back, resynchronize from SACK
    /// state (retransmitting exactly the segments the peer does not
    /// hold).
    /// @{

    /** Device entered reset: pause RTO/retry accounting. */
    void deviceResetBegin();

    /** Device recovered: spawn the resync task. */
    void deviceResetComplete();

    /**
     * Local device permanently failed (Watchdog stage-3 fail-over):
     * every connection is errored so blocked send()/recv() callers
     * resolve immediately instead of hanging on a device that will
     * never carry another packet. Already-received in-order segments
     * stay in the receive queue and drain normally, so completed work
     * is delivered exactly once.
     */
    void deviceFailed();
    /// @}

    const TransportStats &stats() const { return stats_; }
    const TransportConfig &config() const { return cfg_; }
    const std::string &name() const { return name_; }
    sim::Simulator &sim() { return sim_; }
    driver::NicInterface &nic() { return nic_; }

    /** All connections, active and errored, in creation order. */
    const std::vector<std::unique_ptr<Connection>> &
    connections() const
    {
        return conns_;
    }

  private:
    friend class Connection;

    static constexpr int kRxBurst = 32;

    sim::Task rxPump(int q);
    sim::Task timerTask();
    sim::Task resyncTask();

    sim::Coro<void> dispatch(int q, const driver::PacketBuf &buf);
    sim::Coro<void> handleSyn(int q, const driver::PacketBuf &buf);
    void handleSynAck(const driver::TransportHeader &h,
                      std::uint32_t src);
    sim::Coro<void> processAck(Connection &c,
                               const driver::TransportHeader &h);
    sim::Coro<void> handleData(Connection &c,
                               const driver::TransportHeader &h,
                               const Segment &seg);

    /**
     * Transmit one transport frame on @p c's queue: allocate a
     * buffer, fill payload + header (current ack/sack/credits are
     * always piggybacked), charge the payload write, and submit.
     * Serialized per queue so concurrent connections and the timer
     * cannot interleave a txBurst.
     */
    sim::Coro<void> xmit(Connection &c, std::uint16_t flags,
                         std::uint32_t seq, std::uint32_t len,
                         std::uint64_t user_data, sim::Tick tx_time);

    /** Retransmit the first unacked, un-SACKed segment. */
    sim::Coro<void> retransmitFirst(Connection &c, bool fast);

    sim::Coro<void> onTimer(Connection &c);
    sim::Coro<void> abort(Connection &c, bool send_rst);

    Connection *connById(std::uint32_t id);
    Connection *findPeer(std::uint32_t addr, std::uint32_t peer_conn);

    sim::Simulator &sim_;
    mem::CoherentSystem &mem_;
    driver::NicInterface &nic_;
    TransportConfig cfg_;
    std::string name_;
    sim::Tick runUntil_ = sim::kTickMax;

    std::vector<std::unique_ptr<Connection>> conns_;
    std::vector<std::unique_ptr<sim::Semaphore>> txLocks_;
    std::function<void(Connection *)> acceptCb_;
    TransportStats stats_;
    bool started_ = false;
};

} // namespace ccn::transport

#endif // CCN_TRANSPORT_TRANSPORT_HH
