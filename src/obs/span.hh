/**
 * @file
 * Packet lifecycle spans: per-stage timestamps on the packet path.
 *
 * The paper attributes end-to-end latency to individual interface
 * mechanisms — signal reads, descriptor transfers, coherence misses
 * (§3–§5, Figs 7–14). Counters alone cannot say *where a packet's
 * time went* between host publish and host reap, so a PacketSpan
 * rides in driver::PacketBuf (and across the wire in WirePacket) and
 * collects one sim::Tick per pipeline stage:
 *
 *   host_enqueue  — host driver accepted the buffer into txBurst
 *   batch_flush   — publish of the batch holding this packet began
 *   desc_publish  — descriptor stores became globally visible
 *   nic_observe   — NIC engine observed the signal and took the slot
 *   wire_tx       — packet handed to the wire (FCS stamped)
 *   link_deliver  — packet arrived at the receiving NIC's RX input
 *   rx_publish    — RX descriptor publish completed (buffer filled)
 *   host_reap     — host rxBurst handed the buffer to the app
 *
 * Both CcNic and PcieNic stamp the same stages, so the coherent vs
 * PCIe stage breakdown is directly comparable (the paper's Fig 7/11
 * decomposition, reproduced from live runs).
 *
 * Spans are sampled 1-in-N (SpanTable::setSampleEvery) to bound the
 * cost: an unsampled packet carries an inactive span and every
 * stamp() on it is one predictable branch. Committed spans feed
 * per-stage-pair stats::Histograms in the process-wide SpanTable,
 * exported as the "latency" JSON section by every bench. Each stamp
 * also records a SpanStage tracepoint (arg = span id) so --trace
 * output can be joined into a per-stage table by
 * tools/trace_summary.py.
 */

#ifndef CCN_OBS_SPAN_HH
#define CCN_OBS_SPAN_HH

#include <cstdint>
#include <map>
#include <string>

#include "obs/obs.hh"
#include "obs/trace.hh"
#include "sim/time.hh"
#include "stats/histogram.hh"
#include "stats/table.hh"

namespace ccn::obs {

/** Pipeline stages stamped along the packet path (in order). */
enum class SpanStage : std::uint8_t
{
    HostEnqueue = 0, ///< Host driver accepted the buffer (txBurst).
    BatchFlush,      ///< Publish of the enclosing batch began. The
                     ///< HostEnqueue->BatchFlush delta is the signal-
                     ///< coalescing hold time (0 when batching is off).
    DescPublish,     ///< Descriptor stores became visible.
    NicObserve,      ///< NIC engine observed the signal.
    WireTx,          ///< Handed to the wire (FCS stamped).
    LinkDeliver,     ///< Arrived at the receiving NIC's RX input.
    RxPublish,       ///< RX descriptor publish completed.
    HostReap,        ///< Host rxBurst handed the buffer to the app.
};

/** Number of stages (= timestamps per span). */
constexpr std::size_t kSpanStages = 8;

/** Stage label, e.g. "host_enqueue". */
const char *spanStageName(SpanStage s);

/** Static tracepoint label, e.g. "span.host_enqueue". */
const char *spanStageTraceName(SpanStage s);

/**
 * The fixed-size span slot carried through PacketBuf / WirePacket.
 * Inactive on almost every packet (1-in-N sampling); stamps on an
 * inactive span are single-branch no-ops.
 */
struct PacketSpan
{
    bool active = false;
    std::uint8_t stamped = 0; ///< Bitmask of stages stamped so far.
    std::uint64_t id = 0;     ///< Unique id (joins trace events).
    sim::Tick t[kSpanStages] = {};

    /** Record stage @p s at time @p now (no-op when inactive). */
    void
    stamp(SpanStage s, sim::Tick now)
    {
        if (!active)
            return;
        const auto i = static_cast<std::size_t>(s);
        t[i] = now;
        stamped |= static_cast<std::uint8_t>(1u << i);
        tracepoint(EventKind::SpanStage, spanStageTraceName(s), now,
                   id);
    }

    /** True once every stage has been stamped. */
    bool
    complete() const
    {
        return stamped == ((1u << kSpanStages) - 1);
    }

    void clear() { *this = PacketSpan{}; }
};

/**
 * Process-wide span aggregation: per-path (e.g. "ccnic", "E810"),
 * per-stage-pair latency histograms plus an end-to-end histogram.
 * Benches export table() as their "latency" JSON section.
 */
class SpanTable
{
  public:
    static SpanTable &global();

    /** Sample 1 in @p n packets (n >= 1; 1 = every packet). */
    void
    setSampleEvery(std::uint64_t n)
    {
        every_ = n ? n : 1;
    }

    /**
     * Called at host TX enqueue for every packet: activates @p span
     * (assigning an id and stamping HostEnqueue) on every Nth call.
     * Returns whether the span was activated.
     */
    bool
    maybeStart(PacketSpan &span, sim::Tick now)
    {
        if (++clock_ % every_ != 0)
            return false;
        span.clear();
        span.active = true;
        span.id = nextId_++;
        started_++;
        span.stamp(SpanStage::HostEnqueue, now);
        return true;
    }

    /**
     * Called at host reap: stamps HostReap, records the span's stage
     * deltas into the histograms for @p path, and deactivates the
     * span. Spans missing a stage (e.g. stamped before an older
     * facility existed, or time went backwards) count as incomplete
     * and record nothing.
     */
    void commit(const std::string &path, PacketSpan &span,
                sim::Tick now);

    /** Aggregated per-stage latency table (the "latency" section). */
    stats::Table table() const;

    /// @name Direct histogram access (tests).
    /// @{
    /** Histogram of stage @p from → @p from+1 (null if path unseen). */
    const stats::Histogram *stageHist(const std::string &path,
                                      std::size_t from) const;
    const stats::Histogram *endToEnd(const std::string &path) const;
    /// @}

    std::uint64_t started() const { return started_; }
    std::uint64_t committed() const { return committed_; }
    std::uint64_t incomplete() const { return incomplete_; }

    /** Drop all recorded spans and histograms (tests / benches). */
    void reset();

  private:
    struct PathStats
    {
        stats::Histogram stage[kSpanStages - 1];
        stats::Histogram e2e;
    };

    std::uint64_t every_ = 16;
    std::uint64_t clock_ = 0;
    std::uint64_t nextId_ = 1;
    std::map<std::string, PathStats> paths_;
    Counter started_{"obs.spans_started"};
    Counter committed_{"obs.spans_committed"};
    Counter incomplete_{"obs.spans_incomplete"};
};

} // namespace ccn::obs

#endif // CCN_OBS_SPAN_HH
