/**
 * @file
 * The descriptor-ring signaling protocol of §3.2, written once for both
 * directions: a producer and a consumer over one DescRing and its tail
 * and head RegisterLines. CC-NIC runs host→NIC (TX) and NIC→host (RX)
 * on it; the directions differ only in which side may wait. The host
 * side never blocks, while the device side parks on a signal line,
 * bounded by the wait period so lifecycle transitions stay visible.
 *
 * Inline signaling: each descriptor carries its ready flag. The
 * consumer marks taken slots consumed and publishes a clear of every
 * line it has fully passed, which is also the producer's space signal.
 * Register signaling: the producer publishes a tail register with its
 * descriptors and the consumer publishes a head register.
 *
 * Sealed blanks (Grouped layout, Inline, batching off): a producer that
 * fills only part of a line seals it and moves to the next line. The
 * rest of that line stays blank for the lap, so:
 *  - the producer checks every slot of the range it will write, not
 *    just the last one, because a sealed blank from the previous lap
 *    is never ready while live descriptors before it on the line are;
 *  - the consumer steps over a sealed blank, both when it gathers and
 *    when it checks for work, since it may rest on one after a full
 *    batch and the blank itself never becomes ready.
 * An open (unsealed) partial line is legal under batched publication:
 * a later flush continues it, so consumers stop there instead.
 */

#ifndef CCN_DRIVER_RING_CHANNEL_HH
#define CCN_DRIVER_RING_CHANNEL_HH

#include <cstdint>
#include <vector>

#include "driver/integrity.hh"
#include "driver/ring.hh"
#include "mem/coherence.hh"
#include "obs/obs.hh"
#include "sim/simulator.hh"
#include "sim/task.hh"

namespace ccn::driver {

/** One direction of a descriptor ring: its positions and protocol. */
class RingChannel
{
  public:
    /** Where signal reads and writes are counted and traced. */
    struct Telemetry
    {
        obs::Counter *reads = nullptr;  ///< Family total.
        obs::Counter *readsQ = nullptr; ///< Per-queue child.
        obs::Counter *writes = nullptr;
        const char *trace = ""; ///< Tracepoint label.
    };

    /**
     * @param seal Seal partial lines (Grouped + Inline, batching off).
     * Every device-side wait is bounded by the beat period.
     */
    RingChannel(sim::Simulator &sim, mem::CoherentSystem &mem_system,
                DescRing &ring, RegisterLine &tail, RegisterLine &head,
                SignalMode mode, bool seal)
        : ring(ring), tail(tail), head(head), sim_(sim), mem_(mem_system),
          reg_(mode == SignalMode::Register), seal_(seal)
    {}

    // Posted-store callbacks hold this channel's address.
    RingChannel(const RingChannel &) = delete;
    RingChannel &operator=(const RingChannel &) = delete;

    DescRing &ring;
    RegisterLine &tail; ///< Producer-published (Register mode).
    RegisterLine &head; ///< Consumer-published (Register mode).
    Telemetry telemetry;

    std::uint32_t prod = 0;      ///< Next slot the producer writes.
    std::uint32_t cons = 0;      ///< Next slot the consumer reads.
    std::uint32_t clearScan = 0; ///< First slot not yet cleared (Inline).
    std::uint64_t headSeen = 0;  ///< Producer's cached head.
    std::uint64_t tailSeen = 0;  ///< Consumer's cached tail.

    /** Device reset: zero positions, caches and both registers. */
    void rewind();

    /// @name Producer.
    /// @{
    /**
     * Host producer: how many of @p n slots from prod it may fill now,
     * up to the first busy slot (Inline) or as the head allows
     * (Register, reloading a head that looks too close). Never waits.
     */
    sim::Coro<std::uint32_t> room(mem::AgentId a, std::uint32_t n);

    /**
     * Device producer: true when all @p n slots from prod are free.
     * Otherwise waits for the consumer (bounded) and returns false;
     * the caller re-checks its lifecycle state and calls again.
     */
    sim::Coro<bool> awaitRoom(mem::AgentId a, std::uint32_t n);

    /** Reload the cached head register (one signal read). */
    sim::Coro<void> reloadHead(mem::AgentId a);

    /** prod after writing @p n slots: a sealed partial line is skipped. */
    std::uint32_t
    end(std::uint32_t n) const
    {
        const std::uint32_t idx = prod + n;
        return seal_ && idx % ring.perLine() != 0 ? nextLine(idx) : idx;
    }

    /**
     * One posted store group that makes @p entries visible: their
     * contents (@p fill, then the integrity stamp), ready flags, the
     * seal of a partial final line (when @p end skips past it) and, in
     * Register mode, the tail at @p end. @p spans holds the descriptor
     * lines and any payloads; the signal write is counted on the last
     * of them. Inline mode then touches @p grant lines from prod ahead
     * of the next publish, a migratory ownership grant (§3.2).
     */
    template <class Entry, class Fill>
    sim::Coro<void> publish(mem::AgentId a,
                            std::vector<mem::CoherentSystem::Span> spans,
                            std::vector<Entry> entries, std::uint32_t end,
                            std::uint32_t grant, Fill fill);
    /// @}

    /// @name Consumer.
    /// @{
    /**
     * Device consumer: true when a descriptor is ready at the first
     * consumable slot. Otherwise parks on the signal (bounded) and
     * returns false.
     */
    sim::Coro<bool> awaitWork(mem::AgentId a);

    /** Register mode: reload the tail once the consumer caught up. */
    sim::Coro<void> pollTail(mem::AgentId a);

    /**
     * Take up to @p max descriptors from cons: ready and not consumed,
     * stepping over sealed blanks (Inline), or up to the cached tail
     * (Register). A slot whose stamp fails stops the gather and counts
     * a reject on @p guard. Each taken slot goes to take(idx, slot)
     * and its line into @p lines. Returns the slot after the last one
     * taken; the caller advances cons.
     */
    template <class Take>
    std::uint32_t gather(int max, SpanList &lines, IntegrityGuard &guard,
                         Take take);

    /**
     * Release what the consumer passed: clear every line before cons
     * (Inline) or publish cons as the head (Register).
     */
    sim::Coro<void> release(mem::AgentId a);
    /// @}

    /// @name Signal telemetry.
    /// @{
    void noteRead(mem::Addr a);
    void noteWrite(mem::Addr a);
    /// @}

  private:
    std::uint32_t
    nextLine(std::uint32_t idx) const
    {
        return ring.groupBase(idx) + ring.perLine();
    }

    /** A blank mid-line on a line its producer sealed. */
    bool
    sealedBlank(std::uint32_t idx) const
    {
        return !ring.slot(idx).ready && idx % ring.perLine() != 0 &&
               ring.lineSealed(idx);
    }

    std::uint32_t
    space() const
    {
        return ring.entries() - 1 -
               (prod - static_cast<std::uint32_t>(headSeen));
    }

    sim::Coro<void> park(mem::Addr line);

    sim::Simulator &sim_;
    mem::CoherentSystem &mem_;
    bool reg_;
    bool seal_;
};

template <class Entry, class Fill>
sim::Coro<void>
RingChannel::publish(mem::AgentId a,
                     std::vector<mem::CoherentSystem::Span> spans,
                     std::vector<Entry> entries, std::uint32_t end,
                     std::uint32_t grant, Fill fill)
{
    const bool seal = !entries.empty() && entries.back().idx + 1 != end;
    const mem::Addr note =
        reg_ ? tail.addr() : spans.empty() ? 0 : spans.back().addr;
    if (reg_)
        spans.push_back({tail.addr(), 8});
    // Posted stores: descriptors, ready flags and (TSO orders it after
    // them) the tail become visible together at store completion.
    auto visible = [this, entries = std::move(entries), end, seal, fill] {
        for (const Entry &e : entries) {
            fill(ring.slot(e.idx), e);
            ring.stampSlot(e.idx);
        }
        if (seal)
            ring.sealLine(end - 1);
        if (reg_)
            tail.publish(end);
    };
    co_await mem_.postMulti(a, spans, std::move(visible));
    if (!spans.empty())
        noteWrite(note);
    if (!reg_) {
        for (std::uint32_t k = 0; k < grant; ++k)
            mem_.touchLine(a, ring.lineOf(prod + k * ring.perLine()));
    }
}

template <class Take>
std::uint32_t
RingChannel::gather(int max, SpanList &lines, IntegrityGuard &guard,
                    Take take)
{
    std::uint32_t idx = cons;
    for (int n = 0; n < max;) {
        DescRing::Slot &slot = ring.slot(idx);
        if (reg_ ? idx == static_cast<std::uint32_t>(tailSeen) || !slot.ready
                 : !slot.ready || slot.meta == kConsumed) {
            if (reg_ || !sealedBlank(idx))
                break;
            idx = nextLine(idx);
            continue;
        }
        if (!ring.slotValid(idx)) {
            guard.noteReject();
            break; // Torn/corrupt descriptor: re-poll.
        }
        lines.line(ring.lineOf(idx));
        take(idx, slot);
        if (reg_) {
            slot.buf = nullptr;
            slot.ready = false;
            slot.meta = kSlotEmpty;
        } else {
            slot.meta = kConsumed;
        }
        ring.clearStamp(idx);
        ++idx;
        ++n;
    }
    return idx;
}

} // namespace ccn::driver

#endif // CCN_DRIVER_RING_CHANNEL_HH
