#include "driver/ring_channel.hh"

#include <algorithm>

#include "driver/nic_iface.hh"
#include "obs/trace.hh"

namespace ccn::driver {

void
RingChannel::rewind()
{
    prod = cons = clearScan = 0;
    headSeen = tailSeen = 0;
    tail.publish(0);
    head.publish(0);
}

void
RingChannel::noteRead(mem::Addr a)
{
    ++*telemetry.reads;
    telemetry.readsQ->inc();
    obs::tracepoint(obs::EventKind::RingSignalRead, telemetry.trace,
                    sim_.now(), a);
}

void
RingChannel::noteWrite(mem::Addr a)
{
    ++*telemetry.writes;
    obs::tracepoint(obs::EventKind::RingSignalWrite, telemetry.trace,
                    sim_.now(), a);
}

sim::Coro<void>
RingChannel::park(mem::Addr line)
{
    co_await mem_.waitLineChangeUntil(line, mem_.lineVersion(line),
                                      sim_.now() + kBeatPeriod);
}

sim::Coro<void>
RingChannel::reloadHead(mem::AgentId a)
{
    noteRead(head.addr());
    co_await mem_.load(a, head.addr(), 8);
    headSeen = head.value();
}

sim::Coro<std::uint32_t>
RingChannel::room(mem::AgentId a, std::uint32_t n)
{
    if (reg_) {
        if (space() < n)
            co_await reloadHead(a);
        co_return std::min(n, space());
    }
    std::uint32_t k = 0;
    while (k < n && !ring.slot(prod + k).ready)
        ++k;
    co_return k;
}

sim::Coro<bool>
RingChannel::awaitRoom(mem::AgentId a, std::uint32_t n)
{
    mem::Addr line;
    if (reg_) {
        if (space() >= n)
            co_return true;
        co_await reloadHead(a);
        if (space() >= n)
            co_return false; // Room now: the caller's next call sees it.
        line = head.addr();
    } else {
        // Wait on the line of the newest slot still in use.
        std::uint32_t busy = n;
        while (busy > 0 && !ring.slot(prod + busy - 1).ready)
            --busy;
        if (busy == 0)
            co_return true;
        line = ring.lineOf(prod + busy - 1);
    }
    co_await park(line);
    co_return false;
}

sim::Coro<void>
RingChannel::pollTail(mem::AgentId a)
{
    if (cons != static_cast<std::uint32_t>(tailSeen))
        co_return;
    noteRead(tail.addr());
    co_await mem_.load(a, tail.addr(), 8);
    tailSeen = tail.value();
}

sim::Coro<bool>
RingChannel::awaitWork(mem::AgentId a)
{
    mem::Addr line;
    if (reg_) {
        co_await pollTail(a);
        if (cons != static_cast<std::uint32_t>(tailSeen))
            co_return true;
        line = tail.addr();
    } else {
        const std::uint32_t first = sealedBlank(cons) ? nextLine(cons) : cons;
        line = ring.lineOf(first);
        noteRead(line);
        co_await mem_.load(a, line, mem::kLineBytes);
        const DescRing::Slot &s = ring.slot(first);
        if (s.ready && s.meta != kConsumed)
            co_return true;
    }
    co_await park(line);
    co_return false;
}

sim::Coro<void>
RingChannel::release(mem::AgentId a)
{
    if (reg_) {
        RegisterLine *h = &head;
        const std::uint64_t v = cons;
        const std::vector<mem::CoherentSystem::Span> span(
            1, {head.addr(), 8});
        co_await mem_.postMulti(a, span, [h, v] { h->publish(v); });
        noteWrite(head.addr());
        co_return;
    }
    const std::uint32_t from = clearScan;
    const std::uint32_t limit = ring.groupBase(cons);
    SpanList clears;
    for (std::uint32_t i = from; i != limit; ++i)
        clears.line(ring.lineOf(i));
    if (clears.spans.empty())
        co_return;
    DescRing *r = &ring;
    co_await mem_.postMulti(a, clears.spans, [r, from, limit] {
        for (std::uint32_t i = from; i != limit; ++i) {
            DescRing::Slot &slot = r->slot(i);
            slot.ready = false;
            slot.meta = kSlotEmpty;
            slot.buf = nullptr;
            // Recycled lines start the next lap open.
            r->clearSeal(i);
        }
    });
    noteWrite(clears.spans.front().addr);
    clearScan = limit;
}

} // namespace ccn::driver
