#include "mem/coherence.hh"

#include <algorithm>
#include <bit>
#include <cassert>
#include <deque>
#include <sstream>
#include <utility>

#include "obs/trace.hh"

namespace ccn::mem {

using sim::Tick;

/**
 * Coherence-profiler hook: one predictable branch when the profiler
 * is disabled. Hooks never touch protocol state or timing — profiling
 * leaves simulation results bit-identical.
 */
#define CCN_PROF(call)                                                 \
    do {                                                               \
        if (prof_.enabled())                                           \
            prof_.call;                                                \
    } while (0)

CoherentSystem::CoherentSystem(sim::Simulator &sim,
                               const PlatformConfig &config)
    : sim_(sim), cfg_(config)
{
    prof_.enable(obs::CoherenceProfiler::defaultEnabled());
    for (int s = 0; s < cfg_.sockets; ++s) {
        llc_.emplace_back(cfg_.llcLines, cfg_.llcWays);
        upiInto_.emplace_back(sim_, cfg_.upiRawBw);
        dram_.emplace_back(sim_, cfg_.dramBw);
        prefetchOn_.push_back(true);
        allocNext_.push_back(socketBase(s) + 0x10000);
    }
    pageIndex_.resize(256);
}

AgentId
CoherentSystem::addAgent(int socket)
{
    assert(socket >= 0 && socket < cfg_.sockets);
    AgentId id = static_cast<AgentId>(agents_.size());
    assert(id < 128 && "SharerSet supports up to 128 L2 caches");
    agents_.push_back(Agent{socket, {}, 0, 0, {}, 0});
    l2_.emplace_back(cfg_.l2Lines, cfg_.l2Ways);
    return id;
}

Addr
CoherentSystem::alloc(int home_socket, std::uint64_t bytes,
                      std::uint64_t align)
{
    assert(align >= 1 && (align & (align - 1)) == 0);
    Addr &next = allocNext_[home_socket];
    next = (next + align - 1) & ~(align - 1);
    Addr base = next;
    next += bytes;
    return base;
}

CoherentSystem::DirPage &
CoherentSystem::dirPage(Addr page)
{
    // Multiplicative (Fibonacci) hashing: the top bits of the product
    // pick the first slot, and linear probing stops at the page's slot
    // or at an empty one.
    auto probe = [this](Addr p) {
        constexpr std::uint64_t kMul = 0x9e3779b97f4a7c15ULL;
        const std::size_t size = pageIndex_.size();
        std::size_t i = static_cast<std::size_t>(
            (p * kMul) >> (64 - std::countr_zero(size)));
        while (pageIndex_[i].lines && pageIndex_[i].page != p)
            i = (i + 1) & (size - 1);
        return i;
    };
    std::size_t i = probe(page);
    if (pageIndex_[i].lines)
        return *pageIndex_[i].lines;

    // A new page. Keep the index at most half full.
    if (2 * (dirPages_.size() + 1) > pageIndex_.size()) {
        const std::vector<PageSlot> old = std::exchange(
            pageIndex_, std::vector<PageSlot>(2 * pageIndex_.size()));
        for (const PageSlot &ps : old) {
            if (ps.lines)
                pageIndex_[probe(ps.page)] = ps;
        }
        i = probe(page);
    }
    pageIndex_[i] = PageSlot{page, &dirPages_.emplace_back()};
    return *pageIndex_[i].lines;
}

CoherentSystem::LineDir &
CoherentSystem::dirOf(Addr line)
{
    const Addr page = line / kDirPageBytes;
    if (page != lastPage_) {
        lastLines_ = &dirPage(page);
        lastPage_ = page;
    }
    LineDir *&d = (*lastLines_)[(line % kDirPageBytes) / kLineBytes];
    if (!d)
        d = &dir_.emplace_back();
    return *d;
}

sim::Gate &
CoherentSystem::gateFor(LineDir &d)
{
    if (!d.gate)
        d.gate = std::make_unique<sim::Gate>(sim_);
    return *d.gate;
}

void
CoherentSystem::noteWriter(LineDir &d, AgentId a)
{
    if (d.lastWriter >= 0 && d.lastWriter != a)
        d.migratory = true;
    d.lastWriter = static_cast<std::int16_t>(a);
}

void
CoherentSystem::bumpVersion(LineDir &d, Addr line, Tick when)
{
    d.writeBusyUntil = std::max(d.writeBusyUntil, when);
    d.version++;
    if (faultsArmed_) {
        // A stuck invalidation defers the waiter wakeup past the
        // fault window; pollers meanwhile still observe the held
        // (stale) version via lineVersion().
        auto st = stuck_.find(line);
        if (st != stuck_.end()) {
            if (st->second.until > when)
                when = st->second.until;
            else
                stuck_.erase(st);
        }
    }
    if (d.gate && d.gate->hasWaiters()) {
        sim::Gate *g = d.gate.get();
        sim_.scheduleCallback(when, [g] { g->notifyAll(); });
    }
}

void
CoherentSystem::noteRemote(AgentId a, Addr line, bool write, bool prefetch,
                           int supplier, std::uint32_t bytes, Tick t,
                           const char *what)
{
    AgentCounters &k = agents_[a].counters;
    if (prefetch) {
        k.prefetchRemote++;
        return;
    }
    if (write) {
        k.remoteRfos++;
        telem_.remoteRfos++;
    } else {
        k.remoteReads++;
        telem_.remoteReads++;
    }
    if (what) {
        obs::tracepoint(write ? obs::EventKind::CoherenceRemoteRfo
                              : obs::EventKind::CoherenceRemoteRead,
                        what, t, line);
    }
    if (write)
        CCN_PROF(noteRemoteRfo(line, a, supplier, bytes, t));
    else
        CCN_PROF(noteRemoteRead(line, a, supplier, bytes, t));
}

Tick
CoherentSystem::linkXfer(int to_socket, std::uint32_t bytes, Tick t)
{
    return upiInto_[to_socket].reserveAt(t, bytes) + cfg_.upiHop;
}

Tick
CoherentSystem::dramAccess(int socket, std::uint32_t bytes, Tick t)
{
    return dram_[socket].reserveAt(t, bytes) + cfg_.dramLat;
}

Tick
CoherentSystem::fromL2(int os, int s, int home, bool queued, Tick start,
                       Tick t)
{
    if (os == s)
        return t + cfg_.snoopFwdLocal;
    if (queued)
        t = start;
    else
        t = linkXfer(os, cfg_.ctrlMsgBytes, t);
    t = linkXfer(s, cfg_.dataMsgBytes,
                 t + cfg_.remoteChaLat + cfg_.snoopFwdRemote);
    if (home == s) {
        // Reader-homed: the local CHA issues a speculative memory read
        // in parallel (wasted bandwidth + small latency penalty; §3.2).
        t += cfg_.specReadPenalty;
        dram_[s].reserveAt(start, kLineBytes);
    }
    return t;
}

Tick
CoherentSystem::fromLlc(int k, int s, Tick t)
{
    if (k == s)
        return t + cfg_.llcDataLat;
    t = linkXfer(k, cfg_.ctrlMsgBytes, t);
    return linkXfer(s, cfg_.dataMsgBytes,
                    t + cfg_.remoteChaLat + cfg_.llcDataLat);
}

Tick
CoherentSystem::fromMemory(int home, int s, Tick t)
{
    if (home == s)
        return dramAccess(s, kLineBytes, t);
    t = linkXfer(home, cfg_.ctrlMsgBytes, t);
    t = dramAccess(home, kLineBytes, t + cfg_.remoteChaLat);
    return linkXfer(s, cfg_.dataMsgBytes, t);
}

Tick
CoherentSystem::invalRoundTrip(int s, Tick t)
{
    t = linkXfer(1 - s, cfg_.ctrlMsgBytes, t);
    return linkXfer(s, cfg_.ctrlMsgBytes, t);
}

void
CoherentSystem::writeBack(Addr line, int from, Tick t)
{
    const int h = homeSocket(line);
    if (h != from)
        t = linkXfer(h, cfg_.dataMsgBytes, t);
    dram_[h].reserveAt(t, kLineBytes);
}

void
CoherentSystem::insertLlc(int socket, Addr line, bool dirty)
{
    // Only E/M L2 evictions and ddioWrite(), after it invalidates every
    // copy, insert into an LLC, and no LLC holds a line that an L2
    // holds E or M (auditDirectory() checks it): the line is never
    // already here.
    const std::uint8_t bit = std::uint8_t(1) << socket;
    Addr victim = SetAssocTags::kNoLine;
    llc_[socket].insert(line, &victim);
    LineDir &d = dirOf(line);
    d.llcMask |= bit;
    if (dirty)
        d.llcDirty |= bit;

    if (victim != SetAssocTags::kNoLine) {
        LineDir &vd = dirOf(victim);
        const bool victim_dirty = vd.llcDirty & bit;
        vd.llcMask &= ~bit;
        vd.llcDirty &= ~bit;
        if (victim_dirty)
            writeBack(victim, socket, sim_.now());
    }
}

void
CoherentSystem::handleL2Eviction(AgentId a, const Eviction &ev)
{
    LineDir &d = dirOf(ev.line);
    const int s = agents_[a].socket;
    switch (ev.state) {
      case LineState::Modified:
        if (d.owner == a)
            d.owner = -1;
        insertLlc(s, ev.line, true);
        break;
      case LineState::Exclusive:
        if (d.owner == a)
            d.owner = -1;
        insertLlc(s, ev.line, ev.dirty);
        break;
      case LineState::Shared:
        d.sharers.clear(a);
        break;
      case LineState::Invalid:
        break;
    }
}

void
CoherentSystem::installL2(AgentId a, Addr line, LineState state,
                          bool dirty, Tick ready_at)
{
    assert(ready_at >> 60 == 0 && "fill time beyond CacheEntry::readyAt");
    Eviction ev;
    CacheEntry *e = l2_[a].insert(line, state, dirty, &ev);
    e->readyAt = ready_at;
    if (ev.valid)
        handleL2Eviction(a, ev);
}

CoherentSystem::InvalResult
CoherentSystem::invalidateCopies(LineDir &d, Addr line, int req_socket,
                                 AgentId except_agent)
{
    InvalResult r;
    if (d.owner >= 0 && d.owner != except_agent) {
        if (CacheEntry *oe = l2_[d.owner].find(line)) {
            r.dirtyFound = (oe->state == LineState::Modified);
            r.dirtyOwner = d.owner;
            const int os = agents_[d.owner].socket;
            (os == req_socket ? r.anyLocal : r.anyRemote) = true;
            l2_[d.owner].erase(line);
            telem_.invalidations++;
            CCN_PROF(noteInvalidation(line, sim_.now()));
        }
        d.owner = -1;
    }
    if (d.sharers.any()) {
        for (int w = 0; w < 2; ++w) {
            std::uint64_t bits = d.sharers.w[w];
            while (bits) {
                const int i = w * 64 + std::countr_zero(bits);
                bits &= bits - 1;
                if (i == except_agent)
                    continue;
                if (i < static_cast<int>(l2_.size()) &&
                    l2_[i].erase(line)) {
                    const int is = agents_[i].socket;
                    (is == req_socket ? r.anyLocal : r.anyRemote) = true;
                    telem_.invalidations++;
                    CCN_PROF(noteInvalidation(line, sim_.now()));
                }
            }
        }
        const bool keep = except_agent >= 0 &&
                          d.sharers.test(except_agent);
        d.sharers.reset();
        if (keep)
            d.sharers.set(except_agent);
    }
    for (int k = 0; k < cfg_.sockets; ++k) {
        if (d.llcMask & (std::uint8_t(1) << k)) {
            llc_[k].erase(line);
            if (d.llcDirty & (std::uint8_t(1) << k))
                r.dirtyFound = true;
            if (k == req_socket)
                r.llcLocal = true;
            else
                r.llcRemote = true;
        }
    }
    d.llcMask = 0;
    d.llcDirty = 0;
    return r;
}

void
CoherentSystem::maybePrefetch(AgentId a, Addr miss_line, Tick start)
{
    Agent &ag = agents_[a];
    if (miss_line == ag.lastMissLine + kLineBytes) {
        ag.missStreak++;
    } else if (miss_line != ag.lastMissLine) {
        ag.missStreak = 1;
    }
    ag.lastMissLine = miss_line;
    if (!prefetchOn_[ag.socket] || ag.missStreak < cfg_.prefetchTrigger)
        return;
    for (int i = 1; i <= cfg_.prefetchDepth; ++i) {
        const Addr p = miss_line + static_cast<Addr>(i) * kLineBytes;
        if (l2_[a].find(p))
            continue;
        ag.counters.prefetchIssued++;
        walkLine(a, p, false, start, /*prefetch=*/true);
        if (CacheEntry *pe = l2_[a].find(p))
            pe->wasPrefetch = true;
    }
}

Tick
CoherentSystem::walkLine(AgentId a, Addr line, bool write, Tick start,
                         bool prefetch)
{
    if (faultsArmed_) {
        auto it = brownouts_.find(a);
        if (it != brownouts_.end()) {
            if (start >= it->second.until) {
                brownouts_.erase(it);
            } else {
                const double factor = it->second.factor;
                Tick t = walkLineProtocol(a, line, write, start,
                                          prefetch);
                if (t > start && factor > 1.0) {
                    t = start + static_cast<Tick>(
                                    static_cast<double>(t - start) *
                                    factor);
                    if (!prefetch)
                        telem_.brownoutStretchedOps++;
                }
                return t;
            }
        }
    }
    return walkLineProtocol(a, line, write, start, prefetch);
}

Tick
CoherentSystem::walkLineProtocol(AgentId a, Addr line, bool write,
                                 Tick start, bool prefetch)
{
    // Only maybePrefetch() walks a prefetch, and it reads.
    assert(!(write && prefetch));
    Agent &ag = agents_[a];
    const int s = ag.socket;
    SetAssocCache &l2 = l2_[a];
    CacheEntry *e = l2.touch(line);

    // L2 hits: a read hit, or a write hit on an E/M line.
    if (e && (!write || e->state == LineState::Modified ||
              e->state == LineState::Exclusive)) {
        // Before maybePrefetch(), which can evict this line and reuse
        // its way.
        const Tick hit_done =
            std::max(start + cfg_.l2HitLat, e->readyAt);
        if (prefetch)
            return hit_done;
        ag.counters.l2Hits++;
        if (write) {
            e->state = LineState::Modified;
            e->dirty = true;
            LineDir &d = dirOf(line);
            d.owner = static_cast<std::int16_t>(a);
            noteWriter(d, a);
            bumpVersion(d, line, hit_done);
        } else if (e->wasPrefetch) {
            // Demand hit on a prefetched line sustains the stream
            // (prefetch-hit feedback).
            e->wasPrefetch = false;
            ag.missStreak++;
            ag.lastMissLine = line;
            maybePrefetch(a, line, start);
        }
        return hit_done;
    }

    // A miss, or the upgrade of a Shared copy (e is set).
    if (!prefetch)
        ag.counters.l2Misses++;
    LineDir &d = dirOf(line);
    start = std::max(start, d.busyUntil);
    const int home = homeSocket(line);
    Tick t = start + cfg_.chaLookupLat;

    if (write) {
        // Invalidate every other copy. An upgrade moves no data; a miss
        // fetches the line from the old owner, an LLC or memory.
        const InvalResult inv = invalidateCopies(d, line, s, a);
        if (inv.anyLocal || inv.llcLocal)
            t += cfg_.invalidateLat;
        int from = s; // The socket the data comes from.
        if (!e) {
            if (inv.dirtyOwner >= 0) {
                from = agents_[inv.dirtyOwner].socket;
                t = fromL2(from, s, home, false, start, t);
            } else if (inv.llcLocal || inv.llcRemote) {
                from = inv.llcLocal ? s : 1 - s;
                t = fromLlc(from, s, t);
            } else {
                from = home;
                t = fromMemory(home, s, t);
                ag.counters.dramReads++;
                telem_.dramReads++;
            }
        }
        bool crossed = from != s;
        if (!crossed && (inv.anyRemote || inv.llcRemote)) {
            crossed = true;
            t = invalRoundTrip(s, t);
        }
        if (crossed) {
            // An upgrade sends the invalidation and ack control
            // messages only.
            noteRemote(a, line, true, false, inv.dirtyOwner,
                       e ? 2 * cfg_.ctrlMsgBytes
                         : cfg_.ctrlMsgBytes + cfg_.dataMsgBytes,
                       t, e ? "rfo.upgrade" : "rfo.miss");
        }
        if (e) {
            e->state = LineState::Modified;
            e->dirty = true;
        } else {
            installL2(a, line, LineState::Modified, true, t);
        }
        d.owner = static_cast<std::int16_t>(a);
        d.sharers.reset();
        d.busyUntil = t;
        noteWriter(d, a);
        bumpVersion(d, line, t);
        if (!e)
            maybePrefetch(a, line, start);
        return t;
    }

    // Read miss.
    CacheEntry *oe = nullptr;
    if (d.owner >= 0 && d.owner != a)
        oe = l2_[d.owner].find(line);
    // Forwarding L2 agent; -1 = home/LLC supply.
    const AgentId supplier = oe ? d.owner : -1;

    // A read that arrives while (or just after) a write transaction
    // held the line had its request already queued at the home agent;
    // it skips the local-lookup and request-link legs and is serviced
    // as a forward right after the write completes. This is what makes
    // coherence-based signaling cheaper than two independent misses.
    const bool queued =
        d.busyUntil + cfg_.upiHop >= start && d.busyUntil > 0;

    int from = home; // The socket the data comes from.
    if (oe) {
        from = agents_[supplier].socket;
        t = fromL2(from, s, home, queued, start, t);
        if (oe->state == LineState::Modified && d.migratory &&
            !prefetch) {
            // Migratory handoff: grant dirty ownership to the reader
            // so its expected follow-up write hits locally. The old
            // owner's copy is invalidated in the same transaction.
            l2_[supplier].erase(line);
            d.owner = -1;
            telem_.migratoryHandoffs++;
            obs::tracepoint(obs::EventKind::CoherenceMigratory,
                            "migratory.handoff", t, line);
            CCN_PROF(noteMigratory(line, a, supplier, t));
            if (from != s) {
                noteRemote(a, line, false, false, supplier,
                           cfg_.ctrlMsgBytes + cfg_.dataMsgBytes, t,
                           nullptr);
            }
            installL2(a, line, LineState::Exclusive, true, t);
            d.owner = static_cast<std::int16_t>(a);
            d.busyUntil = t;
            maybePrefetch(a, line, start);
            return t;
        }
        if (oe->state != LineState::Modified) {
            // An earlier migratory grant was never written: the
            // pattern is not migratory after all. Fall back to plain
            // producer-consumer sharing.
            d.migratory = false;
        }
        if (oe->dirty) {
            // Dirty data implicitly writes back to home memory on the
            // downgrade (bandwidth only).
            dram_[home].reserveAt(t, kLineBytes);
        }
        oe->state = LineState::Shared;
        oe->dirty = false;
        d.sharers.set(supplier);
        d.owner = -1;
    } else if (d.llcMask) {
        from = d.llcMask & (std::uint8_t(1) << s) ? s : 1 - s;
        t = fromLlc(from, s, t);
        llc_[from].touch(line);
        if (from == s && !prefetch) {
            ag.counters.llcHits++;
            telem_.llcHits++;
        }
    } else {
        t = fromMemory(home, s, t);
        if (!prefetch) {
            ag.counters.dramReads++;
            telem_.dramReads++;
        }
    }

    if (from != s) {
        noteRemote(a, line, false, prefetch, supplier,
                   cfg_.ctrlMsgBytes + cfg_.dataMsgBytes, t, "read.miss");
    }

    d.busyUntil = t;
    const bool exclusive =
        d.owner < 0 && !d.sharers.any() && d.llcMask == 0;
    installL2(a, line,
              exclusive ? LineState::Exclusive : LineState::Shared,
              false, t);
    if (exclusive)
        d.owner = static_cast<std::int16_t>(a);
    else
        d.sharers.set(a);

    if (!prefetch)
        maybePrefetch(a, line, start);
    return t;
}

template <typename Fn>
void
CoherentSystem::Lines::forEach(Fn &&fn) const
{
    if (!spans) {
        const Addr last = lineOf(addr + (bytes ? bytes - 1 : 0));
        for (Addr l = lineOf(addr); l <= last; l += kLineBytes)
            fn(l);
        return;
    }
    for (const Span &sp : *spans) {
        if (sp.bytes != 0)
            Lines{sp.addr, sp.bytes}.forEach(fn);
    }
}

template <typename Step>
Tick
CoherentSystem::pipelined(const Lines &lines, int depth, Step &&step)
{
    std::deque<Tick> inflight;
    Tick t = sim_.now();
    Tick done = t;
    lines.forEach([&](Addr l) {
        // A full window issues the next line when its oldest walk
        // completes; issue times never go backwards.
        if (inflight.size() == static_cast<std::size_t>(depth)) {
            t = std::max(t, inflight.front());
            inflight.pop_front();
        }
        const Tick c = step(l, t);
        inflight.push_back(c);
        done = std::max(done, c);
    });
    return done;
}

void
CoherentSystem::publishAt(const Lines &lines, Tick done)
{
    lines.forEach([&](Addr l) {
        LineDir &d = dirOf(l);
        d.writeBusyUntil = std::max(d.writeBusyUntil, done);
    });
}

sim::Coro<void>
CoherentSystem::load(AgentId a, Addr addr, std::uint32_t bytes)
{
    return access(a, addr, bytes, false);
}

sim::Coro<void>
CoherentSystem::store(AgentId a, Addr addr, std::uint32_t bytes)
{
    return access(a, addr, bytes, true);
}

sim::Coro<void>
CoherentSystem::access(AgentId a, Addr addr, std::uint32_t bytes,
                       bool write)
{
    AgentCounters &k = agents_[a].counters;
    (write ? k.stores : k.loads)++;
    const Tick start = sim_.now();
    Tick done = start;
    Lines{addr, bytes}.forEach([&](Addr l) {
        done = std::max(done, walkLine(a, l, write, start, false));
    });
    co_await sim_.delayUntil(done);
    co_return;
}

sim::Coro<void>
CoherentSystem::atomicRmw(AgentId a, Addr addr)
{
    agents_[a].counters.stores++;
    const Tick start = sim_.now();
    const Tick done =
        walkLine(a, lineOf(addr), true, start, false) +
        cfg_.atomicExtraLat;
    co_await sim_.delayUntil(done);
    co_return;
}

sim::Coro<void>
CoherentSystem::flush(AgentId a, Addr addr, std::uint32_t bytes)
{
    Tick t = sim_.now();
    const int s = agents_[a].socket;
    Lines{addr, bytes}.forEach([&](Addr l) {
        // CLFLUSHOPT: serialized per-line issue cost (§3.3 notes it is
        // expensive and per-line); dirty data writes back to home.
        t += cfg_.flushLat;
        LineDir &d = dirOf(l);
        InvalResult inv = invalidateCopies(d, l, s, -1);
        if (inv.dirtyFound)
            writeBack(l, s, t);
    });
    co_await sim_.delayUntil(t);
    co_return;
}

sim::Coro<void>
CoherentSystem::loadRange(AgentId a, Addr addr, std::uint64_t bytes)
{
    return accessRange(a, Lines{addr, bytes}, false);
}

sim::Coro<void>
CoherentSystem::storeRange(AgentId a, Addr addr, std::uint64_t bytes)
{
    return accessRange(a, Lines{addr, bytes}, true);
}

sim::Coro<void>
CoherentSystem::accessMulti(AgentId a, const std::vector<Span> &spans,
                            bool write)
{
    return accessRange(a, Lines{.spans = &spans}, write);
}

sim::Coro<void>
CoherentSystem::accessRange(AgentId a, Lines lines, bool write)
{
    AgentCounters &k = agents_[a].counters;
    (write ? k.stores : k.loads)++;
    const Tick done =
        pipelined(lines, cfg_.mshrsPerCore, [&](Addr l, Tick issue) {
            return walkLine(a, l, write, issue, false);
        });
    if (write)
        publishAt(lines, done);
    co_await sim_.delayUntil(done);
    co_return;
}

sim::Coro<void>
CoherentSystem::ntStoreRange(AgentId a, Addr addr, std::uint64_t bytes)
{
    const int s = agents_[a].socket;
    // NT stores drain through the line-fill/WC buffers: concurrency is
    // LFB-limited, well below the regular store-buffer depth.
    const int depth = std::max(4, cfg_.wcBuffers / 3);
    const Tick done =
        pipelined(Lines{addr, bytes}, depth, [&](Addr l, Tick issue) {
            agents_[a].counters.stores++;
            LineDir &d = dirOf(l);
            invalidateCopies(d, l, s, -1);
            l2_[a].erase(l); // NT stores never allocate locally.
            d.lastWriter = static_cast<std::int16_t>(a);
            d.migratory = false; // Streaming, not migratory.
            const int home = homeSocket(l);
            Tick c = std::max(issue, d.busyUntil) + cfg_.cycles(1.0);
            if (home != s) {
                // Remote NT write: ownership handshake over the link.
                c = linkXfer(home, cfg_.ntMsgBytes, c);
            }
            c = dram_[home].reserveAt(c, kLineBytes) + cfg_.dramLat / 2;
            d.busyUntil = c;
            bumpVersion(d, l, c);
            return c;
        });
    co_await sim_.delayUntil(done);
    co_return;
}

sim::Coro<void>
CoherentSystem::postMulti(AgentId a, const std::vector<Span> &spans,
                          std::function<void()> on_complete)
{
    Agent &ag = agents_[a];
    ag.counters.stores++;

    // Store-buffer admission: wait until there is room for the new
    // lines among the outstanding posted stores.
    std::uint64_t lines = 0;
    for (const Span &sp : spans)
        lines += linesCovered(sp.addr, sp.bytes);
    const std::size_t depth =
        static_cast<std::size_t>(cfg_.storeBufDepth);
    while (!ag.posted.empty() && ag.posted.front() <= sim_.now())
        ag.posted.pop_front();
    if (ag.posted.size() + lines > depth &&
        ag.posted.size() >= lines) {
        const Tick wait_for =
            ag.posted[ag.posted.size() - std::min(ag.posted.size(),
                                                  static_cast<std::size_t>(
                                                      lines))];
        co_await sim_.delayUntil(wait_for);
        while (!ag.posted.empty() && ag.posted.front() <= sim_.now())
            ag.posted.pop_front();
    }

    const Lines walk{.spans = &spans};
    Tick done = pipelined(walk, cfg_.mshrsPerCore, [&](Addr l, Tick issue) {
        const Tick c = walkLine(a, l, true, issue, false);
        ag.posted.push_back(c);
        return c;
    });
    std::sort(ag.posted.begin(), ag.posted.end());

    // TSO: a later posted write never becomes visible before an
    // earlier one from the same core.
    done = std::max(done, ag.lastPostedPublish);
    ag.lastPostedPublish = done;
    publishAt(walk, done);
    if (on_complete) {
        if (done > sim_.now())
            sim_.scheduleCallback(done, std::move(on_complete));
        else
            on_complete();
    }
    // The issuing core only pays a small retire cost.
    co_await sim_.delay(cfg_.cycles(1.0 + 0.5 * static_cast<double>(
                                              lines)));
    co_return;
}

sim::Coro<void>
CoherentSystem::waitLineChange(Addr line, std::uint32_t seen_version)
{
    return waitLineChangeUntil(line, seen_version, sim::kTickMax);
}

sim::Coro<void>
CoherentSystem::waitLineChangeUntil(Addr line,
                                    std::uint32_t seen_version,
                                    sim::Tick deadline)
{
    if (faultsArmed_) {
        auto st = stuck_.find(lineOf(line));
        if (st != stuck_.end() && st->second.until > sim_.now()) {
            // Invalidation stuck: the poller's cached copy never
            // changes, so it sleeps out the window (or its deadline).
            co_await sim_.delayUntil(
                std::min(deadline, st->second.until));
            co_return;
        }
    }
    LineDir &d = dirOf(lineOf(line));
    if (d.version != seen_version || deadline <= sim_.now())
        co_return;
    if (d.writeBusyUntil > sim_.now()) {
        // A write on this line is still in flight; its completion is
        // the wakeup (this closes the lost-wakeup window for waiters
        // arriving after the write's walk but before its completion).
        // Read transfers deliberately do not wake pollers.
        co_await sim_.delayUntil(
            std::min(deadline, d.writeBusyUntil));
        co_return;
    }
    // An untimed wait schedules no timeout event.
    if (deadline == sim::kTickMax)
        co_await gateFor(d).wait();
    else
        co_await gateFor(d).waitUntil(deadline);
    co_return;
}

void
CoherentSystem::touchLine(AgentId a, Addr line)
{
    line = lineOf(line);
    if (l2_[a].find(line))
        return;
    agents_[a].counters.loads++;
    walkLine(a, line, false, sim_.now(), false);
}

std::uint32_t
CoherentSystem::lineVersion(Addr line)
{
    if (faultsArmed_) {
        auto st = stuck_.find(lineOf(line));
        if (st != stuck_.end()) {
            if (st->second.until > sim_.now())
                return st->second.heldVersion;
            stuck_.erase(st);
        }
    }
    return dirOf(lineOf(line)).version;
}

Tick
CoherentSystem::ddioWrite(int socket, Addr addr, std::uint32_t bytes,
                          Tick start)
{
    const Tick t = start + cfg_.chaLookupLat;
    Lines{addr, bytes}.forEach([&](Addr l) {
        LineDir &d = dirOf(l);
        invalidateCopies(d, l, socket, -1);
        insertLlc(socket, l, true);
        d.lastWriter = -1;
        d.migratory = false;
        bumpVersion(d, l, t);
        telem_.ddioWrites++;
    });
    return t;
}

Tick
CoherentSystem::dmaRead(int socket, Addr addr, std::uint32_t bytes,
                        Tick start)
{
    Tick done = start;
    Lines{addr, bytes}.forEach([&](Addr l) {
        LineDir &d = dirOf(l);
        Tick t = start + cfg_.chaLookupLat;
        CacheEntry *oe = nullptr;
        if (d.owner >= 0)
            oe = l2_[d.owner].find(l);
        if (oe) {
            const int os = agents_[d.owner].socket;
            t += (os == socket) ? cfg_.snoopFwdLocal
                                : (2 * cfg_.upiHop + cfg_.remoteChaLat +
                                   cfg_.snoopFwdRemote);
        } else if (d.llcMask & (std::uint8_t(1) << socket)) {
            t += cfg_.llcDataLat;
            llc_[socket].touch(l);
        } else {
            t = dramAccess(homeSocket(l), kLineBytes, t);
        }
        done = std::max(done, t);
    });
    return done;
}

void
CoherentSystem::injectPoison(Addr line, Tick hold)
{
    faultsArmed_ = true;
    line = lineOf(line);
    Tick &until = poisoned_[line];
    until = std::max(until, sim_.now() + hold);
    telem_.poisonInjected++;
    obs::tracepoint(obs::EventKind::Custom, "mem.fault.poison",
                    sim_.now(), line);
}

void
CoherentSystem::injectTorn(Addr line, Tick hold)
{
    faultsArmed_ = true;
    line = lineOf(line);
    Tick &until = torn_[line];
    until = std::max(until, sim_.now() + hold);
    telem_.tornInjected++;
    obs::tracepoint(obs::EventKind::Custom, "mem.fault.torn",
                    sim_.now(), line);
}

void
CoherentSystem::injectStuck(Addr line, Tick hold)
{
    faultsArmed_ = true;
    line = lineOf(line);
    StuckFault &f = stuck_[line];
    f.until = std::max(f.until, sim_.now() + hold);
    f.heldVersion = dirOf(line).version;
    telem_.stuckInjected++;
    obs::tracepoint(obs::EventKind::Custom, "mem.fault.stuck",
                    sim_.now(), line);
}

void
CoherentSystem::injectBrownout(AgentId a, double factor, Tick hold)
{
    faultsArmed_ = true;
    BrownoutFault &f = brownouts_[a];
    f.factor = std::max(f.factor, factor);
    f.until = std::max(f.until, sim_.now() + hold);
    telem_.brownouts++;
    obs::tracepoint(obs::EventKind::Custom, "mem.fault.brownout",
                    sim_.now(), static_cast<Addr>(a));
}

bool
CoherentSystem::rangePoisoned(Addr addr, std::uint32_t bytes)
{
    if (!faultsArmed_ || poisoned_.empty())
        return false;
    const Tick now = sim_.now();
    bool hit = false;
    Lines{addr, bytes}.forEach([&](Addr l) {
        auto it = poisoned_.find(l);
        if (it == poisoned_.end())
            return;
        if (it->second > now) {
            hit = true;
        } else {
            poisoned_.erase(it);
        }
    });
    if (hit)
        telem_.poisonReads++;
    return hit;
}

bool
CoherentSystem::rangeStale(Addr addr, std::uint32_t bytes)
{
    if (!faultsArmed_ || (torn_.empty() && stuck_.empty()))
        return false;
    const Tick now = sim_.now();
    bool stale = false;
    Lines{addr, bytes}.forEach([&](Addr l) {
        auto it = torn_.find(l);
        if (it != torn_.end()) {
            if (it->second > now) {
                stale = true;
                telem_.tornStaleReads++;
            } else {
                torn_.erase(it);
            }
        }
        auto st = stuck_.find(l);
        if (st != stuck_.end()) {
            if (st->second.until > now)
                stale = true;
            else
                stuck_.erase(st);
        }
    });
    return stale;
}

void
CoherentSystem::setPrefetch(int socket, bool enabled)
{
    prefetchOn_[socket] = enabled;
}

void
CoherentSystem::scaleRemotePerf(double lat_factor, double bw_factor)
{
    auto scale = [lat_factor](Tick &t) {
        t = static_cast<Tick>(static_cast<double>(t) * lat_factor + 0.5);
    };
    scale(cfg_.upiHop);
    scale(cfg_.remoteChaLat);
    scale(cfg_.snoopFwdRemote);
    for (auto &link : upiInto_)
        link.setRate(link.rate() * bw_factor);
}

std::uint64_t
CoherentSystem::upiBytesInto(int socket) const
{
    return upiInto_[socket].bytesServed();
}

void
CoherentSystem::resetStats()
{
    for (auto &ag : agents_)
        ag.counters.reset();
    for (auto &link : upiInto_)
        link.resetStats();
    for (auto &d : dram_)
        d.resetStats();
}

std::vector<std::string>
CoherentSystem::auditDirectory() const
{
    std::vector<std::string> out;
    auto report = [&out](Addr line, const std::string &what) {
        std::ostringstream os;
        os << "line 0x" << std::hex << line << std::dec << ": " << what;
        out.push_back(os.str());
    };

    std::unordered_map<Addr, const LineDir *> dir;
    for (const PageSlot &ps : pageIndex_) {
        if (!ps.lines)
            continue;
        for (std::size_t i = 0; i < ps.lines->size(); ++i) {
            if (const LineDir *d = (*ps.lines)[i])
                dir.emplace(ps.page * kDirPageBytes + i * kLineBytes, d);
        }
    }
    const LineDir none;
    auto entry = [&](Addr line) -> const LineDir & {
        auto it = dir.find(line);
        return it == dir.end() ? none : *it->second;
    };

    std::unordered_map<Addr, int> l2Copies;
    for (const SetAssocCache &l2 : l2_)
        l2.forEachValid([&](Addr line, const CacheEntry &) {
            l2Copies[line]++;
        });
    for (AgentId a = 0; a < numAgents(); ++a) {
        const std::string at = "L2 " + std::to_string(a);
        l2_[a].forEachValid([&](Addr line, const CacheEntry &e) {
            const LineDir &d = entry(line);
            if (d.owner != a && !d.sharers.test(a))
                report(line, at + " holds a copy that is neither the "
                                  "owner's nor a sharer's");
            if (e.state != LineState::Exclusive &&
                e.state != LineState::Modified)
                return;
            if (d.owner != a)
                report(line, at + " holds E/M but the owner is " +
                                 std::to_string(d.owner));
            if (l2Copies[line] > 1)
                report(line, at + " holds E/M while " +
                                 std::to_string(l2Copies[line] - 1) +
                                 " other L2s hold the line");
            for (int k = 0; k < cfg_.sockets; ++k) {
                if (llc_[k].find(line) != SetAssocTags::kNoWay)
                    report(line, at + " holds E/M while LLC " +
                                     std::to_string(k) +
                                     " holds the line");
            }
        });
    }

    for (int k = 0; k < cfg_.sockets; ++k) {
        const std::uint8_t bit = std::uint8_t(1) << k;
        const std::string at = "LLC " + std::to_string(k);
        llc_[k].forEachValid([&](Addr line, std::size_t) {
            if (!(entry(line).llcMask & bit))
                report(line, at + " holds the line; llcMask says not");
        });
        for (const auto &[line, d] : dir) {
            if (((d->llcMask | d->llcDirty) & bit) &&
                llc_[k].find(line) == SetAssocTags::kNoWay)
                report(line, "llcMask or llcDirty names " + at +
                                 ", which does not hold the line");
        }
    }
    std::sort(out.begin(), out.end());
    return out;
}

void
CoherentSystem::dropCaches()
{
    for (auto &c : l2_)
        c.clear();
    for (auto &c : llc_)
        c.clear();
    for (LineDir &d : dir_) {
        d.owner = -1;
        d.sharers.reset();
        d.llcMask = 0;
        d.llcDirty = 0;
    }
    for (auto &ag : agents_) {
        ag.lastMissLine = 0;
        ag.missStreak = 0;
    }
}

} // namespace ccn::mem
