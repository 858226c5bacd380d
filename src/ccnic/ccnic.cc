#include "ccnic/ccnic.hh"

#include <algorithm>
#include <unordered_set>

namespace ccn::ccnic {

using driver::PacketBuf;
using driver::RingLayout;
using driver::SignalMode;
using mem::Addr;
using sim::Tick;

namespace {

/// NIC-side processing burst: descriptors one TX gather takes and
/// arrivals one RX batch places. A multiple of the 4-slot group, so
/// clears land on line boundaries.
constexpr int kNicBatch = 32;

/** Size the pool to the queue count: ring occupancy plus recycle
 *  stacks on both sides plus generator headroom per queue. */
void
sizePool(CcNicConfig &cfg)
{
    const std::uint32_t q = static_cast<std::uint32_t>(cfg.numQueues);
    const std::uint32_t per_q =
        cfg.ringEntries * 2 + 2 * cfg.pool.recycleDepth + 256;
    cfg.pool.largeCount = std::max<std::uint32_t>(2048, q * per_q);
    cfg.pool.smallCount = std::max<std::uint32_t>(8192, q * per_q);
    cfg.pool.stripes = cfg.numQueues;
}

/**
 * A partial final line is sealed (§3.2) only when each publish stands
 * alone. Under batching the line stays open: the next flush continues
 * it, so skipping (and sealing) would waste slots.
 */
bool
sealsLines(const CcNicConfig &cfg)
{
    return cfg.layout == RingLayout::Grouped &&
           cfg.signal == SignalMode::Inline && !cfg.batch.enabled();
}

} // namespace

CcNicConfig
optimizedConfig(int num_queues, int host_socket)
{
    CcNicConfig cfg;
    cfg.numQueues = num_queues;
    cfg.layout = RingLayout::Grouped;
    cfg.signal = SignalMode::Inline;
    cfg.nicHomedRx = true;
    cfg.nicBufferMgmt = true;
    cfg.pool.sharedAccess = true;
    cfg.pool.recycleCache = true;
    cfg.pool.smallBuffers = true;
    cfg.pool.nonSequentialFill = true;
    cfg.pool.homeSocket = host_socket;
    sizePool(cfg);
    return cfg;
}

CcNicConfig
unoptimizedConfig(int num_queues, int host_socket)
{
    CcNicConfig cfg;
    cfg.numQueues = num_queues;
    // E810 interface verbatim over coherent memory (§5.1): packed 16B
    // descriptors, register doorbells, host-managed 2KB buffers, all
    // structures in host memory.
    cfg.layout = RingLayout::Packed;
    cfg.signal = SignalMode::Register;
    cfg.nicHomedRx = false;
    cfg.nicBufferMgmt = false;
    cfg.pool.sharedAccess = false;
    cfg.pool.recycleCache = false;
    cfg.pool.smallBuffers = false;
    cfg.pool.nonSequentialFill = false;
    cfg.pool.largeBufBytes = 2048;
    cfg.pool.homeSocket = host_socket;
    cfg.nicPipelined = false;
    cfg.spanPath = "upi_unopt";
    sizePool(cfg);
    return cfg;
}

CcNicConfig
optimizedConfig(int num_queues, int host_socket,
                const mem::PlatformConfig &plat)
{
    CcNicConfig cfg = optimizedConfig(num_queues, host_socket);
    cfg.hostCosts = driver::platformCosts(plat);
    cfg.nicCosts = driver::platformCosts(plat);
    return cfg;
}

CcNicConfig
unoptimizedConfig(int num_queues, int host_socket,
                  const mem::PlatformConfig &plat)
{
    CcNicConfig cfg = unoptimizedConfig(num_queues, host_socket);
    cfg.hostCosts = driver::platformCosts(plat);
    cfg.nicCosts = driver::platformCosts(plat);
    return cfg;
}

CcNic::Queue::Queue(sim::Simulator &sim, mem::CoherentSystem &m,
                    const CcNicConfig &cfg, int host_socket,
                    int nic_socket)
    : QueueCore(sim, m, host_socket, nic_socket),
      txRing(m, host_socket, cfg.ringEntries, cfg.layout),
      rxRing(m, cfg.nicHomedRx ? nic_socket : host_socket,
             cfg.ringEntries, cfg.layout),
      txTail(m, host_socket),
      txHead(m, host_socket),
      rxTail(m, cfg.nicHomedRx ? nic_socket : host_socket),
      rxHead(m, host_socket),
      tx(sim, m, txRing, txTail, txHead, cfg.signal, sealsLines(cfg)),
      rx(sim, m, rxRing, rxTail, rxHead, cfg.signal, sealsLines(cfg)),
      txShadow(cfg.ringEntries)
{}

CcNic::CcNic(sim::Simulator &sim, mem::CoherentSystem &mem_system,
             const CcNicConfig &config, int host_socket, int nic_socket,
             sim::Rng &rng)
    : NicInterface(sim, mem_system,
                   {.prefix = "ccnic",
                    .resetTrace = "ccnic.reset",
                    .hostCosts = config.hostCosts,
                    .reinitLat = mem_system.config().cycles(
                        config.nicCosts.perLoop * 8),
                    .loopback = config.loopback,
                    .spanPath = config.spanPath}),
      cfg_(config), hostSocket_(host_socket), nicSocket_(nic_socket)
{
    cfg_.pool.homeSocket = host_socket;
    // Ring index arithmetic masks with entries-1, so normalize a
    // non-power-of-two request before sizing rings and shadows.
    cfg_.ringEntries = driver::DescRing::roundUpPow2(cfg_.ringEntries);
    // Clamp the publish-batch target well under the ring size so a
    // staged (unpublished, hence not `ready`) region can never be
    // lapped and overwritten by the producer's own full-ring check.
    cfg_.batch.clampTo(std::max(1u, cfg_.ringEntries / 4));
    pool_ = std::make_unique<driver::Mempool>(mem_, cfg_.pool, rng);
    for (int q = 0; q < cfg_.numQueues; ++q) {
        queues_.push_back(std::make_unique<Queue>(
            sim_, mem_, cfg_, hostSocket_, nicSocket_));
        Queue &queue = *queues_.back();
        addQueue(queue);
        queue.tx.telemetry = queue.rx.telemetry = {
            &signalReads_, &signalReadsQ_.at(static_cast<std::uint64_t>(q)),
            &signalWrites_, "ccnic.signal"};
        queue.txPending.setPolicy(cfg_.batch);
        queue.rxDevPending.setPolicy(cfg_.batch);
    }
    // Heartbeat lines are writer-homed like the rings (§3.3): each
    // side bumps its own line and polls the other's.
    hostBeat_ =
        std::make_unique<driver::RegisterLine>(mem_, hostSocket_);
    nicBeat_ = std::make_unique<driver::RegisterLine>(mem_, nicSocket_);
    registerProfRegions();
}

void
CcNic::registerProfRegions()
{
    using obs::RegionIntent;
    obs::CoherenceProfiler &prof = mem_.profiler();
    const std::string tag =
        cfg_.regionTag.empty() ? cfg_.spanPath : cfg_.regionTag;
    // Grouped and Padded lines carry descriptors plus their inline
    // ready flags: producer writes, consumer reads, ownership
    // migrates back and forth by design (Fig 8). Packed 16B
    // descriptors share a line without that discipline — alternation
    // there is the accidental thrash fig14 measures.
    const RegionIntent ring_intent =
        cfg_.layout == driver::RingLayout::Packed
            ? RegionIntent::Owned
            : RegionIntent::TwoWay;
    for (int q = 0; q < cfg_.numQueues; ++q) {
        Queue &queue = *queues_[q];
        const std::string qs = "[q" + std::to_string(q) + "]";
        profRegions_.push_back(prof.registerRegion(
            tag + ".tx_ring" + qs, queue.txRing.base(),
            queue.txRing.bytes(), ring_intent));
        profRegions_.push_back(prof.registerRegion(
            tag + ".rx_ring" + qs, queue.rxRing.base(),
            queue.rxRing.bytes(), ring_intent));
        // Head/tail register lines are single-line two-way signals
        // whichever signaling mode is active (idle in Inline mode).
        profRegions_.push_back(prof.registerRegion(
            tag + ".tx_tail" + qs, queue.txTail.addr(),
            mem::kLineBytes, RegionIntent::TwoWay));
        profRegions_.push_back(prof.registerRegion(
            tag + ".tx_head" + qs, queue.txHead.addr(),
            mem::kLineBytes, RegionIntent::TwoWay));
        profRegions_.push_back(prof.registerRegion(
            tag + ".rx_tail" + qs, queue.rxTail.addr(),
            mem::kLineBytes, RegionIntent::TwoWay));
        profRegions_.push_back(prof.registerRegion(
            tag + ".rx_head" + qs, queue.rxHead.addr(),
            mem::kLineBytes, RegionIntent::TwoWay));
    }
    profRegions_.push_back(prof.registerRegion(
        tag + ".host_beat", hostBeat_->addr(), mem::kLineBytes,
        RegionIntent::TwoWay));
    profRegions_.push_back(prof.registerRegion(
        tag + ".nic_beat", nicBeat_->addr(), mem::kLineBytes,
        RegionIntent::TwoWay));
}

void
CcNic::spawnEngines(int q)
{
    sim_.spawn(nicTxTask(q));
    sim_.spawn(nicRxTask(q));
    if (cfg_.batch.enabled()) {
        sim_.spawn(flushTimerTask(q, queues_[q]->txPending,
                                  cfg_.batch.flushTimeout, false));
    }
}

std::vector<mem::Addr>
CcNic::faultLines() const
{
    // Queue 0's live descriptor lines: the host's next TX publish
    // target is read by the device engine, the device's next RX
    // publish target by the host's rxBurst.
    const Queue &q = *queues_[0];
    return {q.txRing.lineOf(q.tx.cons), q.rxRing.lineOf(q.rx.cons)};
}

driver::QueueHealth
CcNic::health(int q) const
{
    const Queue &queue = *queues_[q];
    driver::QueueHealth h = queue.progress();
    h.txOutstanding = queue.tx.prod - queue.tx.cons;
    // Staged-but-unflushed descriptors are invisible to the device;
    // the Watchdog must not read a coalescing delay as a ring stall.
    h.txHeldInBatch = queue.txPending.size();
    return h;
}

std::vector<PacketBuf *>
CcNic::sweepQueue(int q)
{
    Queue &queue = *queues_[q];
    // Reclaim every ring-owned buffer exactly once. A kConsumed slot's
    // buffer has already changed hands (inline RX: the app took it;
    // inline TX: the NIC freed it), so only non-consumed occupied
    // slots are ring-owned. txShadow may alias TX slots (host-managed
    // mode stores the buffer in both), so dedup. Free in first-seen
    // order: a set of pointers iterates in an order that depends on
    // where the heap placed the buffers, so the recycle order, and
    // the rest of the run, would differ between processes.
    std::unordered_set<PacketBuf *> seen;
    std::vector<PacketBuf *> frees;
    auto reclaim = [&seen, &frees](PacketBuf *b) {
        if (b && seen.insert(b).second)
            frees.push_back(b);
    };
    auto owned = [&reclaim](driver::DescRing::Slot &slot) {
        if (slot.meta != driver::kConsumed)
            reclaim(slot.buf);
    };
    queue.txRing.sweep(owned);
    queue.rxRing.sweep(owned);
    // Staged-but-unflushed publications never reached a slot, so the
    // ring sweep cannot see their buffers: reclaim them here.
    for (const auto &e : queue.txPending.take(true))
        reclaim(e.buf);
    (void)queue.rxDevPending.take(true);
    queue.txShadow.sweep(reclaim);
    return frees;
}

void
CcNic::rewindQueue(int q)
{
    Queue &queue = *queues_[q];
    queue.tx.rewind();
    queue.rx.rewind();
    queue.rxPostProd = 0;
}

sim::Coro<int>
CcNic::txBurst(int q, PacketBuf **bufs, int count)
{
    // A quiescing/down device refuses bursts (the caller retries, as
    // against a wedged hardware queue). Checked before the op guard so
    // quiesce() cannot wait on a burst that would never finish.
    if (devState_ != DevState::Running)
        co_return 0;
    OpScope guard(hostOps_);
    Queue &queue = *queues_[q];
    driver::RingChannel &tx = queue.tx;
    const auto &costs = cfg_.hostCosts;
    co_await sim_.delay(cycles(costs.perLoop));

    // Host-managed mode: reap TX completions (bookkeeping pass the
    // shared pool eliminates, §3.4).
    if (!cfg_.nicBufferMgmt) {
        std::uint32_t upto;
        driver::SpanList scan;
        if (cfg_.signal == SignalMode::Register) {
            // Peek at the head before paying for its load.
            if (queue.txShadow.scan !=
                static_cast<std::uint32_t>(tx.head.value()))
                co_await tx.reloadHead(queue.hostAgent);
            upto = static_cast<std::uint32_t>(tx.headSeen);
        } else {
            // The device cleared the ready flags of completed slots.
            // Staged-but-unflushed slots are not `ready` either, but
            // they are pending work: stop the scan before them.
            const std::uint32_t limit = tx.prod - queue.txPending.size();
            for (upto = queue.txShadow.scan;
                 upto != limit && !queue.txRing.slot(upto).ready; ++upto)
                scan.line(queue.txRing.lineOf(upto));
        }
        std::vector<PacketBuf *> frees = queue.txShadow.reap(upto);
        if (!scan.spans.empty())
            co_await mem_.accessMulti(queue.hostAgent, scan.spans, false);
        co_await returnBufs(queue.hostAgent, q, std::move(frees));
    }

    const std::uint32_t n =
        co_await tx.room(queue.hostAgent, static_cast<std::uint32_t>(count));
    if (n == 0)
        co_return 0;
    // Lifecycle spans: activate the 1-in-N sampled slot on accepted
    // buffers only (rejected packets never entered the pipeline).
    startSpans(bufs, static_cast<int>(n));
    std::vector<driver::PublishBatch::Entry> entries;
    driver::SpanList lines;
    for (std::uint32_t i = 0; i < n; ++i) {
        entries.push_back({tx.prod + i, bufs[i], 0});
        lines.line(queue.txRing.lineOf(tx.prod + i));
    }
    const std::uint32_t end = tx.end(n);

    co_await sim_.delay(cycles((costs.perPktTx + costs.perDesc) *
                               static_cast<double>(n)));
    // Posted stores: the core retires immediately; the descriptors
    // become visible at store completion.
    tx.prod = end;
    queue.txSubmittedTotal += n;
    if (!cfg_.batch.enabled()) {
        co_await publishTx(queue, std::move(lines.spans),
                           std::move(entries), end);
    } else {
        // Software write-combining: retire the descriptors into the
        // host-side staging batch — no coherence traffic, no signal —
        // and publish everything at once when the batch fills (or the
        // flush timer fires on a partial batch).
        for (const auto &e : entries)
            queue.txPending.stage(e.idx, e.buf, sim_.now());
        if (queue.txPending.full())
            co_await flushBatch(q, /*timeout_flush=*/false);
    }
    co_return static_cast<int>(n);
}

sim::Coro<void>
CcNic::flushBatch(int q, bool timeout_flush)
{
    Queue &queue = *queues_[q];
    // Work still outstanding behind this batch drives adaptive
    // growth: a backlogged device benefits from larger, rarer signal
    // writes.
    auto entries = takeBatch(
        q, queue.txPending,
        timeout_flush ? FlushReason::Timeout : FlushReason::Full,
        queue.tx.prod - queue.tx.cons);
    driver::SpanList lines;
    for (const auto &e : entries)
        lines.line(queue.txRing.lineOf(e.idx));
    const std::uint32_t end = entries.back().idx + 1;
    co_await publishTx(queue, std::move(lines.spans), std::move(entries),
                       end);
}

sim::Coro<void>
CcNic::publishTx(Queue &queue, std::vector<mem::CoherentSystem::Span> lines,
                 std::vector<driver::PublishBatch::Entry> entries,
                 std::uint32_t end)
{
    // The flush begins now (an unbatched burst is a batch of one).
    const Tick flush_now = sim_.now();
    for (const auto &e : entries)
        e.buf->span.stamp(obs::SpanStage::BatchFlush, flush_now);
    driver::TxShadow *shadow =
        cfg_.nicBufferMgmt ? nullptr : &queue.txShadow;
    // The device frees TX buffers itself, so the next burst reuses
    // these lines: read them ahead (§3.2).
    const auto grant = static_cast<std::uint32_t>(
        cfg_.nicBufferMgmt ? lines.size() : 0);
    co_await queue.tx.publish(
        queue.hostAgent, std::move(lines), std::move(entries), end, grant,
        [shadow, simp = &sim_](driver::DescRing::Slot &slot,
                               const driver::PublishBatch::Entry &e) {
            slot.buf = e.buf;
            slot.len = e.buf->wireLen();
            slot.ready = true;
            // Stamped at store completion: when the descriptor became
            // visible, not when the core retired the posted store.
            e.buf->span.stamp(obs::SpanStage::DescPublish, simp->now());
            if (shadow)
                shadow->put(e.idx, e.buf);
        });
}

sim::Coro<int>
CcNic::rxBurst(int q, PacketBuf **bufs, int count)
{
    if (devState_ != DevState::Running)
        co_return 0;
    OpScope guard(hostOps_);
    Queue &queue = *queues_[q];
    driver::RingChannel &rx = queue.rx;
    const auto &costs = cfg_.hostCosts;
    co_await sim_.delay(cycles(costs.perLoop));

    // Integrity filter on the head RX line: a stale (torn/stuck)
    // view polls as empty; a poisoned line is retried inline.
    if (!co_await consumeGuard(queue.rxRing.lineOf(rx.cons)))
        co_return 0;

    int n = 0;
    driver::SpanList loads;
    if (cfg_.nicBufferMgmt) {
        if (cfg_.signal == SignalMode::Register)
            co_await rx.pollTail(queue.hostAgent);
        const std::uint32_t idx = rx.gather(
            count, loads, integrity_,
            [&](std::uint32_t, driver::DescRing::Slot &slot) {
                bufs[n++] = slot.buf;
            });
        if (n == 0)
            co_return 0;
        rx.cons = idx;
        co_await mem_.accessMulti(queue.hostAgent, loads.spans, false);
        co_await rx.release(queue.hostAgent);
    } else {
        // Host-managed path (PCIe-style): reap completed slots, then
        // keep the ring full of blanks (bursted allocation).
        std::uint32_t idx = rx.cons;
        n = takeCompleted(queue.rxRing, idx, bufs, count, loads);
        if (n > 0)
            co_await mem_.accessMulti(queue.hostAgent, loads.spans, false);
        rx.cons = idx;
        const std::uint32_t room = queue.rxRing.entries() -
                                   queue.rxRing.perLine() -
                                   (queue.rxPostProd - rx.cons);
        const std::uint32_t posted = co_await postBlanks(
            q, queue.rxRing, queue.rxPostProd,
            room <= queue.rxRing.entries() ? room : 0,
            cfg_.pool.largeBufBytes);
        if (posted > 0 && cfg_.signal == SignalMode::Register) {
            rx.noteWrite(rx.head.addr());
            co_await mem_.store(queue.hostAgent, rx.head.addr(), 8);
            rx.head.publish(queue.rxPostProd);
        }
    }

    if (n > 0) {
        co_await sim_.delay(cycles((costs.perPktRx + costs.perDesc) * n));
        rxDelivered_ += static_cast<std::uint64_t>(n);
        delivered(q, bufs, n);
    }
    co_return n;
}

sim::Coro<void>
CcNic::idleWait(int q, Tick deadline)
{
    Queue &queue = *queues_[q];
    // The host consumer may rest on a sealed blank; its line is the
    // one watched until the next rxBurst steps past it.
    const Addr watch =
        cfg_.signal == SignalMode::Register && cfg_.nicBufferMgmt
            ? queue.rxTail.addr()
            : queue.rxRing.lineOf(queue.rx.cons);
    // Bounded like every engine wait: reset() rewinds rxCons to slot 0
    // and restarts delivery there, so a waiter parked on the old
    // consumer line would otherwise sleep through the whole recovery.
    co_await mem_.waitLineChangeUntil(
        watch, mem_.lineVersion(watch),
        std::min(deadline, sim_.now() + driver::kBeatPeriod));
    co_return;
}

sim::Task
CcNic::nicTxTask(int q)
{
    Queue &queue = *queues_[q];
    driver::RingChannel &tx = queue.tx;
    const auto &costs = cfg_.nicCosts;

    for (;;) {
        // Park while wedged or not Running; reinit()/unwedge() wake us.
        while (wedged_ || devState_ != DevState::Running)
            co_await runGate_.wait();
        if (!co_await tx.awaitWork(queue.nicAgent))
            continue;
        if (!co_await claimTxCore(q, kNicBatch))
            continue;

        // Integrity filter on the head descriptor line before
        // trusting its content (poison retried, stale re-polled).
        const Addr head_line = queue.txRing.lineOf(tx.cons);
        if (!co_await consumeGuard(head_line)) {
            queue.coreLock.release();
            co_await mem_.waitLineChangeUntil(
                head_line, mem_.lineVersion(head_line),
                sim_.now() + driver::kBeatPeriod);
            continue;
        }

        struct Taken
        {
            std::uint32_t idx;
            PacketBuf *buf;
            std::uint32_t len;
        };
        std::vector<Taken> batch;
        driver::SpanList descs;
        const std::uint32_t idx = tx.gather(
            kNicBatch, descs, integrity_,
            [&batch](std::uint32_t i, driver::DescRing::Slot &slot) {
                batch.push_back({i, slot.buf, slot.len});
            });
        if (batch.empty()) {
            queue.coreLock.release();
            continue;
        }
        // The NIC has observed the signal and taken the descriptors.
        for (const Taken &t : batch)
            t.buf->span.stamp(obs::SpanStage::NicObserve, sim_.now());

        // Descriptor and payload reads. The CC-NIC engine pipelines
        // across the whole batch; the E810-emulation baseline handles
        // one descriptor at a time, serializing the address-dependent
        // descriptor-then-payload chain (§5.1).
        if (cfg_.nicPipelined) {
            co_await mem_.accessMulti(queue.nicAgent, descs.spans, false);
            driver::SpanList payloads;
            for (const Taken &t : batch)
                payloads.payload(*t.buf);
            co_await mem_.accessMulti(queue.nicAgent, payloads.spans,
                                      false);
        } else {
            for (const Taken &t : batch) {
                co_await mem_.load(queue.nicAgent,
                                   queue.txRing.addrOf(t.idx), 16);
                driver::SpanList one;
                one.payload(*t.buf);
                co_await mem_.accessMulti(queue.nicAgent, one.spans, false);
            }
        }
        co_await sim_.delay(
            cycles((costs.perPktRx + costs.perDesc) *
                   static_cast<double>(batch.size())));

        tx.cons = idx;
        queue.txCompletedTotal += batch.size();
        co_await tx.release(queue.nicAgent);

        // Hand to the wire before buffer release (segment metadata is
        // consumed by delivery).
        for (const Taken &t : batch)
            deliverTx(q, driver::takeWire(*t.buf, t.len));

        // Buffer management: the NIC returns TX buffers to the shared
        // pool (§3.4); in host-managed mode the host reaps instead.
        if (cfg_.nicBufferMgmt) {
            std::vector<PacketBuf *> frees;
            for (const Taken &t : batch) {
                t.buf->nextSeg = nullptr;
                frees.push_back(t.buf);
            }
            co_await returnBufs(queue.nicAgent, q, std::move(frees));
        }
        queue.coreLock.release();
    }
}

sim::Task
CcNic::nicRxTask(int q)
{
    Queue &queue = *queues_[q];
    driver::RingChannel &rx = queue.rx;
    const auto &costs = cfg_.nicCosts;

    for (;;) {
        const std::vector<WirePacket> batch =
            co_await takeRxBatch(q, kNicBatch);

        struct Placed
        {
            std::uint32_t idx;
            PacketBuf *buf;
            WirePacket pkt;
        };
        std::vector<Placed> placed;
        driver::SpanList spans;
        auto place = [&](PacketBuf *b, const WirePacket &pkt) {
            const std::uint32_t idx =
                rx.prod + static_cast<std::uint32_t>(placed.size());
            spans.spans.push_back({b->addr, pkt.len});
            spans.line(queue.rxRing.lineOf(idx));
            placed.push_back({idx, b, pkt});
        };
        if (cfg_.nicBufferMgmt) {
            // Allocate RX buffers NIC-side, burst-allocated per size
            // class with knowledge of the whole burst (§3.4). The
            // recycling stacks make these the most recently freed TX
            // buffers, still in the NIC cache (§3.3).
            std::vector<PacketBuf *> out(batch.size(), nullptr);
            const std::uint32_t small_cap =
                cfg_.pool.smallBuffers ? cfg_.pool.smallBufBytes : 0;
            for (int pass = 0; pass < 2; ++pass) {
                std::vector<std::size_t> want;
                for (std::size_t i = 0; i < batch.size(); ++i) {
                    if ((pass == 0) == (batch[i].len <= small_cap))
                        want.push_back(i);
                }
                if (want.empty())
                    continue;
                std::vector<PacketBuf *> got(want.size(), nullptr);
                const int n = co_await pool_->allocBurst(
                    queue.nicAgent,
                    pass == 0 ? small_cap : cfg_.pool.largeBufBytes,
                    got.data(), static_cast<int>(got.size()), q);
                for (int k = 0; k < n; ++k)
                    out[want[static_cast<std::size_t>(k)]] = got[k];
            }
            // Wait for ring space if the host is behind. Waits are
            // bounded so a quiesce (host no longer clearing the ring)
            // cannot park this engine forever inside the core lock:
            // once the device leaves Running, abandon the batch.
            const auto needed = static_cast<std::uint32_t>(
                std::count_if(out.begin(), out.end(),
                              [](PacketBuf *b) { return b != nullptr; }));
            bool abandoned = false;
            for (;;) {
                if (devState_ != DevState::Running) {
                    abandoned = true;
                    break;
                }
                if (needed == 0 ||
                    co_await rx.awaitRoom(queue.nicAgent, needed))
                    break;
            }
            if (abandoned) {
                co_await abandonRxBatch(q, std::move(out));
                continue;
            }
            for (std::size_t i = 0; i < batch.size(); ++i) {
                if (out[i])
                    place(out[i], batch[i]);
            }
        } else {
            // Host-posted buffers (PCIe-style): wait for each blank,
            // bounded as above.
            bool abandoned = false;
            for (const WirePacket &pkt : batch) {
                const std::uint32_t idx =
                    rx.prod + static_cast<std::uint32_t>(placed.size());
                while (queue.rxRing.slot(idx).meta != driver::kRxPosted) {
                    if (devState_ != DevState::Running) {
                        abandoned = true;
                        break;
                    }
                    const Addr line = queue.rxRing.lineOf(idx);
                    rx.noteRead(line);
                    co_await mem_.load(queue.nicAgent, line,
                                       mem::kLineBytes);
                    if (queue.rxRing.slot(idx).meta == driver::kRxPosted)
                        break;
                    co_await mem_.waitLineChangeUntil(
                        line, mem_.lineVersion(line),
                        sim_.now() + driver::kBeatPeriod);
                }
                if (abandoned)
                    break;
                place(queue.rxRing.slot(idx).buf, pkt);
            }
            if (abandoned) {
                // Drop the packets; posted blanks stay in the ring
                // (reset() reclaims them).
                co_await abandonRxBatch(q, {});
                continue;
            }
        }

        // Write payloads and descriptors together (posted stores).
        const auto n = static_cast<std::uint32_t>(placed.size());
        const std::uint32_t end =
            cfg_.nicBufferMgmt ? rx.end(n) : rx.prod + n;
        co_await sim_.delay(cycles((costs.perPktTx + costs.perDesc) *
                                   static_cast<double>(n)));
        rx.prod = end;
        if (cfg_.nicBufferMgmt && cfg_.batch.enabled() && n > 0) {
            // The device publishes once per gathered batch (the
            // mailbox drain already coalesces arrivals); route the
            // flush through the shared accumulator so the adaptive
            // target and occupancy metrics see it. A drain that
            // emptied the wire below target is an idle flush.
            for (const Placed &p : placed)
                queue.rxDevPending.stage(p.idx, p.buf, sim_.now());
            (void)takeBatch(q, queue.rxDevPending,
                            queue.rxDevPending.full() ? FlushReason::Full
                                                      : FlushReason::Idle,
                            static_cast<std::uint32_t>(
                                queue.rxInput.size()));
        }
        // NIC-managed: grant-ahead the next RX lines (§3.2).
        const std::uint32_t grant =
            cfg_.nicBufferMgmt
                ? std::max<std::uint32_t>(1, n / queue.rxRing.perLine())
                : 0;
        co_await rx.publish(
            queue.nicAgent, std::move(spans.spans), std::move(placed), end,
            grant,
            [completed = !cfg_.nicBufferMgmt, simp = &sim_](
                driver::DescRing::Slot &slot, const Placed &p) {
                // Overwrites any stale span on the recycled buffer;
                // stamped at store completion (the host cannot reap
                // before this runs).
                driver::fromWire(*p.buf, p.pkt);
                p.buf->span.stamp(obs::SpanStage::RxPublish, simp->now());
                slot.buf = p.buf;
                slot.len = p.buf->len;
                slot.ready = true;
                if (completed)
                    slot.meta = driver::kRxCompleted;
            });
        endRxBatch(q, kNicBatch);
    }
}

} // namespace ccn::ccnic
