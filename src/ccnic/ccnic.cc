#include "ccnic/ccnic.hh"

#include <algorithm>
#include <cassert>
#include <unordered_set>

namespace ccn::ccnic {

using driver::BufClass;
using driver::PacketBuf;
using driver::RingLayout;
using driver::SignalMode;
using mem::Addr;
using sim::Tick;

namespace {

/** Host-managed RX slot states carried in Slot::meta. */
constexpr std::uint64_t kRxEmpty = 0;
constexpr std::uint64_t kRxPosted = 1;
constexpr std::uint64_t kRxCompleted = 2;
/// Consumer-private marker: taken but the group's clear has not been
/// published yet (bursts may stop mid-group).
constexpr std::uint64_t kConsumed = 3;

} // namespace

namespace {

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

} // namespace

std::uint32_t
wireFcs(const WirePacket &pkt)
{
    // CRC-32C (Castagnoli) over the logical field words.
    const std::uint64_t words[] = {
        pkt.len,
        pkt.flowId,
        pkt.userData,
        static_cast<std::uint64_t>(pkt.segments) |
            (static_cast<std::uint64_t>(pkt.dst) << 8),
        static_cast<std::uint64_t>(pkt.tp.srcConn) |
            (static_cast<std::uint64_t>(pkt.tp.dstConn) << 32),
        static_cast<std::uint64_t>(pkt.tp.seq) |
            (static_cast<std::uint64_t>(pkt.tp.ack) << 32),
        pkt.tp.sack,
        static_cast<std::uint64_t>(pkt.tp.credits) |
            (static_cast<std::uint64_t>(pkt.tp.flags) << 16),
    };
    std::uint32_t crc = ~0u;
    for (const std::uint64_t w : words)
        crc = driver::crc32cWord(crc, w);
    crc = ~crc;
    // Reserve 0 as the "unstamped" sentinel.
    return crc ? crc : 1u;
}

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

driver::CpuCosts
platformCosts(const mem::PlatformConfig &plat)
{
    driver::CpuCosts c;
    if (plat.name == "SPR") {
        // Leaner per-packet software on SPR (§5.3: 1520Mpps across 56
        // cores while the interconnect, not the cores, saturates).
        c.perLoop = 14;
        c.perPktTx = 9;
        c.perPktRx = 8;
        c.perDesc = 3;
        c.perAllocFree = 4;
    } else {
        // ICX: ~21Mpps/core saturated (330Mpps, core-limited, §5.3).
        c.perLoop = 28;
        c.perPktTx = 32;
        c.perPktRx = 28;
        c.perDesc = 9;
        c.perAllocFree = 9;
    }
    return c;
}

CcNicConfig
optimizedConfig(int num_queues, int host_socket,
                const mem::PlatformConfig &plat)
{
    CcNicConfig cfg = optimizedConfig(num_queues, host_socket);
    cfg.hostCosts = platformCosts(plat);
    cfg.nicCosts = platformCosts(plat);
    return cfg;
}

CcNicConfig
unoptimizedConfig(int num_queues, int host_socket,
                  const mem::PlatformConfig &plat)
{
    CcNicConfig cfg = unoptimizedConfig(num_queues, host_socket);
    cfg.hostCosts = platformCosts(plat);
    cfg.nicCosts = platformCosts(plat);
    return cfg;
}

CcNic::Queue::Queue(sim::Simulator &sim, mem::CoherentSystem &m,
                    const CcNicConfig &cfg, int host_socket,
                    int nic_socket)
    : hostAgent(m.addAgent(host_socket)),
      nicAgent(m.addAgent(nic_socket)),
      tx(m, host_socket, cfg.ringEntries, cfg.layout),
      rx(m, cfg.nicHomedRx ? nic_socket : host_socket, cfg.ringEntries,
         cfg.layout),
      txTail(m, host_socket),
      txHead(m, host_socket),
      rxTail(m, cfg.nicHomedRx ? nic_socket : host_socket),
      rxHead(m, host_socket),
      txShadow(cfg.ringEntries, nullptr),
      rxInput(sim),
      coreLock(sim, 1),
      wireDrained(sim)
{}

CcNic::CcNic(sim::Simulator &sim, mem::CoherentSystem &mem_system,
             const CcNicConfig &config, int host_socket, int nic_socket,
             sim::Rng &rng)
    : sim_(sim), mem_(mem_system), cfg_(config),
      hostSocket_(host_socket), nicSocket_(nic_socket),
      integrity_(mem_system), runGate_(sim)
{
    cfg_.pool.homeSocket = host_socket;
    // Ring index arithmetic masks with entries-1, so normalize a
    // non-power-of-two request before sizing rings and shadows.
    cfg_.ringEntries = driver::DescRing::roundUpPow2(cfg_.ringEntries);
    // Keep NIC batches group-aligned so clears land on line boundaries.
    cfg_.nicBatch = std::max(4, (cfg_.nicBatch / 4) * 4);
    // Clamp the publish-batch target well under the ring size so a
    // staged (unpublished, hence not `ready`) region can never be
    // lapped and overwritten by the producer's own full-ring check.
    if (cfg_.batch.enabled()) {
        const std::uint32_t cap = std::max(1u, cfg_.ringEntries / 4);
        cfg_.batch.size =
            std::min(std::max(1u, cfg_.batch.size), cap);
        cfg_.batch.maxSize =
            std::min(std::max(cfg_.batch.size, cfg_.batch.maxSize),
                     cap);
    }
    pool_ = std::make_unique<driver::Mempool>(mem_, cfg_.pool, rng);
    for (int q = 0; q < cfg_.numQueues; ++q) {
        queues_.push_back(std::make_unique<Queue>(
            sim_, mem_, cfg_, hostSocket_, nicSocket_));
        queues_.back()->sigReads =
            &signalReadsQ_.at(static_cast<std::uint64_t>(q));
        queues_.back()->txPending.setPolicy(cfg_.batch);
        queues_.back()->rxDevPending.setPolicy(cfg_.batch);
        queues_.back()->batchOcc =
            &batchOccupancy_.at(static_cast<std::uint64_t>(q));
    }
    // Heartbeat lines are writer-homed like the rings (§3.3): each
    // side bumps its own line and polls the other's.
    hostBeat_ =
        std::make_unique<driver::RegisterLine>(mem_, hostSocket_);
    nicBeat_ = std::make_unique<driver::RegisterLine>(mem_, nicSocket_);
    registerProfRegions();
}

CcNic::~CcNic()
{
    unregisterProfRegions();
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
        profRegions_.push_back(
            prof.registerRegion(tag + ".tx_ring" + qs, queue.tx.base(),
                                queue.tx.bytes(), ring_intent));
        profRegions_.push_back(
            prof.registerRegion(tag + ".rx_ring" + qs, queue.rx.base(),
                                queue.rx.bytes(), ring_intent));
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
CcNic::unregisterProfRegions()
{
    for (obs::RegionId id : profRegions_)
        mem_.profiler().unregisterRegion(id);
    profRegions_.clear();
}

void
CcNic::start()
{
    assert(!started_);
    started_ = true;
    for (int q = 0; q < cfg_.numQueues; ++q) {
        sim_.spawn(nicTxTask(q));
        sim_.spawn(nicRxTask(q));
        if (cfg_.batch.enabled())
            sim_.spawn(txFlushTimerTask(q));
    }
    sim_.spawn(heartbeatTask());
}

mem::AgentId
CcNic::hostAgent(int q) const
{
    return queues_[q]->hostAgent;
}

mem::AgentId
CcNic::nicAgent(int q) const
{
    return queues_[q]->nicAgent;
}

std::vector<mem::Addr>
CcNic::faultLines() const
{
    // Queue 0's live descriptor lines: the host's next TX publish
    // target is read by the device engine, the device's next RX
    // publish target by the host's rxBurst.
    const Queue &q = *queues_[0];
    return {q.tx.lineOf(q.txCons), q.rx.lineOf(q.rxCons)};
}

sim::Coro<bool>
CcNic::consumeGuard(mem::Addr line)
{
    if (!mem_.faultsArmed())
        co_return true;
    if (integrity_.staleView(line, mem::kLineBytes)) {
        integrity_.noteReject();
        co_return false;
    }
    co_return co_await integrity_.guardRange(line, mem::kLineBytes);
}

void
CcNic::deliverTx(int q, const WirePacket &pkt)
{
    txCount_++;
    // TX checksum offload: every packet leaves with a valid FCS.
    WirePacket out = pkt;
    out.span.stamp(obs::SpanStage::WireTx, sim_.now());
    out.fcs = wireFcs(out);
    if (!cfg_.loopback && txSink_) {
        txSink_(q, out);
        return;
    }
    if (cfg_.wireLat == 0) {
        out.span.stamp(obs::SpanStage::LinkDeliver, sim_.now());
        queues_[q]->rxInput.put(out);
    } else {
        Queue *queue = queues_[q].get();
        sim_.scheduleCallback(sim_.now() + cfg_.wireLat,
                              [queue, out, simp = &sim_]() mutable {
                                  out.span.stamp(
                                      obs::SpanStage::LinkDeliver,
                                      simp->now());
                                  queue->rxInput.put(out);
                              });
    }
}

void
CcNic::injectRx(int q, const WirePacket &pkt)
{
    if (!fcsOk(pkt)) {
        rxCrcDrops_++;
        return;
    }
    WirePacket in = pkt;
    in.span.stamp(obs::SpanStage::LinkDeliver, sim_.now());
    queues_[q]->rxInput.put(in);
}

sim::Task
CcNic::heartbeatTask()
{
    for (;;) {
        co_await sim_.delay(cfg_.beatPeriod);
        // A wedged or down device goes silent: that silence is the
        // Watchdog's failure signal, so do not bump the line.
        if (wedged_ || devState_ != DevState::Running)
            continue;
        const mem::AgentId agent = queues_[0]->nicAgent;
        co_await mem_.store(agent, nicBeat_->addr(), 8);
        nicBeat_->publish(nicBeat_->value() + 1);
        heartbeats_++;
        // Pingpong read of the host's beat line (host-liveness view).
        co_await mem_.load(agent, hostBeat_->addr(), 8);
    }
}

sim::Coro<void>
CcNic::beatHost()
{
    const mem::AgentId agent = queues_[0]->hostAgent;
    co_await mem_.store(agent, hostBeat_->addr(), 8);
    hostBeat_->publish(hostBeat_->value() + 1);
    co_return;
}

sim::Coro<std::uint64_t>
CcNic::readDeviceBeat()
{
    co_await mem_.load(queues_[0]->hostAgent, nicBeat_->addr(), 8);
    co_return nicBeat_->value();
}

driver::QueueHealth
CcNic::health(int q) const
{
    const Queue &queue = *queues_[q];
    driver::QueueHealth h;
    h.txSubmitted = queue.txSubmittedTotal;
    h.txCompleted = queue.txCompletedTotal;
    h.rxDelivered = queue.rxDeliveredTotal;
    h.txOutstanding = queue.txProd - queue.txCons;
    // Staged-but-unflushed descriptors are invisible to the device;
    // the Watchdog must not read a coalescing delay as a ring stall.
    h.txHeldInBatch = queue.txPending.size();
    return h;
}

sim::Coro<void>
CcNic::quiesce()
{
    if (devState_ == DevState::Down)
        co_return;
    devState_ = DevState::Quiescing;
    // Wake parked engines so they observe the state change; engines
    // blocked on signal lines re-check within one beatPeriod.
    runGate_.notifyAll();
    for (auto &qp : queues_)
        qp->wireDrained.notifyAll();
    // Refuse new host bursts (devState_ guard) and drain the ones in
    // flight.
    while (hostOps_ > 0)
        co_await sim_.delay(sim::fromNs(100));
    // Sweep each queue's core lock: once it can be taken, no NIC
    // engine is mid-batch on that queue.
    for (auto &qp : queues_) {
        co_await qp->coreLock.acquire();
        qp->coreLock.release();
    }
    devState_ = DevState::Down;
    co_return;
}

sim::Coro<void>
CcNic::reset()
{
    assert(devState_ == DevState::Down);
    co_await sim_.delay(cfg_.resetLat);

    std::uint64_t reclaimed = 0;
    for (int q = 0; q < cfg_.numQueues; ++q) {
        Queue &queue = *queues_[q];
        // Reclaim every ring-owned buffer exactly once. A kConsumed
        // slot's buffer has already changed hands (inline RX: the app
        // took it; inline TX: the NIC freed it), so only non-consumed
        // occupied slots are ring-owned. txShadow may alias TX slots
        // (host-managed mode stores the buffer in both), so dedup.
        // Free in first-seen order: a set of pointers iterates in an
        // order that depends on where the heap placed the buffers, so
        // the recycle order, and the rest of the run, would differ
        // between processes.
        std::unordered_set<PacketBuf *> seen;
        std::vector<PacketBuf *> frees;
        auto reclaim = [&seen, &frees](PacketBuf *b) {
            if (seen.insert(b).second)
                frees.push_back(b);
        };
        auto sweep = [&reclaim](driver::DescRing &ring) {
            for (std::uint32_t i = 0; i < ring.entries(); ++i) {
                auto &slot = ring.slot(i);
                if (slot.buf && slot.meta != kConsumed)
                    reclaim(slot.buf);
                slot.buf = nullptr;
                slot.ready = false;
                slot.meta = kRxEmpty;
                slot.len = 0;
                slot.gen = 0;
                slot.csum = 0;
            }
        };
        sweep(queue.tx);
        sweep(queue.rx);
        // Staged-but-unflushed publications never reached a slot, so
        // the ring sweep cannot see their buffers: reclaim them here.
        for (const auto &e : queue.txPending.take(true)) {
            if (e.buf)
                reclaim(e.buf);
        }
        (void)queue.rxDevPending.take(true);
        queue.tx.clearAllSeals();
        queue.rx.clearAllSeals();
        for (PacketBuf *&b : queue.txShadow) {
            if (b)
                reclaim(b);
            b = nullptr;
        }
        // Drop wire-side packets queued into the dead device.
        while (!queue.rxInput.empty())
            (void)co_await queue.rxInput.get();

        if (!frees.empty()) {
            for (PacketBuf *b : frees)
                b->nextSeg = nullptr; // Second segments are app memory.
            co_await pool_->freeBurst(queue.nicAgent, frees.data(),
                                      static_cast<int>(frees.size()),
                                      q);
            reclaimed += frees.size();
        }

        // Zero ring positions and signal caches; clear signal lines.
        queue.txProd = queue.rxCons = queue.rxClearScan = 0;
        queue.txFreeScan = queue.rxPostProd = 0;
        queue.txCons = queue.txClearScan = 0;
        queue.rxProd = queue.rxPostCons = 0;
        queue.hostTxHeadCache = queue.nicTxTailCache = 0;
        queue.hostRxTailCache = queue.nicRxHeadCache = 0;
        queue.txTail.publish(0);
        queue.txHead.publish(0);
        queue.rxTail.publish(0);
        queue.rxHead.publish(0);
    }
    // Surface the teardown leak audit through PoolTelemetry: after
    // reclamation every buffer not held by the application must be
    // back in the pool.
    pool_->auditLeaks();
    resetReclaimed_ += reclaimed;
    resets_++;
    obs::tracepoint(obs::EventKind::Custom, "ccnic.reset", sim_.now(),
                    reclaimed);
    co_return;
}

sim::Coro<void>
CcNic::reinit()
{
    assert(devState_ == DevState::Down);
    co_await sim_.delay(cycles(cfg_.nicCosts.perLoop * 8));
    // Re-register profiler regions across the hot-reset, as a fresh
    // driver attach would. reset() does not reallocate ring storage,
    // so the ranges are identical and the region count must not leak.
    unregisterProfRegions();
    registerProfRegions();
    wedged_ = false;
    devState_ = DevState::Running;
    runGate_.notifyAll();
    for (auto &qp : queues_)
        qp->wireDrained.notifyAll();
    co_return;
}

sim::Coro<int>
CcNic::allocBufs(int q, std::uint32_t size, PacketBuf **bufs, int count)
{
    Queue &queue = *queues_[q];
    co_await sim_.delay(
        cycles(cfg_.hostCosts.perAllocFree * std::max(1, count / 8)));
    int got = co_await pool_->allocBurst(queue.hostAgent, size, bufs,
                                         count, q);
    // Recycled buffers must not leak a previous transport header or
    // a stale span slot.
    for (int i = 0; i < got; ++i) {
        bufs[i]->tp = {};
        bufs[i]->span.clear();
    }
    co_return got;
}

sim::Coro<void>
CcNic::freeBufs(int q, PacketBuf **bufs, int count)
{
    Queue &queue = *queues_[q];
    co_await sim_.delay(
        cycles(cfg_.hostCosts.perAllocFree * std::max(1, count / 8)));
    co_await pool_->freeBurst(queue.hostAgent, bufs, count, q);
    co_return;
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
    const auto &costs = cfg_.hostCosts;
    const std::uint32_t per_line = queue.tx.perLine();
    co_await sim_.delay(cycles(costs.perLoop));

    // Host-managed mode: reap TX completions (bookkeeping pass the
    // shared pool eliminates, §3.4).
    if (!cfg_.nicBufferMgmt) {
        std::vector<mem::CoherentSystem::Span> scan_spans;
        std::vector<PacketBuf *> to_free;
        Addr last_line = ~Addr{0};
        if (cfg_.signal == SignalMode::Register) {
            if (queue.txFreeScan !=
                static_cast<std::uint32_t>(queue.txHead.value())) {
                noteSignalRead(queue, queue.txHead.addr());
                co_await mem_.load(queue.hostAgent,
                                   queue.txHead.addr(), 8);
                queue.hostTxHeadCache = queue.txHead.value();
            }
            while (queue.txFreeScan !=
                   static_cast<std::uint32_t>(queue.hostTxHeadCache)) {
                PacketBuf *b = queue.txShadow[queue.txFreeScan &
                                              queue.tx.mask()];
                if (b)
                    to_free.push_back(b);
                queue.txShadow[queue.txFreeScan & queue.tx.mask()] =
                    nullptr;
                queue.txFreeScan++;
            }
        } else {
            // Staged-but-unflushed slots are not `ready` either, but
            // they are pending work, not completions: stop the reap
            // scan before the staged region.
            const std::uint32_t reap_limit =
                queue.txProd - queue.txPending.size();
            while (queue.txFreeScan != reap_limit &&
                   !queue.tx.slot(queue.txFreeScan).ready) {
                const Addr l = queue.tx.lineOf(queue.txFreeScan);
                if (l != last_line) {
                    scan_spans.push_back({l, mem::kLineBytes});
                    last_line = l;
                }
                PacketBuf *b = queue.txShadow[queue.txFreeScan &
                                              queue.tx.mask()];
                if (b)
                    to_free.push_back(b);
                queue.txShadow[queue.txFreeScan & queue.tx.mask()] =
                    nullptr;
                queue.txFreeScan++;
            }
            if (!scan_spans.empty())
                co_await mem_.accessMulti(queue.hostAgent, scan_spans,
                                          false);
        }
        if (!to_free.empty()) {
            co_await pool_->freeBurst(queue.hostAgent, to_free.data(),
                                      static_cast<int>(to_free.size()),
                                      q);
        }
    }

    // Capacity under register signaling: reload the head register
    // when the cached view looks full.
    if (cfg_.signal == SignalMode::Register) {
        auto space = [&] {
            return queue.tx.entries() - 1 -
                   (queue.txProd -
                    static_cast<std::uint32_t>(queue.hostTxHeadCache));
        };
        if (space() < static_cast<std::uint32_t>(count)) {
            noteSignalRead(queue, queue.txHead.addr());
            co_await mem_.load(queue.hostAgent, queue.txHead.addr(), 8);
            queue.hostTxHeadCache = queue.txHead.value();
        }
        count = std::min<std::uint32_t>(count, space());
    }

    // Gather writable slots.
    struct Pending
    {
        std::uint32_t idx;
        PacketBuf *buf;
    };
    std::vector<Pending> pending;
    std::vector<mem::CoherentSystem::Span> spans;
    Addr last_line = ~Addr{0};
    std::uint32_t idx = queue.txProd;
    for (int i = 0; i < count; ++i) {
        if (cfg_.signal == SignalMode::Inline &&
            queue.tx.slot(idx).ready) {
            break; // Ring full: the consumer has not cleared yet.
        }
        pending.push_back({idx, bufs[i]});
        const Addr l = queue.tx.lineOf(idx);
        if (l != last_line) {
            spans.push_back({l, mem::kLineBytes});
            last_line = l;
        }
        idx++;
    }
    if (pending.empty())
        co_return 0;

    // Lifecycle spans: activate the 1-in-N sampled slot on accepted
    // buffers only (rejected packets never entered the pipeline).
    for (const Pending &p : pending)
        obs::SpanTable::global().maybeStart(p.buf->span, sim_.now());

    // Grouped layout: a partial final group is zero-padded and the
    // producer skips to the next line, sealing it so the consumer
    // knows the blanks are permanent (§3.2). Under batched
    // publication the group instead stays open — the next flush
    // continues mid-group, so skipping (and sealing) would waste
    // slots and strand the coalesced line.
    constexpr std::uint32_t kNoSeal = ~0u;
    std::uint32_t seal_idx = kNoSeal;
    if (cfg_.layout == RingLayout::Grouped &&
        cfg_.signal == SignalMode::Inline && (idx % per_line) != 0 &&
        !cfg_.batch.enabled()) {
        seal_idx = idx;
        idx = queue.tx.groupBase(idx) + per_line;
    }

    co_await sim_.delay(cycles((costs.perPktTx + costs.perDesc) *
                               static_cast<double>(pending.size())));
    // Posted stores: the core retires immediately; descriptor flags
    // (and, in register mode, the tail value — TSO orders it after the
    // descriptor stores) become visible at store completion.
    queue.txProd = idx;
    queue.txSubmittedTotal += pending.size();
    if (cfg_.batch.enabled()) {
        // Software write-combining: retire the descriptors into the
        // host-side staging batch — no coherence traffic, no signal —
        // and publish everything at once when the batch fills (or the
        // flush timer fires on a partial batch).
        for (const Pending &p : pending)
            queue.txPending.stage(p.idx, p.buf, sim_.now());
        if (queue.txPending.full())
            co_await flushTxBatch(q, /*timeout_flush=*/false);
        co_return static_cast<int>(pending.size());
    }
    {
        Queue *qp = &queue;
        const bool shadow = !cfg_.nicBufferMgmt;
        const bool reg = cfg_.signal == SignalMode::Register;
        const std::uint64_t tail_val = queue.txProd;
        if (reg)
            spans.push_back({queue.txTail.addr(), 8});
        // Unbatched publication is a degenerate batch of one burst:
        // the flush begins now.
        const Tick flush_now = sim_.now();
        for (const Pending &p : pending)
            p.buf->span.stamp(obs::SpanStage::BatchFlush, flush_now);
        auto publish = [qp, shadow, reg, tail_val, seal_idx, pending,
                        simp = &sim_]() {
            for (const Pending &p : pending) {
                auto &slot = qp->tx.slot(p.idx);
                slot.buf = p.buf;
                slot.len = p.buf->wireLen();
                slot.ready = true;
                qp->tx.stampSlot(p.idx);
                // Stamped inside the publish (store-completion time):
                // this is when the descriptor became visible, not
                // when the core retired the posted store.
                p.buf->span.stamp(obs::SpanStage::DescPublish,
                                  simp->now());
                if (shadow)
                    qp->txShadow[p.idx & qp->tx.mask()] = p.buf;
            }
            if (seal_idx != kNoSeal)
                qp->tx.sealLine(seal_idx);
            if (reg)
                qp->txTail.publish(tail_val);
        };
        co_await mem_.postMulti(queue.hostAgent, spans,
                                std::move(publish));
        noteSignalWrite(reg ? queue.txTail.addr()
                            : queue.tx.lineOf(tail_val ? static_cast<
                                  std::uint32_t>(tail_val) - 1 : 0));
    }
    if (cfg_.signal == SignalMode::Inline && cfg_.nicBufferMgmt) {
        // Read-ahead the ring lines the next burst will use: the
        // capacity check doubles as a migratory ownership grant, so
        // the next burst's descriptor stores hit locally (§3.2).
        const std::uint32_t lines_written =
            static_cast<std::uint32_t>(spans.size());
        for (std::uint32_t k = 0; k < lines_written; ++k) {
            mem_.touchLine(queue.hostAgent,
                           queue.tx.lineOf(queue.txProd +
                                           k * per_line));
        }
    }
    co_return static_cast<int>(pending.size());
}

sim::Coro<void>
CcNic::flushTxBatch(int q, bool timeout_flush)
{
    Queue &queue = *queues_[q];
    if (queue.txPending.empty())
        co_return;
    // Work still outstanding behind this batch drives adaptive
    // growth: a backlogged device benefits from larger, rarer signal
    // writes.
    const std::uint32_t backlog = queue.txProd - queue.txCons;
    auto entries = queue.txPending.take(timeout_flush, backlog);

    batchFlushTotal_++;
    batchFlushes_.at(timeout_flush ? "timeout" : "full")++;
    if (queue.batchOcc)
        *queue.batchOcc += entries.size();

    std::vector<mem::CoherentSystem::Span> spans;
    Addr last_line = ~Addr{0};
    for (const auto &e : entries) {
        const Addr l = queue.tx.lineOf(e.idx);
        if (l != last_line) {
            spans.push_back({l, mem::kLineBytes});
            last_line = l;
        }
    }
    const std::uint32_t desc_lines =
        static_cast<std::uint32_t>(spans.size());
    const std::uint32_t last_idx = entries.back().idx;
    const bool shadow = !cfg_.nicBufferMgmt;
    const bool reg = cfg_.signal == SignalMode::Register;
    const std::uint64_t tail_val = last_idx + 1;
    if (reg)
        spans.push_back({queue.txTail.addr(), 8});

    // One coalesced publication: every staged descriptor, its ready
    // flag, and the signal (line store or tail register) become
    // visible as a single posted-store group — one signal write for
    // the whole batch instead of one per burst.
    const Tick flush_now = sim_.now();
    for (const auto &e : entries)
        e.buf->span.stamp(obs::SpanStage::BatchFlush, flush_now);
    Queue *qp = &queue;
    auto publish = [qp, shadow, reg, tail_val,
                    entries = std::move(entries), simp = &sim_]() {
        for (const auto &e : entries) {
            auto &slot = qp->tx.slot(e.idx);
            slot.buf = e.buf;
            slot.len = e.buf->wireLen();
            slot.ready = true;
            qp->tx.stampSlot(e.idx);
            e.buf->span.stamp(obs::SpanStage::DescPublish,
                              simp->now());
            if (shadow)
                qp->txShadow[e.idx & qp->tx.mask()] = e.buf;
        }
        if (reg)
            qp->txTail.publish(tail_val);
    };
    co_await mem_.postMulti(queue.hostAgent, spans,
                            std::move(publish));
    noteSignalWrite(reg ? queue.txTail.addr()
                        : queue.tx.lineOf(last_idx));
    if (cfg_.signal == SignalMode::Inline && cfg_.nicBufferMgmt) {
        // Same migratory grant-ahead as the unbatched path (§3.2).
        for (std::uint32_t k = 0; k < desc_lines; ++k) {
            mem_.touchLine(queue.hostAgent,
                           queue.tx.lineOf(queue.txProd +
                                           k * queue.tx.perLine()));
        }
    }
    co_return;
}

sim::Task
CcNic::txFlushTimerTask(int q)
{
    Queue &queue = *queues_[q];
    // Half-timeout polling bounds a partial batch's hold time to
    // 1.5x flushTimeout without a per-stage timer wheel.
    const Tick period = std::max<Tick>(1, cfg_.batch.flushTimeout / 2);
    for (;;) {
        co_await sim_.delay(period);
        // Down/quiescing device: staged buffers are reclaimed by
        // reset(); never publish into a dead ring.
        if (devState_ != DevState::Running)
            continue;
        if (!queue.txPending.empty() &&
            queue.txPending.timedOut(sim_.now())) {
            co_await flushTxBatch(q, /*timeout_flush=*/true);
        }
    }
}

sim::Coro<int>
CcNic::rxBurst(int q, PacketBuf **bufs, int count)
{
    if (devState_ != DevState::Running)
        co_return 0;
    OpScope guard(hostOps_);
    Queue &queue = *queues_[q];
    const auto &costs = cfg_.hostCosts;
    const std::uint32_t per_line = queue.rx.perLine();
    co_await sim_.delay(cycles(costs.perLoop));

    // Integrity filter on the head RX line: a stale (torn/stuck)
    // view polls as empty; a poisoned line is retried inline.
    if (!co_await consumeGuard(queue.rx.lineOf(queue.rxCons)))
        co_return 0;

    int collected = 0;
    std::vector<mem::CoherentSystem::Span> load_spans;
    std::vector<mem::CoherentSystem::Span> clear_spans;
    Addr last_load = ~Addr{0};

    auto note_load = [&](std::uint32_t i) {
        const Addr l = queue.rx.lineOf(i);
        if (l != last_load) {
            load_spans.push_back({l, mem::kLineBytes});
            last_load = l;
        }
    };

    if (cfg_.nicBufferMgmt) {
        std::uint32_t idx = queue.rxCons;
        if (cfg_.signal == SignalMode::Register) {
            // Register mode: consume strictly up to the cached tail,
            // reloading the tail register when it looks empty.
            if (idx == static_cast<std::uint32_t>(
                           queue.hostRxTailCache)) {
                noteSignalRead(queue, queue.rxTail.addr());
                co_await mem_.load(queue.hostAgent,
                                   queue.rxTail.addr(), 8);
                queue.hostRxTailCache = queue.rxTail.value();
            }
            while (collected < count &&
                   idx != static_cast<std::uint32_t>(
                              queue.hostRxTailCache)) {
                auto &slot = queue.rx.slot(idx);
                if (!slot.ready)
                    break; // Publish still in flight.
                if (!queue.rx.slotValid(idx)) {
                    integrity_.noteReject();
                    break; // Torn/corrupt descriptor: re-poll.
                }
                note_load(idx);
                bufs[collected++] = slot.buf;
                slot.buf = nullptr;
                slot.ready = false;
                slot.meta = kRxEmpty;
                queue.rx.clearStamp(idx);
                idx++;
            }
        } else {
            // CC-NIC path: NIC wrote descriptors; consume, then clear
            // the fully-passed lines (the two-way inline signal,
            // §3.2).
            while (collected < count) {
                auto &slot = queue.rx.slot(idx);
                if (slot.ready && slot.meta != kConsumed) {
                    if (!queue.rx.slotValid(idx)) {
                        integrity_.noteReject();
                        break; // Torn/corrupt descriptor: re-poll.
                    }
                    note_load(idx);
                    bufs[collected++] = slot.buf;
                    slot.meta = kConsumed;
                    queue.rx.clearStamp(idx);
                    idx++;
                    continue;
                }
                if (!slot.ready &&
                    cfg_.layout == RingLayout::Grouped &&
                    (idx % per_line) != 0 &&
                    queue.rx.lineSealed(idx)) {
                    // Blank mid-group on a sealed line: the producer
                    // abandoned the rest of this group. An open
                    // (unsealed) group may still be continued by a
                    // later batched flush, so stop there instead —
                    // skipping would leap over live descriptors.
                    idx = queue.rx.groupBase(idx) + per_line;
                    continue;
                }
                break;
            }
        }
        if (collected == 0)
            co_return 0;
        queue.rxCons = idx;

        co_await mem_.accessMulti(queue.hostAgent, load_spans, false);

        if (cfg_.signal == SignalMode::Inline) {
            // Clear every line the consumer has fully passed.
            const std::uint32_t limit = queue.rx.groupBase(idx);
            Addr last_clear = ~Addr{0};
            for (std::uint32_t i = queue.rxClearScan; i != limit; ++i) {
                const Addr l = queue.rx.lineOf(i);
                if (l != last_clear) {
                    clear_spans.push_back({l, mem::kLineBytes});
                    last_clear = l;
                }
            }
            if (!clear_spans.empty()) {
                Queue *qp = &queue;
                const std::uint32_t from = queue.rxClearScan;
                auto publish = [qp, from, limit]() {
                    for (std::uint32_t i = from; i != limit; ++i) {
                        auto &slot = qp->rx.slot(i);
                        slot.ready = false;
                        slot.meta = kRxEmpty;
                        slot.buf = nullptr;
                        // Recycled lines start the next lap open.
                        qp->rx.clearSeal(i);
                    }
                };
                co_await mem_.postMulti(queue.hostAgent, clear_spans,
                                        std::move(publish));
                noteSignalWrite(clear_spans.front().addr);
                queue.rxClearScan = limit;
            }
        } else {
            Queue *qp = &queue;
            const std::uint64_t v = queue.rxCons;
            std::vector<mem::CoherentSystem::Span> reg{
                {queue.rxHead.addr(), 8}};
            co_await mem_.postMulti(queue.hostAgent, reg,
                                    [qp, v] { qp->rxHead.publish(v); });
            noteSignalWrite(queue.rxHead.addr());
        }
    } else {
        // Host-managed path (PCIe-style): consume completed slots and
        // repost blank buffers.
        std::uint32_t idx = queue.rxCons;
        std::vector<std::uint32_t> reposted;
        while (collected < count &&
               queue.rx.slot(idx).meta == kRxCompleted) {
            if (!queue.rx.slotValid(idx)) {
                integrity_.noteReject();
                break; // Torn/corrupt completion: re-poll.
            }
            note_load(idx);
            bufs[collected++] = queue.rx.slot(idx).buf;
            queue.rx.slot(idx).meta = kRxEmpty;
            queue.rx.slot(idx).buf = nullptr;
            queue.rx.slot(idx).ready = false;
            queue.rx.clearStamp(idx);
            idx++;
        }
        if (collected > 0)
            co_await mem_.accessMulti(queue.hostAgent, load_spans,
                                      false);
        queue.rxCons = idx;

        // Repost: keep the ring full of blanks (bursted allocation).
        std::vector<mem::CoherentSystem::Span> post_spans;
        Addr last_post = ~Addr{0};
        std::vector<std::pair<std::uint32_t, PacketBuf *>> posts;
        const std::uint32_t avail_slots =
            queue.rx.entries() - per_line -
            (queue.rxPostProd - queue.rxCons);
        if (avail_slots > 0 && avail_slots <= queue.rx.entries()) {
            std::vector<PacketBuf *> blanks(avail_slots, nullptr);
            const int got = co_await pool_->allocBurst(
                queue.hostAgent, cfg_.pool.largeBufBytes,
                blanks.data(), static_cast<int>(avail_slots), q);
            for (int i = 0; i < got; ++i) {
                posts.emplace_back(queue.rxPostProd, blanks[i]);
                const Addr l = queue.rx.lineOf(queue.rxPostProd);
                if (l != last_post) {
                    post_spans.push_back({l, mem::kLineBytes});
                    last_post = l;
                }
                queue.rxPostProd++;
            }
        }
        if (!posts.empty()) {
            Queue *qp = &queue;
            auto publish = [qp, posts]() {
                for (const auto &[i, b] : posts) {
                    auto &slot = qp->rx.slot(i);
                    slot.buf = b;
                    slot.meta = kRxPosted;
                    qp->rx.stampSlot(i);
                }
            };
            co_await mem_.postMulti(queue.hostAgent, post_spans,
                                    std::move(publish));
            if (cfg_.signal == SignalMode::Register) {
                noteSignalWrite(queue.rxHead.addr());
                co_await mem_.store(queue.hostAgent,
                                    queue.rxHead.addr(), 8);
                queue.rxHead.publish(queue.rxPostProd);
            }
        }
    }

    if (collected > 0) {
        co_await sim_.delay(
            cycles((costs.perPktRx + costs.perDesc) * collected));
        queue.rxDeliveredTotal += static_cast<std::uint64_t>(collected);
        rxDelivered_ += static_cast<std::uint64_t>(collected);
        // Close out sampled lifecycle spans: the buffers are in the
        // app's hands as of now.
        for (int i = 0; i < collected; ++i) {
            if (bufs[i]->span.active) {
                obs::SpanTable::global().commit(cfg_.spanPath,
                                                bufs[i]->span,
                                                sim_.now());
            }
        }
    }
    co_return collected;
}

sim::Coro<void>
CcNic::idleWait(int q, Tick deadline)
{
    Queue &queue = *queues_[q];
    Addr watch;
    if (cfg_.signal == SignalMode::Register && cfg_.nicBufferMgmt)
        watch = queue.rxTail.addr();
    else
        watch = queue.rx.lineOf(queue.rxCons);
    // Bounded like every engine wait: reset() rewinds rxCons to slot 0
    // and restarts delivery there, so a waiter parked on the old
    // consumer line would otherwise sleep through the whole recovery.
    co_await mem_.waitLineChangeUntil(
        watch, mem_.lineVersion(watch),
        std::min(deadline, sim_.now() + cfg_.beatPeriod));
    co_return;
}

sim::Task
CcNic::nicTxTask(int q)
{
    Queue &queue = *queues_[q];
    const auto &costs = cfg_.nicCosts;
    const std::uint32_t per_line = queue.tx.perLine();

    for (;;) {
        // Park while wedged or not Running; reinit()/unwedge() wake us.
        while (wedged_ || devState_ != DevState::Running)
            co_await runGate_.wait();

        // Wait for work. Waits are bounded by beatPeriod so a
        // lifecycle transition is observed promptly even when the host
        // has gone quiet.
        if (cfg_.signal == SignalMode::Inline) {
            const Addr line = queue.tx.lineOf(queue.txCons);
            noteSignalRead(queue, line);
            co_await mem_.load(queue.nicAgent, line, mem::kLineBytes);
            auto &head = queue.tx.slot(queue.txCons);
            if (!head.ready || head.meta == kConsumed) {
                co_await mem_.waitLineChangeUntil(
                    line, mem_.lineVersion(line),
                    sim_.now() + cfg_.beatPeriod);
                continue;
            }
        } else {
            if (static_cast<std::uint32_t>(queue.nicTxTailCache) ==
                queue.txCons) {
                const Addr line = queue.txTail.addr();
                noteSignalRead(queue, line);
                co_await mem_.load(queue.nicAgent, line, 8);
                queue.nicTxTailCache = queue.txTail.value();
                if (static_cast<std::uint32_t>(queue.nicTxTailCache) ==
                    queue.txCons) {
                    co_await mem_.waitLineChangeUntil(
                        line, mem_.lineVersion(line),
                        sim_.now() + cfg_.beatPeriod);
                    continue;
                }
            }
        }

        // Internal flow control: the device does not pull more TX work
        // while its RX side is backlogged (hardware NICs apply the
        // same internal buffering limits).
        while (cfg_.loopback &&
               queue.rxInput.size() >=
                   static_cast<std::size_t>(cfg_.nicBatch) * 2) {
            co_await queue.wireDrained.wait();
        }
        if (wedged_ || devState_ != DevState::Running)
            continue;

        co_await queue.coreLock.acquire();
        if (wedged_ || devState_ != DevState::Running) {
            // Lost the race against a lifecycle transition after
            // deciding to work; never start a batch on a dead device.
            queue.coreLock.release();
            continue;
        }

        // Integrity filter on the head descriptor line before
        // trusting its content (poison retried, stale re-polled).
        {
            const Addr head_line = queue.tx.lineOf(queue.txCons);
            if (!co_await consumeGuard(head_line)) {
                queue.coreLock.release();
                co_await mem_.waitLineChangeUntil(
                    head_line, mem_.lineVersion(head_line),
                    sim_.now() + cfg_.beatPeriod);
                continue;
            }
        }

        // Gather a batch of submitted descriptors.
        struct Taken
        {
            std::uint32_t idx;
            PacketBuf *buf;
            std::uint32_t len;
        };
        std::vector<Taken> batch;
        std::vector<mem::CoherentSystem::Span> desc_spans;
        Addr last_line = ~Addr{0};
        std::uint32_t idx = queue.txCons;

        auto note_desc = [&](std::uint32_t i) {
            const Addr l = queue.tx.lineOf(i);
            if (l != last_line) {
                desc_spans.push_back({l, mem::kLineBytes});
                last_line = l;
            }
        };

        if (cfg_.signal == SignalMode::Inline) {
            while (static_cast<int>(batch.size()) < cfg_.nicBatch) {
                auto &slot = queue.tx.slot(idx);
                if (slot.ready && slot.meta != kConsumed) {
                    if (!queue.tx.slotValid(idx)) {
                        integrity_.noteReject();
                        break; // Torn/corrupt descriptor: re-poll.
                    }
                    note_desc(idx);
                    batch.push_back({idx, slot.buf, slot.len});
                    slot.meta = kConsumed;
                    queue.tx.clearStamp(idx);
                    idx++;
                    continue;
                }
                if (!slot.ready &&
                    cfg_.layout == RingLayout::Grouped &&
                    (idx % per_line) != 0 &&
                    queue.tx.lineSealed(idx)) {
                    // Sealed line: the host zero-padded this group.
                    // An open group is a legal batched-publication
                    // state — wait for the flush instead of leaping
                    // over the descriptors it will write.
                    idx = queue.tx.groupBase(idx) + per_line;
                    continue;
                }
                break;
            }
        } else {
            while (static_cast<int>(batch.size()) < cfg_.nicBatch &&
                   idx !=
                       static_cast<std::uint32_t>(queue.nicTxTailCache)) {
                auto &slot = queue.tx.slot(idx);
                if (!slot.ready)
                    break; // Publish still in flight.
                if (!queue.tx.slotValid(idx)) {
                    integrity_.noteReject();
                    break; // Torn/corrupt descriptor: re-poll.
                }
                note_desc(idx);
                batch.push_back({idx, slot.buf, slot.len});
                slot.buf = nullptr;
                slot.ready = false;
                queue.tx.clearStamp(idx);
                idx++;
            }
        }

        if (batch.empty()) {
            queue.coreLock.release();
            continue;
        }

        // The NIC has observed the signal and taken the descriptors.
        for (const Taken &t : batch) {
            if (t.buf)
                t.buf->span.stamp(obs::SpanStage::NicObserve,
                                  sim_.now());
        }

        // Descriptor and payload reads. The CC-NIC engine pipelines
        // across the whole batch; the E810-emulation baseline handles
        // one descriptor at a time, serializing the address-dependent
        // descriptor-then-payload chain (§5.1).
        if (cfg_.nicPipelined) {
            co_await mem_.accessMulti(queue.nicAgent, desc_spans,
                                      false);
            std::vector<mem::CoherentSystem::Span> payload_spans;
            for (const Taken &t : batch) {
                payload_spans.push_back({t.buf->addr, t.buf->len});
                if (t.buf->nextSeg) {
                    payload_spans.push_back(
                        {t.buf->nextSeg->addr, t.buf->segLen});
                }
            }
            co_await mem_.accessMulti(queue.nicAgent, payload_spans,
                                      false);
        } else {
            for (const Taken &t : batch) {
                co_await mem_.load(queue.nicAgent,
                                   queue.tx.addrOf(t.idx), 16);
                std::vector<mem::CoherentSystem::Span> one{
                    {t.buf->addr, t.buf->len}};
                if (t.buf->nextSeg)
                    one.push_back({t.buf->nextSeg->addr, t.buf->segLen});
                co_await mem_.accessMulti(queue.nicAgent, one, false);
            }
        }
        co_await sim_.delay(
            cycles((costs.perPktRx + costs.perDesc) *
                   static_cast<double>(batch.size())));

        // Signal consumption.
        queue.txCons = idx;
        queue.txCompletedTotal += batch.size();
        if (cfg_.signal == SignalMode::Inline) {
            std::vector<mem::CoherentSystem::Span> clear_spans;
            Addr last_clear = ~Addr{0};
            const std::uint32_t limit = queue.tx.groupBase(idx);
            for (std::uint32_t i = queue.txClearScan; i != limit; ++i) {
                const Addr l = queue.tx.lineOf(i);
                if (l != last_clear) {
                    clear_spans.push_back({l, mem::kLineBytes});
                    last_clear = l;
                }
            }
            if (!clear_spans.empty()) {
                Queue *qp = &queue;
                const std::uint32_t from = queue.txClearScan;
                auto publish = [qp, from, limit]() {
                    for (std::uint32_t i = from; i != limit; ++i) {
                        auto &slot = qp->tx.slot(i);
                        slot.ready = false;
                        slot.meta = kRxEmpty;
                        slot.buf = nullptr;
                        qp->tx.clearSeal(i);
                    }
                };
                co_await mem_.postMulti(queue.nicAgent, clear_spans,
                                        std::move(publish));
                noteSignalWrite(clear_spans.front().addr);
            }
            queue.txClearScan = limit;
        } else {
            Queue *qp = &queue;
            const std::uint64_t v = queue.txCons;
            std::vector<mem::CoherentSystem::Span> reg{
                {queue.txHead.addr(), 8}};
            co_await mem_.postMulti(queue.nicAgent, reg,
                                    [qp, v] { qp->txHead.publish(v); });
            noteSignalWrite(queue.txHead.addr());
        }

        // Hand to the wire before buffer release (segment metadata is
        // consumed by delivery).
        for (const Taken &t : batch) {
            if (!t.buf)
                continue;
            WirePacket pkt{t.len, t.buf->txTime, t.buf->flowId,
                           t.buf->userData, 1, t.buf->src, t.buf->dst,
                           t.buf->tp, 0, t.buf->span};
            // The span rides the wire from here; the TX buffer is
            // about to be recycled and must not keep an active slot.
            t.buf->span.clear();
            if (t.buf->nextSeg)
                pkt.segments = 2;
            deliverTx(q, pkt);
        }

        // Buffer management: the NIC returns TX buffers to the shared
        // pool (§3.4); in host-managed mode the host reaps instead.
        if (cfg_.nicBufferMgmt) {
            std::vector<PacketBuf *> frees;
            for (const Taken &t : batch) {
                if (t.buf) {
                    if (t.buf->nextSeg)
                        t.buf->nextSeg = nullptr;
                    frees.push_back(t.buf);
                }
            }
            if (!frees.empty())
                co_await pool_->freeBurst(queue.nicAgent, frees.data(),
                                          static_cast<int>(
                                              frees.size()),
                                          q);
        }

        queue.coreLock.release();
    }
}

sim::Task
CcNic::nicRxTask(int q)
{
    Queue &queue = *queues_[q];
    const auto &costs = cfg_.nicCosts;
    const std::uint32_t per_line = queue.rx.perLine();

    for (;;) {
        while (wedged_ || devState_ != DevState::Running)
            co_await runGate_.wait();
        WirePacket first = co_await queue.rxInput.get();
        // Hold the packet across a lifecycle transition: one stale
        // delivery after a reset is harmless (transport dedups), but
        // processing on a dead device is not.
        for (;;) {
            while (wedged_ || devState_ != DevState::Running)
                co_await runGate_.wait();
            co_await queue.coreLock.acquire();
            if (!wedged_ && devState_ == DevState::Running)
                break;
            queue.coreLock.release();
        }

        std::vector<WirePacket> batch{first};
        while (static_cast<int>(batch.size()) < cfg_.nicBatch &&
               !queue.rxInput.empty()) {
            batch.push_back(co_await queue.rxInput.get());
        }

        if (cfg_.nicBufferMgmt) {
            // Allocate RX buffers NIC-side, size-aware (§3.4). The
            // recycling stacks make these the most recently freed TX
            // buffers, still in the NIC cache (§3.3).
            std::vector<PacketBuf *> out(batch.size(), nullptr);
            // Burst-allocate per size class (§3.4: the NIC assigns
            // buffers with knowledge of the whole burst).
            const std::uint32_t small_cap =
                cfg_.pool.smallBuffers ? cfg_.pool.smallBufBytes : 0;
            for (int pass = 0; pass < 2; ++pass) {
                std::vector<std::size_t> want;
                for (std::size_t i = 0; i < batch.size(); ++i) {
                    const bool is_small = batch[i].len <= small_cap;
                    if ((pass == 0) == is_small)
                        want.push_back(i);
                }
                if (want.empty())
                    continue;
                std::vector<PacketBuf *> got(want.size(), nullptr);
                const std::uint32_t hint =
                    pass == 0 ? small_cap : cfg_.pool.largeBufBytes;
                int n = co_await pool_->allocBurst(
                    queue.nicAgent, hint, got.data(),
                    static_cast<int>(got.size()), q);
                for (int k = 0; k < n; ++k)
                    out[want[static_cast<std::size_t>(k)]] = got[k];
            }

            // Wait for ring space if the host is behind. Waits are
            // bounded so a quiesce (host no longer clearing the ring)
            // cannot park this engine forever inside the core lock:
            // once the device leaves Running, abandon the batch.
            bool abandoned = false;
            while (true) {
                if (devState_ != DevState::Running) {
                    abandoned = true;
                    break;
                }
                std::uint32_t needed = 0;
                for (std::size_t i = 0; i < batch.size(); ++i)
                    needed += out[i] != nullptr;
                if (needed == 0)
                    break;
                const std::uint32_t last_slot =
                    queue.rxProd + needed - 1;
                auto &slot = queue.rx.slot(last_slot);
                if (cfg_.signal == SignalMode::Inline) {
                    if (!slot.ready)
                        break;
                    const Addr line = queue.rx.lineOf(last_slot);
                    co_await mem_.waitLineChangeUntil(
                        line, mem_.lineVersion(line),
                        sim_.now() + cfg_.beatPeriod);
                } else {
                    const std::uint32_t space =
                        queue.rx.entries() - 1 -
                        (queue.rxProd -
                         static_cast<std::uint32_t>(
                             queue.nicRxHeadCache));
                    if (space >= needed)
                        break;
                    const Addr line = queue.rxHead.addr();
                    noteSignalRead(queue, line);
                    co_await mem_.load(queue.nicAgent, line, 8);
                    queue.nicRxHeadCache = queue.rxHead.value();
                    if (queue.rx.entries() - 1 -
                            (queue.rxProd -
                             static_cast<std::uint32_t>(
                                 queue.nicRxHeadCache)) <
                        needed) {
                        co_await mem_.waitLineChangeUntil(
                            line, mem_.lineVersion(line),
                            sim_.now() + cfg_.beatPeriod);
                    }
                }
            }
            if (abandoned) {
                // Return the batch's buffers; the packets are dropped
                // (the device is going down — peers retransmit).
                std::vector<PacketBuf *> give;
                for (PacketBuf *b : out) {
                    if (b)
                        give.push_back(b);
                }
                if (!give.empty()) {
                    co_await pool_->freeBurst(
                        queue.nicAgent, give.data(),
                        static_cast<int>(give.size()), q);
                }
                queue.coreLock.release();
                continue;
            }

            // Write payloads and descriptors together (posted stores).
            std::vector<mem::CoherentSystem::Span> spans;
            Addr last_line = ~Addr{0};
            std::vector<std::pair<std::uint32_t, std::size_t>> placed;
            std::uint32_t idx = queue.rxProd;
            for (std::size_t i = 0; i < batch.size(); ++i) {
                if (!out[i])
                    continue;
                spans.push_back({out[i]->addr, batch[i].len});
                const Addr l = queue.rx.lineOf(idx);
                if (l != last_line) {
                    spans.push_back({l, mem::kLineBytes});
                    last_line = l;
                }
                placed.emplace_back(idx, i);
                idx++;
            }
            // Partial group: zero-pad and seal when publishing
            // immediately; leave the group open under batching so the
            // next gather's flush continues mid-group.
            constexpr std::uint32_t kNoSeal = ~0u;
            std::uint32_t seal_idx = kNoSeal;
            if (cfg_.layout == RingLayout::Grouped &&
                cfg_.signal == SignalMode::Inline &&
                (idx % per_line) != 0 && !cfg_.batch.enabled()) {
                seal_idx = idx;
                idx = queue.rx.groupBase(idx) + per_line;
            }

            co_await sim_.delay(
                cycles((costs.perPktTx + costs.perDesc) *
                       static_cast<double>(placed.size())));
            queue.rxProd = idx;
            if (cfg_.batch.enabled() && !placed.empty()) {
                // The device publishes once per gathered batch (the
                // mailbox drain already coalesces arrivals); route
                // the flush through the shared accumulator so the
                // adaptive target and occupancy metrics see it. A
                // drain that emptied the wire below target is an
                // idle flush; a full gather is a target-size flush.
                for (const auto &[slot_idx, pkt_idx] : placed) {
                    queue.rxDevPending.stage(slot_idx, out[pkt_idx],
                                             sim_.now());
                }
                const bool idle = !queue.rxDevPending.full();
                (void)queue.rxDevPending.take(
                    idle, static_cast<std::uint32_t>(
                              queue.rxInput.size()));
                batchFlushTotal_++;
                batchFlushes_.at(idle ? "idle" : "full")++;
                if (queue.batchOcc)
                    *queue.batchOcc += placed.size();
            }
            {
                Queue *qp = &queue;
                const bool reg = cfg_.signal == SignalMode::Register;
                const std::uint64_t tail_val = queue.rxProd;
                if (reg)
                    spans.push_back({queue.rxTail.addr(), 8});
                auto publish = [qp, reg, tail_val, seal_idx, placed,
                                out, batch, simp = &sim_]() {
                    for (const auto &[slot_idx, pkt_idx] : placed) {
                        PacketBuf *b = out[pkt_idx];
                        b->len = batch[pkt_idx].len;
                        b->txTime = batch[pkt_idx].txTime;
                        b->flowId = batch[pkt_idx].flowId;
                        b->userData = batch[pkt_idx].userData;
                        b->src = batch[pkt_idx].src;
                        b->dst = batch[pkt_idx].dst;
                        b->tp = batch[pkt_idx].tp;
                        // Overwrites any stale slot on the recycled
                        // buffer; stamped at store-completion time
                        // (the host cannot reap before this runs).
                        b->span = batch[pkt_idx].span;
                        b->span.stamp(obs::SpanStage::RxPublish,
                                      simp->now());
                        auto &slot = qp->rx.slot(slot_idx);
                        slot.buf = b;
                        slot.len = b->len;
                        slot.ready = true;
                        qp->rx.stampSlot(slot_idx);
                    }
                    if (seal_idx != kNoSeal)
                        qp->rx.sealLine(seal_idx);
                    if (reg)
                        qp->rxTail.publish(tail_val);
                };
                co_await mem_.postMulti(queue.nicAgent, spans,
                                        std::move(publish));
                if (!spans.empty()) {
                    noteSignalWrite(reg ? queue.rxTail.addr()
                                        : spans.back().addr);
                }
            }
            if (cfg_.signal == SignalMode::Inline) {
                // Grant-ahead the next RX ring lines (§3.2).
                const std::uint32_t nlines = std::max<std::uint32_t>(
                    1, static_cast<std::uint32_t>(placed.size()) /
                           per_line);
                for (std::uint32_t k = 0; k < nlines; ++k) {
                    mem_.touchLine(queue.nicAgent,
                                   queue.rx.lineOf(queue.rxProd +
                                                   k * per_line));
                }
            }
        } else {
            // Host-posted buffers (PCIe-style): wait for blanks, fill
            // them, flip the descriptor to completed.
            std::vector<mem::CoherentSystem::Span> spans;
            Addr last_line = ~Addr{0};
            std::vector<std::pair<std::uint32_t, std::size_t>> placed;
            bool abandoned = false;
            std::uint32_t post_idx = queue.rxPostCons;
            for (std::size_t i = 0; i < batch.size(); ++i) {
                // Bounded waits, as on the CC-NIC path: a host that
                // stopped posting blanks (quiesce) must not park this
                // engine inside the core lock.
                while (queue.rx.slot(post_idx).meta != kRxPosted) {
                    if (devState_ != DevState::Running) {
                        abandoned = true;
                        break;
                    }
                    const Addr line = queue.rx.lineOf(post_idx);
                    noteSignalRead(queue, line);
                    co_await mem_.load(queue.nicAgent, line,
                                       mem::kLineBytes);
                    if (queue.rx.slot(post_idx).meta == kRxPosted)
                        break;
                    co_await mem_.waitLineChangeUntil(
                        line, mem_.lineVersion(line),
                        sim_.now() + cfg_.beatPeriod);
                }
                if (abandoned)
                    break;
                PacketBuf *b = queue.rx.slot(post_idx).buf;
                spans.push_back({b->addr, batch[i].len});
                const Addr l = queue.rx.lineOf(post_idx);
                if (l != last_line) {
                    spans.push_back({l, mem::kLineBytes});
                    last_line = l;
                }
                placed.emplace_back(post_idx, i);
                post_idx++;
            }
            if (abandoned) {
                // Drop the remaining packets; posted blanks stay in
                // the ring (reset() reclaims them).
                queue.coreLock.release();
                continue;
            }
            queue.rxPostCons = post_idx;
            co_await sim_.delay(
                cycles((costs.perPktTx + costs.perDesc) *
                       static_cast<double>(placed.size())));
            {
                Queue *qp = &queue;
                const bool reg = cfg_.signal == SignalMode::Register;
                const std::uint64_t tail_val = queue.rxPostCons;
                if (reg)
                    spans.push_back({queue.rxTail.addr(), 8});
                auto publish = [qp, reg, tail_val, placed, batch,
                                simp = &sim_]() {
                    for (const auto &[slot_idx, pkt_idx] : placed) {
                        auto &slot = qp->rx.slot(slot_idx);
                        PacketBuf *b = slot.buf;
                        b->len = batch[pkt_idx].len;
                        b->txTime = batch[pkt_idx].txTime;
                        b->flowId = batch[pkt_idx].flowId;
                        b->userData = batch[pkt_idx].userData;
                        b->src = batch[pkt_idx].src;
                        b->dst = batch[pkt_idx].dst;
                        b->tp = batch[pkt_idx].tp;
                        b->span = batch[pkt_idx].span;
                        b->span.stamp(obs::SpanStage::RxPublish,
                                      simp->now());
                        slot.len = b->len;
                        slot.meta = kRxCompleted;
                        slot.ready = true;
                        qp->rx.stampSlot(slot_idx);
                    }
                    if (reg)
                        qp->rxTail.publish(tail_val);
                };
                co_await mem_.postMulti(queue.nicAgent, spans,
                                        std::move(publish));
                noteSignalWrite(reg ? queue.rxTail.addr()
                                    : spans.back().addr);
            }
        }

        queue.coreLock.release();
        if (queue.rxInput.size() <
            static_cast<std::size_t>(cfg_.nicBatch) * 2) {
            queue.wireDrained.notifyAll();
        }
    }
}

} // namespace ccn::ccnic
