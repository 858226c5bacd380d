#include "nic/pcie_nic.hh"

#include <algorithm>
#include <cassert>

#include "obs/trace.hh"

namespace ccn::nic {

using driver::PacketBuf;
using mem::Addr;
using sim::Tick;

namespace {

constexpr std::uint64_t kRxEmpty = 0;
constexpr std::uint64_t kRxPosted = 1;
constexpr std::uint64_t kRxCompleted = 2;

constexpr std::uint32_t kRingEntries = 1024;

// Head/tail indices wrap by masking with kRingEntries - 1, and the
// free-space computations below assume the full power-of-two span.
static_assert((kRingEntries & (kRingEntries - 1)) == 0,
              "PCIe NIC ring size must be a power of two");

} // namespace

NicParams
e810Params()
{
    NicParams p;
    p.name = "E810";
    // Calibrated to the paper's measured 192Mpps 64B loopback peak and
    // 3809ns minimum latency (§5.2/5.3).
    p.pipelinePps = 210e6;
    p.pipelineLat = sim::fromNs(260.0);
    p.inlineDoorbellDesc = false;
    p.descFetchBatch = 32;
    p.perPacketLat = sim::fromNs(4.0);
    p.pcie.wcPartialFlushLat = sim::fromNs(480.0);
    return p;
}

NicParams
cx6Params()
{
    NicParams p;
    p.name = "CX6";
    // Calibrated to the paper's measured 76Mpps 64B loopback peak and
    // 2116ns minimum latency (§5.2/5.3). The inline-descriptor WC
    // doorbell gives the low minimum latency; the per-queue WQE
    // pipeline caps the packet rate.
    p.pipelinePps = 80e6;
    p.pipelineLat = sim::fromNs(170.0);
    p.inlineDoorbellDesc = true;
    p.descFetchBatch = 32;
    p.perPacketLat = sim::fromNs(10.0);
    p.pcie.devProcLat = sim::fromNs(60.0);
    p.pcie.hostToDevLat = sim::fromNs(385.0);
    p.pcie.devToHostLat = sim::fromNs(385.0);
    p.pcie.dmaSetupLat = sim::fromNs(25.0);
    p.pcie.wcPartialFlushLat = sim::fromNs(280.0);
    return p;
}

namespace {

/**
 * PCIe PMD per-packet software costs: descriptor marshalling, mbuf
 * completion handling, RX refill and doorbell management make the
 * PCIe driver path substantially longer than CC-NIC's (calibrated to
 * the paper's per-thread application rates, §5.7).
 */
driver::CpuCosts
pcieDriverCosts(const mem::PlatformConfig &plat)
{
    driver::CpuCosts c = ccnic::platformCosts(plat);
    c.perPktTx *= 4.0;
    c.perPktRx *= 4.0;
    c.perDesc *= 2.5;
    c.perAllocFree *= 1.5;
    return c;
}

} // namespace

PcieNic::Queue::Queue(sim::Simulator &sim, mem::CoherentSystem &m,
                      const NicParams &p, int host_socket,
                      pcie::PcieLink &link)
    : hostAgent(m.addAgent(host_socket)),
      tx(m, host_socket, kRingEntries, driver::RingLayout::Packed),
      rx(m, host_socket, kRingEntries, driver::RingLayout::Packed),
      txShadow(kRingEntries, nullptr),
      txHeadWb(m.alloc(host_socket, mem::kLineBytes, mem::kLineBytes)),
      doorbells(sim),
      rxInput(sim),
      wc(sim, link, pcie::WcTarget::Device)
{
    (void)p;
}

PcieNic::PcieNic(sim::Simulator &sim, mem::CoherentSystem &mem_system,
                 const NicParams &params, int num_queues,
                 int host_socket, sim::Rng &rng)
    : sim_(sim), mem_(mem_system), params_(params),
      hostSocket_(host_socket),
      costs_(pcieDriverCosts(mem_system.config())),
      link_(sim, params.pcie, mem_system, host_socket),
      integrity_(mem_system), pipeline_(sim, params.pipelinePps),
      runGate_(sim)
{
    devBeatLine_ =
        mem_.alloc(host_socket, mem::kLineBytes, mem::kLineBytes);
    hostBeatLine_ =
        mem_.alloc(host_socket, mem::kLineBytes, mem::kLineBytes);
    driver::MempoolConfig pool_cfg;
    pool_cfg.homeSocket = host_socket;
    pool_cfg.largeBufBytes = 2048; // Standard DPDK mbuf data room.
    pool_cfg.smallBuffers = false;
    pool_cfg.sharedAccess = false;
    pool_cfg.recycleCache = true; // Software-only per-core cache.
    pool_cfg.nonSequentialFill = false;
    const std::uint32_t per_q = kRingEntries * 2 + 512;
    pool_cfg.largeCount = std::max<std::uint32_t>(
        4096, static_cast<std::uint32_t>(num_queues) * per_q);
    pool_cfg.stripes = num_queues;
    pool_ = std::make_unique<driver::Mempool>(mem_, pool_cfg, rng);
    // Clamp the coalescing target well under the ring so deferred
    // doorbells can never cover more work than the ring holds.
    if (params_.batch.enabled()) {
        const std::uint32_t cap = kRingEntries / 4;
        params_.batch.size =
            std::min(std::max(1u, params_.batch.size), cap);
        params_.batch.maxSize = std::min(
            std::max(params_.batch.size, params_.batch.maxSize), cap);
    }
    for (int q = 0; q < num_queues; ++q) {
        queues_.push_back(std::make_unique<Queue>(sim_, mem_, params_,
                                                  host_socket, link_));
        queues_.back()->doorbellsQ =
            &doorbellsQ_.at(static_cast<std::uint64_t>(q));
        queues_.back()->dbPending.setPolicy(params_.batch);
        queues_.back()->batchOcc =
            &batchOccupancy_.at(static_cast<std::uint64_t>(q));
    }
    registerProfRegions();
}

PcieNic::~PcieNic() { unregisterProfRegions(); }

void
PcieNic::registerProfRegions()
{
    auto &prof = mem_.profiler();
    const auto intent = obs::RegionIntent::TwoWay;
    // Host-homed packed rings: the host produces and the device DMAs
    // them, so descriptor lines are intentionally owner-migrating, but
    // DDIO keeps the directory traffic one-directional most of the
    // time; tag them Owned so real ping-pong there is flagged.
    for (std::size_t q = 0; q < queues_.size(); ++q) {
        const auto qi = std::to_string(q);
        auto &qu = *queues_[q];
        profRegions_.push_back(
            prof.registerRegion("pcie.tx_ring[q" + qi + "]",
                                qu.tx.base(), qu.tx.bytes(),
                                obs::RegionIntent::Owned));
        profRegions_.push_back(
            prof.registerRegion("pcie.rx_ring[q" + qi + "]",
                                qu.rx.base(), qu.rx.bytes(),
                                obs::RegionIntent::Owned));
        profRegions_.push_back(
            prof.registerRegion("pcie.tx_headwb[q" + qi + "]",
                                qu.txHeadWb, mem::kLineBytes, intent));
    }
    profRegions_.push_back(prof.registerRegion(
        "pcie.dev_beat", devBeatLine_, mem::kLineBytes, intent));
    profRegions_.push_back(prof.registerRegion(
        "pcie.host_beat", hostBeatLine_, mem::kLineBytes, intent));
}

void
PcieNic::unregisterProfRegions()
{
    auto &prof = mem_.profiler();
    for (auto id : profRegions_)
        prof.unregisterRegion(id);
    profRegions_.clear();
}

void
PcieNic::start()
{
    assert(!started_);
    started_ = true;
    for (int q = 0; q < numQueues(); ++q) {
        sim_.spawn(devTxEngine(q));
        sim_.spawn(devRxEngine(q));
        if (params_.batch.enabled())
            sim_.spawn(txDoorbellTimerTask(q));
    }
    sim_.spawn(heartbeatTask());
}

sim::Task
PcieNic::heartbeatTask()
{
    for (;;) {
        co_await sim_.delay(params_.beatPeriod);
        if (wedged_ || devState_ != DevState::Running)
            continue; // Silence is the failure signal.
        PcieNic *self = this;
        link_.postedDmaWrite(devBeatLine_, 8,
                             [self] { self->devBeatValue_++; });
    }
}

sim::Coro<void>
PcieNic::beatHost()
{
    co_await mem_.store(queues_[0]->hostAgent, hostBeatLine_, 8);
    co_return;
}

sim::Coro<std::uint64_t>
PcieNic::readDeviceBeat()
{
    // DDIO writeback target: an LLC hit for the host.
    co_await mem_.load(queues_[0]->hostAgent, devBeatLine_, 8);
    co_return devBeatValue_;
}

driver::QueueHealth
PcieNic::health(int q) const
{
    const Queue &queue = *queues_[q];
    driver::QueueHealth h;
    h.txSubmitted = queue.txSubmittedTotal;
    h.txCompleted = queue.txCompletedTotal;
    h.rxDelivered = queue.rxDeliveredTotal;
    h.txOutstanding = queue.txProd - queue.devTxCons;
    // Descriptors stored to the ring but whose doorbell is still being
    // coalesced: the device cannot see them, so the watchdog must not
    // count them as stalled work.
    h.txHeldInBatch = queue.txProd - queue.dbFlushedTail;
    return h;
}

sim::Coro<void>
PcieNic::quiesce()
{
    if (devState_ == DevState::Down)
        co_return;
    devState_ = DevState::Quiescing;
    runGate_.notifyAll();
    while (hostOps_ > 0 || devOps_ > 0)
        co_await sim_.delay(sim::fromNs(100));
    devState_ = DevState::Down;
    co_return;
}

sim::Coro<void>
PcieNic::reset()
{
    assert(devState_ == DevState::Down);
    // Function-level reset; in-flight doorbells and DMA completions
    // land during this window and are discarded below.
    co_await sim_.delay(params_.resetLat);

    std::uint64_t reclaimed = 0;
    for (int q = 0; q < numQueues(); ++q) {
        Queue &queue = *queues_[q];
        // TX ownership is tracked by txShadow (the device never clears
        // slot.buf, so TX ring slots can alias already-freed buffers);
        // RX ring slots own their buffer while posted or completed.
        std::vector<PacketBuf *> frees;
        for (PacketBuf *&b : queue.txShadow) {
            if (b) {
                b->nextSeg = nullptr;
                frees.push_back(b);
            }
            b = nullptr;
        }
        for (std::uint32_t i = 0; i < queue.rx.entries(); ++i) {
            auto &slot = queue.rx.slot(i);
            if (slot.buf && slot.meta != kRxEmpty) {
                slot.buf->nextSeg = nullptr;
                frees.push_back(slot.buf);
            }
            slot.buf = nullptr;
            slot.ready = false;
            slot.meta = kRxEmpty;
            slot.len = 0;
            slot.gen = 0;
            slot.csum = 0;
        }
        for (std::uint32_t i = 0; i < queue.tx.entries(); ++i) {
            auto &slot = queue.tx.slot(i);
            slot.buf = nullptr;
            slot.ready = false;
            slot.meta = 0;
            slot.len = 0;
            slot.gen = 0;
            slot.csum = 0;
        }
        if (!frees.empty()) {
            co_await pool_->freeBurst(queue.hostAgent, frees.data(),
                                      static_cast<int>(frees.size()),
                                      q);
            reclaimed += frees.size();
        }
        while (!queue.doorbells.empty())
            (void)co_await queue.doorbells.get();
        while (!queue.rxInput.empty())
            (void)co_await queue.rxInput.get();
        // Coalesced doorbells reference ring indices that no longer
        // exist; drop them (buffers were reclaimed via txShadow above).
        (void)queue.dbPending.take(/*timeout_flush=*/true);
        queue.dbFlushedTail = 0;
        queue.txProd = queue.txFreeScan = 0;
        queue.rxCons = queue.rxPostProd = 0;
        queue.devTxCons = queue.devTxTail = 0;
        queue.devRxPostCons = queue.devRxPostTail = 0;
        queue.txHeadValue = 0;
    }
    pool_->auditLeaks();
    resetReclaimed_ += reclaimed;
    resets_++;
    obs::tracepoint(obs::EventKind::Custom, "pcie_nic.reset",
                    sim_.now(), reclaimed);
    co_return;
}

sim::Coro<void>
PcieNic::reinit()
{
    assert(devState_ == DevState::Down);
    co_await sim_.delay(sim::fromNs(500.0));
    // Function-level reset does not reallocate rings or beat lines:
    // the ranges are identical, so re-registration must not leak
    // region slots.
    unregisterProfRegions();
    registerProfRegions();
    wedged_ = false;
    devState_ = DevState::Running;
    runGate_.notifyAll();
    co_return;
}

mem::AgentId
PcieNic::hostAgent(int q) const
{
    return queues_[q]->hostAgent;
}

std::vector<mem::Addr>
PcieNic::faultLines() const
{
    // Queue-0's live host-memory descriptor lines: where the device is
    // fetching TX descriptors and where the host is polling RX
    // completions.
    const Queue &q = *queues_[0];
    return {q.tx.lineOf(q.devTxCons), q.rx.lineOf(q.rxCons)};
}

sim::Coro<bool>
PcieNic::consumeGuard(mem::Addr line)
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
PcieNic::deliverTx(int q, const WirePacket &pkt)
{
    txCount_++;
    // TX checksum offload: every packet leaves with a valid FCS.
    WirePacket out = pkt;
    out.span.stamp(obs::SpanStage::WireTx, sim_.now());
    out.fcs = ccnic::wireFcs(out);
    if (!loopback_ && txSink_) {
        txSink_(q, out);
        return;
    }
    out.span.stamp(obs::SpanStage::LinkDeliver, sim_.now());
    queues_[q]->rxInput.put(out);
}

void
PcieNic::injectRx(int q, const WirePacket &pkt)
{
    if (!ccnic::fcsOk(pkt)) {
        rxCrcDrops_++;
        return;
    }
    WirePacket in = pkt;
    in.span.stamp(obs::SpanStage::LinkDeliver, sim_.now());
    queues_[q]->rxInput.put(in);
}

sim::Coro<int>
PcieNic::allocBufs(int q, std::uint32_t size, PacketBuf **bufs,
                   int count)
{
    (void)size;
    Queue &queue = *queues_[q];
    co_await sim_.delay(mem_.config().cycles(
        costs_.perAllocFree * std::max(1, count / 8)));
    int got = co_await pool_->allocBurst(queue.hostAgent, 2048, bufs,
                                         count, q);
    // Recycled buffers must not leak a previous transport header or
    // lifecycle span.
    for (int i = 0; i < got; ++i) {
        bufs[i]->tp = {};
        bufs[i]->span.clear();
    }
    co_return got;
}

sim::Coro<void>
PcieNic::freeBufs(int q, PacketBuf **bufs, int count)
{
    Queue &queue = *queues_[q];
    co_await sim_.delay(mem_.config().cycles(
        costs_.perAllocFree * std::max(1, count / 8)));
    co_await pool_->freeBurst(queue.hostAgent, bufs, count, q);
    co_return;
}

sim::Coro<int>
PcieNic::txBurst(int q, PacketBuf **bufs, int count)
{
    if (devState_ != DevState::Running)
        co_return 0;
    OpScope guard(hostOps_);
    Queue &queue = *queues_[q];
    co_await sim_.delay(mem_.config().cycles(costs_.perLoop));

    // Reap TX completions from the head writeback line (DDIO: an LLC
    // hit, no PCIe roundtrip).
    if (queue.txFreeScan !=
        static_cast<std::uint32_t>(queue.txHeadValue)) {
        co_await mem_.load(queue.hostAgent, queue.txHeadWb, 8);
        std::vector<PacketBuf *> frees;
        while (queue.txFreeScan !=
               static_cast<std::uint32_t>(queue.txHeadValue)) {
            PacketBuf *b =
                queue.txShadow[queue.txFreeScan & queue.tx.mask()];
            if (b)
                frees.push_back(b);
            queue.txShadow[queue.txFreeScan & queue.tx.mask()] = nullptr;
            queue.txFreeScan++;
        }
        if (!frees.empty())
            co_await pool_->freeBurst(queue.hostAgent, frees.data(),
                                      static_cast<int>(frees.size()),
                                      q);
    }

    const std::uint32_t space =
        kRingEntries - 1 - (queue.txProd - queue.txFreeScan);
    count = std::min<std::uint32_t>(count, space);
    if (count <= 0)
        co_return 0;

    // Write descriptors into host memory (plain cached stores).
    std::vector<mem::CoherentSystem::Span> spans;
    Addr last_line = ~Addr{0};
    struct Pending
    {
        std::uint32_t idx;
        PacketBuf *buf;
    };
    std::vector<Pending> pending;
    for (int i = 0; i < count; ++i) {
        const std::uint32_t idx = queue.txProd + i;
        pending.push_back({idx, bufs[i]});
        const Addr l = queue.tx.lineOf(idx);
        if (l != last_line) {
            spans.push_back({l, mem::kLineBytes});
            last_line = l;
        }
    }
    for (const Pending &p : pending)
        obs::SpanTable::global().maybeStart(p.buf->span, sim_.now());
    co_await sim_.delay(mem_.config().cycles(
        (costs_.perPktTx + costs_.perDesc) * count));
    // Descriptor stores always land now; only the doorbell may be
    // coalesced. BatchFlush therefore stamps at store initiation, and
    // any doorbell hold shows up in DescPublish -> NicObserve.
    {
        const Tick flush_now = sim_.now();
        for (const Pending &p : pending)
            p.buf->span.stamp(obs::SpanStage::BatchFlush, flush_now);
    }
    {
        Queue *qp = &queue;
        auto publish = [qp, pending, simp = &sim_]() {
            for (const Pending &p : pending) {
                auto &slot = qp->tx.slot(p.idx);
                slot.buf = p.buf;
                slot.len = p.buf->wireLen();
                slot.ready = true;
                qp->tx.stampSlot(p.idx);
                qp->txShadow[p.idx & qp->tx.mask()] = p.buf;
                p.buf->span.stamp(obs::SpanStage::DescPublish,
                                  simp->now());
            }
        };
        co_await mem_.postMulti(queue.hostAgent, spans,
                                std::move(publish));
    }
    queue.txProd += count;
    queue.txSubmittedTotal += static_cast<std::uint64_t>(count);

    if (params_.batch.enabled()) {
        // Coalesced path: defer the MMIO tail update until enough
        // descriptors accumulate (or the flush timer fires).
        for (const Pending &p : pending)
            queue.dbPending.stage(p.idx, nullptr, sim_.now());
        if (queue.dbPending.full())
            co_await flushTxDoorbell(q, /*timeout_flush=*/false);
        co_return count;
    }

    // Doorbell. CX6-style devices inline the first descriptors into a
    // WC doorbell write; E810 uses a plain UC tail update.
    const std::uint32_t tail = queue.txProd;
    queue.dbFlushedTail = tail;
    doorbells_++;
    (*queue.doorbellsQ)++;
    obs::tracepoint(obs::EventKind::RingDoorbell, "pcie.tx_tail",
                    sim_.now(), tail);
    if (params_.inlineDoorbellDesc) {
        co_await queue.wc.store(0xD0000000ULL + 64 * q, 64);
        co_await queue.wc.fence();
    } else {
        co_await link_.mmioUcWrite(4);
    }
    Queue *qp = &queue;
    sim_.scheduleCallback(sim_.now() + link_.doorbellTransit(),
                          [qp, tail] { qp->doorbells.put(tail); });
    co_return count;
}

sim::Coro<void>
PcieNic::flushTxDoorbell(int q, bool timeout_flush)
{
    Queue &queue = *queues_[q];
    const std::uint32_t backlog = queue.txProd - queue.devTxCons;
    const auto entries = queue.dbPending.take(timeout_flush, backlog);
    if (entries.empty())
        co_return;
    batchFlushTotal_++;
    batchFlushes_.at(timeout_flush ? "timeout" : "full")++;
    if (queue.batchOcc)
        *queue.batchOcc += entries.size();

    // One MMIO write announces every pending descriptor: the tail
    // moves past the newest staged index.
    const std::uint32_t tail = entries.back().idx + 1;
    queue.dbFlushedTail = tail;
    doorbells_++;
    (*queue.doorbellsQ)++;
    obs::tracepoint(obs::EventKind::RingDoorbell, "pcie.tx_tail",
                    sim_.now(), tail);
    if (params_.inlineDoorbellDesc) {
        co_await queue.wc.store(0xD0000000ULL + 64 * q, 64);
        co_await queue.wc.fence();
    } else {
        co_await link_.mmioUcWrite(4);
    }
    Queue *qp = &queue;
    sim_.scheduleCallback(sim_.now() + link_.doorbellTransit(),
                          [qp, tail] { qp->doorbells.put(tail); });
    co_return;
}

sim::Task
PcieNic::txDoorbellTimerTask(int q)
{
    Queue &queue = *queues_[q];
    const Tick period =
        std::max<Tick>(1, params_.batch.flushTimeout / 2);
    for (;;) {
        co_await sim_.delay(period);
        if (wedged_ || devState_ != DevState::Running)
            continue; // reset() drops the stale pending batch.
        if (!queue.dbPending.empty() &&
            queue.dbPending.timedOut(sim_.now()))
            co_await flushTxDoorbell(q, /*timeout_flush=*/true);
    }
}

sim::Coro<int>
PcieNic::rxBurst(int q, PacketBuf **bufs, int count)
{
    if (devState_ != DevState::Running)
        co_return 0;
    OpScope guard(hostOps_);
    Queue &queue = *queues_[q];
    co_await sim_.delay(mem_.config().cycles(costs_.perLoop));

    // Integrity gate: a poisoned or stale completion line must not be
    // trusted; retry on the next poll (transport covers any delay).
    if (!co_await consumeGuard(queue.rx.lineOf(queue.rxCons)))
        co_return 0;

    // Poll completion descriptors (DD bits) in host memory; DDIO makes
    // these LLC hits.
    int collected = 0;
    std::vector<mem::CoherentSystem::Span> load_spans;
    Addr last_line = ~Addr{0};
    while (collected < count &&
           queue.rx.slot(queue.rxCons).meta == kRxCompleted) {
        auto &slot = queue.rx.slot(queue.rxCons);
        if (!queue.rx.slotValid(queue.rxCons)) {
            integrity_.noteReject();
            break; // Torn completion: re-poll after the store lands.
        }
        const Addr l = queue.rx.lineOf(queue.rxCons);
        if (l != last_line) {
            load_spans.push_back({l, mem::kLineBytes});
            last_line = l;
        }
        bufs[collected++] = slot.buf;
        queue.rx.clearStamp(queue.rxCons);
        slot.meta = kRxEmpty;
        slot.buf = nullptr;
        queue.rxCons++;
    }
    if (collected > 0) {
        co_await mem_.accessMulti(queue.hostAgent, load_spans, false);
        co_await sim_.delay(mem_.config().cycles(
            (costs_.perPktRx + costs_.perDesc) * collected));
        queue.rxDeliveredTotal += static_cast<std::uint64_t>(collected);
        for (int i = 0; i < collected; ++i) {
            if (bufs[i]->span.active)
                obs::SpanTable::global().commit(params_.name,
                                                bufs[i]->span,
                                                sim_.now());
        }
    }

    // Repost blank buffers and ring the RX tail doorbell in batches.
    std::uint32_t posted = 0;
    std::vector<mem::CoherentSystem::Span> post_spans;
    last_line = ~Addr{0};
    std::vector<std::pair<std::uint32_t, PacketBuf *>> posts;
    const std::uint32_t want =
        kRingEntries - 1 - (queue.rxPostProd - queue.rxCons);
    if (want > 0) {
        std::vector<PacketBuf *> blanks(want, nullptr);
        const int got = co_await pool_->allocBurst(
            queue.hostAgent, 2048, blanks.data(),
            static_cast<int>(want), q);
        for (int i = 0; i < got; ++i) {
            posts.emplace_back(queue.rxPostProd, blanks[i]);
            const Addr l = queue.rx.lineOf(queue.rxPostProd);
            if (l != last_line) {
                post_spans.push_back({l, mem::kLineBytes});
                last_line = l;
            }
            queue.rxPostProd++;
            posted++;
        }
    }
    if (posted > 0) {
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
        // Batched RX tail doorbell.
        doorbells_++;
        (*queue.doorbellsQ)++;
        obs::tracepoint(obs::EventKind::RingDoorbell, "pcie.rx_tail",
                        sim_.now(), queue.rxPostProd);
        co_await link_.mmioUcWrite(4);
        const std::uint32_t tail = queue.rxPostProd;
        sim_.scheduleCallback(sim_.now() + link_.doorbellTransit(),
                              [qp, tail] { qp->devRxPostTail = tail; });
    }
    co_return collected;
}

sim::Coro<void>
PcieNic::idleWait(int q, Tick deadline)
{
    Queue &queue = *queues_[q];
    const Addr watch = queue.rx.lineOf(queue.rxCons);
    // Bounded: reset() rewinds rxCons, so an unbounded wait on the old
    // consumer line would sleep through a hot-reset recovery.
    co_await mem_.waitLineChangeUntil(
        watch, mem_.lineVersion(watch),
        std::min(deadline, sim_.now() + params_.beatPeriod));
    co_return;
}

sim::Task
PcieNic::devTxEngine(int q)
{
    Queue &queue = *queues_[q];
    for (;;) {
        while (wedged_ || devState_ != DevState::Running)
            co_await runGate_.wait();
        std::uint32_t tail = co_await queue.doorbells.get();
        while (!queue.doorbells.empty())
            tail = co_await queue.doorbells.get();
        if (wedged_ || devState_ != DevState::Running)
            continue; // Doorbell into a dead device is lost.
        if (tail - queue.devTxCons > kRingEntries)
            continue; // Stale doorbell.
        queue.devTxTail = tail;

        OpScope busy(devOps_);
        while (queue.devTxCons != queue.devTxTail) {
            if (devState_ != DevState::Running)
                break; // Abandon: reset() reclaims via txShadow.
            while (!queue.doorbells.empty()) {
                const std::uint32_t t2 = co_await queue.doorbells.get();
                if (t2 - queue.devTxCons <= kRingEntries)
                    queue.devTxTail = t2;
            }
            std::uint32_t n = std::min<std::uint32_t>(
                static_cast<std::uint32_t>(params_.descFetchBatch),
                queue.devTxTail - queue.devTxCons);

            // Integrity gate on the descriptor line the fetch starts
            // at: absorb transient poison with bounded retries, back
            // off on a stale (torn/stuck) view.
            if (!co_await consumeGuard(
                    queue.tx.lineOf(queue.devTxCons))) {
                co_await sim_.delay(sim::fromNs(200.0));
                continue;
            }

            // Verify per-slot generation stamps before trusting the
            // fetched descriptors; a torn store is retried next pass.
            {
                std::uint32_t ok = 0;
                while (ok < n &&
                       queue.tx.slotValid(queue.devTxCons + ok))
                    ok++;
                if (ok < n) {
                    integrity_.noteReject();
                    if (ok == 0) {
                        co_await sim_.delay(sim::fromNs(200.0));
                        continue;
                    }
                    n = ok;
                }
            }

            // Descriptor fetch: CX6 inlines small bursts into the
            // doorbell write, skipping the fetch roundtrip.
            const bool inlined =
                params_.inlineDoorbellDesc && n <= 4;
            if (!inlined) {
                co_await link_.dmaRead(
                    queue.tx.addrOf(queue.devTxCons), n * 16);
            }

            // Payload fetch for the batch (scatter DMA).
            std::vector<mem::CoherentSystem::Span> spans;
            std::vector<WirePacket> pkts;
            for (std::uint32_t i = 0; i < n; ++i) {
                auto &slot = queue.tx.slot(queue.devTxCons + i);
                queue.tx.clearStamp(queue.devTxCons + i);
                PacketBuf *b = slot.buf;
                if (!b)
                    continue;
                spans.push_back({b->addr, b->len});
                b->span.stamp(obs::SpanStage::NicObserve, sim_.now());
                WirePacket wp{slot.len, b->txTime, b->flowId,
                              b->userData, 1, b->src, b->dst,
                              b->tp, 0, b->span};
                b->span.clear();
                if (b->nextSeg) {
                    spans.push_back({b->nextSeg->addr, b->segLen});
                    wp.segments = 2;
                }
                pkts.push_back(wp);
            }
            co_await link_.dmaReadMulti(spans);

            // ASIC pipeline: rate cap plus fixed traversal.
            for (auto &pkt : pkts) {
                const Tick done =
                    pipeline_.reserve(1) + params_.pipelineLat +
                    params_.perPacketLat;
                const int qq = q;
                PcieNic *self = this;
                WirePacket p = pkt;
                sim_.scheduleCallback(done, [self, qq, p] {
                    self->deliverTx(qq, p);
                });
            }
            queue.devTxCons += n;
            queue.txCompletedTotal += n;

            // TX head writeback (completion) via DDIO: posted, off
            // the device's critical path.
            const std::uint64_t head = queue.devTxCons;
            Queue *qp = &queue;
            link_.postedDmaWrite(queue.txHeadWb, 8,
                                 [qp, head] { qp->txHeadValue = head; });
        }
    }
}

sim::Task
PcieNic::devRxEngine(int q)
{
    Queue &queue = *queues_[q];
    for (;;) {
        while (wedged_ || devState_ != DevState::Running)
            co_await runGate_.wait();
        WirePacket first = co_await queue.rxInput.get();
        while (wedged_ || devState_ != DevState::Running)
            co_await runGate_.wait();
        OpScope busy(devOps_);
        std::vector<WirePacket> batch{first};
        while (static_cast<int>(batch.size()) < params_.descFetchBatch &&
               !queue.rxInput.empty())
            batch.push_back(co_await queue.rxInput.get());

        // Fetch posted RX descriptors (blank buffer addresses) as
        // needed, in batches.
        std::uint32_t avail =
            queue.devRxPostTail - queue.devRxPostCons;
        bool abandoned = false;
        while (avail < batch.size()) {
            if (devState_ != DevState::Running) {
                abandoned = true; // Quiesce: host stopped posting.
                break;
            }
            // Wait for the host to post buffers (RX tail doorbell).
            co_await sim_.delay(sim::fromNs(200.0));
            avail = queue.devRxPostTail - queue.devRxPostCons;
        }
        if (abandoned)
            continue; // Packets dropped; ring state untouched.
        // Posted RX descriptors were prefetched by the device when the
        // RX tail doorbell arrived (bandwidth charged, latency hidden).
        link_.chargeBackgroundRead(batch.size() * 16);

        // Write payloads and completion descriptors (scatter DDIO).
        std::vector<mem::CoherentSystem::Span> spans;
        std::vector<std::pair<std::uint32_t, std::size_t>> placed;
        Addr last_line = ~Addr{0};
        for (std::size_t i = 0; i < batch.size(); ++i) {
            auto &slot = queue.rx.slot(queue.devRxPostCons);
            if (slot.meta != kRxPosted)
                break;
            if (!queue.rx.slotValid(queue.devRxPostCons)) {
                integrity_.noteReject();
                break; // Torn post: host repost completes it later.
            }
            PacketBuf *b = slot.buf;
            spans.push_back({b->addr, std::max<std::uint32_t>(
                                          batch[i].len, 1)});
            const Addr l = queue.rx.lineOf(queue.devRxPostCons);
            if (l != last_line) {
                spans.push_back({l, mem::kLineBytes});
                last_line = l;
            }
            placed.emplace_back(queue.devRxPostCons, i);
            queue.devRxPostCons++;
        }
        co_await link_.dmaWriteMulti(spans);
        for (auto &[idx, i] : placed) {
            auto &slot = queue.rx.slot(idx);
            PacketBuf *b = slot.buf;
            b->len = batch[i].len;
            b->txTime = batch[i].txTime;
            b->flowId = batch[i].flowId;
            b->userData = batch[i].userData;
            b->src = batch[i].src;
            b->dst = batch[i].dst;
            b->tp = batch[i].tp;
            b->span = batch[i].span;
            b->span.stamp(obs::SpanStage::RxPublish, sim_.now());
            slot.len = b->len;
            slot.meta = kRxCompleted;
            slot.ready = true;
            queue.rx.stampSlot(idx);
        }
    }
}

} // namespace ccn::nic
