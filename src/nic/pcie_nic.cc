#include "nic/pcie_nic.hh"

#include <algorithm>

#include "obs/trace.hh"

namespace ccn::nic {

using driver::PacketBuf;
using mem::Addr;
using sim::Tick;

namespace {

constexpr std::uint32_t kRingEntries = 1024;

// Head/tail indices wrap by masking with kRingEntries - 1, and the
// free-space computations below assume the full power-of-two span.
static_assert((kRingEntries & (kRingEntries - 1)) == 0,
              "PCIe NIC ring size must be a power of two");

/// Descriptors fetched per DMA read.
constexpr std::uint32_t kDescFetchBatch = 32;

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
    driver::CpuCosts c = driver::platformCosts(plat);
    c.perPktTx *= 4.0;
    c.perPktRx *= 4.0;
    c.perDesc *= 2.5;
    c.perAllocFree *= 1.5;
    return c;
}

} // namespace

PcieNic::Queue::Queue(sim::Simulator &sim, mem::CoherentSystem &m,
                      int host_socket, pcie::PcieLink &link)
    : QueueCore(sim, m, host_socket, /*nic_socket=*/-1),
      tx(m, host_socket, kRingEntries, driver::RingLayout::Packed),
      rx(m, host_socket, kRingEntries, driver::RingLayout::Packed),
      txShadow(kRingEntries),
      txHeadWb(m.alloc(host_socket, mem::kLineBytes, mem::kLineBytes)),
      doorbells(sim),
      wc(sim, link, pcie::WcTarget::Device)
{}

PcieNic::PcieNic(sim::Simulator &sim, mem::CoherentSystem &mem_system,
                 const NicParams &params, int num_queues,
                 int host_socket, sim::Rng &rng)
    : NicInterface(sim, mem_system,
                   {.prefix = "pcie_nic",
                    .resetTrace = "pcie_nic.reset",
                    .hostCosts = pcieDriverCosts(mem_system.config()),
                    .reinitLat = sim::fromNs(500.0),
                    .loopback = false,
                    .countBeats = false,
                    .spanPath = params.name}),
      params_(params),
      link_(sim, params.pcie, mem_system, host_socket),
      pipeline_(sim, params.pipelinePps)
{
    // The device beat is a DDIO head-writeback-style line the device
    // bumps; the host beat is a host-memory line.
    nicBeat_ = std::make_unique<driver::RegisterLine>(mem_, host_socket);
    hostBeat_ = std::make_unique<driver::RegisterLine>(mem_, host_socket);
    driver::MempoolConfig pool_cfg;
    pool_cfg.homeSocket = host_socket;
    pool_cfg.largeBufBytes = 2048; // Standard DPDK mbuf data room.
    // One buffer class: every allocBufs() takes a 2KB mbuf.
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
    params_.batch.clampTo(kRingEntries / 4);
    for (int q = 0; q < num_queues; ++q) {
        queues_.push_back(
            std::make_unique<Queue>(sim_, mem_, host_socket, link_));
        addQueue(*queues_.back());
        queues_.back()->doorbellsQ =
            &doorbellsQ_.at(static_cast<std::uint64_t>(q));
        queues_.back()->dbPending.setPolicy(params_.batch);
    }
    registerProfRegions();
}

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
        "pcie.dev_beat", nicBeat_->addr(), mem::kLineBytes, intent));
    profRegions_.push_back(prof.registerRegion(
        "pcie.host_beat", hostBeat_->addr(), mem::kLineBytes, intent));
}

void
PcieNic::spawnEngines(int q)
{
    sim_.spawn(devTxEngine(q));
    sim_.spawn(devRxEngine(q));
    if (params_.batch.enabled()) {
        sim_.spawn(flushTimerTask(q, queues_[q]->dbPending,
                                  params_.batch.flushTimeout,
                                  /*skip_wedged=*/true));
    }
}

sim::Coro<void>
PcieNic::publishDeviceBeat()
{
    driver::RegisterLine *beat = nicBeat_.get();
    link_.postedDmaWrite(beat->addr(), 8,
                         [beat] { beat->publish(beat->value() + 1); });
    co_return;
}

driver::QueueHealth
PcieNic::health(int q) const
{
    const Queue &queue = *queues_[q];
    driver::QueueHealth h = queue.progress();
    h.txOutstanding = queue.txProd - queue.devTxCons;
    // Descriptors stored to the ring but whose doorbell is still being
    // coalesced: the device cannot see them, so the watchdog must not
    // count them as stalled work.
    h.txHeldInBatch = queue.txProd - queue.dbFlushedTail;
    return h;
}

sim::Coro<void>
PcieNic::drainEngines()
{
    while (*devOps_ > 0)
        co_await sim_.delay(sim::fromNs(100));
    co_return;
}

std::vector<PacketBuf *>
PcieNic::sweepQueue(int q)
{
    Queue &queue = *queues_[q];
    // TX ownership is tracked by txShadow (the device never clears
    // slot.buf, so TX ring slots can alias already-freed buffers); RX
    // ring slots own their buffer while posted or completed.
    std::vector<PacketBuf *> frees;
    queue.txShadow.sweep([&frees](PacketBuf *b) { frees.push_back(b); });
    queue.rx.sweep([&frees](driver::DescRing::Slot &slot) {
        if (slot.buf && slot.meta != driver::kSlotEmpty)
            frees.push_back(slot.buf);
    });
    queue.tx.sweep([](driver::DescRing::Slot &) {});
    return frees;
}

void
PcieNic::rewindQueue(int q)
{
    Queue &queue = *queues_[q];
    // Function-level reset: doorbells, DMA completions and wire
    // arrivals that landed during the reset window are discarded.
    queue.doorbells.clear();
    queue.rxInput.clear();
    // Coalesced doorbells reference ring indices that no longer
    // exist; drop them (buffers were reclaimed via txShadow).
    (void)queue.dbPending.take(/*timeout_flush=*/true);
    queue.dbFlushedTail = 0;
    queue.txProd = 0;
    queue.rxCons = queue.rxPostProd = 0;
    queue.devTxCons = queue.devTxTail = 0;
    queue.devRxPostCons = queue.devRxPostTail = 0;
    queue.txHeadValue = 0;
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

sim::Coro<int>
PcieNic::txBurst(int q, PacketBuf **bufs, int count)
{
    if (devState_ != DevState::Running)
        co_return 0;
    OpScope guard(hostOps_);
    Queue &queue = *queues_[q];
    co_await sim_.delay(mem_.config().cycles(cpuCosts().perLoop));

    // Reap TX completions from the head writeback line (DDIO: an LLC
    // hit, no PCIe roundtrip).
    if (queue.txShadow.scan !=
        static_cast<std::uint32_t>(queue.txHeadValue)) {
        co_await mem_.load(queue.hostAgent, queue.txHeadWb, 8);
        co_await returnBufs(queue.hostAgent, q,
                            queue.txShadow.reap(static_cast<std::uint32_t>(
                                queue.txHeadValue)));
    }

    const std::uint32_t space =
        kRingEntries - 1 - (queue.txProd - queue.txShadow.scan);
    count = std::min<std::uint32_t>(count, space);
    if (count <= 0)
        co_return 0;

    // Write descriptors into host memory (plain cached stores).
    driver::SpanList lines;
    std::vector<driver::PublishBatch::Entry> pending;
    for (int i = 0; i < count; ++i) {
        const std::uint32_t idx = queue.txProd + i;
        pending.push_back({idx, bufs[i], 0});
        lines.line(queue.tx.lineOf(idx));
    }
    startSpans(bufs, count);
    co_await sim_.delay(mem_.config().cycles(
        (cpuCosts().perPktTx + cpuCosts().perDesc) * count));
    // Descriptor stores always land now; only the doorbell may be
    // coalesced. BatchFlush therefore stamps at store initiation, and
    // any doorbell hold shows up in DescPublish -> NicObserve.
    const Tick flush_now = sim_.now();
    for (const auto &p : pending)
        p.buf->span.stamp(obs::SpanStage::BatchFlush, flush_now);
    {
        Queue *qp = &queue;
        auto publish = [qp, pending, simp = &sim_]() {
            for (const auto &p : pending) {
                auto &slot = qp->tx.slot(p.idx);
                slot.buf = p.buf;
                slot.len = p.buf->wireLen();
                slot.ready = true;
                qp->tx.stampSlot(p.idx);
                qp->txShadow.put(p.idx, p.buf);
                p.buf->span.stamp(obs::SpanStage::DescPublish,
                                  simp->now());
            }
        };
        co_await mem_.postMulti(queue.hostAgent, lines.spans,
                                std::move(publish));
    }
    queue.txProd += count;
    queue.txSubmittedTotal += static_cast<std::uint64_t>(count);

    if (params_.batch.enabled()) {
        // Coalesced path: defer the MMIO tail update until enough
        // descriptors accumulate (or the flush timer fires).
        for (const auto &p : pending)
            queue.dbPending.stage(p.idx, nullptr, sim_.now());
        if (queue.dbPending.full())
            co_await flushBatch(q, /*timeout_flush=*/false);
        co_return count;
    }
    co_await ringTxDoorbell(q, queue.txProd);
    co_return count;
}

sim::Coro<void>
PcieNic::flushBatch(int q, bool timeout_flush)
{
    Queue &queue = *queues_[q];
    const auto entries = takeBatch(
        q, queue.dbPending,
        timeout_flush ? FlushReason::Timeout : FlushReason::Full,
        queue.txProd - queue.devTxCons);
    // One MMIO write announces every pending descriptor: the tail
    // moves past the newest staged index.
    co_await ringTxDoorbell(q, entries.back().idx + 1);
}

sim::Coro<void>
PcieNic::ringTxDoorbell(int q, std::uint32_t tail)
{
    Queue &queue = *queues_[q];
    queue.dbFlushedTail = tail;
    doorbells_++;
    (*queue.doorbellsQ)++;
    obs::tracepoint(obs::EventKind::RingDoorbell, "pcie.tx_tail",
                    sim_.now(), tail);
    // CX6-style devices inline the first descriptors into a WC
    // doorbell write; E810 uses a plain UC tail update.
    if (params_.inlineDoorbellDesc) {
        co_await queue.wc.store(0xD0000000ULL + 64 * q, 64);
        co_await queue.wc.fence();
    } else {
        co_await link_.mmioUcWrite(4);
    }
    Queue *qp = &queue;
    sim_.scheduleCallback(sim_.now() + link_.doorbellTransit(),
                          [qp, tail] { qp->doorbells.put(tail); });
}

sim::Coro<int>
PcieNic::rxBurst(int q, PacketBuf **bufs, int count)
{
    if (devState_ != DevState::Running)
        co_return 0;
    OpScope guard(hostOps_);
    Queue &queue = *queues_[q];
    co_await sim_.delay(mem_.config().cycles(cpuCosts().perLoop));

    // Integrity gate: a poisoned or stale completion line must not be
    // trusted; retry on the next poll (transport covers any delay).
    if (!co_await consumeGuard(queue.rx.lineOf(queue.rxCons)))
        co_return 0;

    // Poll completion descriptors (DD bits) in host memory; DDIO makes
    // these LLC hits.
    driver::SpanList loads;
    const int collected =
        takeCompleted(queue.rx, queue.rxCons, bufs, count, loads);
    if (collected > 0) {
        co_await mem_.accessMulti(queue.hostAgent, loads.spans, false);
        co_await sim_.delay(mem_.config().cycles(
            (cpuCosts().perPktRx + cpuCosts().perDesc) * collected));
        delivered(q, bufs, collected);
    }

    // Repost blank buffers and ring the RX tail doorbell in batches.
    const std::uint32_t posted = co_await postBlanks(
        q, queue.rx, queue.rxPostProd,
        kRingEntries - 1 - (queue.rxPostProd - queue.rxCons), 2048);
    if (posted > 0) {
        doorbells_++;
        (*queue.doorbellsQ)++;
        obs::tracepoint(obs::EventKind::RingDoorbell, "pcie.rx_tail",
                        sim_.now(), queue.rxPostProd);
        co_await link_.mmioUcWrite(4);
        Queue *qp = &queue;
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
        std::min(deadline, sim_.now() + driver::kBeatPeriod));
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
                kDescFetchBatch, queue.devTxTail - queue.devTxCons);

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
            driver::SpanList payloads;
            std::vector<WirePacket> pkts;
            for (std::uint32_t i = 0; i < n; ++i) {
                auto &slot = queue.tx.slot(queue.devTxCons + i);
                queue.tx.clearStamp(queue.devTxCons + i);
                PacketBuf *b = slot.buf;
                payloads.payload(*b);
                b->span.stamp(obs::SpanStage::NicObserve, sim_.now());
                pkts.push_back(driver::takeWire(*b, slot.len));
            }
            co_await link_.dmaReadMulti(payloads.spans);

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
        while (batch.size() < kDescFetchBatch &&
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
        driver::SpanList spans;
        std::vector<std::pair<std::uint32_t, std::size_t>> placed;
        for (std::size_t i = 0; i < batch.size(); ++i) {
            auto &slot = queue.rx.slot(queue.devRxPostCons);
            if (slot.meta != driver::kRxPosted)
                break;
            if (!queue.rx.slotValid(queue.devRxPostCons)) {
                integrity_.noteReject();
                break; // Torn post: host repost completes it later.
            }
            PacketBuf *b = slot.buf;
            spans.spans.push_back(
                {b->addr, std::max<std::uint32_t>(batch[i].len, 1)});
            spans.line(queue.rx.lineOf(queue.devRxPostCons));
            placed.emplace_back(queue.devRxPostCons, i);
            queue.devRxPostCons++;
        }
        co_await link_.dmaWriteMulti(spans.spans);
        for (auto &[idx, i] : placed) {
            auto &slot = queue.rx.slot(idx);
            PacketBuf *b = slot.buf;
            driver::fromWire(*b, batch[i]);
            b->span.stamp(obs::SpanStage::RxPublish, sim_.now());
            slot.len = b->len;
            slot.meta = driver::kRxCompleted;
            slot.ready = true;
            queue.rx.stampSlot(idx);
        }
    }
}

} // namespace ccn::nic
