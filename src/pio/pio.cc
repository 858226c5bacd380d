#include "pio/pio.hh"

#include <algorithm>

namespace ccn::pio {

using driver::BufClass;
using driver::PacketBuf;
using mem::Addr;
using sim::Tick;

namespace {

/** Size the pool to the queue count: slot occupancy on both
 *  directions plus recycle stacks plus generator headroom. */
void
sizePool(Config &cfg)
{
    const std::uint32_t q = static_cast<std::uint32_t>(cfg.numQueues);
    const std::uint32_t per_q =
        cfg.numSlots * 2 + 2 * cfg.pool.recycleDepth + 256;
    cfg.pool.largeCount = std::max<std::uint32_t>(2048, q * per_q);
    cfg.pool.smallCount = std::max<std::uint32_t>(8192, q * per_q);
    cfg.pool.stripes = cfg.numQueues;
}

} // namespace

Config
upiConfig(int num_queues, int host_socket)
{
    Config cfg;
    cfg.numQueues = num_queues;
    cfg.deviceHomedRx = true;
    cfg.devExtraLat = 0;
    cfg.spanPath = "pio";
    cfg.pool.sharedAccess = true;
    cfg.pool.recycleCache = true;
    cfg.pool.smallBuffers = true;
    cfg.pool.nonSequentialFill = true;
    cfg.pool.homeSocket = host_socket;
    sizePool(cfg);
    return cfg;
}

Config
upiConfig(int num_queues, int host_socket,
          const mem::PlatformConfig &plat)
{
    Config cfg = upiConfig(num_queues, host_socket);
    cfg.hostCosts = driver::platformCosts(plat);
    cfg.nicCosts = driver::platformCosts(plat);
    return cfg;
}

Config
cxlConfig(int num_queues, int host_socket)
{
    Config cfg = upiConfig(num_queues, host_socket);
    // A CXL.cache (Type 1) device caches host memory but exports
    // none, so both slot arrays are host-homed; every device-side
    // access additionally crosses the CXL port, which today costs
    // tens of nanoseconds over a symmetric CPU interconnect hop.
    cfg.deviceHomedRx = false;
    cfg.devExtraLat = sim::fromNs(40.0);
    cfg.spanPath = "pio_cxl";
    return cfg;
}

Config
cxlConfig(int num_queues, int host_socket,
          const mem::PlatformConfig &plat)
{
    Config cfg = cxlConfig(num_queues, host_socket);
    cfg.hostCosts = driver::platformCosts(plat);
    cfg.nicCosts = driver::platformCosts(plat);
    return cfg;
}

PioNic::Queue::Queue(sim::Simulator &sim, mem::CoherentSystem &m,
                     const Config &cfg, int host_socket, int nic_socket)
    : QueueCore(sim, m, host_socket, nic_socket),
      txSlots(cfg.numSlots),
      rxSlots(cfg.numSlots)
{
    const std::uint64_t bytes = static_cast<std::uint64_t>(cfg.numSlots) *
                                cfg.slotLines * mem::kLineBytes;
    // TX slots are host-homed (writer-homed); RX homing is the UPI/CXL
    // distinction.
    txBase = m.alloc(host_socket, bytes, mem::kLineBytes);
    rxBase = m.alloc(cfg.deviceHomedRx ? nic_socket : host_socket, bytes,
                     mem::kLineBytes);
}

PioNic::PioNic(sim::Simulator &sim, mem::CoherentSystem &mem_system,
               const Config &config, int host_socket, int nic_socket,
               sim::Rng &rng)
    : NicInterface(sim, mem_system,
                   {.prefix = "pio",
                    .resetTrace = "pio.reset",
                    .hostCosts = config.hostCosts,
                    .beatPeriod = config.beatPeriod,
                    .resetLat = config.resetLat,
                    .reinitLat = mem_system.config().cycles(
                        config.nicCosts.perLoop * 8),
                    .wireLat = config.wireLat,
                    .loopback = config.loopback,
                    // A consume trusts a whole slot, not one line.
                    .guardBytes = std::max<std::uint32_t>(
                                      1, config.slotLines) *
                                  mem::kLineBytes}),
      cfg_(config), hostSocket_(host_socket), nicSocket_(nic_socket)
{
    cfg_.pool.homeSocket = host_socket;
    // Slot index arithmetic masks with numSlots-1.
    cfg_.numSlots = driver::DescRing::roundUpPow2(cfg_.numSlots);
    cfg_.slotLines = std::max<std::uint32_t>(1, cfg_.slotLines);
    cfg_.headerBytes = std::min<std::uint32_t>(
        cfg_.headerBytes, cfg_.slotLines * mem::kLineBytes / 2);
    cfg_.nicBatch = std::max(
        1, std::min<int>(cfg_.nicBatch,
                         static_cast<int>(cfg_.numSlots)));
    slotMask_ = cfg_.numSlots - 1;
    // Clamp the credit-coalescing target to a quarter of the slot
    // array: held credits shrink the flow-control window, and a target
    // at or above numSlots would wedge the producer permanently.
    cfg_.batch.clampTo(std::max<std::uint32_t>(1, cfg_.numSlots / 4));
    pool_ = std::make_unique<driver::Mempool>(mem_, cfg_.pool, rng);
    for (int q = 0; q < cfg_.numQueues; ++q) {
        queues_.push_back(std::make_unique<Queue>(
            sim_, mem_, cfg_, hostSocket_, nicSocket_));
        addQueue(*queues_.back());
        queues_.back()->polls =
            &slotPollsQ_.at(static_cast<std::uint64_t>(q));
        queues_.back()->rxCreditPending.setPolicy(cfg_.batch);
        queues_.back()->txCreditPending.setPolicy(cfg_.batch);
    }
    hostBeat_ =
        std::make_unique<driver::RegisterLine>(mem_, hostSocket_);
    nicBeat_ = std::make_unique<driver::RegisterLine>(mem_, nicSocket_);
    registerProfRegions();
}

void
PioNic::registerProfRegions()
{
    auto &prof = mem_.profiler();
    // Every slot line is an intentional two-way handoff: the producer
    // publishes and the consumer flips the credit back in place.
    const auto intent = obs::RegionIntent::TwoWay;
    const std::uint64_t bytes =
        static_cast<std::uint64_t>(cfg_.numSlots) * slotBytes();
    for (std::size_t q = 0; q < queues_.size(); ++q) {
        const auto qi = std::to_string(q);
        auto &qu = *queues_[q];
        profRegions_.push_back(prof.registerRegion(
            cfg_.spanPath + ".tx_slots[q" + qi + "]", qu.txBase, bytes,
            intent));
        profRegions_.push_back(prof.registerRegion(
            cfg_.spanPath + ".rx_slots[q" + qi + "]", qu.rxBase, bytes,
            intent));
    }
    profRegions_.push_back(
        prof.registerRegion(cfg_.spanPath + ".host_beat",
                            hostBeat_->addr(), mem::kLineBytes, intent));
    profRegions_.push_back(
        prof.registerRegion(cfg_.spanPath + ".nic_beat",
                            nicBeat_->addr(), mem::kLineBytes, intent));
}

void
PioNic::spawnEngines(int q)
{
    sim_.spawn(devTxTask(q));
    sim_.spawn(devRxTask(q));
    if (cfg_.batch.enabled())
        sim_.spawn(rxCreditTimerTask(q));
}

std::vector<mem::Addr>
PioNic::faultLines() const
{
    // Queue-0's live slot lines: the device's TX consumer slot and
    // the host's RX consumer slot.
    const Queue &q = *queues_[0];
    return {txLineOf(q, q.txCons), rxLineOf(q, q.rxCons)};
}

driver::QueueHealth
PioNic::health(int q) const
{
    const Queue &queue = *queues_[q];
    driver::QueueHealth h = queue.progress();
    h.txOutstanding = queue.txProd - queue.txCons;
    return h;
}

std::vector<PacketBuf *>
PioNic::sweepQueue(int q)
{
    Queue &queue = *queues_[q];
    // Reclaim every slot-held spill buffer. Inline messages hold no
    // buffer; a Taken RX slot's spill already changed hands at reap,
    // so only slots still pointing at one are device-owned.
    std::vector<PacketBuf *> frees;
    auto sweep = [&frees](std::vector<MsgSlot> &slots) {
        for (MsgSlot &s : slots) {
            if (s.spill)
                frees.push_back(s.spill);
            s.spill = nullptr;
            s.msg = WirePacket{};
            s.seq = 0;
            s.state = SlotState::Free;
        }
    };
    sweep(queue.txSlots);
    sweep(queue.rxSlots);
    return frees;
}

void
PioNic::rewindQueue(int q)
{
    Queue &queue = *queues_[q];
    // Pending credit flushes reference slots the sweep just freed;
    // drop them (the entries carry no buffers).
    (void)queue.rxCreditPending.take(/*timeout_flush=*/true);
    (void)queue.txCreditPending.take(/*timeout_flush=*/true);
    queue.txProd = queue.txCons = 0;
    queue.rxProd = queue.rxCons = 0;
    queue.txSeq = queue.txSeqSeen = 0;
    queue.rxSeq = queue.rxSeqSeen = 0;
}

sim::Coro<int>
PioNic::txBurst(int q, PacketBuf **bufs, int count)
{
    if (devState_ != DevState::Running)
        co_return 0;
    OpScope guard(hostOps_);
    Queue &queue = *queues_[q];
    const auto &costs = cfg_.hostCosts;
    const std::uint32_t inline_cap = cfg_.inlineBytes();
    co_await sim_.delay(cycles(costs.perLoop));

    // Claim free slots. The credit check is a local spin on the slot's
    // state word: the device's credit write invalidated our copy, so a
    // slot that looks Free is Free.
    struct Pending
    {
        std::uint32_t idx;
        WirePacket msg;
        PacketBuf *spill; ///< Null for inline messages.
        PacketBuf *buf;   ///< Source buffer (freed here if inline).
    };
    std::vector<Pending> pending;
    std::vector<mem::CoherentSystem::Span> spans;
    std::uint32_t idx = queue.txProd;
    for (int i = 0; i < count; ++i) {
        if (txSlot(queue, idx).state != SlotState::Free) {
            creditStalls_++;
            break; // Slot array full: credits not yet returned.
        }
        PacketBuf *b = bufs[i];
        // Lifecycle spans: activate the 1-in-N sampled slot on
        // accepted buffers only.
        obs::SpanTable::global().maybeStart(b->span, sim_.now());
        WirePacket msg{b->wireLen(), b->txTime, b->flowId, b->userData,
                       1, b->src, b->dst, b->tp, 0, b->span};
        // The span rides in the slot from here; inline TX buffers are
        // recycled immediately and must not keep an active slot.
        b->span.clear();
        const bool spilled = msg.len > inline_cap;
        if (spilled) {
            spills_++;
            if (b->nextSeg)
                msg.segments = 2;
        }
        pending.push_back({idx, msg, spilled ? b : nullptr, b});
        spans.push_back({txLineOf(queue, idx), slotBytes()});
        idx++;
    }
    if (pending.empty())
        co_return 0;

    co_await sim_.delay(
        cycles(costs.perPktTx * static_cast<double>(pending.size())));

    // PIO TX has no host-side staging — the slot stores *are* the
    // signal — so BatchFlush coincides with publish initiation.
    {
        const Tick flush_now = sim_.now();
        for (Pending &p : pending)
            p.msg.span.stamp(obs::SpanStage::BatchFlush, flush_now);
    }

    // Posted stores of the slot lines: header + inline payload + the
    // Ready flip travel as one write burst; message state is published
    // at store visibility (TSO orders the flip last).
    queue.txProd = idx;
    queue.txSubmittedTotal += pending.size();
    {
        Queue *qp = &queue;
        auto publish = [this, qp, pending, simp = &sim_]() {
            for (const Pending &p : pending) {
                MsgSlot &s = txSlot(*qp, p.idx);
                s.msg = p.msg;
                s.msg.span.stamp(obs::SpanStage::DescPublish,
                                 simp->now());
                s.spill = p.spill;
                s.seq = ++qp->txSeq;
                s.state = SlotState::Ready;
            }
        };
        co_await mem_.postMulti(queue.hostAgent, spans,
                                std::move(publish));
        noteSlotWrite(spans.front().addr);
    }

    // Inline messages: the payload now lives in the slot lines, so the
    // source buffer goes straight back to the (host-local) recycle
    // stack — there is no TX completion to reap. Spilled buffers pass
    // to the device, which frees them after reading the payload.
    std::vector<PacketBuf *> frees;
    for (const Pending &p : pending) {
        if (!p.spill)
            frees.push_back(p.buf);
    }
    if (!frees.empty()) {
        co_await pool_->freeBurst(queue.hostAgent, frees.data(),
                                  static_cast<int>(frees.size()), q);
    }
    co_return static_cast<int>(pending.size());
}

sim::Task
PioNic::devTxTask(int q)
{
    Queue &queue = *queues_[q];
    const auto &costs = cfg_.nicCosts;

    for (;;) {
        while (wedged_ || devState_ != DevState::Running)
            co_await runGate_.wait();

        // Poll the head TX slot: a free local spin until the host's
        // store invalidates our copy, then one (remote) reload.
        const Addr line = txLineOf(queue, queue.txCons);
        noteSlotPoll(queue, line);
        co_await mem_.load(queue.nicAgent, line, slotBytes());
        co_await devPortDelay();
        // Integrity gate: a poisoned or stale (torn/stuck) slot line
        // must not be trusted; park until it heals or the beat expires.
        if (!co_await consumeGuard(line)) {
            co_await mem_.waitLineChangeUntil(
                line, mem_.lineVersion(line),
                sim_.now() + cfg_.beatPeriod);
            continue;
        }
        if (txSlot(queue, queue.txCons).state != SlotState::Ready) {
            co_await mem_.waitLineChangeUntil(
                line, mem_.lineVersion(line),
                sim_.now() + cfg_.beatPeriod);
            continue;
        }

        // Internal flow control: do not pull TX work while the RX side
        // is backlogged.
        while (cfg_.loopback &&
               queue.rxInput.size() >=
                   static_cast<std::size_t>(cfg_.nicBatch) * 2) {
            co_await queue.wireDrained.wait();
        }
        if (wedged_ || devState_ != DevState::Running)
            continue;

        co_await queue.coreLock.acquire();
        if (wedged_ || devState_ != DevState::Running) {
            queue.coreLock.release();
            continue;
        }

        // Take a batch of Ready slots.
        struct Taken
        {
            std::uint32_t idx;
            WirePacket msg;
            PacketBuf *spill;
        };
        std::vector<Taken> batch;
        std::vector<mem::CoherentSystem::Span> spans;
        std::uint32_t idx = queue.txCons;
        while (static_cast<int>(batch.size()) < cfg_.nicBatch) {
            MsgSlot &s = txSlot(queue, idx);
            if (s.state != SlotState::Ready)
                break;
            if (s.seq != queue.txSeqSeen + 1) {
                integrity_.noteReject();
                break; // Torn publish: re-poll after the store lands.
            }
            queue.txSeqSeen = s.seq;
            s.msg.span.stamp(obs::SpanStage::NicObserve, sim_.now());
            batch.push_back({idx, s.msg, s.spill});
            s.state = SlotState::Taken;
            s.spill = nullptr;
            spans.push_back({txLineOf(queue, idx), slotBytes()});
            idx++;
        }
        if (batch.empty()) {
            queue.coreLock.release();
            continue;
        }

        // Slot-line reads carry header and inline payload together;
        // spilled payloads are fetched from their pool buffers.
        co_await mem_.accessMulti(queue.nicAgent, spans, false);
        co_await devPortDelay();
        std::vector<mem::CoherentSystem::Span> payload_spans;
        for (const Taken &t : batch) {
            if (t.spill) {
                payload_spans.push_back({t.spill->addr, t.spill->len});
                if (t.spill->nextSeg) {
                    payload_spans.push_back(
                        {t.spill->nextSeg->addr, t.spill->segLen});
                }
            }
        }
        if (!payload_spans.empty()) {
            co_await mem_.accessMulti(queue.nicAgent, payload_spans,
                                      false);
            co_await devPortDelay();
        }
        co_await sim_.delay(
            cycles(costs.perPktRx * static_cast<double>(batch.size())));

        // Credit return: flip the consumed slots back to Free in slot
        // metadata (posted stores; the host's capacity check sees the
        // flip at visibility).
        queue.txCons = idx;
        queue.txCompletedTotal += batch.size();
        if (cfg_.batch.enabled()) {
            // Coalesce: hold the credits until enough accumulate or
            // the head runs dry (an idle device flushes immediately so
            // a stalled producer is never waiting on a timer).
            for (const Taken &t : batch)
                queue.txCreditPending.stage(t.idx, nullptr,
                                            sim_.now());
            const bool idle =
                txSlot(queue, idx).state != SlotState::Ready;
            if (queue.txCreditPending.full())
                co_await flushTxCredits(q, /*idle_flush=*/false);
            else if (idle)
                co_await flushTxCredits(q, /*idle_flush=*/true);
        } else {
            Queue *qp = &queue;
            std::vector<std::uint32_t> taken_idx;
            taken_idx.reserve(batch.size());
            for (const Taken &t : batch)
                taken_idx.push_back(t.idx);
            auto publish = [this, qp, taken_idx]() {
                for (std::uint32_t i : taken_idx)
                    txSlot(*qp, i).state = SlotState::Free;
            };
            co_await mem_.postMulti(queue.nicAgent, spans,
                                    std::move(publish));
            co_await devPortDelay();
            noteSlotWrite(spans.front().addr);
        }

        // Hand to the wire before buffer release.
        for (const Taken &t : batch)
            deliverTx(q, t.msg);

        std::vector<PacketBuf *> frees;
        for (const Taken &t : batch) {
            if (t.spill) {
                t.spill->nextSeg = nullptr;
                frees.push_back(t.spill);
            }
        }
        if (!frees.empty()) {
            co_await pool_->freeBurst(queue.nicAgent, frees.data(),
                                      static_cast<int>(frees.size()),
                                      q);
        }

        queue.coreLock.release();
    }
}

sim::Task
PioNic::devRxTask(int q)
{
    Queue &queue = *queues_[q];
    const auto &costs = cfg_.nicCosts;
    const std::uint32_t inline_cap = cfg_.inlineBytes();

    for (;;) {
        while (wedged_ || devState_ != DevState::Running)
            co_await runGate_.wait();
        WirePacket first = co_await queue.rxInput.get();
        // Hold the packet across a lifecycle transition: one stale
        // delivery after a reset is harmless, processing on a dead
        // device is not.
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

        // Place each message into the next Free RX slot. Waits are
        // bounded so a quiesce (host no longer returning credits)
        // cannot park this engine inside the core lock.
        struct Placed
        {
            std::uint32_t idx;
            WirePacket msg;
            PacketBuf *spill;
        };
        std::vector<Placed> placed;
        std::vector<mem::CoherentSystem::Span> spans;
        bool abandoned = false;
        std::uint32_t idx = queue.rxProd;
        for (std::size_t i = 0; i < batch.size(); ++i) {
            while (rxSlot(queue, idx).state != SlotState::Free) {
                if (devState_ != DevState::Running) {
                    abandoned = true;
                    break;
                }
                const Addr line = rxLineOf(queue, idx);
                noteSlotPoll(queue, line);
                co_await mem_.load(queue.nicAgent, line, slotBytes());
                co_await devPortDelay();
                if (rxSlot(queue, idx).state == SlotState::Free)
                    break;
                co_await mem_.waitLineChangeUntil(
                    line, mem_.lineVersion(line),
                    sim_.now() + cfg_.beatPeriod);
            }
            if (abandoned)
                break;
            PacketBuf *spill = nullptr;
            if (batch[i].len > inline_cap) {
                // Oversized frame: the payload spills to a pool buffer
                // allocated device-side (recycle stacks make it the
                // most recently freed one, still device-cached).
                const int got = co_await pool_->allocBurst(
                    queue.nicAgent, batch[i].len, &spill, 1, q);
                if (got == 0 || !spill) {
                    rxNoBuf_++;
                    continue; // Drop; the slot stays available.
                }
                spill->len = batch[i].len;
            }
            spans.push_back({rxLineOf(queue, idx), slotBytes()});
            if (spill)
                spans.push_back({spill->addr, batch[i].len});
            placed.push_back({idx, batch[i], spill});
            idx++;
        }
        if (abandoned) {
            std::vector<PacketBuf *> give;
            for (const Placed &p : placed) {
                if (p.spill)
                    give.push_back(p.spill);
            }
            if (!give.empty()) {
                co_await pool_->freeBurst(queue.nicAgent, give.data(),
                                          static_cast<int>(give.size()),
                                          q);
            }
            queue.coreLock.release();
            continue;
        }
        if (placed.empty()) {
            queue.coreLock.release();
            if (queue.rxInput.size() <
                static_cast<std::size_t>(cfg_.nicBatch) * 2) {
                queue.wireDrained.notifyAll();
            }
            continue;
        }

        co_await sim_.delay(
            cycles(costs.perPktTx * static_cast<double>(placed.size())));

        // Publish messages (and spilled payloads) with posted stores;
        // the Ready flip becomes visible at store completion, which is
        // what wakes the host's idleWait.
        queue.rxProd = idx;
        {
            Queue *qp = &queue;
            auto publish = [this, qp, placed, simp = &sim_]() {
                for (const Placed &p : placed) {
                    MsgSlot &s = rxSlot(*qp, p.idx);
                    s.msg = p.msg;
                    s.msg.span.stamp(obs::SpanStage::RxPublish,
                                     simp->now());
                    s.spill = p.spill;
                    s.seq = ++qp->rxSeq;
                    s.state = SlotState::Ready;
                }
            };
            co_await mem_.postMulti(queue.nicAgent, spans,
                                    std::move(publish));
            co_await devPortDelay();
            noteSlotWrite(spans.front().addr);
        }

        queue.coreLock.release();
        if (queue.rxInput.size() <
            static_cast<std::size_t>(cfg_.nicBatch) * 2) {
            queue.wireDrained.notifyAll();
        }
    }
}

sim::Coro<void>
PioNic::flushTxCredits(int q, bool idle_flush)
{
    Queue &queue = *queues_[q];
    const auto entries = queue.txCreditPending.take(
        idle_flush, queue.txProd - queue.txCons);
    if (entries.empty())
        co_return;
    batchFlushes_.at(idle_flush ? "idle" : "full")++;
    if (queue.batchOcc)
        *queue.batchOcc += entries.size();

    std::vector<mem::CoherentSystem::Span> spans;
    std::vector<std::uint32_t> idxs;
    idxs.reserve(entries.size());
    for (const auto &e : entries) {
        idxs.push_back(e.idx);
        spans.push_back({txLineOf(queue, e.idx), slotBytes()});
    }
    Queue *qp = &queue;
    auto publish = [this, qp, idxs]() {
        for (std::uint32_t i : idxs)
            txSlot(*qp, i).state = SlotState::Free;
    };
    co_await mem_.postMulti(queue.nicAgent, spans,
                            std::move(publish));
    co_await devPortDelay();
    noteSlotWrite(spans.front().addr);
    co_return;
}

sim::Coro<void>
PioNic::flushRxCredits(int q, bool timeout_flush)
{
    Queue &queue = *queues_[q];
    const auto entries = queue.rxCreditPending.take(
        timeout_flush,
        static_cast<std::uint32_t>(queue.rxInput.size()));
    if (entries.empty())
        co_return;
    batchFlushes_.at(timeout_flush ? "timeout" : "full")++;
    if (queue.batchOcc)
        *queue.batchOcc += entries.size();

    std::vector<mem::CoherentSystem::Span> spans;
    std::vector<std::uint32_t> idxs;
    idxs.reserve(entries.size());
    for (const auto &e : entries) {
        idxs.push_back(e.idx);
        spans.push_back({rxLineOf(queue, e.idx), slotBytes()});
    }
    Queue *qp = &queue;
    auto publish = [this, qp, idxs]() {
        for (std::uint32_t i : idxs) {
            MsgSlot &s = rxSlot(*qp, i);
            s.msg = WirePacket{};
            s.state = SlotState::Free;
        }
    };
    co_await mem_.postMulti(queue.hostAgent, spans,
                            std::move(publish));
    noteSlotWrite(spans.front().addr);
    co_return;
}

sim::Task
PioNic::rxCreditTimerTask(int q)
{
    Queue &queue = *queues_[q];
    const Tick period =
        std::max<Tick>(1, cfg_.batch.flushTimeout / 2);
    for (;;) {
        co_await sim_.delay(period);
        if (devState_ != DevState::Running)
            continue; // reset() drops the stale pending credits.
        if (!queue.rxCreditPending.empty() &&
            queue.rxCreditPending.timedOut(sim_.now()))
            co_await flushRxCredits(q, /*timeout_flush=*/true);
    }
}

sim::Coro<int>
PioNic::rxBurst(int q, PacketBuf **bufs, int count)
{
    if (devState_ != DevState::Running)
        co_return 0;
    OpScope guard(hostOps_);
    Queue &queue = *queues_[q];
    const auto &costs = cfg_.hostCosts;
    co_await sim_.delay(cycles(costs.perLoop));

    // Integrity gate on the consumer slot line: a poisoned or stale
    // view must not be trusted; retry on the next poll.
    if (!co_await consumeGuard(rxLineOf(queue, queue.rxCons)))
        co_return 0;

    // Gather Ready slots (local spin: no charge while nothing new).
    struct Got
    {
        std::uint32_t idx;
        WirePacket msg;
        PacketBuf *spill;
    };
    std::vector<Got> got;
    std::uint32_t idx = queue.rxCons;
    while (static_cast<int>(got.size()) < count) {
        MsgSlot &s = rxSlot(queue, idx);
        if (s.state != SlotState::Ready)
            break;
        if (s.seq != queue.rxSeqSeen +
                         static_cast<std::uint32_t>(got.size()) + 1) {
            integrity_.noteReject();
            break; // Torn publish: re-poll after the store lands.
        }
        got.push_back({idx, s.msg, s.spill});
        idx++;
    }
    if (got.empty())
        co_return 0;

    // Inline messages need a host-local buffer to land in; spilled
    // ones already carry the device-filled pool buffer. If the pool
    // comes up short, leave the uncovered tail Ready for next time.
    int inline_need = 0;
    for (const Got &g : got) {
        if (!g.spill)
            inline_need++;
    }
    std::vector<PacketBuf *> fresh(
        static_cast<std::size_t>(std::max(inline_need, 1)), nullptr);
    int fresh_got = 0;
    if (inline_need > 0) {
        fresh_got = co_await pool_->allocBurst(
            queue.hostAgent, cfg_.inlineBytes(), fresh.data(),
            inline_need, q);
        if (fresh_got < inline_need) {
            std::size_t keep = 0;
            int inline_seen = 0;
            for (; keep < got.size(); ++keep) {
                if (!got[keep].spill && ++inline_seen > fresh_got)
                    break;
            }
            got.resize(keep);
            if (got.empty())
                co_return 0;
            idx = got.back().idx + 1;
        }
    }

    // Take the slots and charge the reap reads (slot lines carry the
    // inline payload, so this is the whole cross-socket transfer).
    std::vector<mem::CoherentSystem::Span> spans;
    std::vector<mem::CoherentSystem::Span> copy_spans;
    std::vector<std::uint32_t> taken_idx;
    int fresh_next = 0;
    for (std::size_t i = 0; i < got.size(); ++i) {
        MsgSlot &s = rxSlot(queue, got[i].idx);
        s.state = SlotState::Taken;
        s.spill = nullptr;
        spans.push_back({rxLineOf(queue, got[i].idx), slotBytes()});
        taken_idx.push_back(got[i].idx);

        PacketBuf *b = got[i].spill;
        if (!b) {
            b = fresh[static_cast<std::size_t>(fresh_next++)];
            // The inline payload is copied into a host-local recycled
            // buffer: the stores below hit local lines, and the app's
            // subsequent payload reads are cache hits rather than the
            // cross-socket reads the ring interfaces pay.
            copy_spans.push_back({b->addr, std::max<std::uint32_t>(
                                               got[i].msg.len, 1)});
        }
        const WirePacket &m = got[i].msg;
        b->len = m.len;
        b->txTime = m.txTime;
        b->flowId = m.flowId;
        b->userData = m.userData;
        b->src = m.src;
        b->dst = m.dst;
        b->tp = m.tp;
        b->span = m.span;
        bufs[i] = b;
    }
    queue.rxCons = idx;
    queue.rxSeqSeen += static_cast<std::uint32_t>(got.size());

    co_await mem_.accessMulti(queue.hostAgent, spans, false);
    if (!copy_spans.empty())
        co_await mem_.accessMulti(queue.hostAgent, copy_spans, true);
    co_await sim_.delay(
        cycles(costs.perPktRx * static_cast<double>(got.size())));

    // Credit return: posted stores flipping the slots Free. Under
    // coalescing the slots stay Taken (consumer-private) until enough
    // credits accumulate; the flush timer bounds the hold.
    if (cfg_.batch.enabled()) {
        for (std::uint32_t i : taken_idx)
            queue.rxCreditPending.stage(i, nullptr, sim_.now());
        if (queue.rxCreditPending.full())
            co_await flushRxCredits(q, /*timeout_flush=*/false);
    } else {
        Queue *qp = &queue;
        auto publish = [this, qp, taken_idx]() {
            for (std::uint32_t i : taken_idx) {
                MsgSlot &s = rxSlot(*qp, i);
                s.msg = WirePacket{};
                s.state = SlotState::Free;
            }
        };
        co_await mem_.postMulti(queue.hostAgent, spans,
                                std::move(publish));
        noteSlotWrite(spans.front().addr);
    }

    const int n = static_cast<int>(got.size());
    queue.rxDeliveredTotal += static_cast<std::uint64_t>(n);
    rxDelivered_ += static_cast<std::uint64_t>(n);
    for (int i = 0; i < n; ++i) {
        if (bufs[i]->span.active) {
            obs::SpanTable::global().commit(cfg_.spanPath,
                                            bufs[i]->span, sim_.now());
        }
    }
    co_return n;
}

sim::Coro<void>
PioNic::idleWait(int q, Tick deadline)
{
    Queue &queue = *queues_[q];
    // The host's next RX work lands in its consumer slot; park on that
    // line and let the device's publish invalidation wake us. Bounded:
    // reset() rewinds rxCons, so a waiter must re-check within a beat.
    const Addr watch = rxLineOf(queue, queue.rxCons);
    co_await mem_.waitLineChangeUntil(
        watch, mem_.lineVersion(watch),
        std::min(deadline, sim_.now() + cfg_.beatPeriod));
    co_return;
}

} // namespace ccn::pio
