#include "pio/pio.hh"

#include <algorithm>

namespace ccn::pio {

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
        cfg.numSlots * 2 + 2 * driver::kRecycleDepth + 256;
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

PioNic::Channel::Channel(mem::CoherentSystem &m, int home_socket,
                         std::uint32_t num_slots, mem::AgentId producer,
                         mem::AgentId consumer, bool device_produces)
    : slots(num_slots),
      base(m.alloc(home_socket,
                   static_cast<std::uint64_t>(num_slots) * kSlotBytes,
                   mem::kLineBytes)),
      producer(producer), consumer(consumer),
      deviceProduces(device_produces)
{}

PioNic::Queue::Queue(sim::Simulator &sim, mem::CoherentSystem &m,
                     const Config &cfg, int host_socket, int nic_socket)
    : QueueCore(sim, m, host_socket, nic_socket),
      // TX slots are host-homed (writer-homed); RX homing is the
      // UPI/CXL distinction.
      tx(m, host_socket, cfg.numSlots, hostAgent, nicAgent, false),
      rx(m, cfg.deviceHomedRx ? nic_socket : host_socket, cfg.numSlots,
         nicAgent, hostAgent, true)
{}

PioNic::PioNic(sim::Simulator &sim, mem::CoherentSystem &mem_system,
               const Config &config, int host_socket, int nic_socket,
               sim::Rng &rng)
    : NicInterface(sim, mem_system,
                   {.prefix = "pio",
                    .resetTrace = "pio.reset",
                    .hostCosts = config.hostCosts,
                    .reinitLat = mem_system.config().cycles(
                        config.nicCosts.perLoop * 8),
                    .loopback = config.loopback,
                    // A consume trusts a whole slot, not one line.
                    .guardBytes = kSlotBytes,
                    .spanPath = config.spanPath}),
      cfg_(config), hostSocket_(host_socket), nicSocket_(nic_socket)
{
    cfg_.pool.homeSocket = host_socket;
    // Slot index arithmetic masks with numSlots-1.
    cfg_.numSlots = driver::DescRing::roundUpPow2(cfg_.numSlots);
    // A device burst never needs more slots than the array holds.
    burst_ = std::min<int>(8, static_cast<int>(cfg_.numSlots));
    // Clamp the credit-coalescing target to a quarter of the slot
    // array: held credits shrink the flow-control window, and a target
    // at or above numSlots would wedge the producer permanently.
    cfg_.batch.clampTo(std::max<std::uint32_t>(1, cfg_.numSlots / 4));
    pool_ = std::make_unique<driver::Mempool>(mem_, cfg_.pool, rng);
    for (int q = 0; q < cfg_.numQueues; ++q) {
        queues_.push_back(std::make_unique<Queue>(
            sim_, mem_, cfg_, hostSocket_, nicSocket_));
        Queue &queue = *queues_.back();
        addQueue(queue);
        queue.polls = &slotPollsQ_.at(static_cast<std::uint64_t>(q));
        queue.tx.credits.setPolicy(cfg_.batch);
        queue.rx.credits.setPolicy(cfg_.batch);
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
        static_cast<std::uint64_t>(cfg_.numSlots) * kSlotBytes;
    for (std::size_t q = 0; q < queues_.size(); ++q) {
        const auto qi = std::to_string(q);
        auto &qu = *queues_[q];
        profRegions_.push_back(prof.registerRegion(
            cfg_.spanPath + ".tx_slots[q" + qi + "]", qu.tx.base, bytes,
            intent));
        profRegions_.push_back(prof.registerRegion(
            cfg_.spanPath + ".rx_slots[q" + qi + "]", qu.rx.base, bytes,
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
    if (cfg_.batch.enabled()) {
        sim_.spawn(flushTimerTask(q, queues_[q]->rx.credits,
                                  cfg_.batch.flushTimeout, false));
    }
}

std::vector<mem::Addr>
PioNic::faultLines() const
{
    // Queue-0's live slot lines: the device's TX consumer slot and
    // the host's RX consumer slot.
    const Queue &q = *queues_[0];
    return {q.tx.lineOf(q.tx.cons), q.rx.lineOf(q.rx.cons)};
}

driver::QueueHealth
PioNic::health(int q) const
{
    const Queue &queue = *queues_[q];
    driver::QueueHealth h = queue.progress();
    h.txOutstanding = queue.tx.prod - queue.tx.cons;
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
    for (Channel *ch : {&queue.tx, &queue.rx}) {
        for (MsgSlot &s : ch->slots) {
            if (s.spill)
                frees.push_back(s.spill);
            s = MsgSlot{};
        }
    }
    return frees;
}

void
PioNic::rewindQueue(int q)
{
    Queue &queue = *queues_[q];
    for (Channel *ch : {&queue.tx, &queue.rx}) {
        // Pending credit flushes reference slots the sweep just freed;
        // drop them (the entries carry no buffers).
        (void)ch->credits.take(/*timeout_flush=*/true);
        ch->prod = ch->cons = 0;
        ch->seq = ch->seqSeen = 0;
    }
}

sim::Coro<void>
PioNic::publish(Channel &ch, std::vector<SlotMsg> msgs,
                std::vector<mem::CoherentSystem::Span> spans)
{
    ch.prod = msgs.back().idx + 1;
    const obs::SpanStage stage = ch.deviceProduces
                                     ? obs::SpanStage::RxPublish
                                     : obs::SpanStage::DescPublish;
    // Message state is published at store visibility, which is also
    // what wakes a consumer parked on the slot line.
    Channel *c = &ch;
    auto visible = [c, msgs = std::move(msgs), stage, simp = &sim_] {
        for (const SlotMsg &m : msgs) {
            MsgSlot &s = c->slot(m.idx);
            s.msg = m.msg;
            s.msg.span.stamp(stage, simp->now());
            s.spill = m.spill;
            s.seq = ++c->seq;
            s.state = SlotState::Ready;
        }
    };
    co_await mem_.postMulti(ch.producer, spans, std::move(visible));
    if (ch.deviceProduces)
        co_await devPortDelay();
    noteSlotWrite(spans.front().addr);
}

std::vector<PioNic::SlotMsg>
PioNic::gather(Channel &ch, int max)
{
    std::vector<SlotMsg> out;
    for (std::uint32_t n = 0; n < static_cast<std::uint32_t>(max); ++n) {
        const std::uint32_t idx = ch.cons + n;
        const MsgSlot &s = ch.slot(idx);
        if (s.state != SlotState::Ready)
            break;
        if (s.seq != ch.seqSeen + n + 1) {
            integrity_.noteReject();
            break;
        }
        out.push_back({idx, s.msg, s.spill});
    }
    return out;
}

std::vector<mem::CoherentSystem::Span>
PioNic::take(Channel &ch, const std::vector<SlotMsg> &msgs)
{
    std::vector<mem::CoherentSystem::Span> lines;
    for (const SlotMsg &m : msgs) {
        MsgSlot &s = ch.slot(m.idx);
        s.state = SlotState::Taken;
        s.spill = nullptr;
        lines.push_back({ch.lineOf(m.idx), kSlotBytes});
    }
    ch.seqSeen += static_cast<std::uint32_t>(msgs.size());
    return lines;
}

sim::Coro<void>
PioNic::credit(int q, Channel &ch, const std::vector<SlotMsg> &msgs)
{
    if (!cfg_.batch.enabled()) {
        std::vector<std::uint32_t> idxs;
        for (const SlotMsg &m : msgs)
            idxs.push_back(m.idx);
        co_await returnCredits(ch, std::move(idxs));
        co_return;
    }
    for (const SlotMsg &m : msgs)
        ch.credits.stage(m.idx, nullptr, sim_.now());
    if (ch.credits.full())
        co_await flushCredits(q, ch, FlushReason::Full);
    else if (!ch.deviceProduces &&
             ch.slot(ch.cons).state != SlotState::Ready)
        co_await flushCredits(q, ch, FlushReason::Idle);
}

sim::Coro<void>
PioNic::flushCredits(int q, Channel &ch, FlushReason why)
{
    // The work waiting behind the credits: the device's TX backlog,
    // or the arrivals the host's RX credits hold back.
    const std::uint32_t backlog =
        ch.deviceProduces
            ? static_cast<std::uint32_t>(queues_[q]->rxInput.size())
            : ch.prod - ch.cons;
    std::vector<std::uint32_t> idxs;
    for (const auto &e : takeBatch(q, ch.credits, why, backlog))
        idxs.push_back(e.idx);
    co_await returnCredits(ch, std::move(idxs));
}

sim::Coro<void>
PioNic::returnCredits(Channel &ch, std::vector<std::uint32_t> idxs)
{
    std::vector<mem::CoherentSystem::Span> spans;
    for (std::uint32_t i : idxs)
        spans.push_back({ch.lineOf(i), kSlotBytes});
    // Posted stores: the producer's claim check sees the flip at
    // visibility.
    Channel *c = &ch;
    auto freed = [c, idxs = std::move(idxs)] {
        for (std::uint32_t i : idxs) {
            MsgSlot &s = c->slot(i);
            s.msg = WirePacket{};
            s.state = SlotState::Free;
        }
    };
    co_await mem_.postMulti(ch.consumer, spans, std::move(freed));
    if (!ch.deviceProduces)
        co_await devPortDelay();
    noteSlotWrite(spans.front().addr);
}

sim::Coro<int>
PioNic::txBurst(int q, PacketBuf **bufs, int count)
{
    if (devState_ != DevState::Running)
        co_return 0;
    OpScope guard(hostOps_);
    Queue &queue = *queues_[q];
    Channel &tx = queue.tx;
    const auto &costs = cfg_.hostCosts;
    co_await sim_.delay(cycles(costs.perLoop));

    // Claim free slots. The credit check is a local spin on the slot's
    // state word: the device's credit write invalidated our copy, so a
    // slot that looks Free is Free. A claimed slot stays Filling until
    // its publish lands, so the next burst cannot claim it again.
    int n = 0;
    while (n < count && tx.slot(tx.prod + n).state == SlotState::Free)
        ++n;
    if (n < count)
        creditStalls_++; // Slot array full: credits not yet returned.
    if (n == 0)
        co_return 0;
    // Lifecycle spans: activate the 1-in-N sampled slot on accepted
    // buffers only.
    startSpans(bufs, n);
    std::vector<SlotMsg> msgs;
    std::vector<mem::CoherentSystem::Span> spans;
    // Inline messages: the payload moves into the slot lines, so the
    // source buffer goes straight back to the (host-local) recycle
    // stack — there is no TX completion to reap. Spilled buffers pass
    // to the device, which frees them after reading the payload.
    std::vector<PacketBuf *> frees;
    for (int i = 0; i < n; ++i) {
        const std::uint32_t idx = tx.prod + static_cast<std::uint32_t>(i);
        PacketBuf *b = bufs[i];
        // The span rides in the slot from here; inline TX buffers are
        // recycled immediately and must not keep an active slot. Only
        // a spilled frame's chained segment is a second descriptor.
        const bool spilled = b->wireLen() > kInlineBytes;
        if (spilled)
            spills_++;
        else
            frees.push_back(b);
        tx.slot(idx).state = SlotState::Filling;
        msgs.push_back({idx, driver::takeWire(*b, b->wireLen(), spilled),
                        spilled ? b : nullptr});
        spans.push_back({tx.lineOf(idx), kSlotBytes});
    }

    co_await sim_.delay(
        cycles(costs.perPktTx * static_cast<double>(msgs.size())));

    // PIO TX has no host-side staging — the slot stores *are* the
    // signal — so BatchFlush coincides with publish initiation.
    for (SlotMsg &m : msgs)
        m.msg.span.stamp(obs::SpanStage::BatchFlush, sim_.now());
    queue.txSubmittedTotal += msgs.size();
    co_await publish(tx, std::move(msgs), std::move(spans));
    co_await returnBufs(queue.hostAgent, q, std::move(frees));
    co_return n;
}

sim::Task
PioNic::devTxTask(int q)
{
    Queue &queue = *queues_[q];
    Channel &tx = queue.tx;
    const auto &costs = cfg_.nicCosts;

    for (;;) {
        while (wedged_ || devState_ != DevState::Running)
            co_await runGate_.wait();

        // Poll the head TX slot: a free local spin until the host's
        // store invalidates our copy, then one (remote) reload. A
        // poisoned or stale (torn/stuck) slot line must not be
        // trusted: park until it heals or the beat expires.
        const Addr line = tx.lineOf(tx.cons);
        noteSlotPoll(queue, line);
        co_await mem_.load(queue.nicAgent, line, kSlotBytes);
        co_await devPortDelay();
        const bool trusted = co_await consumeGuard(line);
        if (!trusted || tx.slot(tx.cons).state != SlotState::Ready) {
            co_await mem_.waitLineChangeUntil(
                line, mem_.lineVersion(line),
                sim_.now() + driver::kBeatPeriod);
            continue;
        }

        if (!co_await claimTxCore(q, burst_))
            continue;
        std::vector<SlotMsg> batch = gather(tx, burst_);
        if (batch.empty()) {
            queue.coreLock.release();
            continue;
        }
        for (SlotMsg &m : batch)
            m.msg.span.stamp(obs::SpanStage::NicObserve, sim_.now());

        // Slot-line reads carry header and inline payload together;
        // spilled payloads are fetched from their pool buffers.
        const auto lines = take(tx, batch);
        co_await mem_.accessMulti(queue.nicAgent, lines, false);
        co_await devPortDelay();
        std::vector<mem::CoherentSystem::Span> payload_spans;
        for (const SlotMsg &m : batch) {
            if (m.spill) {
                payload_spans.push_back({m.spill->addr, m.spill->len});
                if (m.spill->nextSeg) {
                    payload_spans.push_back(
                        {m.spill->nextSeg->addr, m.spill->segLen});
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

        tx.cons = batch.back().idx + 1;
        queue.txCompletedTotal += batch.size();
        co_await credit(q, tx, batch);

        // Hand to the wire before buffer release.
        std::vector<PacketBuf *> frees;
        for (const SlotMsg &m : batch) {
            deliverTx(q, m.msg);
            if (m.spill) {
                m.spill->nextSeg = nullptr;
                frees.push_back(m.spill);
            }
        }
        co_await returnBufs(queue.nicAgent, q, std::move(frees));
        queue.coreLock.release();
    }
}

sim::Task
PioNic::devRxTask(int q)
{
    Queue &queue = *queues_[q];
    Channel &rx = queue.rx;
    const auto &costs = cfg_.nicCosts;

    for (;;) {
        const std::vector<WirePacket> batch =
            co_await takeRxBatch(q, burst_);

        // Place each message into the next Free RX slot. Waits are
        // bounded so a quiesce (host no longer returning credits)
        // cannot park this engine inside the core lock.
        std::vector<SlotMsg> placed;
        std::vector<mem::CoherentSystem::Span> spans;
        bool abandoned = false;
        std::uint32_t idx = rx.prod;
        for (const WirePacket &pkt : batch) {
            while (rx.slot(idx).state != SlotState::Free) {
                if (devState_ != DevState::Running) {
                    abandoned = true;
                    break;
                }
                const Addr line = rx.lineOf(idx);
                noteSlotPoll(queue, line);
                co_await mem_.load(queue.nicAgent, line, kSlotBytes);
                co_await devPortDelay();
                if (rx.slot(idx).state == SlotState::Free)
                    break;
                co_await mem_.waitLineChangeUntil(
                    line, mem_.lineVersion(line),
                    sim_.now() + driver::kBeatPeriod);
            }
            if (abandoned)
                break;
            PacketBuf *spill = nullptr;
            if (pkt.len > kInlineBytes) {
                // Oversized frame: the payload spills to a pool buffer
                // allocated device-side (recycle stacks make it the
                // most recently freed one, still device-cached).
                const int got = co_await pool_->allocBurst(
                    queue.nicAgent, pkt.len, &spill, 1, q);
                if (got == 0 || !spill) {
                    rxNoBuf_++;
                    continue; // Drop; the slot stays available.
                }
                spill->len = pkt.len;
            }
            rx.slot(idx).state = SlotState::Filling;
            spans.push_back({rx.lineOf(idx), kSlotBytes});
            if (spill)
                spans.push_back({spill->addr, pkt.len});
            placed.push_back({idx++, pkt, spill});
        }
        if (abandoned) {
            std::vector<PacketBuf *> spills;
            for (const SlotMsg &m : placed) {
                rx.slot(m.idx).state = SlotState::Free;
                spills.push_back(m.spill);
            }
            co_await abandonRxBatch(q, std::move(spills));
            continue;
        }
        if (placed.empty()) {
            endRxBatch(q, burst_);
            continue;
        }

        co_await sim_.delay(
            cycles(costs.perPktTx * static_cast<double>(placed.size())));
        co_await publish(rx, std::move(placed), std::move(spans));
        endRxBatch(q, burst_);
    }
}

sim::Coro<int>
PioNic::rxBurst(int q, PacketBuf **bufs, int count)
{
    if (devState_ != DevState::Running)
        co_return 0;
    OpScope guard(hostOps_);
    Queue &queue = *queues_[q];
    Channel &rx = queue.rx;
    const auto &costs = cfg_.hostCosts;
    co_await sim_.delay(cycles(costs.perLoop));

    // Integrity gate on the consumer slot line: a poisoned or stale
    // view must not be trusted; retry on the next poll.
    if (!co_await consumeGuard(rx.lineOf(rx.cons)))
        co_return 0;

    // Gather Ready slots (local spin: no charge while nothing new).
    std::vector<SlotMsg> got = gather(rx, count);
    if (got.empty())
        co_return 0;

    // Inline messages need a host-local buffer to land in; spilled
    // ones already carry the device-filled pool buffer. If the pool
    // comes up short, leave the uncovered tail Ready for next time.
    int inline_need = 0;
    for (const SlotMsg &g : got) {
        if (!g.spill)
            inline_need++;
    }
    std::vector<PacketBuf *> fresh(
        static_cast<std::size_t>(std::max(inline_need, 1)), nullptr);
    if (inline_need > 0) {
        const int fresh_got = co_await pool_->allocBurst(
            queue.hostAgent, kInlineBytes, fresh.data(), inline_need, q);
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
        }
    }

    // Take the slots and charge the reap reads (slot lines carry the
    // inline payload, so this is the whole cross-socket transfer).
    const auto lines = take(rx, got);
    rx.cons = got.back().idx + 1;
    std::vector<mem::CoherentSystem::Span> copy_spans;
    int fresh_next = 0;
    for (std::size_t i = 0; i < got.size(); ++i) {
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
        driver::fromWire(*b, got[i].msg);
        bufs[i] = b;
    }

    co_await mem_.accessMulti(queue.hostAgent, lines, false);
    if (!copy_spans.empty())
        co_await mem_.accessMulti(queue.hostAgent, copy_spans, true);
    co_await sim_.delay(
        cycles(costs.perPktRx * static_cast<double>(got.size())));

    // Credit return: posted stores flipping the slots Free. Under
    // coalescing the slots stay Taken (consumer-private) until enough
    // credits accumulate; the flush timer bounds the hold.
    co_await credit(q, rx, got);

    const int n = static_cast<int>(got.size());
    rxDelivered_ += static_cast<std::uint64_t>(n);
    delivered(q, bufs, n);
    co_return n;
}

sim::Coro<void>
PioNic::idleWait(int q, Tick deadline)
{
    Channel &rx = queues_[q]->rx;
    // The host's next RX work lands in its consumer slot; park on that
    // line and let the device's publish invalidation wake us. Bounded:
    // reset() rewinds the consumer, so a waiter must re-check within a
    // beat.
    const Addr watch = rx.lineOf(rx.cons);
    co_await mem_.waitLineChangeUntil(
        watch, mem_.lineVersion(watch),
        std::min(deadline, sim_.now() + driver::kBeatPeriod));
    co_return;
}

} // namespace ccn::pio
