#include "driver/nic_iface.hh"

#include <algorithm>
#include <cassert>

#include "obs/span.hh"
#include "obs/trace.hh"

namespace ccn::driver {

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
        crc = crc32cWord(crc, w);
    crc = ~crc;
    // Reserve 0 as the "unstamped" sentinel.
    return crc ? crc : 1u;
}

CpuCosts
platformCosts(const mem::PlatformConfig &plat)
{
    CpuCosts c;
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

NicInterface::QueueCore::QueueCore(sim::Simulator &sim,
                                   mem::CoherentSystem &m,
                                   int host_socket, int nic_socket)
    : hostAgent(m.addAgent(host_socket)),
      nicAgent(nic_socket < 0 ? hostAgent : m.addAgent(nic_socket)),
      rxInput(sim),
      coreLock(sim, 1),
      wireDrained(sim)
{}

QueueHealth
NicInterface::QueueCore::progress() const
{
    QueueHealth h;
    h.txSubmitted = txSubmittedTotal;
    h.txCompleted = txCompletedTotal;
    h.rxDelivered = rxDeliveredTotal;
    return h;
}

NicInterface::NicInterface(sim::Simulator &sim,
                           mem::CoherentSystem &mem_system,
                           DeviceTraits traits)
    : sim_(sim), mem_(mem_system), traits_(std::move(traits)),
      integrity_(mem_system), runGate_(sim),
      txCount_(traits_.prefix + ".tx_packets"),
      rxCrcDrops_(traits_.prefix + ".rx_crc_drops"),
      resets_(traits_.prefix + ".resets"),
      resetReclaimed_(traits_.prefix + ".reset_reclaimed_bufs"),
      batchFlushes_(traits_.prefix + ".batch_flushes", "reason"),
      batchOccupancy_(traits_.prefix + ".batch_occupancy", "queue")
{
    if (traits_.countBeats)
        heartbeats_.emplace(traits_.prefix + ".heartbeats");
}

NicInterface::~NicInterface()
{
    unregisterProfRegions();
}

void
NicInterface::start()
{
    assert(!started_);
    started_ = true;
    for (int q = 0; q < numQueues(); ++q)
        spawnEngines(q);
    sim_.spawn(heartbeatTask());
}

void
NicInterface::addQueue(QueueCore &queue)
{
    queue.batchOcc = &batchOccupancy_.at(cores_.size());
    cores_.push_back(&queue);
}

void
NicInterface::unregisterProfRegions()
{
    for (obs::RegionId id : profRegions_)
        mem_.profiler().unregisterRegion(id);
    profRegions_.clear();
}

sim::Coro<bool>
NicInterface::consumeGuard(mem::Addr line)
{
    if (!mem_.faultsArmed())
        co_return true;
    if (integrity_.staleView(line, traits_.guardBytes)) {
        integrity_.noteReject();
        co_return false;
    }
    co_return co_await integrity_.guardRange(line, traits_.guardBytes);
}

void
NicInterface::deliverTx(int q, const WirePacket &pkt)
{
    txCount_++;
    // TX checksum offload: every packet leaves with a valid FCS.
    WirePacket out = pkt;
    out.span.stamp(obs::SpanStage::WireTx, sim_.now());
    out.fcs = wireFcs(out);
    if (!traits_.loopback && txSink_) {
        txSink_(q, out);
        return;
    }
    QueueCore *core = cores_[q];
    if (traits_.wireLat == 0) {
        out.span.stamp(obs::SpanStage::LinkDeliver, sim_.now());
        core->rxInput.put(out);
    } else {
        sim_.scheduleCallback(sim_.now() + traits_.wireLat,
                              [core, out, simp = &sim_]() mutable {
                                  out.span.stamp(
                                      obs::SpanStage::LinkDeliver,
                                      simp->now());
                                  core->rxInput.put(out);
                              });
    }
}

void
NicInterface::injectRx(int q, const WirePacket &pkt)
{
    if (!fcsOk(pkt)) {
        rxCrcDrops_++;
        return;
    }
    WirePacket in = pkt;
    in.span.stamp(obs::SpanStage::LinkDeliver, sim_.now());
    cores_[q]->rxInput.put(in);
}

sim::Coro<int>
NicInterface::allocBufs(int q, std::uint32_t size, PacketBuf **bufs,
                        int count)
{
    co_await sim_.delay(
        cycles(traits_.hostCosts.perAllocFree * std::max(1, count / 8)));
    const int got = co_await pool_->allocBurst(cores_[q]->hostAgent, size,
                                               bufs, count, q);
    // Recycled buffers must not leak a previous transport header or
    // a stale span slot.
    for (int i = 0; i < got; ++i) {
        bufs[i]->tp = {};
        bufs[i]->span.clear();
    }
    co_return got;
}

sim::Coro<void>
NicInterface::freeBufs(int q, PacketBuf **bufs, int count)
{
    co_await sim_.delay(
        cycles(traits_.hostCosts.perAllocFree * std::max(1, count / 8)));
    co_await pool_->freeBurst(cores_[q]->hostAgent, bufs, count, q);
    co_return;
}

sim::Task
NicInterface::heartbeatTask()
{
    for (;;) {
        co_await sim_.delay(traits_.beatPeriod);
        // A wedged or down device goes silent: that silence is the
        // Watchdog's failure signal, so do not bump the line.
        if (wedged_ || devState_ != DevState::Running)
            continue;
        co_await publishDeviceBeat();
    }
}

sim::Coro<void>
NicInterface::publishDeviceBeat()
{
    const mem::AgentId agent = cores_[0]->nicAgent;
    co_await mem_.store(agent, nicBeat_->addr(), 8);
    nicBeat_->publish(nicBeat_->value() + 1);
    ++*heartbeats_;
    // Pingpong read of the host's beat line (host-liveness view).
    co_await mem_.load(agent, hostBeat_->addr(), 8);
}

sim::Coro<void>
NicInterface::beatHost()
{
    co_await mem_.store(cores_[0]->hostAgent, hostBeat_->addr(), 8);
    hostBeat_->publish(hostBeat_->value() + 1);
    co_return;
}

sim::Coro<std::uint64_t>
NicInterface::readDeviceBeat()
{
    co_await mem_.load(cores_[0]->hostAgent, nicBeat_->addr(), 8);
    co_return nicBeat_->value();
}

void
NicInterface::wakeEngines()
{
    runGate_.notifyAll();
    for (QueueCore *core : cores_)
        core->wireDrained.notifyAll();
}

sim::Coro<void>
NicInterface::quiesce()
{
    if (devState_ == DevState::Down)
        co_return;
    devState_ = DevState::Quiescing;
    // Wake parked engines so they observe the state change; engines
    // blocked on signal lines re-check within one beatPeriod.
    wakeEngines();
    // Refuse new host bursts (devState_ guard) and drain the ones in
    // flight.
    while (*hostOps_ > 0)
        co_await sim_.delay(sim::fromNs(100));
    co_await drainEngines();
    devState_ = DevState::Down;
    co_return;
}

sim::Coro<void>
NicInterface::drainEngines()
{
    // Once a queue's core lock can be taken, no device engine is
    // mid-batch on that queue.
    for (QueueCore *core : cores_) {
        co_await core->coreLock.acquire();
        core->coreLock.release();
    }
    co_return;
}

sim::Coro<void>
NicInterface::reset()
{
    assert(devState_ == DevState::Down);
    co_await sim_.delay(traits_.resetLat);

    std::uint64_t reclaimed = 0;
    for (int q = 0; q < numQueues(); ++q) {
        QueueCore &core = *cores_[q];
        std::vector<PacketBuf *> frees = sweepQueue(q);
        // Drop wire-side packets queued into the dead device.
        core.rxInput.clear();
        if (!frees.empty()) {
            for (PacketBuf *b : frees)
                b->nextSeg = nullptr; // Second segments are app memory.
            co_await pool_->freeBurst(core.nicAgent, frees.data(),
                                      static_cast<int>(frees.size()),
                                      q);
            reclaimed += frees.size();
        }
        rewindQueue(q);
    }
    // Surface the teardown leak audit through PoolTelemetry: after
    // reclamation every buffer not held by the application must be
    // back in the pool.
    pool_->auditLeaks();
    resetReclaimed_ += reclaimed;
    resets_++;
    obs::tracepoint(obs::EventKind::Custom, traits_.resetTrace,
                    sim_.now(), reclaimed);
    co_return;
}

sim::Coro<void>
NicInterface::reinit()
{
    assert(devState_ == DevState::Down);
    co_await sim_.delay(traits_.reinitLat);
    // Re-register profiler regions across the hot-reset, as a fresh
    // driver attach would. reset() reallocates no storage, so the
    // ranges are identical and the region count must not leak.
    unregisterProfRegions();
    registerProfRegions();
    wedged_ = false;
    devState_ = DevState::Running;
    wakeEngines();
    co_return;
}

} // namespace ccn::driver
