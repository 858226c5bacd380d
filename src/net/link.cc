#include "net/link.hh"

#include <algorithm>

#include "obs/trace.hh"

namespace ccn::net {

using sim::Tick;

namespace {

/// Per-frame wire overhead (Ethernet preamble + FCS + IFG).
constexpr std::uint32_t kFramingBytes = 24;

/// A held (reordered) packet flushes after this even if nothing
/// overtakes it, so a tail packet is delayed, not lost.
constexpr Tick kReorderHold = sim::fromUs(2.0);

} // namespace

Link::Link(sim::Simulator &sim, const LinkConfig &cfg, std::string name)
    : sim_(sim), cfg_(cfg), name_(std::move(name)), queue_(sim),
      faultRng_(cfg.faults.seed)
{
    dropsL_ = &dropsByLink_.at(name_);
    faultDropsL_ = &faultDropsByLink_.at(name_);
    downDropsL_ = &downDropsByLink_.at(name_);
    peakQueueL_ = &peakQueueByLink_.at(name_);
    sim_.spawn(drainTask());
    if (cfg_.faults.upTime > 0 && cfg_.faults.downTime > 0)
        sim_.spawn(flapTask());
}

bool
Link::send(const WirePacket &pkt)
{
    if (!up_) {
        stats_.downDrops++;
        (*downDropsL_)++;
        obs::tracepoint(obs::EventKind::LinkDrop, "link.dark",
                        sim_.now(), pkt.len);
        return false;
    }
    if (queue_.size() >= cfg_.queuePackets) {
        stats_.drops++;
        (*dropsL_)++;
        stats_.dropBytes += pkt.len;
        obs::tracepoint(obs::EventKind::LinkDrop, "link.tail_drop",
                        sim_.now(), pkt.len);
        return false;
    }
    queue_.put(pkt);
    stats_.peakQueue.observe(queue_.size());
    peakQueueL_->observe(queue_.size());
    return true;
}

sim::Task
Link::drainTask()
{
    for (;;) {
        const WirePacket pkt = co_await queue_.get();
        const Tick exit =
            sim_.now() + sim::serializationTime(
                             pkt.len + kFramingBytes,
                             cfg_.bytesPerSec());
        co_await sim_.delayUntil(exit);
        stats_.txPackets++;
        stats_.txBytes += pkt.len;
        if (sink_) {
            sim_.scheduleCallback(exit + cfg_.propDelay, [this, pkt] {
                arrive(pkt);
            });
        }
    }
}

sim::Task
Link::flapTask()
{
    for (;;) {
        co_await sim_.delay(cfg_.faults.upTime);
        up_ = false;
        co_await sim_.delay(cfg_.faults.downTime);
        up_ = true;
    }
}

void
Link::arrive(WirePacket pkt)
{
    const FaultProfile &f = cfg_.faults;

    // A dark link loses everything in flight.
    if (!up_) {
        stats_.downDrops++;
        (*downDropsL_)++;
        obs::tracepoint(obs::EventKind::LinkDrop, "link.dark",
                        sim_.now(), pkt.len);
        return;
    }

    if (forceDrop_ > 0) {
        forceDrop_--;
        stats_.faultDrops++;
        (*faultDropsL_)++;
        obs::tracepoint(obs::EventKind::LinkDrop, "link.fault_drop",
                        sim_.now(), pkt.len);
        return;
    }
    if (f.dropRate > 0 && faultRng_.chance(f.dropRate)) {
        stats_.faultDrops++;
        (*faultDropsL_)++;
        obs::tracepoint(obs::EventKind::LinkDrop, "link.fault_drop",
                        sim_.now(), pkt.len);
        return;
    }

    if (forceCorrupt_ > 0 ||
        (f.corruptRate > 0 && faultRng_.chance(f.corruptRate))) {
        if (forceCorrupt_ > 0)
            forceCorrupt_--;
        // Flip a payload bit; the FCS (stamped at TX) now mismatches.
        pkt.userData ^= 1ULL << (faultRng_.next() % 64);
        stats_.corrupts++;
    }

    // Swap-ahead reordering: release any held packet behind this one.
    if (held_) {
        const WirePacket earlier = *held_;
        held_.reset();
        deliver(pkt);
        deliver(earlier);
    } else if (forceReorder_ > 0 ||
               (f.reorderRate > 0 && faultRng_.chance(f.reorderRate))) {
        if (forceReorder_ > 0)
            forceReorder_--;
        stats_.reorders++;
        held_ = pkt;
        const std::uint64_t gen = ++heldGen_;
        sim_.scheduleCallback(sim_.now() + kReorderHold, [this, gen] {
            if (held_ && heldGen_ == gen) {
                const WirePacket flushed = *held_;
                held_.reset();
                deliver(flushed);
            }
        });
        return;
    } else {
        deliver(pkt);
    }

    if (f.dupRate > 0 && faultRng_.chance(f.dupRate)) {
        stats_.dups++;
        deliver(pkt);
    }
}

void
Link::deliver(const WirePacket &pkt)
{
    if (sink_)
        sink_(pkt);
}

} // namespace ccn::net
