#include "transport/transport.hh"

#include <algorithm>

#include "obs/trace.hh"

namespace ccn::transport {

using driver::kTpAck;
using driver::kTpData;
using driver::kTpRst;
using driver::kTpSyn;
using driver::kTpSynAck;
using driver::PacketBuf;
using driver::TransportHeader;
using sim::Tick;

// ---------------------------------------------------------------------------
// Connection

Connection::Connection(Endpoint &ep, std::uint32_t local_id)
    : ep_(ep), localId_(local_id),
      sndUna_(ep.cfg_.initialSeq), sndNext_(ep.cfg_.initialSeq),
      windowLimit_(ep.cfg_.initialSeq), rto_(ep.cfg_.initialRto),
      sendGate_(ep.sim_), rcvNext_(ep.cfg_.initialSeq),
      rxGate_(ep.sim_)
{}

bool
Connection::canSend() const
{
    return state_ == State::Open &&
           sndNext_ - sndUna_ < ep_.cfg_.window &&
           seqLt(sndNext_, windowLimit_);
}

std::uint16_t
Connection::myCredits() const
{
    const std::size_t used = rxq_.size() + oord_.size();
    if (used >= ep_.cfg_.window)
        return 0;
    return static_cast<std::uint16_t>(ep_.cfg_.window - used);
}

std::uint64_t
Connection::sackBits() const
{
    std::uint64_t bits = 0;
    for (const auto &[seq, seg] : oord_) {
        const std::uint32_t off = seq - rcvNext_ - 1;
        if (off < 64)
            bits |= 1ULL << off;
    }
    return bits;
}

void
Connection::rttSample(Tick rtt)
{
    if (!haveRtt_) {
        srtt_ = rtt;
        rttvar_ = rtt / 2;
        haveRtt_ = true;
        return;
    }
    const Tick diff = srtt_ > rtt ? srtt_ - rtt : rtt - srtt_;
    rttvar_ = (3 * rttvar_ + diff) / 4;
    srtt_ = (7 * srtt_ + rtt) / 8;
}

Tick
Connection::rtoFromEstimate() const
{
    if (!haveRtt_)
        return ep_.cfg_.initialRto;
    return std::clamp(srtt_ + 4 * rttvar_, ep_.cfg_.minRto,
                      ep_.cfg_.maxRto);
}

sim::Coro<bool>
Connection::send(std::uint32_t len, std::uint64_t user_data,
                 Tick tx_time)
{
    for (;;) {
        if (state_ == State::Error)
            co_return false;
        if (canSend())
            break;
        ep_.stats_.windowStalls++;
        obs::tracepoint(obs::EventKind::TransportStall, "send.window",
                        ep_.sim_.now(), sndNext_);
        co_await sendGate_.wait();
    }

    const std::uint32_t seq = sndNext_++;
    Unacked u;
    u.len = len;
    u.userData = user_data;
    u.txTime = tx_time ? tx_time : ep_.sim_.now();
    u.sentAt = ep_.sim_.now();
    unacked_[seq] = u;
    if (rtxDeadline_ == sim::kTickMax)
        rtxDeadline_ = u.sentAt + rto_;
    ep_.stats_.dataSent++;

    co_await ep_.xmit(*this, kTpData | kTpAck, seq, len, user_data,
                      u.txTime);
    co_return state_ != State::Error;
}

sim::Coro<bool>
Connection::recv(Segment *out, Tick deadline)
{
    while (rxq_.empty()) {
        if (state_ == State::Error || ep_.sim_.now() >= deadline)
            co_return false;
        co_await rxGate_.waitUntil(deadline);
    }
    *out = rxq_.front();
    rxq_.pop_front();
    ep_.stats_.dataDelivered++;

    // Window update: reopen a closed credit window now that the
    // application consumed a segment.
    if (advertisedZero_ && myCredits() > 0 &&
        state_ == State::Open) {
        advertisedZero_ = false;
        ep_.stats_.acksSent++;
        co_await ep_.xmit(*this, kTpAck, 0, ep_.cfg_.ackBytes, 0, 0);
    }
    co_return true;
}

// ---------------------------------------------------------------------------
// Endpoint

Endpoint::Endpoint(sim::Simulator &sim, mem::CoherentSystem &mem_system,
                   driver::NicInterface &nic,
                   const TransportConfig &cfg, std::string name)
    : sim_(sim), mem_(mem_system), nic_(nic), cfg_(cfg),
      name_(std::move(name))
{
    // The SACK bitmap covers 64 seqs beyond the cumulative ack; a
    // larger flight could not be described.
    cfg_.window = std::min<std::uint32_t>(cfg_.window, 64);
    cfg_.window = std::max<std::uint32_t>(cfg_.window, 1);
    for (int q = 0; q < nic_.numQueues(); ++q)
        txLocks_.push_back(std::make_unique<sim::Semaphore>(sim_, 1));
}

void
Endpoint::start(Tick run_until)
{
    runUntil_ = run_until;
    if (started_)
        return;
    started_ = true;
    for (int q = 0; q < nic_.numQueues(); ++q)
        sim_.spawn(rxPump(q));
    sim_.spawn(timerTask());
}

Connection *
Endpoint::connById(std::uint32_t id)
{
    if (id == 0 || id > conns_.size())
        return nullptr;
    return conns_[id - 1].get();
}

Connection *
Endpoint::findPeer(std::uint32_t addr, std::uint32_t peer_conn)
{
    for (const auto &c : conns_) {
        if (c->peerAddr_ == addr && c->peerConn_ == peer_conn)
            return c.get();
    }
    return nullptr;
}

sim::Coro<Connection *>
Endpoint::connect(std::uint32_t remote_addr, std::uint64_t flow_id)
{
    auto conn = std::unique_ptr<Connection>(
        new Connection(*this, static_cast<std::uint32_t>(
                                  conns_.size()) + 1));
    Connection *c = conn.get();
    conns_.push_back(std::move(conn));
    c->peerAddr_ = remote_addr;
    c->flowId_ = flow_id;
    c->q_ = static_cast<int>((c->localId_ - 1) %
                             static_cast<std::uint32_t>(
                                 nic_.numQueues()));
    c->state_ = Connection::State::Connecting;
    c->rtxDeadline_ = sim_.now() + c->rto_;

    co_await xmit(*c, kTpSyn, 0, cfg_.ackBytes, 0, 0);
    while (c->state_ == Connection::State::Connecting)
        co_await c->sendGate_.wait();
    co_return c;
}

sim::Task
Endpoint::rxPump(int q)
{
    PacketBuf *bufs[kRxBurst];
    const mem::AgentId agent = nic_.hostAgent(q);

    while (sim_.now() < runUntil_) {
        const int nr = co_await nic_.rxBurst(q, bufs, kRxBurst);
        if (nr == 0) {
            co_await nic_.idleWait(q, runUntil_);
            continue;
        }
        std::vector<mem::CoherentSystem::Span> spans;
        for (int i = 0; i < nr; ++i)
            spans.push_back({bufs[i]->addr, bufs[i]->len});
        co_await mem_.accessMulti(agent, spans, false);

        for (int i = 0; i < nr; ++i)
            co_await dispatch(q, *bufs[i]);
        co_await nic_.freeBufs(q, bufs, nr);
    }
    co_return;
}

sim::Coro<void>
Endpoint::dispatch(int q, const PacketBuf &buf)
{
    const TransportHeader &h = buf.tp;
    if (h.flags == 0) {
        stats_.orphanPackets++; // Raw (non-transport) traffic.
        co_return;
    }
    if (h.flags & kTpSyn) {
        co_await handleSyn(q, buf);
        co_return;
    }
    if (h.flags & kTpSynAck) {
        handleSynAck(h, buf.src);
        co_return;
    }

    Connection *c = connById(h.dstConn);
    if (!c || c->peerAddr_ != buf.src ||
        c->state_ == Connection::State::Error) {
        stats_.orphanPackets++;
        co_return;
    }
    if (h.flags & kTpRst) {
        co_await abort(*c, false);
        co_return;
    }
    if (h.flags & kTpAck)
        co_await processAck(*c, h);
    if (h.flags & kTpData) {
        Segment seg;
        seg.len = buf.len;
        seg.flowId = buf.flowId;
        seg.userData = buf.userData;
        seg.txTime = buf.txTime;
        co_await handleData(*c, h, seg);
    }
    co_return;
}

sim::Coro<void>
Endpoint::handleSyn(int q, const PacketBuf &buf)
{
    const TransportHeader &h = buf.tp;
    Connection *c = findPeer(buf.src, h.srcConn);
    if (!c) {
        auto conn = std::unique_ptr<Connection>(
            new Connection(*this, static_cast<std::uint32_t>(
                                      conns_.size()) + 1));
        c = conn.get();
        conns_.push_back(std::move(conn));
        c->peerAddr_ = buf.src;
        c->peerConn_ = h.srcConn;
        c->flowId_ = buf.flowId;
        c->q_ = q; // Serve the connection on its RSS-steered queue.
        c->windowLimit_ = h.ack + h.credits;
        c->state_ = Connection::State::Open;
        if (acceptCb_)
            acceptCb_(c);
    }
    // SYN (or a duplicate after a lost SYN-ACK): (re)announce.
    co_await xmit(*c, kTpSynAck | kTpAck, 0, cfg_.ackBytes, 0, 0);
    co_return;
}

void
Endpoint::handleSynAck(const TransportHeader &h, std::uint32_t src)
{
    Connection *c = connById(h.dstConn);
    if (!c || c->peerAddr_ != src)
        return;
    if (c->state_ != Connection::State::Connecting)
        return; // Duplicate SYN-ACK.
    c->peerConn_ = h.srcConn;
    if (const std::uint32_t limit = h.ack + h.credits;
        seqGt(limit, c->windowLimit_))
        c->windowLimit_ = limit;
    c->state_ = Connection::State::Open;
    c->retries_ = 0;
    c->rtxDeadline_ = sim::kTickMax;
    c->sendGate_.notifyAll();
}

sim::Coro<void>
Endpoint::processAck(Connection &c, const TransportHeader &h)
{
    const Tick now = sim_.now();
    bool progress = false;

    if (seqGt(h.ack, c.sndUna_)) {
        for (auto it = c.unacked_.begin();
             it != c.unacked_.end() && seqLt(it->first, h.ack);) {
            if (!it->second.retransmitted)
                c.rttSample(now - it->second.sentAt);
            it = c.unacked_.erase(it);
        }
        c.sndUna_ = h.ack;
        c.retries_ = 0;
        c.dupAcks_ = 0;
        c.rto_ = c.rtoFromEstimate();
        c.rtxDeadline_ =
            c.unacked_.empty() ? sim::kTickMax : now + c.rto_;
        progress = true;
    } else if (h.ack == c.sndUna_ && !c.unacked_.empty() &&
               (h.flags & kTpData) == 0) {
        // Only pure ACKs hint at loss; a data frame repeats the
        // latest ack as a matter of course.
        c.dupAcks_++;
    }

    for (int i = 0; i < 64; ++i) {
        if (!(h.sack >> i & 1))
            continue;
        auto it = c.unacked_.find(h.ack + 1 + static_cast<std::uint32_t>(i));
        if (it != c.unacked_.end())
            it->second.sacked = true;
    }

    // Serial compare: a raw uint32_t '>' wedges the window shut once
    // ack + credits wraps past zero while windowLimit_ is still near
    // UINT32_MAX.
    const std::uint32_t limit = h.ack + h.credits;
    if (seqGt(limit, c.windowLimit_)) {
        c.windowLimit_ = limit;
        progress = true;
    }
    if (progress)
        c.sendGate_.notifyAll();

    if (c.dupAcks_ >= 3) {
        c.dupAcks_ = 0;
        co_await retransmitFirst(c, true);
    }
    co_return;
}

sim::Coro<void>
Endpoint::handleData(Connection &c, const TransportHeader &h,
                     const Segment &seg)
{
    const std::uint32_t seq = h.seq;
    if (seqLt(seq, c.rcvNext_) || c.oord_.count(seq)) {
        stats_.dupsReceived++; // Retransmit overlap: re-ack below.
    } else if (seq - c.rcvNext_ >= cfg_.window) {
        // Beyond our advertised buffer; the ack below re-states it.
        stats_.orphanPackets++;
    } else {
        if (seq != c.rcvNext_)
            stats_.outOfOrder++;
        c.oord_[seq] = seg;
        while (!c.oord_.empty() &&
               c.oord_.begin()->first == c.rcvNext_) {
            c.rxq_.push_back(c.oord_.begin()->second);
            c.oord_.erase(c.oord_.begin());
            c.rcvNext_++;
        }
        c.rxGate_.notifyAll();
    }
    stats_.acksSent++;
    co_await xmit(c, kTpAck, 0, cfg_.ackBytes, 0, 0);
    co_return;
}

sim::Coro<void>
Endpoint::xmit(Connection &c, std::uint16_t flags, std::uint32_t seq,
               std::uint32_t len, std::uint64_t user_data,
               Tick tx_time)
{
    sim::Semaphore &lock = *txLocks_[static_cast<std::size_t>(c.q_)];
    co_await lock.acquire();

    PacketBuf *buf = nullptr;
    for (;;) {
        const int got = co_await nic_.allocBufs(c.q_, len, &buf, 1);
        if (got == 1)
            break;
        co_await sim_.delay(sim::fromNs(200.0));
        if (sim_.now() >= runUntil_) {
            lock.release();
            co_return;
        }
    }

    buf->len = len;
    buf->txTime = tx_time ? tx_time : sim_.now();
    buf->flowId = c.flowId_;
    buf->userData = user_data;
    buf->dst = c.peerAddr_;
    buf->src = 0;
    buf->tp.srcConn = c.localId_;
    buf->tp.dstConn = c.peerConn_;
    buf->tp.seq = seq;
    buf->tp.ack = c.rcvNext_;
    buf->tp.sack = c.sackBits();
    const std::uint16_t credits = c.myCredits();
    buf->tp.credits = credits;
    if (credits == 0)
        c.advertisedZero_ = true;
    buf->tp.flags = flags;

    std::vector<mem::CoherentSystem::Span> span{{buf->addr, buf->len}};
    co_await mem_.postMulti(nic_.hostAgent(c.q_), span, nullptr);

    for (;;) {
        const int tx = co_await nic_.txBurst(c.q_, &buf, 1);
        if (tx == 1)
            break;
        co_await sim_.delay(sim::fromNs(200.0));
        if (sim_.now() >= runUntil_) {
            co_await nic_.freeBufs(c.q_, &buf, 1);
            lock.release();
            co_return;
        }
    }
    lock.release();
    co_return;
}

sim::Coro<void>
Endpoint::retransmitFirst(Connection &c, bool fast)
{
    for (auto &[seq, u] : c.unacked_) {
        if (u.sacked)
            continue;
        u.retransmitted = true;
        if (fast)
            stats_.fastRetransmits++;
        else
            stats_.retransmits++;
        stats_.retransmitsByConn.at(
            static_cast<std::uint64_t>(c.localId_))++;
        obs::tracepoint(obs::EventKind::TransportRetransmit,
                        fast ? "rtx.fast" : "rtx.timeout", sim_.now(),
                        seq);
        // Copy before suspending: the entry may be acked away while
        // the retransmission works through the driver.
        const std::uint32_t rseq = seq;
        const std::uint32_t len = u.len;
        const std::uint64_t user_data = u.userData;
        const Tick tx_time = u.txTime;
        co_await xmit(c, kTpData | kTpAck, rseq, len, user_data,
                      tx_time);
        co_return;
    }
    co_return;
}

sim::Coro<void>
Endpoint::onTimer(Connection &c)
{
    if (c.state_ == Connection::State::Error)
        co_return;
    if (c.recovering_)
        co_return; // RTO paused: the device, not the peer, is away.
    const Tick now = sim_.now();
    if (now < c.rtxDeadline_)
        co_return;

    if (c.state_ == Connection::State::Connecting) {
        if (++c.retries_ > cfg_.maxRetries) {
            co_await abort(c, false);
            co_return;
        }
        stats_.timeouts++;
        c.rto_ = std::min(c.rto_ * 2, cfg_.maxRto);
        c.rtxDeadline_ = now + c.rto_;
        co_await xmit(c, kTpSyn, 0, cfg_.ackBytes, 0, 0);
        co_return;
    }

    if (c.unacked_.empty()) {
        c.rtxDeadline_ = sim::kTickMax;
        co_return;
    }
    if (++c.retries_ > cfg_.maxRetries) {
        co_await abort(c, true);
        co_return;
    }
    stats_.timeouts++;
    obs::tracepoint(obs::EventKind::TransportTimeout, "rto",
                    sim_.now(), c.sndUna_);
    c.rto_ = std::min(c.rto_ * 2, cfg_.maxRto);
    c.rtxDeadline_ = now + c.rto_;
    co_await retransmitFirst(c, false);
    co_return;
}

sim::Coro<void>
Endpoint::abort(Connection &c, bool send_rst)
{
    if (c.state_ == Connection::State::Error)
        co_return;
    c.state_ = Connection::State::Error;
    stats_.aborts++;
    obs::tracepoint(obs::EventKind::TransportAbort, "abort",
                    sim_.now(), c.localId_);
    c.sendGate_.notifyAll();
    c.rxGate_.notifyAll();
    if (send_rst && c.peerConn_ != 0)
        co_await xmit(c, kTpRst, 0, cfg_.ackBytes, 0, 0);
    co_return;
}

void
Endpoint::deviceResetBegin()
{
    stats_.deviceResets++;
    obs::tracepoint(obs::EventKind::Custom, "transport.device_reset",
                    sim_.now(), 0);
    for (const auto &c : conns_) {
        if (c->state_ == Connection::State::Error)
            continue;
        // Freeze loss recovery: the RTO would otherwise burn through
        // maxRetries against a device that cannot carry a single
        // packet, aborting connections whose peer is perfectly alive.
        c->recovering_ = true;
        c->retries_ = 0;
        c->dupAcks_ = 0;
        c->rtxDeadline_ = sim::kTickMax;
    }
}

void
Endpoint::deviceResetComplete()
{
    sim_.spawn(resyncTask());
}

void
Endpoint::deviceFailed()
{
    stats_.deviceFailovers++;
    obs::tracepoint(obs::EventKind::Custom, "transport.device_failed",
                    sim_.now(), 0);
    for (const auto &c : conns_) {
        if (c->state_ == Connection::State::Error)
            continue;
        c->state_ = Connection::State::Error;
        c->recovering_ = false;
        c->rtxDeadline_ = sim::kTickMax;
        stats_.aborts++;
        obs::tracepoint(obs::EventKind::TransportAbort, "device_failed",
                        sim_.now(), c->localId_);
        // Wake every parked caller: send() returns false, recv()
        // drains whatever arrived in order and then returns false.
        c->sendGate_.notifyAll();
        c->rxGate_.notifyAll();
    }
}

sim::Task
Endpoint::resyncTask()
{
    for (std::size_t i = 0; i < conns_.size(); ++i) {
        Connection &c = *conns_[i];
        if (!c.recovering_)
            continue;
        c.recovering_ = false;
        if (c.state_ == Connection::State::Error)
            continue;

        if (c.state_ == Connection::State::Connecting) {
            // The SYN (or its SYN-ACK) died with the device.
            c.rtxDeadline_ = sim_.now() + c.rto_;
            co_await xmit(c, kTpSyn, 0, cfg_.ackBytes, 0, 0);
            continue;
        }

        // Open: every unacked, non-SACKed segment may have been
        // reclaimed from the rings mid-flight. Re-emit them from the
        // SACK scoreboard rather than waiting out an RTO per segment.
        // These count as resyncs, not retransmits: the loss was local
        // to our own device, not a congestion/wire event.
        std::vector<std::uint32_t> seqs;
        for (const auto &[seq, u] : c.unacked_)
            if (!u.sacked)
                seqs.push_back(seq);
        bool resent = false;
        for (const std::uint32_t seq : seqs) {
            // Re-find after each suspension: an ACK racing in through
            // the freshly reinitialized device may erase entries.
            auto it = c.unacked_.find(seq);
            if (it == c.unacked_.end() || it->second.sacked)
                continue;
            it->second.retransmitted = true; // Karn: no RTT sample.
            stats_.resetResyncs++;
            const std::uint32_t len = it->second.len;
            const std::uint64_t user_data = it->second.userData;
            const Tick tx_time = it->second.txTime;
            co_await xmit(c, kTpData | kTpAck, seq, len, user_data,
                          tx_time);
            resent = true;
        }
        c.rtxDeadline_ = c.unacked_.empty() ? sim::kTickMax
                                            : sim_.now() + c.rto_;
        if (!resent) {
            // Nothing of ours in flight, but the peer may be stalled
            // on credits or re-sending into the void: refresh our
            // ack/SACK/credit state unprompted.
            stats_.acksSent++;
            co_await xmit(c, kTpAck, 0, cfg_.ackBytes, 0, 0);
        }
        c.sendGate_.notifyAll();
    }
    co_return;
}

sim::Task
Endpoint::timerTask()
{
    while (sim_.now() < runUntil_) {
        co_await sim_.delay(cfg_.timerTick);
        // Index loop: connections can be accepted mid-scan.
        for (std::size_t i = 0; i < conns_.size(); ++i)
            co_await onTimer(*conns_[i]);
    }
    co_return;
}

} // namespace ccn::transport
