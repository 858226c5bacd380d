#include "apps/kvstore.hh"

#include <algorithm>

namespace ccn::apps {

using ccnic::WirePacket;
using driver::PacketBuf;
using mem::Addr;
using sim::Tick;

namespace {

constexpr int kBurst = 32;
constexpr std::uint32_t kRequestBytes = 64; ///< Loopback client GET/SET.
constexpr std::uint32_t kHeaderBytes = 32;  ///< Response header.
constexpr Tick kWarmup = sim::fromUs(50.0); ///< Loopback harness.
constexpr double kParseCycles = 200; ///< Request parse + RPC dispatch.
constexpr double kIndexCycles = 80;  ///< Hash + bucket walk computation.

} // namespace

/** Shared server state. */
struct KvServer::State
{
    State(mem::CoherentSystem &m, const KvConfig &cfg, sim::Rng &rng)
        : msys(&m)
    {
        // Hash index: open-addressed 8B entries, 2x objects.
        indexBase = m.alloc(0, cfg.numObjects * 2 * 8, 4096);
        indexMask = cfg.numObjects * 2 - 1;
        // Object store: contiguous per-object regions.
        objAddr.reserve(cfg.numObjects);
        objLen.reserve(cfg.numObjects);
        for (std::uint64_t i = 0; i < cfg.numObjects; ++i) {
            const std::uint32_t len = cfg.sizes.sample(rng);
            objAddr.push_back(m.alloc(0, len, 64));
            objLen.push_back(len);
        }
        // Application-data regions: hot index buckets and hot objects
        // are shared read-mostly working set, so migratory handoffs
        // there are accidental contention, not protocol signaling.
        auto &prof = m.profiler();
        profRegions.push_back(
            prof.registerRegion("kv.index", indexBase,
                                cfg.numObjects * 2 * 8,
                                obs::RegionIntent::Owned));
        if (!objAddr.empty()) {
            const Addr lo = objAddr.front();
            const Addr hi = objAddr.back() + objLen.back();
            profRegions.push_back(prof.registerRegion(
                "kv.objects", lo, hi - lo, obs::RegionIntent::Owned));
        }
    }

    State(const State &) = delete;
    State &operator=(const State &) = delete;

    mem::CoherentSystem *msys;
    std::vector<obs::RegionId> profRegions;
    Addr indexBase = 0;
    std::uint64_t indexMask = 0;
    std::vector<Addr> objAddr;
    std::vector<std::uint32_t> objLen;

    Tick runUntil = 0;
    Tick measureStart = 0;
    Tick measureEnd = 0;
    std::uint64_t served = 0;
    std::uint64_t servedBytes = 0;

    /// Per-thread zero-copy segment descriptor pools; owned here so
    /// they outlive the server threads (the NIC engine may still hold
    /// references while draining).
    std::vector<std::vector<PacketBuf>> segPools;
};

namespace {

/** One server thread handling GET/SET RPCs on queue q. */
sim::Task
serverThread(sim::Simulator &sim, mem::CoherentSystem &m,
             driver::NicInterface &nic, int q,
             std::shared_ptr<KvServer::State> st)
{
    const mem::AgentId agent = nic.hostAgent(q);
    PacketBuf *reqs[kBurst];
    PacketBuf *resp[kBurst];
    // Segment descriptors for zero-copy GET responses (DPDK extbuf).
    std::vector<PacketBuf> &segs = st->segPools[q];
    std::size_t seg_next = 0;

    while (sim.now() < st->runUntil) {
        const int nr = co_await nic.rxBurst(q, reqs, kBurst);
        if (nr == 0) {
            co_await nic.idleWait(q, st->runUntil);
            continue;
        }

        // Touch request payloads.
        std::vector<mem::CoherentSystem::Span> req_spans;
        for (int i = 0; i < nr; ++i)
            req_spans.push_back({reqs[i]->addr, reqs[i]->len});
        co_await m.accessMulti(agent, req_spans, false);

        // Parse + index lookups for the burst.
        co_await sim.delay(m.config().cycles(
            (kParseCycles + kIndexCycles) * nr));
        std::vector<mem::CoherentSystem::Span> idx_spans;
        std::vector<std::uint64_t> keys(nr);
        std::vector<bool> is_get(nr);
        for (int i = 0; i < nr; ++i) {
            const KvRequestKey req = unpackKvRequest(reqs[i]->userData);
            keys[i] = req.key;
            is_get[i] = req.get;
            const std::uint64_t bucket =
                (keys[i] * 0x9e3779b97f4a7c15ULL) & st->indexMask;
            idx_spans.push_back({st->indexBase + bucket * 8, 8});
        }
        co_await m.accessMulti(agent, idx_spans, false);

        // Build responses.
        int nresp = 0;
        std::vector<mem::CoherentSystem::Span> set_spans;
        for (int i = 0; i < nr; ++i) {
            const std::uint64_t k = keys[i] % st->objAddr.size();
            PacketBuf *hdr = nullptr;
            const int got =
                co_await nic.allocBufs(q, kHeaderBytes, &hdr, 1);
            if (got != 1)
                break;
            hdr->len = kHeaderBytes;
            hdr->txTime = reqs[i]->txTime;
            hdr->flowId = reqs[i]->flowId;
            hdr->userData = reqs[i]->userData;
            // Address the response back to the requester; src is
            // stamped by the fabric port on egress.
            hdr->dst = reqs[i]->src;
            hdr->src = 0;
            if (is_get[i]) {
                // Zero-copy GET: attach the object as a second
                // segment; no memcpy of the payload (§5.7).
                PacketBuf &seg = segs[seg_next++ % segs.size()];
                seg.addr = st->objAddr[k];
                seg.len = st->objLen[k];
                hdr->nextSeg = &seg;
                hdr->segLen = st->objLen[k];
            } else {
                // SET: write the object payload.
                set_spans.push_back({st->objAddr[k], st->objLen[k]});
            }
            resp[nresp++] = hdr;
        }
        if (!set_spans.empty())
            co_await m.postMulti(agent, set_spans, nullptr);

        // Header writes.
        std::vector<mem::CoherentSystem::Span> hdr_spans;
        for (int i = 0; i < nresp; ++i)
            hdr_spans.push_back({resp[i]->addr, kHeaderBytes});
        co_await m.postMulti(agent, hdr_spans, nullptr);

        int sent = 0;
        while (sent < nresp) {
            const int tx =
                co_await nic.txBurst(q, resp + sent, nresp - sent);
            if (tx == 0) {
                co_await sim.delay(sim::fromNs(200.0));
                if (sim.now() >= st->runUntil)
                    break;
                continue;
            }
            sent += tx;
        }
        if (sent < nresp)
            co_await nic.freeBufs(q, resp + sent, nresp - sent);
        co_await nic.freeBufs(q, reqs, nr);
    }
    co_return;
}

/** One serving process per accepted transport connection. */
sim::Task
serveConnTask(sim::Simulator &sim, mem::CoherentSystem &m,
              transport::Endpoint &ep, transport::Connection *conn,
              std::shared_ptr<KvServer::State> st)
{
    const mem::AgentId agent = ep.nic().hostAgent(conn->queue());

    while (sim.now() < st->runUntil &&
           conn->state() != transport::Connection::State::Error) {
        transport::Segment req;
        if (!co_await conn->recv(&req, st->runUntil))
            continue; // Timed out or errored; loop re-checks.

        // Parse + index walk (request payload was already charged by
        // the transport's receive pump).
        co_await sim.delay(
            m.config().cycles(kParseCycles + kIndexCycles));
        const auto [key, is_get] = unpackKvRequest(req.userData);
        const std::uint64_t bucket =
            (key * 0x9e3779b97f4a7c15ULL) & st->indexMask;
        std::vector<mem::CoherentSystem::Span> idx{
            {st->indexBase + bucket * 8, 8}};
        co_await m.accessMulti(agent, idx, false);

        const std::uint64_t k = key % st->objAddr.size();
        std::uint32_t resp_len = kHeaderBytes;
        if (is_get) {
            resp_len += st->objLen[k];
        } else {
            std::vector<mem::CoherentSystem::Span> obj{
                {st->objAddr[k], st->objLen[k]}};
            co_await m.postMulti(agent, obj, nullptr);
        }
        // Echo userData and the request's original stamp so the
        // client measures end-to-end RTT across retransmissions.
        if (co_await conn->send(resp_len, req.userData, req.txTime)) {
            st->served++;
            st->servedBytes += resp_len;
        }
    }
    co_return;
}

/** Client generator injecting requests through the inbound wire. */
sim::Task
clientGen(sim::Simulator &sim, driver::NicInterface &nic,
          std::function<void(int, const WirePacket &)> inject,
          std::shared_ptr<WireModel> inbound, const KvConfig cfg,
          std::shared_ptr<KvServer::State> st,
          std::shared_ptr<const workload::ZipfSampler> zipf,
          std::uint64_t seed)
{
    sim::Rng rng(seed);
    const int queues = nic.numQueues();
    const double rate = cfg.offeredOps;
    Tick next = sim.now();
    std::uint64_t n = 0;
    while (sim.now() < st->measureEnd) {
        next += static_cast<Tick>(
            rng.exponential(static_cast<double>(sim::kSecond) / rate));
        if (next > sim.now())
            co_await sim.delayUntil(next);
        if (sim.now() >= st->measureEnd)
            break;
        const std::uint64_t key = zipf->sample(rng);
        const bool get = rng.uniform() < cfg.getFraction;
        WirePacket pkt;
        pkt.len = kRequestBytes;
        pkt.txTime = sim.now();
        pkt.flowId = n;
        pkt.userData = packKvRequest(key, get);
        const int q = static_cast<int>(n % queues);
        const Tick at = inbound->admit(pkt.len);
        auto inj = inject;
        sim.scheduleCallback(at, [inj, q, pkt] { inj(q, pkt); });
        n++;
    }
    co_return;
}

} // namespace

KvServer::KvServer(mem::CoherentSystem &m, const KvConfig &cfg,
                   sim::Rng &rng)
    : st_(std::make_shared<State>(m, cfg, rng)), cfg_(cfg)
{}

KvServer::~KvServer()
{
    // Not in ~State: suspended server tasks keep the state alive until
    // their Simulator is destroyed, which may outlive the memory system
    // that owns the profiler.
    for (obs::RegionId id : st_->profRegions)
        st_->msys->profiler().unregisterRegion(id);
}

void
KvServer::start(sim::Simulator &sim, mem::CoherentSystem &m,
                driver::NicInterface &nic, Tick run_until)
{
    st_->runUntil = run_until;
    st_->segPools.resize(cfg_.serverThreads,
                         std::vector<PacketBuf>(2048));
    for (int q = 0; q < cfg_.serverThreads; ++q)
        sim.spawn(serverThread(sim, m, nic, q, st_));
}

void
KvServer::startOverTransport(sim::Simulator &sim,
                             mem::CoherentSystem &m,
                             transport::Endpoint &ep, Tick run_until)
{
    st_->runUntil = run_until;
    auto st = st_;
    ep.onAccept([&sim, &m, &ep, st](transport::Connection *c) {
        sim.spawn(serveConnTask(sim, m, ep, c, st));
    });
}

KvResult
runKvStore(sim::Simulator &sim, mem::CoherentSystem &mem_system,
           driver::NicInterface &nic,
           std::function<void(int, const WirePacket &)> inject,
           std::function<void(
               std::function<void(int, const WirePacket &)>)>
               set_tx_sink,
           WireModel &wire, const KvConfig &cfg)
{
    sim::Rng rng(cfg.seed);
    KvServer server(mem_system, cfg, rng);
    auto st = server.shared();
    st->measureStart = sim.now() + kWarmup;
    st->measureEnd = st->measureStart + cfg.window;

    // Outbound responses pass the wire cap and are counted.
    std::shared_ptr<KvServer::State> stp = st;
    WireModel *wp = &wire;
    set_tx_sink([stp, wp](int, const WirePacket &pkt) {
        const Tick exit = wp->admit(pkt.len, pkt.segments);
        if (exit >= stp->measureStart && exit < stp->measureEnd) {
            stp->served++;
            stp->servedBytes += pkt.len;
        }
    });

    server.start(sim, mem_system, nic, st->measureEnd);
    // Two remote clients (paper: enough to saturate the server), one
    // key distribution.
    auto inbound = std::make_shared<WireModel>(sim, wire.pps.rate(),
                                               wire.bytes.rate());
    const auto zipf = std::make_shared<const workload::ZipfSampler>(
        cfg.numObjects, kZipfSkew);
    for (int c = 0; c < 2; ++c) {
        KvConfig half = cfg;
        half.offeredOps = cfg.offeredOps / 2;
        sim.spawn(clientGen(sim, nic, inject, inbound, half, st, zipf,
                            cfg.seed * 31 + c));
    }
    sim.run(st->measureEnd + sim::fromUs(20.0));

    KvResult r;
    r.served = st->served;
    r.mopsPerSec =
        static_cast<double>(st->served) / sim::toSeconds(cfg.window) /
        1e6;
    r.gbpsOut = static_cast<double>(st->servedBytes) * 8.0 /
                sim::toSeconds(cfg.window) / 1e9;
    return r;
}

} // namespace ccn::apps
