#include "workload/clientserver.hh"

#include <algorithm>
#include <memory>
#include <unordered_set>

#include "workload/dists.hh"

namespace ccn::workload {

using driver::PacketBuf;
using sim::Tick;

namespace {

constexpr int kRxBurst = 32;

/** Rates over @p window and RTT percentiles of in-window responses. */
void
measure(KvMeasurement &r, std::uint64_t responses, std::uint64_t bytes,
        Tick window, const stats::Histogram &rtt)
{
    const double window_s = sim::toSeconds(window);
    r.achievedMops = static_cast<double>(responses) / window_s / 1e6;
    r.gbpsIn = static_cast<double>(bytes) * 8.0 / window_s / 1e9;
    r.rttMinNs = sim::toNs(rtt.min());
    r.rttP50Ns = sim::toNs(rtt.percentile(50.0));
    r.rttP95Ns = sim::toNs(rtt.percentile(95.0));
    r.rttP99Ns = sim::toNs(rtt.percentile(99.0));
}

/** Client-side shared accounting. */
struct ClientState
{
    Tick measureStart = 0;
    Tick measureEnd = 0;
    Tick runUntil = 0;

    std::uint64_t sent = 0;
    std::uint64_t backpressure = 0;
    std::uint64_t responses = 0;
    std::uint64_t respBytes = 0;
    stats::Histogram rttTicks;
};

/**
 * The open-loop request sources of @p cfg, one per client queue q:
 * Poisson gaps at cfg.offeredOps / cfg.clientQueues from the tick the
 * source opens, then a Zipf key and a GET/PUT, all drawn from
 * Rng(cfg.seed * 131 + q).
 */
std::vector<RequestSource>
poissonSources(sim::Simulator &sim, const ClientServerConfig &cfg)
{
    auto zipf = std::make_shared<const ZipfSampler>(cfg.kv.numObjects,
                                                    apps::kZipfSkew);
    const double rate = cfg.offeredOps / cfg.clientQueues;
    const double get_frac = cfg.kv.getFraction;
    const std::uint32_t bytes = cfg.requestBytes;
    std::vector<RequestSource> sources;
    for (int q = 0; q < cfg.clientQueues; ++q) {
        sources.push_back([&sim, zipf, rate, get_frac, bytes,
                           seed = cfg.seed * 131 + q] {
            return [zipf, rate, get_frac, bytes, rng = sim::Rng(seed),
                    next = sim.now()]() mutable {
                next += static_cast<Tick>(rng.exponential(
                    static_cast<double>(sim::kSecond) / rate));
                const auto key =
                    static_cast<std::uint32_t>(zipf->sample(rng));
                const bool get = rng.uniform() < get_frac;
                return std::optional(KvRequest{next, get, key, bytes});
            };
        });
    }
    return sources;
}

/** Sends one source's requests as raw datagrams on client queue q. */
sim::Task
clientTxTask(sim::Simulator &sim, mem::CoherentSystem &m,
             driver::NicInterface &nic, int q, RequestSource source,
             std::uint32_t server_addr, RequestHook on_request,
             std::shared_ptr<ClientState> st)
{
    const mem::AgentId agent = nic.hostAgent(q);
    // Distinct flowId streams per queue so RSS spreads them.
    std::uint64_t n = static_cast<std::uint64_t>(q) << 40;

    auto next = source();
    while (sim.now() < st->measureEnd) {
        const std::optional<KvRequest> req = next();
        if (!req)
            break;
        if (req->at > sim.now())
            co_await sim.delayUntil(req->at);
        if (sim.now() >= st->measureEnd)
            break;

        PacketBuf *buf = nullptr;
        const int got = co_await nic.allocBufs(q, req->bytes, &buf, 1);
        if (got != 1) {
            st->backpressure++;
            continue;
        }
        buf->len = req->bytes;
        buf->txTime = sim.now();
        buf->flowId = ++n;
        buf->userData = apps::packKvRequest(req->key, req->get);
        buf->dst = server_addr;
        buf->src = 0;

        // Write the request payload before submitting.
        std::vector<mem::CoherentSystem::Span> span{
            {buf->addr, buf->len}};
        co_await m.postMulti(agent, span, nullptr);

        const int tx = co_await nic.txBurst(q, &buf, 1);
        if (tx != 1) {
            st->backpressure++;
            co_await nic.freeBufs(q, &buf, 1);
            continue;
        }
        st->sent++;
        if (on_request)
            on_request(sim.now(), req->get, req->key, req->bytes);
    }
    co_return;
}

/** Response receiver on client queue @p q. */
sim::Task
clientRxTask(sim::Simulator &sim, mem::CoherentSystem &m,
             driver::NicInterface &nic, int q,
             std::shared_ptr<ClientState> st)
{
    const mem::AgentId agent = nic.hostAgent(q);
    PacketBuf *bufs[kRxBurst];

    while (sim.now() < st->runUntil) {
        const int nr = co_await nic.rxBurst(q, bufs, kRxBurst);
        if (nr == 0) {
            co_await nic.idleWait(q, st->runUntil);
            continue;
        }
        std::vector<mem::CoherentSystem::Span> spans;
        for (int i = 0; i < nr; ++i)
            spans.push_back({bufs[i]->addr, bufs[i]->len});
        co_await m.accessMulti(agent, spans, false);

        const Tick now = sim.now();
        for (int i = 0; i < nr; ++i) {
            if (now >= st->measureStart && now < st->measureEnd) {
                st->responses++;
                st->respBytes += bufs[i]->len;
                st->rttTicks.record(now - bufs[i]->txTime);
            }
        }
        co_await nic.freeBufs(q, bufs, nr);
    }
    co_return;
}

/** Shared accounting for the reliable-transport client. */
struct ReliableState
{
    ReliableClock clock;
    RequestHook onRequest;

    std::uint64_t sent = 0;
    std::uint64_t responses = 0;       ///< Whole run, deduplicated.
    std::uint64_t windowResponses = 0; ///< Within the window.
    std::uint64_t respBytes = 0;       ///< Within the window.
    std::uint64_t duplicates = 0;      ///< Re-executed requests.
    std::uint64_t nextReqId = 0;       ///< 31-bit request-id source.
    std::unordered_set<std::uint64_t> seenResponses;
    stats::Histogram rttTicks;
};

/** Response receiver for one reliable connection. */
sim::Task
reliableRxTask(sim::Simulator &sim, transport::Connection *conn,
               std::shared_ptr<ReliableState> st)
{
    const ReliableClock &clock = st->clock;
    while (sim.now() < clock.runUntil) {
        transport::Segment seg;
        if (!co_await conn->recv(&seg, clock.runUntil)) {
            if (conn->state() ==
                transport::Connection::State::Error)
                break;
            continue; // Deadline; loop condition ends the task.
        }
        // Each request carries a unique id; a repeated id means the
        // server executed (or answered) the same request twice —
        // count it apart so at-most-once accounting stays honest.
        if (!st->seenResponses.insert(seg.userData).second) {
            st->duplicates++;
            continue;
        }
        st->responses++;
        const Tick now = sim.now();
        if (now >= clock.measureStart && now < clock.measureEnd) {
            st->windowResponses++;
            st->respBytes += seg.len;
            st->rttTicks.record(now - seg.txTime);
        }
    }
    co_return;
}

/** Connect, then send one source's requests on that connection. */
sim::Task
reliableClientTask(sim::Simulator &sim, transport::Endpoint &ep,
                   std::uint32_t server_addr, int idx,
                   RequestSource source,
                   std::shared_ptr<ReliableState> st)
{
    // Distinct flowIds so RSS spreads connections across queues.
    transport::Connection *conn = co_await ep.connect(
        server_addr, 0x5eedULL + static_cast<std::uint64_t>(idx));
    if (conn->state() != transport::Connection::State::Open)
        co_return;
    sim.spawn(reliableRxTask(sim, conn, st));

    // Nothing is sent once the window or the run is over; checking
    // before the next request keeps its wait off the calendar.
    const Tick stop = std::min(st->clock.measureEnd, st->clock.runUntil);
    auto next = source();
    while (sim.now() < stop) {
        const std::optional<KvRequest> req = next();
        if (!req)
            break;
        if (req->at > sim.now())
            co_await sim.delayUntil(req->at);
        if (sim.now() >= stop)
            break;
        const std::uint64_t user_data =
            apps::packKvRequest(req->key, req->get, ++st->nextReqId);
        if (!co_await conn->send(req->bytes, user_data, 0))
            break; // Connection errored out.
        st->sent++;
        if (st->onRequest)
            st->onRequest(sim.now(), req->get, req->key, req->bytes);
    }
    co_return;
}

} // namespace

ClientServerResult
runKvClientServer(sim::Simulator &sim, mem::CoherentSystem &server_mem,
                  driver::NicInterface &server_nic,
                  mem::CoherentSystem &client_mem,
                  driver::NicInterface &client_nic,
                  std::uint32_t server_addr,
                  const ClientServerConfig &cfg)
{
    auto st = std::make_shared<ClientState>();
    st->measureStart = sim.now() + cfg.warmup;
    st->measureEnd = st->measureStart + cfg.window;
    st->runUntil = st->measureEnd + cfg.drain;

    sim::Rng server_rng(cfg.seed);
    apps::KvServer server(server_mem, cfg.kv, server_rng);
    server.start(sim, server_mem, server_nic, st->runUntil);

    const std::vector<RequestSource> sources = poissonSources(sim, cfg);
    for (int q = 0; q < cfg.clientQueues; ++q) {
        sim.spawn(clientTxTask(sim, client_mem, client_nic, q,
                               sources[q], server_addr, cfg.onRequest,
                               st));
        sim.spawn(clientRxTask(sim, client_mem, client_nic, q, st));
    }
    sim.run(st->runUntil + sim::fromUs(5.0));

    ClientServerResult r;
    r.requestsSent = st->sent;
    r.txBackpressure = st->backpressure;
    r.responses = st->responses;
    r.offeredMops = cfg.offeredOps / 1e6;
    measure(r, st->responses, st->respBytes, cfg.window, st->rttTicks);
    return r;
}

ReliableClientServerResult
runReliableWithEndpoints(
    sim::Simulator &sim, mem::CoherentSystem &server_mem,
    transport::Endpoint &server_ep, transport::Endpoint &client_ep,
    std::uint32_t server_addr, const ClientServerConfig &cfg,
    const std::function<void(sim::Tick run_until)> &before_run)
{
    ReliableClock clock;
    clock.measureStart = sim.now() + cfg.warmup;
    clock.measureEnd = clock.measureStart + cfg.window;
    clock.runUntil = clock.measureEnd + cfg.drain;

    // Open loop: each source opens with its connection.
    const std::vector<RequestSource> sources = poissonSources(sim, cfg);
    ReliableClientServerResult r = runReliableClients(
        sim, server_mem, server_ep, client_ep, server_addr, cfg.kv,
        cfg.seed, clock, sources, cfg.onRequest, before_run);
    r.offeredMops = cfg.offeredOps / 1e6;
    return r;
}

ReliableClientServerResult
runReliableClients(
    sim::Simulator &sim, mem::CoherentSystem &server_mem,
    transport::Endpoint &server_ep, transport::Endpoint &client_ep,
    std::uint32_t server_addr, const apps::KvConfig &kv,
    std::uint64_t server_seed, const ReliableClock &clock,
    const std::vector<RequestSource> &sources,
    const RequestHook &on_request,
    const std::function<void(sim::Tick run_until)> &before_run)
{
    auto st = std::make_shared<ReliableState>();
    st->clock = clock;
    st->onRequest = on_request;

    sim::Rng server_rng(server_seed);
    apps::KvServer server(server_mem, kv, server_rng);
    server.startOverTransport(sim, server_mem, server_ep,
                              clock.runUntil);
    server_ep.start(clock.runUntil);
    client_ep.start(clock.runUntil);

    for (std::size_t i = 0; i < sources.size(); ++i) {
        sim.spawn(reliableClientTask(sim, client_ep, server_addr,
                                     static_cast<int>(i), sources[i],
                                     st));
    }
    if (before_run)
        before_run(clock.runUntil);

    sim.run(clock.runUntil + sim::fromUs(5.0));

    ReliableClientServerResult r;
    r.requestsSent = st->sent;
    r.responses = st->responses;
    r.lostRequests =
        st->sent > st->responses ? st->sent - st->responses : 0;
    const transport::TransportStats &cs = client_ep.stats();
    const transport::TransportStats &ss = server_ep.stats();
    r.retransmits = cs.retransmits + cs.fastRetransmits +
                    ss.retransmits + ss.fastRetransmits;
    r.timeouts = cs.timeouts + ss.timeouts;
    r.windowStalls = cs.windowStalls + ss.windowStalls;
    r.connAborts = cs.aborts + ss.aborts;
    r.duplicateResponses = st->duplicates;
    measure(r, st->windowResponses, st->respBytes,
            clock.measureEnd - clock.measureStart, st->rttTicks);
    return r;
}

ReliableClientServerResult
runKvClientServerReliable(sim::Simulator &sim,
                          mem::CoherentSystem &server_mem,
                          driver::NicInterface &server_nic,
                          mem::CoherentSystem &client_mem,
                          driver::NicInterface &client_nic,
                          std::uint32_t server_addr,
                          const ClientServerConfig &cfg)
{
    transport::Endpoint server_ep(sim, server_mem, server_nic,
                                  cfg.tp, "server");
    transport::Endpoint client_ep(sim, client_mem, client_nic,
                                  cfg.tp, "client");
    return runReliableWithEndpoints(sim, server_mem, server_ep,
                                    client_ep, server_addr, cfg);
}

} // namespace ccn::workload
