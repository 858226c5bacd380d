#include "apps/tcprpc.hh"

#include <memory>
#include <vector>

namespace ccn::apps {

using ccnic::WirePacket;
using driver::PacketBuf;
using mem::Addr;
using sim::Tick;

namespace {

constexpr int kBurst = 32;
constexpr std::uint64_t kFlows = 96; ///< Client flow population.
constexpr std::uint32_t kRpcBytes = 64;
constexpr double kTcpCycles = 70; ///< Per-packet TCP fast-path work.
constexpr double kAppCycles = 30; ///< Echo application work.
constexpr Tick kWarmup = sim::fromUs(50.0);

struct RpcState
{
    Tick measureStart = 0;
    Tick measureEnd = 0;
    std::uint64_t served = 0;
    Addr flowTable = 0; ///< Per-flow connection state (2 lines each).
};

/** One TAS fast-path thread on queue q: RX, TCP, echo, TX. */
sim::Task
fastPathThread(sim::Simulator &sim, mem::CoherentSystem &m,
               driver::NicInterface &nic, int q, std::shared_ptr<RpcState> st)
{
    const mem::AgentId agent = nic.hostAgent(q);
    PacketBuf *reqs[kBurst];
    PacketBuf *resp[kBurst];

    while (sim.now() < st->measureEnd) {
        const int nr = co_await nic.rxBurst(q, reqs, kBurst);
        if (nr == 0) {
            co_await nic.idleWait(q, st->measureEnd);
            continue;
        }

        // Payload access + flow-state lookups (2 lines per flow).
        std::vector<mem::CoherentSystem::Span> spans;
        for (int i = 0; i < nr; ++i) {
            spans.push_back({reqs[i]->addr, reqs[i]->len});
            const std::uint64_t flow = reqs[i]->flowId % kFlows;
            spans.push_back(
                {st->flowTable + flow * 2 * mem::kLineBytes,
                 2 * mem::kLineBytes});
        }
        co_await m.accessMulti(agent, spans, false);

        // TCP processing plus the echo application's work.
        co_await sim.delay(m.config().cycles(
            (kTcpCycles + kAppCycles) * nr));

        // Build echo responses.
        int nresp = 0;
        const int got = co_await nic.allocBufs(q, kRpcBytes, resp, nr);
        std::vector<mem::CoherentSystem::Span> out_spans;
        for (int i = 0; i < got; ++i) {
            resp[i]->len = kRpcBytes;
            resp[i]->txTime = reqs[i]->txTime;
            resp[i]->flowId = reqs[i]->flowId;
            resp[i]->userData = reqs[i]->userData;
            out_spans.push_back({resp[i]->addr, kRpcBytes});
            nresp++;
        }
        co_await m.postMulti(agent, out_spans, nullptr);

        int sent = 0;
        while (sent < nresp) {
            const int tx =
                co_await nic.txBurst(q, resp + sent, nresp - sent);
            if (tx == 0) {
                co_await sim.delay(sim::fromNs(200.0));
                if (sim.now() >= st->measureEnd)
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

sim::Task
rpcClientGen(sim::Simulator &sim, driver::NicInterface &nic,
             std::function<void(int, const WirePacket &)> inject,
             std::shared_ptr<WireModel> inbound, const TcpRpcConfig cfg,
             std::shared_ptr<RpcState> st, std::uint64_t seed)
{
    sim::Rng rng(seed);
    const int queues = nic.numQueues();
    Tick next = sim.now();
    std::uint64_t n = 0;
    while (sim.now() < st->measureEnd) {
        next += static_cast<Tick>(rng.exponential(
            static_cast<double>(sim::kSecond) / cfg.offeredOps));
        if (next > sim.now())
            co_await sim.delayUntil(next);
        if (sim.now() >= st->measureEnd)
            break;
        WirePacket pkt;
        pkt.len = kRpcBytes;
        pkt.txTime = sim.now();
        pkt.flowId = rng.below(kFlows);
        pkt.userData = n;
        // Flows are statically partitioned across fast-path threads.
        const int q = static_cast<int>(pkt.flowId %
                                       static_cast<std::uint64_t>(
                                           queues));
        const Tick at = inbound->admit(pkt.len);
        auto inj = inject;
        sim.scheduleCallback(at, [inj, q, pkt] { inj(q, pkt); });
        n++;
    }
    co_return;
}

} // namespace

TcpRpcResult
runTcpRpc(sim::Simulator &sim, mem::CoherentSystem &mem_system,
          driver::NicInterface &nic,
          std::function<void(int, const WirePacket &)> inject,
          std::function<void(
              std::function<void(int, const WirePacket &)>)>
              set_tx_sink,
          WireModel &wire, const TcpRpcConfig &cfg)
{
    auto st = std::make_shared<RpcState>();
    st->measureStart = sim.now() + kWarmup;
    st->measureEnd = st->measureStart + cfg.window;
    st->flowTable =
        mem_system.alloc(0, kFlows * 2 * mem::kLineBytes, 4096);
    // Flow-state lines are core-private per flow once steered; cross-
    // agent traffic there is accidental (bad RSS steering, not
    // intended two-way signaling).
    const auto flow_region = mem_system.profiler().registerRegion(
        "tcprpc.flow_table", st->flowTable,
        kFlows * 2 * mem::kLineBytes, obs::RegionIntent::Owned);

    std::shared_ptr<RpcState> stp = st;
    WireModel *wp = &wire;
    set_tx_sink([stp, wp](int, const WirePacket &pkt) {
        const Tick exit = wp->admit(pkt.len);
        if (exit >= stp->measureStart && exit < stp->measureEnd)
            stp->served++;
    });

    for (int q = 0; q < cfg.fastPathThreads; ++q) {
        sim.spawn(fastPathThread(sim, mem_system, nic, q, st));
    }
    auto inbound = std::make_shared<WireModel>(sim, wire.pps.rate(),
                                               wire.bytes.rate());
    sim.spawn(rpcClientGen(sim, nic, inject, inbound, cfg, st,
                           cfg.seed));
    sim.run(st->measureEnd + sim::fromUs(20.0));
    mem_system.profiler().unregisterRegion(flow_region);

    TcpRpcResult r;
    r.served = st->served;
    r.mopsPerSec =
        static_cast<double>(st->served) / sim::toSeconds(cfg.window) /
        1e6;
    return r;
}

} // namespace ccn::apps
