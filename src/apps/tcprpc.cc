#include "apps/tcprpc.hh"

#include <vector>

namespace ccn::apps {

using driver::PacketBuf;
using driver::WirePacket;
using mem::Addr;
using sim::Tick;

namespace {

constexpr int kBurst = 32;
constexpr std::uint64_t kFlows = 96; ///< Client flow population.
constexpr std::uint32_t kRpcBytes = 64;
constexpr double kTcpCycles = 70; ///< Per-packet TCP fast-path work.
constexpr double kAppCycles = 30; ///< Echo application work.
constexpr std::uint64_t kClientSeed = 21;

/**
 * One TAS fast-path thread on queue q: RX, TCP, echo, TX. Per-flow
 * connection state is 2 lines each at @p flow_table.
 */
sim::Task
fastPathThread(sim::Simulator &sim, mem::CoherentSystem &m,
               driver::NicInterface &nic, int q, Addr flow_table,
               Tick end)
{
    const mem::AgentId agent = nic.hostAgent(q);
    PacketBuf *reqs[kBurst];
    PacketBuf *resp[kBurst];

    while (sim.now() < end) {
        const int nr = co_await nic.rxBurst(q, reqs, kBurst);
        if (nr == 0) {
            co_await nic.idleWait(q, end);
            continue;
        }

        // Payload access + flow-state lookups (2 lines per flow).
        std::vector<mem::CoherentSystem::Span> spans;
        for (int i = 0; i < nr; ++i) {
            spans.push_back({reqs[i]->addr, reqs[i]->len});
            const std::uint64_t flow = reqs[i]->flowId % kFlows;
            spans.push_back({flow_table + flow * 2 * mem::kLineBytes,
                             2 * mem::kLineBytes});
        }
        co_await m.accessMulti(agent, spans, false);

        // TCP processing plus the echo application's work.
        co_await sim.delay(m.config().cycles(
            (kTcpCycles + kAppCycles) * nr));

        // Build echo responses.
        const int nresp = co_await nic.allocBufs(q, kRpcBytes, resp, nr);
        std::vector<mem::CoherentSystem::Span> out_spans;
        for (int i = 0; i < nresp; ++i) {
            resp[i]->len = kRpcBytes;
            resp[i]->txTime = reqs[i]->txTime;
            resp[i]->flowId = reqs[i]->flowId;
            resp[i]->userData = reqs[i]->userData;
            out_spans.push_back({resp[i]->addr, kRpcBytes});
        }
        co_await m.postMulti(agent, out_spans, nullptr);
        co_await sendAndFree(sim, nic, q, resp, nresp, reqs, nr, end);
    }
    co_return;
}

} // namespace

OverlayResult
runTcpRpc(sim::Simulator &sim, mem::CoherentSystem &mem_system,
          driver::NicInterface &nic, WireModel &wire,
          const TcpRpcConfig &cfg)
{
    const Addr flow_table =
        mem_system.alloc(0, kFlows * 2 * mem::kLineBytes, 4096);
    // Flow-state lines are core-private per flow once steered; cross-
    // agent traffic there is accidental (bad RSS steering, not
    // intended two-way signaling).
    const auto flow_region = mem_system.profiler().registerRegion(
        "tcprpc.flow_table", flow_table, kFlows * 2 * mem::kLineBytes,
        obs::RegionIntent::Owned);

    const auto queues = static_cast<std::uint64_t>(nic.numQueues());
    const OverlayResult r = runOverlay(
        sim, [&nic](int q, const WirePacket &p) { nic.injectRx(q, p); },
        [&nic](FrameFn sink) { nic.setTxSink(std::move(sink)); }, wire,
        cfg.window,
        [&](Tick end) {
            for (int q = 0; q < cfg.fastPathThreads; ++q) {
                sim.spawn(fastPathThread(sim, mem_system, nic, q,
                                         flow_table, end));
            }
        },
        cfg.offeredOps, {kClientSeed},
        [queues](sim::Rng &rng, std::uint64_t n, WirePacket &pkt) {
            pkt.len = kRpcBytes;
            pkt.flowId = rng.below(kFlows);
            pkt.userData = n;
            // Flows are statically partitioned across fast-path
            // threads.
            return static_cast<int>(pkt.flowId % queues);
        });
    mem_system.profiler().unregisterRegion(flow_region);
    return r;
}

} // namespace ccn::apps
