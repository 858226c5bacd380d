#include "apps/overlay.hh"

#include <memory>

namespace ccn::apps {

using driver::PacketBuf;
using driver::WirePacket;
using sim::Tick;

namespace {

constexpr Tick kWarmup = sim::fromUs(50.0);
constexpr Tick kDrain = sim::fromUs(20.0); ///< Run past the window end.

/** Responses that left the wire inside the window. */
struct Served
{
    std::uint64_t count = 0;
    std::uint64_t bytes = 0;
};

/** One open-loop client injecting requests through the inbound wire. */
sim::Task
client(sim::Simulator &sim, FrameFn inject,
       std::shared_ptr<WireModel> inbound, double rate, Tick end,
       std::uint64_t seed, RequestMaker make_request)
{
    sim::Rng rng(seed);
    Tick next = sim.now();
    for (std::uint64_t n = 0;; ++n) {
        next += static_cast<Tick>(
            rng.exponential(static_cast<double>(sim::kSecond) / rate));
        if (next > sim.now())
            co_await sim.delayUntil(next);
        if (sim.now() >= end)
            break;
        WirePacket pkt;
        pkt.txTime = sim.now();
        const int q = make_request(rng, n, pkt);
        sim.scheduleCallback(inbound->admit(pkt.len),
                             [inject, q, pkt] { inject(q, pkt); });
    }
    co_return;
}

} // namespace

OverlayResult
runOverlay(sim::Simulator &sim, FrameFn inject,
           const std::function<void(FrameFn)> &set_tx_sink,
           WireModel &wire, Tick window,
           const std::function<void(Tick)> &start_servers,
           double offered_ops,
           const std::vector<std::uint64_t> &client_seeds,
           const RequestMaker &make_request)
{
    const Tick start = sim.now() + kWarmup;
    const Tick end = start + window;
    auto served = std::make_shared<Served>();
    set_tx_sink([served, &wire, start, end](int, const WirePacket &pkt) {
        const Tick exit = wire.admit(pkt.len, pkt.segments);
        if (exit >= start && exit < end) {
            served->count++;
            served->bytes += pkt.len;
        }
    });
    start_servers(end);
    auto inbound = std::make_shared<WireModel>(sim, wire.pps.rate(),
                                               wire.bytes.rate());
    const double rate =
        offered_ops / static_cast<double>(client_seeds.size());
    for (const std::uint64_t seed : client_seeds) {
        sim.spawn(client(sim, inject, inbound, rate, end, seed,
                         make_request));
    }
    sim.run(end + kDrain);

    const double window_s = sim::toSeconds(window);
    OverlayResult r;
    r.served = served->count;
    r.mopsPerSec = static_cast<double>(served->count) / window_s / 1e6;
    r.gbpsOut =
        static_cast<double>(served->bytes) * 8.0 / window_s / 1e9;
    return r;
}

sim::Coro<void>
sendAndFree(sim::Simulator &sim, driver::NicInterface &nic, int q,
            PacketBuf **resp, int nresp, PacketBuf **reqs, int nr,
            Tick until)
{
    int sent = 0;
    while (sent < nresp) {
        const int tx =
            co_await nic.txBurst(q, resp + sent, nresp - sent);
        sent += tx;
        if (tx == 0) {
            co_await sim.delay(sim::fromNs(200.0));
            if (sim.now() >= until)
                break;
        }
    }
    if (sent < nresp)
        co_await nic.freeBufs(q, resp + sent, nresp - sent);
    co_await nic.freeBufs(q, reqs, nr);
}

} // namespace ccn::apps
