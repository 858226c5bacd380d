/**
 * @file
 * Example: the paper's §6 "Network Function Workloads" discussion as a
 * runnable three-host chain. A source host streams 1.5KB packets
 * through the fabric to a middlebox host, which inspects them and
 * forwards to a sink host. A packet-switching middlebox only inspects
 * headers; over a coherent NIC the payload can stay in the NIC-side
 * cache, so the middlebox host's interconnect carries only the header
 * lines. The chain runs twice — once touching the full payload at the
 * middlebox, once header-only — and reports the interconnect bytes
 * moved per forwarded packet, plus end-to-end delivery at the sink.
 */

#include <cstdio>
#include <iostream>

#include "mem/platform.hh"
#include "net/fabric.hh"
#include "scenario/world.hh"

using namespace ccn;

namespace {

constexpr std::uint32_t kPktLen = 1500;

struct Result
{
    double forwarded = 0;
    double delivered = 0;
    double upiBytesPerPkt = 0;
};

/** Source host: transmit 1Mpps of 1.5KB packets to the middlebox. */
sim::Task
sourceTask(sim::Simulator &simv, mem::CoherentSystem &m,
           driver::NicInterface &nic, std::uint32_t mbx_addr)
{
    const int q = 0;
    const mem::AgentId agent = nic.hostAgent(q);
    for (int i = 0; i < 300; ++i) {
        driver::PacketBuf *buf = nullptr;
        if (co_await nic.allocBufs(q, kPktLen, &buf, 1) == 1) {
            buf->len = kPktLen;
            buf->txTime = simv.now();
            buf->flowId = static_cast<std::uint64_t>(i);
            buf->userData = static_cast<std::uint64_t>(i);
            buf->dst = mbx_addr;
            buf->src = 0;
            std::vector<mem::CoherentSystem::Span> span{
                {buf->addr, buf->len}};
            co_await m.postMulti(agent, span, nullptr);
            if (co_await nic.txBurst(q, &buf, 1) != 1)
                co_await nic.freeBufs(q, &buf, 1);
        }
        co_await simv.delay(sim::fromUs(1.0));
    }
}

/** Middlebox host: inspect and forward to the sink. */
sim::Task
middleboxTask(sim::Simulator &simv, mem::CoherentSystem &m,
              driver::NicInterface &nic, std::uint32_t sink_addr,
              bool header_only, Result *out)
{
    const int q = 0;
    const mem::AgentId agent = nic.hostAgent(q);
    driver::PacketBuf *rx[32];
    const sim::Tick end = simv.now() + sim::fromUs(400.0);
    std::uint64_t forwarded = 0;
    m.resetStats();
    const std::uint64_t upi0 = m.upiBytesInto(0) + m.upiBytesInto(1);

    while (simv.now() < end) {
        int nr = co_await nic.rxBurst(q, rx, 32);
        if (nr > 0) {
            // The middlebox decision: headers only vs full payload.
            std::vector<mem::CoherentSystem::Span> spans;
            for (int i = 0; i < nr; ++i) {
                spans.push_back({rx[i]->addr,
                                 header_only ? 64u : rx[i]->len});
                rx[i]->dst = sink_addr;
                rx[i]->src = 0; // Restamped as the middlebox port.
            }
            co_await m.accessMulti(agent, spans, false);
            // Forward: resubmit the same buffers to TX (the paper
            // notes applications may submit RX buffers to TX queues).
            int sent = 0;
            while (sent < nr) {
                int tx = co_await nic.txBurst(q, rx + sent, nr - sent);
                if (tx == 0)
                    co_await simv.delay(sim::fromNs(200.0));
                sent += tx;
            }
            forwarded += static_cast<std::uint64_t>(nr);
        } else {
            co_await nic.idleWait(q, std::min(end, simv.now() +
                                                       sim::fromUs(5)));
        }
    }
    out->forwarded = static_cast<double>(forwarded);
    out->upiBytesPerPkt =
        forwarded ? static_cast<double>(m.upiBytesInto(0) +
                                        m.upiBytesInto(1) - upi0) /
                        static_cast<double>(forwarded)
                  : 0.0;
    co_return;
}

/** Sink host: receive, count, release. */
sim::Task
sinkTask(sim::Simulator &simv, driver::NicInterface &nic, Result *out)
{
    const int q = 0;
    driver::PacketBuf *rx[32];
    const sim::Tick end = simv.now() + sim::fromUs(450.0);
    std::uint64_t recvd = 0;
    while (simv.now() < end) {
        int nr = co_await nic.rxBurst(q, rx, 32);
        if (nr > 0) {
            recvd += static_cast<std::uint64_t>(nr);
            co_await nic.freeBufs(q, rx, nr);
        } else {
            co_await nic.idleWait(q, end);
        }
    }
    out->delivered = static_cast<double>(recvd);
    co_return;
}

Result
run(bool header_only, bool print_fabric)
{
    sim::Simulator simv;
    const auto plat = mem::icxConfig();
    auto source = scenario::makeHost(simv, "ccnic", plat, 1, 2);
    auto mbx = scenario::makeHost(simv, "ccnic", plat, 1, 3);
    auto sink = scenario::makeHost(simv, "ccnic", plat, 1, 4);

    net::Fabric fabric(simv);
    net::LinkConfig link; // 100GbE defaults.
    const std::uint32_t mbx_addr =
        fabric.attach("middlebox", scenario::hostHooks(*mbx), link);
    const std::uint32_t sink_addr =
        fabric.attach("sink", scenario::hostHooks(*sink), link);
    fabric.attach("source", scenario::hostHooks(*source), link);

    Result r;
    simv.spawn(sourceTask(simv, source->system, *source->nic, mbx_addr));
    simv.spawn(middleboxTask(simv, mbx->system, *mbx->nic, sink_addr,
                             header_only, &r));
    simv.spawn(sinkTask(simv, *sink->nic, &r));
    simv.run(sim::fromUs(600.0));
    if (print_fabric)
        fabric.report(std::cout);
    return r;
}

} // namespace

int
main()
{
    const Result full = run(false, false);
    const Result hdr = run(true, true);
    std::printf("1.5KB source -> middlebox -> sink chain over the "
                "fabric (ICX, CC-NICs):\n");
    std::printf("  full-payload access: %5.0f fwd, %5.0f delivered, "
                "%6.0f UPI bytes/pkt\n",
                full.forwarded, full.delivered, full.upiBytesPerPkt);
    std::printf("  header-only access:  %5.0f fwd, %5.0f delivered, "
                "%6.0f UPI bytes/pkt\n",
                hdr.forwarded, hdr.delivered, hdr.upiBytesPerPkt);
    std::printf("Header-only switching moves %.1fx fewer bytes across "
                "the middlebox's\ninterconnect (the paper's Sec 6 "
                "argument: a coherent NIC can retain payloads\nin its "
                "cache while the host touches only headers).\n",
                full.upiBytesPerPkt / std::max(1.0, hdr.upiBytesPerPkt));
    return 0;
}
