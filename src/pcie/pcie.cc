#include "pcie/pcie.hh"

#include <algorithm>

namespace ccn::pcie {

using sim::Tick;

namespace {

/// Effective data rate per direction (PCIe 4.0 x16; the paper quotes
/// a 252Gbps link).
constexpr double kLinkBytesPerSec = sim::gbpsToBytesPerSec(252.0);

/// Extra host-side latency for >32B (AVX512) MMIO reads; calibrated
/// to the paper's 982ns (8B) vs 1026ns (64B) measurements.
constexpr Tick kWideReadExtraLat = sim::fromNs(44.0);

/// CPU-visible cost of a serialized UC store (one in flight).
constexpr Tick kUcStoreCpuLat = sim::fromNs(95.0);

/// Write-combining buffers per core (Figure 3 knee at N = 24).
constexpr std::size_t kWcBuffers = 24;

/// Cost of a WC store that hits an already-open buffer.
constexpr Tick kWcFillLat = sim::fromNs(0.8);

/// Root-complex accept pacing for pipelined full-line WC flushes.
constexpr Tick kWcFullFlushPace = sim::fromNs(6.0);

/// Drain latency an sfence observes after the last flush is issued.
constexpr Tick kFenceDrainLat = sim::fromNs(55.0);

} // namespace

PcieLink::PcieLink(sim::Simulator &sim, const PcieParams &params,
                   mem::CoherentSystem &mem_system, int host_socket)
    : sim_(sim),
      params_(params),
      mem_(mem_system),
      hostSocket_(host_socket),
      down_(sim, kLinkBytesPerSec),
      up_(sim, kLinkBytesPerSec),
      dmaTags_(sim, static_cast<std::uint32_t>(params.dmaTags))
{}

sim::Coro<void>
PcieLink::mmioUcRead(std::uint32_t bytes)
{
    // Only one UC access in flight between core and PCIe root.
    const Tick start = std::max(sim_.now(), ucNextFree_);
    Tick rtt = params_.hostToDevLat + params_.devProcLat +
               params_.devToHostLat;
    if (bytes > 32)
        rtt += kWideReadExtraLat;
    rtt += sim::serializationTime(tlpBytes(bytes), kLinkBytesPerSec);
    up_.reserveAt(start, 16); // Read request TLP.
    down_.reserveAt(start + params_.hostToDevLat, tlpBytes(bytes));
    ucNextFree_ = start + rtt;
    co_await sim_.delayUntil(start + rtt);
    co_return;
}

sim::Coro<void>
PcieLink::mmioUcWrite(std::uint32_t bytes)
{
    const Tick start = std::max(sim_.now(), ucNextFree_);
    const Tick done = start + kUcStoreCpuLat;
    ucNextFree_ = done;
    down_.reserveAt(start, tlpBytes(bytes));
    co_await sim_.delayUntil(done);
    co_return;
}

sim::Coro<void>
PcieLink::dmaRead(mem::Addr addr, std::uint32_t bytes)
{
    co_await dmaTags_.acquire();
    Tick t = sim_.now() + params_.dmaSetupLat;
    // Read request upstream.
    t = up_.reserveAt(t, 16) + params_.devToHostLat;
    // Memory access within the coherent domain.
    t = mem_.dmaRead(hostSocket_, addr, bytes, t);
    // Completion data downstream.
    t = down_.reserveAt(t, tlpBytes(bytes)) + params_.hostToDevLat;
    co_await sim_.delayUntil(t);
    dmaTags_.release();
    co_return;
}

sim::Coro<void>
PcieLink::dmaWrite(mem::Addr addr, std::uint32_t bytes)
{
    co_await dmaTags_.acquire();
    Tick t = sim_.now() + params_.dmaSetupLat;
    t = up_.reserveAt(t, tlpBytes(bytes)) + params_.devToHostLat;
    // DDIO allocation into the host LLC; wakes host pollers.
    t = mem_.ddioWrite(hostSocket_, addr, bytes, t);
    co_await sim_.delayUntil(t);
    dmaTags_.release();
    co_return;
}

sim::Coro<void>
PcieLink::dmaReadMulti(
    const std::vector<mem::CoherentSystem::Span> &spans)
{
    co_await dmaTags_.acquire();
    Tick t = sim_.now() + params_.dmaSetupLat;
    t = up_.reserveAt(t, 16 + 4 * spans.size()) + params_.devToHostLat;
    Tick mem_done = t;
    std::uint64_t total = 0;
    for (const auto &sp : spans) {
        if (sp.bytes == 0)
            continue;
        mem_done = std::max(mem_done,
                            mem_.dmaRead(hostSocket_, sp.addr,
                                         sp.bytes, t));
        total += sp.bytes;
    }
    Tick done =
        down_.reserveAt(mem_done, tlpBytes(total)) + params_.hostToDevLat;
    co_await sim_.delayUntil(done);
    dmaTags_.release();
    co_return;
}

sim::Coro<void>
PcieLink::dmaWriteMulti(
    const std::vector<mem::CoherentSystem::Span> &spans)
{
    co_await dmaTags_.acquire();
    Tick t = sim_.now() + params_.dmaSetupLat;
    std::uint64_t total = 0;
    for (const auto &sp : spans)
        total += sp.bytes;
    t = up_.reserveAt(t, tlpBytes(total)) + params_.devToHostLat;
    Tick done = t;
    for (const auto &sp : spans) {
        if (sp.bytes == 0)
            continue;
        done = std::max(done,
                        mem_.ddioWrite(hostSocket_, sp.addr, sp.bytes,
                                       t));
    }
    co_await sim_.delayUntil(done);
    dmaTags_.release();
    co_return;
}

WcWindow::WcWindow(sim::Simulator &sim, PcieLink &link, WcTarget target)
    : sim_(sim), link_(link), target_(target)
{}

Tick
WcWindow::flushBuffer(const OpenBuf &buf)
{
    const PcieParams &p = link_.params_;
    const bool full = buf.filled >= mem::kLineBytes;
    Tick done;
    if (target_ == WcTarget::Device) {
        if (full) {
            // Full-line WC writes pipeline efficiently.
            const Tick ser = link_.down_.reserveAt(
                sim_.now(), tlpBytes(mem::kLineBytes));
            done = std::max(ser, std::max(sim_.now(), lastFlushDone_) +
                                     kWcFullFlushPace);
        } else {
            // Partial-line evictions are serialized and expensive
            // (the Figure 3 stall).
            link_.down_.reserveAt(sim_.now(), tlpBytes(2.0 * buf.filled));
            link_.partialFlushNextFree_ =
                std::max(sim_.now(), link_.partialFlushNextFree_) +
                p.wcPartialFlushLat;
            done = link_.partialFlushNextFree_;
        }
    } else {
        // WC-mapped local DRAM: flushes go to the memory controller.
        if (full) {
            done = std::max(sim_.now(), lastFlushDone_) +
                   sim::fromNs(4.0);
        } else {
            done = std::max(sim_.now(), lastFlushDone_) +
                   sim::fromNs(70.0);
        }
    }
    lastFlushDone_ = std::max(lastFlushDone_, done);
    inflight_.push_back(done);
    while (inflight_.size() > 64)
        inflight_.pop_front();
    return done;
}

sim::Coro<void>
WcWindow::store(mem::Addr addr, std::uint32_t bytes)
{
    const mem::Addr line = mem::lineOf(addr);

    for (auto it = open_.begin(); it != open_.end(); ++it) {
        if (it->line == line) {
            it->filled += bytes;
            if (it->filled >= mem::kLineBytes) {
                // Completely filled: auto-flush, pipelined.
                OpenBuf buf = *it;
                open_.erase(it);
                flushBuffer(buf);
            }
            co_await sim_.delay(kWcFillLat);
            co_return;
        }
    }

    if (open_.size() >= kWcBuffers) {
        // No free buffer: evict the oldest (partial) and stall until
        // the eviction completes.
        OpenBuf victim = open_.front();
        open_.pop_front();
        const Tick done = flushBuffer(victim);
        if (done > sim_.now())
            co_await sim_.delayUntil(done);
    }

    open_.push_back(OpenBuf{line, bytes});
    if (bytes >= mem::kLineBytes) {
        OpenBuf buf = open_.back();
        open_.pop_back();
        flushBuffer(buf);
    }
    co_await sim_.delay(kWcFillLat);
    co_return;
}

sim::Coro<void>
WcWindow::fence()
{
    while (!open_.empty()) {
        OpenBuf buf = open_.front();
        open_.pop_front();
        flushBuffer(buf);
    }
    const Tick fence_lat = target_ == WcTarget::Device
                               ? kFenceDrainLat
                               : sim::fromNs(20.0);
    const Tick done = std::max(sim_.now(), lastFlushDone_) + fence_lat;
    co_await sim_.delayUntil(done);
    co_return;
}

} // namespace ccn::pcie
