/**
 * @file
 * PCIe interconnect model: MMIO (UC and write-combining) host-initiated
 * paths and device-initiated DMA with DDIO.
 *
 * Models the asymmetric interface the paper dissects in §2:
 *  - UC MMIO loads are full PCIe roundtrips (~982ns measured on the
 *    paper's ICX + E810 testbed).
 *  - UC MMIO stores are posted but serialized one-in-flight.
 *  - WC stores fill a finite pool of per-core write-combining buffers;
 *    full-line flushes pipeline efficiently, while partial-line
 *    evictions are serialized and slow — the Figure 3 latency knee at
 *    N = 24 buffers.
 *  - DMA reads pay a device-to-host roundtrip plus memory access; DMA
 *    writes allocate into the host LLC (DDIO).
 */

#ifndef CCN_PCIE_PCIE_HH
#define CCN_PCIE_PCIE_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "mem/coherence.hh"
#include "sim/simulator.hh"
#include "sim/sync.hh"
#include "sim/task.hh"
#include "sim/time.hh"

namespace ccn::pcie {

/** PCIe link and endpoint timing parameters. */
struct PcieParams
{
    /// Effective data rate per direction (PCIe 4.0 x16; the paper
    /// quotes a 252Gbps link).
    double linkBytesPerSec = sim::gbpsToBytesPerSec(252.0);

    /// TLP header/framing overhead applied to every transfer.
    double tlpOverhead = 1.12;

    sim::Tick hostToDevLat = sim::fromNs(440.0); ///< Posted write transit.
    sim::Tick devToHostLat = sim::fromNs(440.0); ///< Upstream transit.
    sim::Tick devProcLat = sim::fromNs(100.0);   ///< Endpoint processing.

    /// Extra host-side latency for >32B (AVX512) MMIO reads; calibrated
    /// to the paper's 982ns (8B) vs 1026ns (64B) measurements.
    sim::Tick wideReadExtraLat = sim::fromNs(44.0);

    /// CPU-visible cost of a serialized UC store (one in flight).
    sim::Tick ucStoreCpuLat = sim::fromNs(95.0);

    /// Write-combining buffers per core (Figure 3 knee at N = 24).
    int wcBuffers = 24;

    /// Cost of a WC store that hits an already-open buffer.
    sim::Tick wcFillLat = sim::fromNs(0.8);

    /// Root-complex accept pacing for pipelined full-line WC flushes.
    sim::Tick wcFullFlushPace = sim::fromNs(6.0);

    /// Serialized completion latency of a partial-line WC eviction
    /// (device-dependent; drives the Figure 3 slope).
    sim::Tick wcPartialFlushLat = sim::fromNs(480.0);

    /// Drain latency an sfence observes after the last flush is issued.
    sim::Tick fenceDrainLat = sim::fromNs(55.0);

    /// DMA engine fixed setup per operation.
    sim::Tick dmaSetupLat = sim::fromNs(40.0);

    /// Outstanding DMA operations the device can keep in flight.
    int dmaTags = 32;
};

/**
 * One PCIe link between a host socket and a device, carrying MMIO and
 * DMA traffic. Host-initiated operations are charged to the calling
 * coroutine; device-initiated operations are used by NIC device models.
 */
class PcieLink
{
  public:
    /**
     * @param sim         Simulation kernel.
     * @param params      Link and endpoint timing.
     * @param mem_system  Coherent memory system DMA targets live in.
     * @param host_socket Socket the device is attached to.
     */
    PcieLink(sim::Simulator &sim, const PcieParams &params,
             mem::CoherentSystem &mem_system, int host_socket);

    /// @name Host-initiated MMIO.
    /// @{
    /** UC MMIO read of @p bytes: a full PCIe roundtrip. */
    sim::Coro<void> mmioUcRead(std::uint32_t bytes);

    /** UC MMIO posted write; the CPU stalls for the serialized issue. */
    sim::Coro<void> mmioUcWrite(std::uint32_t bytes);
    /// @}

    /// @name Device-initiated DMA.
    /// @{
    /**
     * DMA read of host memory: request downstream-to-upstream, memory
     * access (caches honored), data back down. Returns when the data
     * is at the device.
     */
    sim::Coro<void> dmaRead(mem::Addr addr, std::uint32_t bytes);

    /**
     * DMA write into host memory with DDIO: payload crosses the link
     * and allocates into the host LLC. Returns when the write is
     * globally visible (host pollers wake).
     */
    sim::Coro<void> dmaWrite(mem::Addr addr, std::uint32_t bytes);

    /**
     * Scatter DMA read of several spans in one batched operation: one
     * request roundtrip plus serialization of the total payload.
     * Models the deep DMA pipelining of real NIC ASICs.
     */
    sim::Coro<void> dmaReadMulti(
        const std::vector<mem::CoherentSystem::Span> &spans);

    /**
     * Scatter DMA write (DDIO) of several spans in one batched
     * operation; completion order follows PCIe posted-write rules, so
     * all spans are visible when this returns.
     */
    sim::Coro<void> dmaWriteMulti(
        const std::vector<mem::CoherentSystem::Span> &spans);
    /// @}

    /**
     * Posted DMA write (no completion wait at the device): charges the
     * link and performs the DDIO write, invoking @p on_complete at
     * global visibility. Used for completion/head writebacks that are
     * not on the device's critical path.
     */
    void
    postedDmaWrite(mem::Addr addr, std::uint32_t bytes,
                   std::function<void()> on_complete)
    {
        sim::Tick t = sim_.now() + params_.dmaSetupLat;
        t = up_.reserveAt(t, static_cast<std::uint64_t>(
                                 bytes * params_.tlpOverhead)) +
            params_.devToHostLat;
        t = mem_.ddioWrite(hostSocket_, addr, bytes, t);
        if (on_complete)
            sim_.scheduleCallback(t, std::move(on_complete));
    }

    /**
     * Charge link occupancy for a background (prefetched) device read
     * without putting its latency on any critical path. NIC ASICs
     * prefetch posted RX descriptors ahead of packet arrival.
     */
    void
    chargeBackgroundRead(std::uint64_t bytes)
    {
        up_.reserve(16);
        down_.reserve(static_cast<std::uint64_t>(bytes *
                                                 params_.tlpOverhead));
    }

    /** Transit delay before a posted doorbell is visible at the device. */
    sim::Tick doorbellTransit() const { return params_.hostToDevLat; }

    const PcieParams &params() const { return params_; }
    int hostSocket() const { return hostSocket_; }

  private:
    friend class WcWindow;

    sim::Simulator &sim_;
    PcieParams params_;
    mem::CoherentSystem &mem_;
    int hostSocket_;

    sim::CalendarResource down_; ///< Host-to-device direction.
    sim::CalendarResource up_;   ///< Device-to-host direction.
    sim::Semaphore dmaTags_;
    sim::Tick ucNextFree_ = 0;    ///< One UC MMIO op in flight.
    sim::Tick partialFlushNextFree_ = 0; ///< Serialized WC evictions.
};

/** Destination of a write-combining mapping. */
enum class WcTarget
{
    Device,    ///< WC MMIO BAR of a PCIe device.
    LocalDram, ///< WC-mapped host DRAM (Figure 2's "WC DRAM" case).
};

/**
 * Per-core write-combining buffer state.
 *
 * Models the finite store-buffer pool: stores open 64B-aligned
 * buffers; a fully-written buffer auto-flushes as an efficient
 * pipelined full-line write; evicting a partial buffer (to free a slot
 * or on fence) is serialized and expensive on the device path.
 */
class WcWindow
{
  public:
    WcWindow(sim::Simulator &sim, PcieLink &link, WcTarget target);

    /**
     * Write-combining store of @p bytes at @p addr (within one line).
     * Suspends only when all WC buffers are busy.
     */
    sim::Coro<void> store(mem::Addr addr, std::uint32_t bytes);

    /** sfence: flush all open buffers and wait for the drain. */
    sim::Coro<void> fence();

  private:
    struct OpenBuf
    {
        mem::Addr line;
        std::uint32_t filled;
    };

    /** Issue the flush of one buffer; returns its completion tick. */
    sim::Tick flushBuffer(const OpenBuf &buf);

    sim::Simulator &sim_;
    PcieLink &link_;
    WcTarget target_;
    std::deque<OpenBuf> open_;          ///< Oldest first.
    std::deque<sim::Tick> inflight_;    ///< Flush completions pending.
    sim::Tick lastFlushDone_ = 0;
};

} // namespace ccn::pcie

#endif // CCN_PCIE_PCIE_HH
