/**
 * @file
 * CC-NIC: the paper's cache-coherent host-NIC interface (§3), plus the
 * "unoptimized UPI" baseline (§5.1) as a configuration of the same
 * engine.
 *
 * The host side implements the DPDK-style burst API (Figure 5); the
 * NIC side runs as software agents on the NIC socket, exactly like the
 * paper's software-NIC methodology (§4). All host-NIC communication is
 * ordinary coherent memory traffic through the CoherentSystem model.
 *
 * Design features (each independently toggleable for the Figure 14/15
 * ablations):
 *  - inline signals vs head/tail register lines (§3.2);
 *  - grouped / packed / padded descriptor layouts (§3.2);
 *  - writer-homed rings: TX host-homed, RX NIC-homed (§3.3);
 *  - caching (write-back) stores for all data movement (§3.3);
 *  - recycling buffer allocator and small-buffer subdivision (§3.3);
 *  - shared buffer pool with NIC-side buffer management (§3.4).
 */

#ifndef CCN_CCNIC_CCNIC_HH
#define CCN_CCNIC_CCNIC_HH

#include <memory>
#include <vector>

#include "driver/mempool.hh"
#include "driver/nic_iface.hh"
#include "driver/ring.hh"
#include "driver/ring_channel.hh"
#include "mem/coherence.hh"
#include "mem/platform.hh"
#include "obs/obs.hh"
#include "obs/span.hh"
#include "obs/trace.hh"
#include "sim/random.hh"
#include "sim/simulator.hh"
#include "sim/sync.hh"

namespace ccn::ccnic {

/// The wire representation every interface family shares.
using driver::WirePacket;

/** Full configuration of a CC-NIC instance. */
struct CcNicConfig
{
    int numQueues = 1;
    std::uint32_t ringEntries = 512;

    driver::RingLayout layout = driver::RingLayout::Grouped;
    driver::SignalMode signal = driver::SignalMode::Inline;

    /// Home the RX ring on the NIC socket (writer-homed, §3.3); the
    /// unoptimized baseline keeps all rings in host memory.
    bool nicHomedRx = true;

    /// NIC allocates RX buffers and frees TX buffers itself (§3.4);
    /// when off, the host posts RX buffers and reaps TX completions,
    /// PCIe-style.
    bool nicBufferMgmt = true;

    driver::MempoolConfig pool;
    driver::CpuCosts hostCosts{};
    driver::CpuCosts nicCosts{};

    /// Batched signal publication (Fig 16): host TX descriptors are
    /// staged in software (write-combining, no coherence traffic) and
    /// published — contents, ready flags, and signal — as one posted
    /// store group when the batch reaches its target size or the
    /// flush timeout expires. Off by default: every burst publishes
    /// immediately, as in the paper's base configuration.
    driver::BatchPolicy batch;

    /// NIC engine pipelines descriptor/payload fetches across the
    /// whole batch (CC-NIC). The unoptimized baseline emulates the
    /// E810's per-descriptor hardware handling, serializing each
    /// packet's descriptor-then-payload chain.
    bool nicPipelined = true;
    bool loopback = true;     ///< TX loops back to the same queue's RX.

    /// Path label this NIC's lifecycle spans are recorded under in
    /// obs::SpanTable (keeps CC-NIC and unoptimized-UPI breakdowns
    /// separate in the "latency" bench section).
    std::string spanPath = "ccnic";

    /// Prefix for coherence-profiler region names ("<tag>.tx_ring[q0]"
    /// etc.); empty means "use spanPath". Ablation benches that run
    /// several ring variants in one process (fig14) set distinct tags
    /// so the "coherence" section separates the variants.
    std::string regionTag;
};

/** The paper's optimized CC-NIC configuration. */
CcNicConfig optimizedConfig(int num_queues, int host_socket);

/** optimizedConfig() with platform-calibrated software costs. */
CcNicConfig optimizedConfig(int num_queues, int host_socket,
                            const mem::PlatformConfig &plat);

/** unoptimizedConfig() with platform-calibrated software costs. */
CcNicConfig unoptimizedConfig(int num_queues, int host_socket,
                              const mem::PlatformConfig &plat);

/**
 * The "unoptimized UPI" baseline (§5.1): the Intel E810 interface —
 * packed 16B descriptors, head/tail register signaling, host-managed
 * 2KB buffers — run over coherent memory.
 */
CcNicConfig unoptimizedConfig(int num_queues, int host_socket);

/**
 * A CC-NIC instance: host-side burst interface plus NIC-side agent
 * processes.
 */
class CcNic : public driver::NicInterface
{
  public:
    CcNic(sim::Simulator &sim, mem::CoherentSystem &mem_system,
          const CcNicConfig &config, int host_socket, int nic_socket,
          sim::Rng &rng);

    /// @name NicInterface implementation.
    /// @{
    sim::Coro<int> txBurst(int q, driver::PacketBuf **bufs,
                           int count) override;
    sim::Coro<int> rxBurst(int q, driver::PacketBuf **bufs,
                           int count) override;
    sim::Coro<void> idleWait(int q, sim::Tick deadline) override;
    driver::QueueHealth health(int q) const override;
    std::vector<mem::Addr> faultLines() const override;
    /// @}

    const CcNicConfig &config() const { return cfg_; }

    /** Ring-signal reads (register reloads / inline-signal polls). */
    std::uint64_t signalReads() const { return signalReads_; }

    /** Ring-signal publishes (register writes / inline flag stores). */
    std::uint64_t signalWrites() const { return signalWrites_; }

  private:
    struct Queue : QueueCore
    {
        Queue(sim::Simulator &sim, mem::CoherentSystem &m,
              const CcNicConfig &cfg, int host_socket, int nic_socket);

        // Allocation order feeds the modeled caches: rings, then the
        // register lines.
        driver::DescRing txRing;
        driver::DescRing rxRing;
        driver::RegisterLine txTail, txHead, rxTail, rxHead;

        /// Host produces, NIC consumes.
        driver::RingChannel tx;
        /// NIC produces, host consumes. In host-managed mode prod is
        /// the next posted blank the NIC fills.
        driver::RingChannel rx;

        /// Host-managed mode: TX buffers awaiting reap, and the next
        /// RX slot to post a blank into.
        driver::TxShadow txShadow;
        std::uint32_t rxPostProd = 0;

        /// Host-side TX publish staging (batched signal publication);
        /// empty whenever cfg.batch is off.
        driver::PublishBatch txPending;
        /// Device-side RX publication accounting: tracks the adaptive
        /// target and flush occupancy for the NIC's already-batched
        /// per-gather publications.
        driver::PublishBatch rxDevPending;
    };

    sim::Task nicTxTask(int q);
    sim::Task nicRxTask(int q);

    /// @name Batched signal publication (Fig 16).
    /// @{
    /** Publish everything staged on queue @p q as one posted-store
     *  group (descriptor contents + ready flags + signal). */
    sim::Coro<void> flushBatch(int q, bool timeout_flush) override;
    /** Publish host TX descriptors ending at @p end (unbatched: one
     *  burst; batched: one flush). */
    sim::Coro<void> publishTx(Queue &queue,
                              std::vector<mem::CoherentSystem::Span> lines,
                              std::vector<driver::PublishBatch::Entry> entries,
                              std::uint32_t end);
    /// @}

    /// @name Lifecycle hooks.
    /// Ring/signal/heartbeat ranges register under
    /// "<regionTag>.tx_ring[qN]"-style names.
    /// @{
    void spawnEngines(int q) override;
    std::vector<driver::PacketBuf *> sweepQueue(int q) override;
    void rewindQueue(int q) override;
    void registerProfRegions() override;
    /// @}

    CcNicConfig cfg_;
    int hostSocket_;
    int nicSocket_;

    std::vector<std::unique_ptr<Queue>> queues_;
    obs::Counter signalReads_{"ccnic.signal_reads"};
    obs::LabeledCounter signalReadsQ_{"ccnic.signal_reads", "queue"};
    obs::Counter signalWrites_{"ccnic.signal_writes"};
    obs::Counter rxDelivered_{"ccnic.rx_delivered"};
};

} // namespace ccn::ccnic

#endif // CCN_CCNIC_CCNIC_HH
