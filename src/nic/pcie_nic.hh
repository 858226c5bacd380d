/**
 * @file
 * PCIe NIC device models and host driver.
 *
 * Models today's PCIe NIC interface as dissected in §2: host-local
 * descriptor rings, MMIO doorbell signaling, device DMA for descriptor
 * and payload transfer, DDIO completions, and host-managed buffers.
 *
 * Two parameter sets model the paper's testbed devices:
 *  - E810: doorbell-then-fetch TX path (Figure 4a), higher pipeline
 *    packet rate.
 *  - CX6: inline-descriptor doorbell low-latency path (the paper's
 *    footnote on MMIO descriptor writes), lower loopback packet rate.
 *
 * The host side implements the same NicInterface as CC-NIC, so all
 * workloads run unchanged on either.
 */

#ifndef CCN_NIC_PCIE_NIC_HH
#define CCN_NIC_PCIE_NIC_HH

#include <memory>
#include <vector>

#include "driver/mempool.hh"
#include "driver/nic_iface.hh"
#include "driver/ring.hh"
#include "pcie/pcie.hh"
#include "sim/sync.hh"

namespace ccn::nic {

using driver::WirePacket;

/** Device pipeline parameters. */
struct NicParams
{
    std::string name = "E810";

    /// Internal ASIC loopback pipeline rate cap (packets/second).
    double pipelinePps = 210e6;

    /// Fixed pipeline traversal latency.
    sim::Tick pipelineLat = sim::fromNs(260.0);

    /// CX6-style inline descriptor doorbell: the WC doorbell write
    /// carries the descriptor, skipping the descriptor DMA fetch on
    /// the latency path.
    bool inlineDoorbellDesc = false;

    /// Per-packet device processing cost.
    sim::Tick perPacketLat = sim::fromNs(12.0);

    /// Doorbell coalescing (Fig 16): descriptor stores still land per
    /// burst, but the MMIO tail doorbell is deferred until B
    /// descriptors are pending (or the flush timeout expires), so a
    /// reaped batch costs one doorbell instead of one per burst. Off
    /// by default.
    driver::BatchPolicy batch;

    /// PCIe endpoint timing.
    pcie::PcieParams pcie;
};

/** Intel E810-like parameters (2x100GbE, PCIe 4.0 x16). */
NicParams e810Params();

/** NVIDIA ConnectX-6-like parameters. */
NicParams cx6Params();

/**
 * A PCIe NIC in internal loopback between TX/RX queue pairs, plus its
 * host driver.
 */
class PcieNic : public driver::NicInterface
{
  public:
    PcieNic(sim::Simulator &sim, mem::CoherentSystem &mem_system,
            const NicParams &params, int num_queues, int host_socket,
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

  private:
    struct Queue : QueueCore
    {
        Queue(sim::Simulator &sim, mem::CoherentSystem &m,
              int host_socket, pcie::PcieLink &link);

        // Host-memory rings (E810 layout: packed 16B descriptors).
        driver::DescRing tx;
        driver::DescRing rx;

        // Host positions.
        std::uint32_t txProd = 0;
        std::uint32_t rxCons = 0;
        std::uint32_t rxPostProd = 0;
        driver::TxShadow txShadow;

        /// Doorbell coalescing: descriptors published (stored) but not
        /// yet announced to the device, and the tail value of the last
        /// doorbell actually rung.
        driver::PublishBatch dbPending;
        std::uint32_t dbFlushedTail = 0;

        // Device positions and state.
        std::uint32_t devTxCons = 0;
        std::uint32_t devTxTail = 0; ///< Last doorbell value seen.
        std::uint32_t devRxPostCons = 0;
        std::uint32_t devRxPostTail = 0;

        /// TX head writeback line (DDIO) the host reads completions
        /// from.
        mem::Addr txHeadWb = 0;
        std::uint64_t txHeadValue = 0;

        sim::Mailbox<std::uint32_t> doorbells;
        pcie::WcWindow wc;

        /// Per-queue doorbell child of pcie_nic.doorbells{queue=}.
        obs::Counter *doorbellsQ = nullptr;
    };

    sim::Task devTxEngine(int q);
    sim::Task devRxEngine(int q);

    /// @name Doorbell coalescing (Fig 16).
    /// @{
    /** Ring one MMIO doorbell covering every pending descriptor. */
    sim::Coro<void> flushBatch(int q, bool timeout_flush) override;
    /** Announce every descriptor before @p tail to the device. */
    sim::Coro<void> ringTxDoorbell(int q, std::uint32_t tail);
    /// @}

    /// @name Lifecycle hooks ("pcie.*" profiler regions).
    /// The device beat is a posted DMA write of a DDIO liveness line
    /// (PCIe devices do not poll host liveness in this model), and
    /// quiesce waits on in-flight engine batches, not core locks.
    /// @{
    void spawnEngines(int q) override;
    sim::Coro<void> publishDeviceBeat() override;
    sim::Coro<void> drainEngines() override;
    std::vector<driver::PacketBuf *> sweepQueue(int q) override;
    void rewindQueue(int q) override;
    void registerProfRegions() override;
    /// @}

    NicParams params_;
    pcie::PcieLink link_;
    sim::CalendarResource pipeline_;
    std::vector<std::unique_ptr<Queue>> queues_;
    obs::Counter doorbells_{"pcie_nic.doorbells"};
    obs::LabeledCounter doorbellsQ_{"pcie_nic.doorbells", "queue"};
    /// Device engine batches in flight.
    std::shared_ptr<int> devOps_ = std::make_shared<int>(0);
};

} // namespace ccn::nic

#endif // CCN_NIC_PCIE_NIC_HH
