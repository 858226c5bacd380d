/**
 * @file
 * Common host-side NIC data plane interface and the device lifecycle
 * every interface family shares.
 *
 * All four evaluated interfaces (CC-NIC, unoptimized UPI, E810 PCIe,
 * CX6 PCIe), plus PIO over coherence, implement this API, which
 * mirrors the semantics of the DPDK mempool and ethdev burst calls
 * (paper Figure 5). Workloads and applications are written once
 * against it.
 *
 * The families differ only in their datapath, so NicInterface also
 * owns everything around it once: the lifecycle state machine
 * (heartbeat, quiesce/reset/reinit, wedge), the buffer pool ops, wire
 * delivery, the integrity guard, profiler-region bookkeeping and the
 * family-prefixed counters. A family supplies its burst engines, its
 * reset sweep, its profiler regions, and overrides a hook only where
 * its device really behaves differently.
 */

#ifndef CCN_DRIVER_NIC_IFACE_HH
#define CCN_DRIVER_NIC_IFACE_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "driver/integrity.hh"
#include "driver/mempool.hh"
#include "driver/packet.hh"
#include "driver/ring.hh"
#include "mem/coherence.hh"
#include "mem/platform.hh"
#include "obs/obs.hh"
#include "sim/sync.hh"
#include "sim/task.hh"
#include "sim/time.hh"

namespace ccn::driver {

/**
 * Host CPU cost model for driver software (cycles). These represent
 * the instruction-execution component of per-packet work; memory
 * stalls are charged separately by the access-accurate memory model.
 */
struct CpuCosts
{
    double perLoop = 30;      ///< Poll-loop iteration overhead.
    double perPktTx = 35;     ///< Per-packet TX software cost.
    double perPktRx = 30;     ///< Per-packet RX software cost.
    double perDesc = 10;      ///< Descriptor marshalling.
    double perAllocFree = 10; ///< Buffer bookkeeping.
};

/**
 * Driver software costs calibrated per platform so that saturated
 * per-core 64B packet rates land on the paper's §5.3 measurements
 * (~21Mpps/core on ICX, ~28Mpps/core on SPR).
 */
CpuCosts platformCosts(const mem::PlatformConfig &plat);

/**
 * Host-sampled per-queue progress counters, consumed by the driver
 * Watchdog: a queue whose txCompleted stops advancing while more
 * than txHeldInBatch descriptors are outstanding is stalled.
 * Descriptors the host itself is holding back for a coalesced
 * publish (batching) are reported in txHeldInBatch so a flush-timer
 * delay is not mistaken for a dead device.
 */
struct QueueHealth
{
    std::uint64_t txSubmitted = 0;   ///< Descriptors ever submitted.
    std::uint64_t txCompleted = 0;   ///< Descriptors ever consumed.
    std::uint64_t rxDelivered = 0;   ///< Packets ever handed to host.
    std::uint32_t txOutstanding = 0; ///< Submitted minus completed.
    std::uint32_t txHeldInBatch = 0; ///< Outstanding but unpublished:
                                     ///< staged in a host-side batch
                                     ///< the device cannot yet see.
};

/**
 * What the shared lifecycle needs to know about one family, taken
 * from that family's own configuration at construction.
 */
struct DeviceTraits
{
    /// Counter prefix ("<prefix>.tx_packets", ...).
    std::string prefix;
    /// Static tracepoint label of reset() ("<prefix>.reset").
    const char *resetTrace = "";
    CpuCosts hostCosts;         ///< Host driver costs (cpuCosts()).
    sim::Tick beatPeriod = 0;   ///< Device heartbeat publish period.
    sim::Tick resetLat = 0;     ///< Flat device-reset latency.
    sim::Tick reinitLat = 0;    ///< Engine restart latency in reinit().
    sim::Tick wireLat = 0;      ///< Loopback wire latency.
    /// TX stays on the local loopback even with a sink installed;
    /// when false, TX goes to the sink as soon as one is installed.
    bool loopback = false;
    /// Bytes one consumeGuard() check covers (a ring line or a slot).
    std::uint32_t guardBytes = mem::kLineBytes;
    /// Register "<prefix>.heartbeats" (counted by the coherent beat).
    bool countBeats = true;
};

/**
 * Host-side per-queue data plane interface (DPDK ethdev/mempool
 * semantics) over the shared device lifecycle.
 */
class NicInterface
{
  public:
    virtual ~NicInterface();

    NicInterface(const NicInterface &) = delete;
    NicInterface &operator=(const NicInterface &) = delete;

    /**
     * Submit up to @p count packets on queue @p q. Returns the number
     * accepted (backpressure drops the rest, mirroring
     * rte_eth_tx_burst).
     */
    virtual sim::Coro<int> txBurst(int q, PacketBuf **bufs,
                                   int count) = 0;

    /**
     * Receive up to @p count packets from queue @p q. Returns the
     * number received (possibly 0; non-blocking poll).
     */
    virtual sim::Coro<int> rxBurst(int q, PacketBuf **bufs,
                                   int count) = 0;

    /**
     * Block until new RX work is likely (or @p deadline passes).
     * Used by poll loops to sleep without missing either timed TX
     * work or RX arrivals.
     */
    virtual sim::Coro<void> idleWait(int q, sim::Tick deadline) = 0;

    /** Spawn the device engines and heartbeat. Call once, first. */
    void start();

    /** Allocate packet buffers suited to @p size bytes. */
    sim::Coro<int> allocBufs(int q, std::uint32_t size, PacketBuf **bufs,
                             int count);

    /** Release packet buffers. */
    sim::Coro<void> freeBufs(int q, PacketBuf **bufs, int count);

    /** Agent (core) bound to queue @p q's host thread. */
    mem::AgentId hostAgent(int q) const { return cores_[q]->hostAgent; }

    /** Agent charged for queue @p q's device side (QueueCore). */
    mem::AgentId nicAgent(int q) const { return cores_[q]->nicAgent; }

    /** Number of configured queue pairs. */
    int numQueues() const { return static_cast<int>(cores_.size()); }

    /** Host CPU cost model for this driver. */
    const CpuCosts &cpuCosts() const { return traits_.hostCosts; }

    Mempool &pool() { return *pool_; }

    /// @name Wire attachment (external mode).
    /// @{
    /** Divert TX packets to an external sink (see DeviceTraits). */
    void
    setTxSink(std::function<void(int, const WirePacket &)> sink)
    {
        txSink_ = std::move(sink);
    }

    /** Inject a packet for RX delivery on queue @p q. */
    void injectRx(int q, const WirePacket &pkt);
    /// @}

    // ---- Device lifecycle (failure detection + hot-reset) -------------

    /** True while the device is up and processing descriptors. */
    bool operational() const { return devState_ == DevState::Running; }

    /**
     * Bump the host-side heartbeat line. Called periodically by the
     * Watchdog; the device observes the line to confirm host liveness.
     */
    sim::Coro<void> beatHost();

    /**
     * Read the device-side heartbeat line. A value that stops
     * advancing across successive reads means the device is wedged.
     */
    sim::Coro<std::uint64_t> readDeviceBeat();

    /** Progress counters for queue @p q (monotonic across resets). */
    virtual QueueHealth health(int q) const = 0;

    /**
     * Stop accepting new host bursts and wait for in-flight host and
     * device operations on all queues to drain or park.
     */
    sim::Coro<void> quiesce();

    /**
     * Reclaim every device-held buffer back to the mempool, clear all
     * signal state, and zero queue positions. Must be called after
     * quiesce(); leaves the device down.
     */
    sim::Coro<void> reset();

    /** Restart queues after reset(); the device resumes processing. */
    sim::Coro<void> reinit();

    /// @name Fault injection (chaos harness).
    /// Wedging freezes the device engines without telling the driver:
    /// heartbeats stop and queues stall, which is exactly what the
    /// Watchdog must detect. The host side keeps running (a firmware
    /// hang, not a host crash); reinit() clears the wedge.
    /// @{
    void wedge() { wedged_ = true; }

    void
    unwedge()
    {
        wedged_ = false;
        runGate_.notifyAll();
    }

    bool wedged() const { return wedged_; }
    /// @}

    /**
     * Teardown leak audit: number of pool buffers allocated but never
     * returned (directly or via reset() reclaim). Publishes the result
     * to pool telemetry.
     */
    std::size_t auditLeaks() { return pool_->auditLeaks(); }

    // ---- Datapath integrity (memory-chaos hardening) ------------------

    /**
     * Cumulative localized integrity retries (poison re-reads, torn
     * slot rejects). The Watchdog samples this each check and stamps
     * the delta as escalation stage "retry".
     */
    std::uint64_t integrityRetries() const { return integrity_.retries(); }

    /**
     * Cumulative persistent integrity faults (poison retry budget
     * exhausted). A rising count tells the Watchdog the device needs
     * a hot-reset (escalation stage 2).
     */
    std::uint64_t integrityFaults() const { return integrity_.faults(); }

    /**
     * Cache lines carrying queue-0's live producer/consumer signals
     * and descriptors — the lines a memory-fault schedule targets to
     * hit the datapath where it hurts.
     */
    virtual std::vector<mem::Addr> faultLines() const = 0;

    /** Packets that have crossed device TX processing. */
    std::uint64_t txCount() const { return txCount_; }

    /** RX packets discarded on FCS mismatch (corrupted on the wire). */
    std::uint64_t rxCrcDrops() const { return rxCrcDrops_; }

  protected:
    NicInterface(sim::Simulator &sim, mem::CoherentSystem &mem_system,
                 DeviceTraits traits);

    /** Device lifecycle state. */
    enum class DevState : std::uint8_t
    {
        Running,   ///< Normal operation.
        Quiescing, ///< Draining host and engine operations.
        Down,      ///< Quiesced; awaiting reset()/reinit().
    };

    /**
     * RAII operation counter (quiesce waits for it to drain). It
     * shares the count: the Simulator destroys suspended frames after
     * the worlds it ran, so a frame may outlive its NIC.
     */
    struct OpScope
    {
        std::shared_ptr<int> n;
        explicit OpScope(std::shared_ptr<int> count) : n(std::move(count))
        {
            ++*n;
        }
        ~OpScope() { --*n; }
        OpScope(const OpScope &) = delete;
        OpScope &operator=(const OpScope &) = delete;
    };

    /** Per-queue state every family keeps; its Queue derives from it. */
    struct QueueCore
    {
        /**
         * Adds the host agent, then the device agent on @p nic_socket.
         * A negative @p nic_socket means the device is no coherent
         * agent (PCIe): its device-side pool ops charge the host agent.
         */
        QueueCore(sim::Simulator &sim, mem::CoherentSystem &m,
                  int host_socket, int nic_socket);

        mem::AgentId hostAgent; ///< Host core polling this queue.
        mem::AgentId nicAgent;  ///< Device core serving it.

        sim::Mailbox<WirePacket> rxInput; ///< Wire arrivals for RX.
        /// One device core serves both engines of a coherent family;
        /// quiesce() sweeps it. PCIe engines count devOps instead.
        sim::Semaphore coreLock;
        sim::Gate wireDrained; ///< RX engine drained below cap.

        // Monotonic progress counters (survive resets); the Watchdog
        // samples these through health() for stall detection.
        std::uint64_t txSubmittedTotal = 0;
        std::uint64_t txCompletedTotal = 0;
        std::uint64_t rxDeliveredTotal = 0;

        /// Per-queue batch-occupancy child ("<prefix>.batch_occupancy"):
        /// entries flushed; divide by flushes for mean occupancy.
        obs::Counter *batchOcc = nullptr;

        /** The monotonic half of health(). */
        QueueHealth progress() const;
    };

    /** Register a constructed queue (in queue order). */
    void addQueue(QueueCore &queue);

    /** Deliver a TX packet to the wire (sink or local loopback). */
    void deliverTx(int q, const WirePacket &pkt);

    /**
     * Consume-side integrity filter on one ring line or slot: stale
     * (torn/stuck) views read as not-ready, poisoned content is
     * retried inline (bounded). True = the content may be trusted.
     */
    sim::Coro<bool> consumeGuard(mem::Addr line);

    /** Cycles-to-ticks on the platform clock. */
    sim::Tick
    cycles(double n) const
    {
        return mem_.config().cycles(n);
    }

    /// @name Family hooks.
    /// @{
    /** start() for queue @p q: spawn the family's engines and timers. */
    virtual void spawnEngines(int q) = 0;

    /**
     * Publish one device heartbeat. Default: the device core stores
     * its beat line and reads the host's (a coherent pingpong).
     */
    virtual sim::Coro<void> publishDeviceBeat();

    /**
     * quiesce() tail, after host bursts drained: wait until no device
     * engine is mid-batch. Default: sweep each queue's core lock.
     */
    virtual sim::Coro<void> drainEngines();

    /**
     * reset() sweep of queue @p q, before the reclaim: clear the
     * device-visible state and return every buffer the device still
     * holds, each once, in a deterministic order.
     */
    virtual std::vector<PacketBuf *> sweepQueue(int q) = 0;

    /** reset() tail of queue @p q, after the reclaim: zero positions. */
    virtual void rewindQueue(int q) = 0;

    /** Register ring/slot/beat-line ranges into profRegions_. */
    virtual void registerProfRegions() = 0;
    /// @}

    void unregisterProfRegions();

    sim::Simulator &sim_;
    mem::CoherentSystem &mem_;
    const DeviceTraits traits_;
    IntegrityGuard integrity_;
    std::unique_ptr<Mempool> pool_;

    // Lifecycle state. Heartbeat lines follow the same single-line
    // pingpong discipline as descriptor signals: each direction has
    // one cache line the writer bumps and the reader polls.
    DevState devState_ = DevState::Running;
    bool wedged_ = false;
    /// Host bursts in flight (quiesce drain).
    std::shared_ptr<int> hostOps_ = std::make_shared<int>(0);
    sim::Gate runGate_; ///< Parks device engines while not Running.
    std::unique_ptr<RegisterLine> hostBeat_; ///< Host-bumped.
    std::unique_ptr<RegisterLine> nicBeat_;  ///< Device-bumped.

    /// Live coherence-profiler region handles; re-registered across
    /// hot-reset (reinit()) since reset() reallocates no storage.
    std::vector<obs::RegionId> profRegions_;

    obs::Counter txCount_;
    obs::Counter rxCrcDrops_;
    obs::Counter resets_;
    obs::Counter resetReclaimed_;
    std::optional<obs::Counter> heartbeats_;
    obs::LabeledCounter batchFlushes_;   ///< {reason}
    obs::LabeledCounter batchOccupancy_; ///< {queue}

  private:
    /** Device heartbeat: every beatPeriod while running. */
    sim::Task heartbeatTask();

    /** Wake engines parked on the run gate or the wire drain. */
    void wakeEngines();

    std::function<void(int, const WirePacket &)> txSink_;
    std::vector<QueueCore *> cores_;
    bool started_ = false;
};

} // namespace ccn::driver

#endif // CCN_DRIVER_NIC_IFACE_HH
