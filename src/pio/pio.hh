/**
 * @file
 * PIO-over-coherence: a message-register host-NIC interface with no
 * descriptor ring.
 *
 * "Rethinking Programmed I/O for Fast Devices, Cheap Cores, and
 * Coherent Interconnects" argues that once the device sits on a
 * coherent interconnect, small messages should be *pushed* through
 * shared cache lines rather than *described* in a ring and pulled by
 * the device. PioNic implements that third interface family as a full
 * peer of CcNic and PcieNic:
 *
 *  - TX: the host writes header + payload inline into a small array
 *    of cache-line message slots (writer-homed, host socket). The
 *    device polls the head slot through the coherence model — a free
 *    local spin until the host's store invalidates its copy — reads
 *    the slot lines, and returns the credit by flipping the slot's
 *    state word back to Free (credit carried in slot metadata, no
 *    separate completion ring).
 *  - RX: symmetric in the other direction. The device writes arriving
 *    messages into a second slot array (device-homed under the UPI
 *    preset) and the host reaps by polling its consumer slot, copying
 *    the inline payload into a freshly allocated (cache-hot, local)
 *    pool buffer, and flipping the slot back to Free.
 *  - Spill: frames larger than the inline budget travel by reference —
 *    the slot carries a mempool buffer pointer and the payload moves
 *    through the shared pool exactly as on the ring interfaces.
 *
 * Collapsing descriptor publish / doorbell / descriptor fetch /
 * payload fetch into one slot-line transfer per direction is what
 * wins at small message sizes; the narrow slot array is also what
 * loses at bulk throughput, which bench_pio_smallmsg locates as a
 * crossover against the ring interfaces.
 *
 * Two presets: upiConfig() (symmetric CPU-interconnect coherence, the
 * paper's platform) and cxlConfig() (CXL.cache-flavored: the device
 * caches *host* memory only, so both slot arrays are host-homed, and
 * every device-side access pays an added CXL port/flit latency).
 */

#ifndef CCN_PIO_PIO_HH
#define CCN_PIO_PIO_HH

#include <memory>
#include <string>
#include <vector>

#include "driver/mempool.hh"
#include "driver/nic_iface.hh"
#include "driver/ring.hh"
#include "mem/coherence.hh"
#include "mem/platform.hh"
#include "obs/obs.hh"
#include "obs/span.hh"
#include "obs/trace.hh"
#include "sim/random.hh"
#include "sim/simulator.hh"
#include "sim/sync.hh"

namespace ccn::pio {

/// The wire representation is shared with the ring interfaces so the
/// fabric, transport and chaos harness treat all families alike.
using driver::WirePacket;

/** Full configuration of a PioNic instance. */
struct Config
{
    int numQueues = 1;

    /// Message slots per direction per queue (rounded up to a power
    /// of two). Deliberately small: the slot array *is* the flow
    /// control window — a consumed slot's credit returns in its own
    /// metadata, so capacity never needs a separate signal.
    std::uint32_t numSlots = 64;

    /// Cache lines per message slot. Two lines = 16B header + 112B
    /// inline payload, which keeps 64B packets (the paper's small-
    /// message workhorse) on the inline path.
    std::uint32_t slotLines = 2;

    /// Header bytes reserved at the front of each slot.
    std::uint32_t headerBytes = 16;

    driver::MempoolConfig pool;
    driver::CpuCosts hostCosts{};
    driver::CpuCosts nicCosts{};

    int nicBatch = 8; ///< Device-side processing burst.

    /// Credit-return coalescing (Fig 16): consumed slots on both sides
    /// stay Taken until B credits are pending (or the flush timeout /
    /// an idle consumer flushes early), so returning a reaped batch
    /// costs one slot-line write burst instead of one per message. The
    /// target is clamped to a quarter of the slot array so the flow-
    /// control window never collapses. Off by default.
    driver::BatchPolicy batch;

    /// Home the RX slot array on the device socket (writer-homed,
    /// like CC-NIC's RX ring). The CXL.cache preset turns this off:
    /// a Type-1 device caches host memory, it exports none.
    bool deviceHomedRx = true;

    /// Extra latency charged on every device-side slot access burst,
    /// modeling the CXL.cache port/flit overhead relative to a
    /// symmetric CPU interconnect. 0 under the UPI preset.
    sim::Tick devExtraLat = 0;

    sim::Tick wireLat = 0; ///< Loopback wire latency.
    bool loopback = true;  ///< TX loops back to the same queue's RX.

    /// Device heartbeat publish period; also bounds how long engines
    /// park on a slot line before re-checking lifecycle state.
    sim::Tick beatPeriod = sim::fromUs(2.0);

    /// Flat device-reset latency (slot teardown + engine restart).
    sim::Tick resetLat = sim::fromUs(5.0);

    /// obs::SpanTable path label ("pio" / "pio_cxl").
    std::string spanPath = "pio";

    /** Inline payload budget per message slot. */
    std::uint32_t
    inlineBytes() const
    {
        return slotLines * mem::kLineBytes - headerBytes;
    }
};

/** UPI-flavored preset: writer-homed slots, no added port latency. */
Config upiConfig(int num_queues, int host_socket);

/** upiConfig() with platform-calibrated software costs. */
Config upiConfig(int num_queues, int host_socket,
                 const mem::PlatformConfig &plat);

/**
 * CXL.cache-flavored preset: all slots host-homed (the device caches
 * host memory) and devExtraLat models the longer CXL round trip.
 */
Config cxlConfig(int num_queues, int host_socket);

/** cxlConfig() with platform-calibrated software costs. */
Config cxlConfig(int num_queues, int host_socket,
                 const mem::PlatformConfig &plat);

/**
 * A PIO message-register NIC: host-side burst interface plus
 * device-side polling engines, no descriptor ring anywhere.
 */
class PioNic : public driver::NicInterface
{
  public:
    PioNic(sim::Simulator &sim, mem::CoherentSystem &mem_system,
           const Config &config, int host_socket, int nic_socket,
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

    const Config &config() const { return cfg_; }

    /** Slot-state polls (the PIO analogue of ring signal reads). */
    std::uint64_t slotPolls() const { return slotPolls_; }

    /** Slot-state publishes (message and credit flips). */
    std::uint64_t slotWrites() const { return slotWrites_; }

    /** Frames that took the spill (pool-buffer) path. */
    std::uint64_t spills() const { return spills_; }

  private:
    /** Slot ownership state (the credit lives here). */
    enum class SlotState : std::uint8_t
    {
        Free,  ///< Writable by the producer side.
        Ready, ///< Holds a message for the consumer side.
        Taken, ///< Consumer-private: taken, credit flip in flight.
    };

    /** One logical message slot (simulated lines carry the traffic). */
    struct MsgSlot
    {
        SlotState state = SlotState::Free;
        std::uint32_t seq = 0; ///< Publish sequence stamp (0 = blank).
        WirePacket msg;                      ///< Inline message contents.
        driver::PacketBuf *spill = nullptr;  ///< Oversized-frame payload.
    };

    struct Queue : QueueCore
    {
        Queue(sim::Simulator &sim, mem::CoherentSystem &m,
              const Config &cfg, int host_socket, int nic_socket);

        mem::Addr txBase = 0; ///< Host-homed TX slot lines.
        mem::Addr rxBase = 0; ///< RX slot lines (homing per config).
        std::vector<MsgSlot> txSlots;
        std::vector<MsgSlot> rxSlots;

        // Producer/consumer positions (masked by numSlots-1).
        std::uint32_t txProd = 0; ///< Host.
        std::uint32_t txCons = 0; ///< Device.
        std::uint32_t rxProd = 0; ///< Device.
        std::uint32_t rxCons = 0; ///< Host.

        // Publish-sequence counters: each published slot carries the
        // producer's next sequence number; the consumer verifies
        // continuity before trusting slot contents (a torn publish
        // shows a Ready state word with a stale sequence).
        std::uint32_t txSeq = 0;     ///< Host-stamped TX publishes.
        std::uint32_t txSeqSeen = 0; ///< Device-verified TX consumes.
        std::uint32_t rxSeq = 0;     ///< Device-stamped RX publishes.
        std::uint32_t rxSeqSeen = 0; ///< Host-verified RX reaps.

        /// Credit-return coalescing: reaped-but-not-yet-freed slot
        /// indices on the host RX side and the device TX side.
        driver::PublishBatch rxCreditPending;
        driver::PublishBatch txCreditPending;

        /// Per-queue poll child ("pio.slot_polls{queue=N}").
        obs::Counter *polls = nullptr;
    };

    sim::Task devTxTask(int q);
    sim::Task devRxTask(int q);

    /// @name Credit-return coalescing (Fig 16).
    /// @{
    /** Flip every pending host-reaped RX slot back to Free at once. */
    sim::Coro<void> flushRxCredits(int q, bool timeout_flush);
    /** Bounds how long host-side RX credits may sit unflushed. */
    sim::Task rxCreditTimerTask(int q);
    /** Flip every pending device-consumed TX slot back to Free. */
    sim::Coro<void> flushTxCredits(int q, bool idle_flush);
    /// @}

    /** Bytes occupied by one message slot. */
    std::uint32_t
    slotBytes() const
    {
        return cfg_.slotLines * mem::kLineBytes;
    }

    mem::Addr
    txLineOf(const Queue &q, std::uint32_t idx) const
    {
        return q.txBase + static_cast<std::uint64_t>(idx & slotMask_) *
                              slotBytes();
    }

    mem::Addr
    rxLineOf(const Queue &q, std::uint32_t idx) const
    {
        return q.rxBase + static_cast<std::uint64_t>(idx & slotMask_) *
                              slotBytes();
    }

    MsgSlot &
    txSlot(Queue &q, std::uint32_t idx)
    {
        return q.txSlots[idx & slotMask_];
    }

    MsgSlot &
    rxSlot(Queue &q, std::uint32_t idx)
    {
        return q.rxSlots[idx & slotMask_];
    }

    /// @name Slot telemetry (the PIO signaling choke points).
    /// @{
    void
    noteSlotPoll(Queue &q, mem::Addr a)
    {
        slotPolls_++;
        if (q.polls)
            q.polls->inc();
        obs::tracepoint(obs::EventKind::RingSignalRead, "pio.slot",
                        sim_.now(), a);
    }

    void
    noteSlotWrite(mem::Addr a)
    {
        slotWrites_++;
        obs::tracepoint(obs::EventKind::RingSignalWrite, "pio.slot",
                        sim_.now(), a);
    }
    /// @}

    /** Extra per-access-burst device latency (CXL.cache preset). */
    sim::Coro<void>
    devPortDelay()
    {
        if (cfg_.devExtraLat)
            co_await sim_.delay(cfg_.devExtraLat);
        co_return;
    }

    /// @name Lifecycle hooks ("<spanPath>.*" profiler regions).
    /// @{
    void spawnEngines(int q) override;
    std::vector<driver::PacketBuf *> sweepQueue(int q) override;
    void rewindQueue(int q) override;
    void registerProfRegions() override;
    /// @}

    Config cfg_;
    int hostSocket_;
    int nicSocket_;
    std::uint32_t slotMask_ = 0;

    std::vector<std::unique_ptr<Queue>> queues_;

    obs::Counter slotPolls_{"pio.slot_polls"};
    obs::LabeledCounter slotPollsQ_{"pio.slot_polls", "queue"};
    obs::Counter slotWrites_{"pio.slot_writes"};
    obs::Counter rxDelivered_{"pio.rx_delivered"};
    obs::Counter spills_{"pio.spills"};
    obs::Counter creditStalls_{"pio.credit_stalls"};
    obs::Counter rxNoBuf_{"pio.rx_nobuf_drops"};
};

} // namespace ccn::pio

#endif // CCN_PIO_PIO_HH
