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

/// Inline payload budget of a message slot: two cache lines less a
/// 16 B header, which keeps 64 B packets (the paper's small-message
/// workhorse) on the inline path. Larger frames spill.
inline constexpr std::uint32_t kInlineBytes = 2 * mem::kLineBytes - 16;

/** Full configuration of a PioNic instance. */
struct Config
{
    int numQueues = 1;

    /// Message slots per direction per queue (rounded up to a power
    /// of two). Deliberately small: the slot array *is* the flow
    /// control window — a consumed slot's credit returns in its own
    /// metadata, so capacity never needs a separate signal.
    std::uint32_t numSlots = 64;

    driver::MempoolConfig pool;
    driver::CpuCosts hostCosts{};
    driver::CpuCosts nicCosts{};

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

    bool loopback = true; ///< TX loops back to the same queue's RX.

    /// obs::SpanTable path label ("pio" / "pio_cxl").
    std::string spanPath = "pio";
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
    /// Bytes of one message slot: the header and the inline payload.
    static constexpr std::uint32_t kSlotBytes = kInlineBytes + 16;

    /** Slot ownership state (the credit lives here). */
    enum class SlotState : std::uint8_t
    {
        Free,    ///< Writable by the producer side.
        Filling, ///< Producer-private: claimed, publish in flight.
        Ready,   ///< Holds a message for the consumer side.
        Taken,   ///< Consumer-private: taken, credit flip in flight.
    };

    /** One logical message slot (simulated lines carry the traffic). */
    struct MsgSlot
    {
        SlotState state = SlotState::Free;
        std::uint32_t seq = 0; ///< Publish sequence stamp (0 = blank).
        WirePacket msg;                      ///< Inline message contents.
        driver::PacketBuf *spill = nullptr;  ///< Oversized-frame payload.
    };

    /** A message bound to slot @c idx, on its way in or out. */
    struct SlotMsg
    {
        std::uint32_t idx;
        WirePacket msg;
        driver::PacketBuf *spill; ///< Null for inline messages.
    };

    /**
     * One direction of a queue: its slot array and both ends of the
     * slot protocol. TX: the host produces, the device consumes; RX:
     * the other way round.
     */
    struct Channel
    {
        /** Allocates the slot lines on @p home_socket. */
        Channel(mem::CoherentSystem &m, int home_socket,
                std::uint32_t num_slots, mem::AgentId producer,
                mem::AgentId consumer, bool device_produces);

        // Posted-store callbacks hold this channel's address.
        Channel(const Channel &) = delete;
        Channel &operator=(const Channel &) = delete;

        std::vector<MsgSlot> slots;
        mem::Addr base; ///< Slot lines.

        // Positions (masked by the slot count).
        std::uint32_t prod = 0; ///< Next slot the producer claims.
        std::uint32_t cons = 0; ///< Next slot the consumer gathers.

        // Each published slot carries the producer's next sequence
        // number; the consumer verifies continuity before trusting
        // slot contents (a torn publish shows a Ready state word with
        // a stale sequence).
        std::uint32_t seq = 0;     ///< Last stamp published.
        std::uint32_t seqSeen = 0; ///< Last stamp taken.

        /// Credit-return coalescing: taken slots not yet freed.
        driver::PublishBatch credits;

        mem::AgentId producer;
        mem::AgentId consumer;
        bool deviceProduces; ///< RX. TX has the device consuming.

        MsgSlot &
        slot(std::uint32_t idx)
        {
            return slots[idx & (slots.size() - 1)];
        }

        mem::Addr
        lineOf(std::uint32_t idx) const
        {
            return base + static_cast<std::uint64_t>(
                              idx & (slots.size() - 1)) *
                              kSlotBytes;
        }
    };

    struct Queue : QueueCore
    {
        /** Allocates the TX slot lines, then the RX ones. */
        Queue(sim::Simulator &sim, mem::CoherentSystem &m,
              const Config &cfg, int host_socket, int nic_socket);

        Channel tx; ///< Host-homed (writer-homed).
        Channel rx; ///< Homed per Config::deviceHomedRx.

        /// Per-queue poll child ("pio.slot_polls{queue=N}").
        obs::Counter *polls = nullptr;
    };

    sim::Task devTxTask(int q);
    sim::Task devRxTask(int q);

    /// @name The slot protocol, one definition for both directions.
    /// @{
    /**
     * One posted store group publishing @p msgs into their claimed
     * slots: contents, the span's publish stamp, the next sequence
     * number and, last (TSO), the Ready flip. @p spans holds the slot
     * lines and any spilled payloads. Advances prod past the last. A
     * device producer then pays devPortDelay().
     */
    sim::Coro<void> publish(Channel &ch, std::vector<SlotMsg> msgs,
                            std::vector<mem::CoherentSystem::Span> spans);

    /**
     * The Ready slots from cons, up to @p max, stopping at a sequence
     * break (an integrity reject: re-poll after the store lands).
     */
    std::vector<SlotMsg> gather(Channel &ch, int max);

    /** Mark @p msgs Taken; returns their slot lines. */
    std::vector<mem::CoherentSystem::Span>
    take(Channel &ch, const std::vector<SlotMsg> &msgs);

    /**
     * Return the credits of @p msgs: at once, or, coalesced (Fig 16),
     * once enough are pending. A device consumer also flushes when it
     * goes idle, so a stalled producer never waits on a timer.
     */
    sim::Coro<void> credit(int q, Channel &ch,
                           const std::vector<SlotMsg> &msgs);

    /** Return every coalesced credit of @p ch, counted as @p why. */
    sim::Coro<void> flushCredits(int q, Channel &ch, FlushReason why);

    /** The host's RX credits, on the flush timer. */
    sim::Coro<void>
    flushBatch(int q, bool timeout_flush) override
    {
        return flushCredits(q, queues_[q]->rx,
                            timeout_flush ? FlushReason::Timeout
                                          : FlushReason::Full);
    }

    /**
     * One posted burst flipping slots @p idxs of @p ch back to Free. A
     * device consumer then pays devPortDelay().
     */
    sim::Coro<void> returnCredits(Channel &ch,
                                  std::vector<std::uint32_t> idxs);
    /// @}

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
    int burst_ = 0; ///< Device-side processing burst.

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
