/**
 * @file
 * Descriptor ring layouts and register lines.
 *
 * The three layouts studied in §3.2 / Figure 14b:
 *  - Padded: one 16B descriptor per 64B cache line (no thrashing, 75%
 *    space wasted).
 *  - Packed: four 16B descriptors per line, each independently
 *    signaled (E810-equivalent layout; thrashes when producer and
 *    consumer touch the same line concurrently).
 *  - Grouped: CC-NIC's optimized layout — four descriptors plus one
 *    signal per line, written as a unit; a consumer that finds a blank
 *    descriptor mid-group skips to the next line.
 *
 * The ring stores logical slot contents in C++; the simulated lines
 * carry the coherence traffic.
 */

#ifndef CCN_DRIVER_RING_HH
#define CCN_DRIVER_RING_HH

#include <algorithm>
#include <array>
#include <cstdint>
#include <utility>
#include <vector>

#include "driver/packet.hh"
#include "mem/coherence.hh"
#include "sim/time.hh"

namespace ccn::driver {

/** Descriptor ring memory layout (§3.2). */
enum class RingLayout
{
    Padded,  ///< One descriptor per cache line.
    Packed,  ///< Four per line, per-descriptor signals.
    Grouped, ///< Four per line, one signal per line (CC-NIC).
};

/** Signaling mechanism (§3.2 / Figure 14a). */
enum class SignalMode
{
    Inline,   ///< Ready flag inlined in the descriptor line.
    Register, ///< Separate head/tail register lines (PCIe-style).
};

/** Runtime batching mode for signal publication (Fig 16). */
enum class BatchMode
{
    Off,      ///< Publish (and signal) every descriptor immediately.
    Fixed,    ///< Accumulate a fixed B descriptors per publish.
    Adaptive, ///< Grow B under backlog, decay it when flushes go
              ///< sparse (timeout flushes below half occupancy).
};

/**
 * Batched signal publication policy, shared by all three interface
 * families: CcNic batches descriptor+signal stores per ring line,
 * PcieNic coalesces MMIO doorbells, PioNic coalesces slot credit
 * returns. A flush timeout bounds how long a partial batch may hold
 * a packet back, so a lone packet is never stranded.
 */
struct BatchPolicy
{
    BatchMode mode = BatchMode::Off;
    std::uint32_t size = 4;     ///< Target B (Fixed) / starting B.
    std::uint32_t maxSize = 32; ///< Adaptive growth ceiling.
    sim::Tick flushTimeout = sim::fromUs(1.0);

    bool enabled() const { return mode != BatchMode::Off; }

    /**
     * Clamp the target and its ceiling into [1, @p cap] so staged
     * work can never cover more than the ring or slot array holds.
     */
    void
    clampTo(std::uint32_t cap)
    {
        if (!enabled())
            return;
        size = std::min(std::max(1u, size), cap);
        maxSize = std::min(std::max(size, maxSize), cap);
    }
};

/**
 * Accumulator for one producer position's pending publications. The
 * owner stages descriptors (pure bookkeeping: no simulated memory
 * traffic until flush), then takes the whole batch when it reaches
 * the target size, when the flush timeout for the oldest staged
 * entry expires, or when the producer goes idle. Under
 * BatchMode::Adaptive the target grows (x2 up to maxSize) on a full
 * flush with more work backlogged and decays (/2 down to 1) on a
 * timeout flush that caught the batch under half full.
 */
class PublishBatch
{
  public:
    struct Entry
    {
        std::uint32_t idx = 0;
        PacketBuf *buf = nullptr;
        sim::Tick stagedAt = 0;
    };

    explicit PublishBatch(const BatchPolicy &policy = {})
        : policy_(policy), target_(std::max(1u, policy.size))
    {}

    void
    setPolicy(const BatchPolicy &policy)
    {
        policy_ = policy;
        target_ = std::max(1u, policy.size);
    }

    const BatchPolicy &policy() const { return policy_; }

    /** Stage one descriptor for a later flush. */
    void
    stage(std::uint32_t idx, PacketBuf *buf, sim::Tick now)
    {
        if (entries_.empty())
            oldest_ = now;
        entries_.push_back({idx, buf, now});
    }

    bool empty() const { return entries_.empty(); }
    std::uint32_t size() const
    {
        return static_cast<std::uint32_t>(entries_.size());
    }
    std::uint32_t target() const { return target_; }
    bool full() const { return size() >= target_; }

    /** Oldest staged entry has waited past the flush timeout. */
    bool
    timedOut(sim::Tick now) const
    {
        return !entries_.empty() &&
               now - oldest_ >= policy_.flushTimeout;
    }

    /** Stage time of the oldest pending entry (0 when empty). */
    sim::Tick oldestStagedAt() const
    {
        return entries_.empty() ? 0 : oldest_;
    }

    /**
     * Drain the staged batch and update the adaptive target.
     * @p timeout_flush: the flush was forced by the timer (or idle),
     * not by reaching the target. @p backlog: producer work still
     * waiting behind this batch (drives adaptive growth).
     */
    std::vector<Entry>
    take(bool timeout_flush, std::uint32_t backlog = 0)
    {
        if (policy_.mode == BatchMode::Adaptive) {
            if (!timeout_flush && backlog > target_) {
                target_ = std::min(target_ * 2,
                                   std::max(1u, policy_.maxSize));
            } else if (timeout_flush && size() < target_ / 2) {
                target_ = std::max(target_ / 2, 1u);
            }
        }
        return std::exchange(entries_, {});
    }

  private:
    BatchPolicy policy_;
    std::uint32_t target_ = 1;
    sim::Tick oldest_ = 0;
    std::vector<Entry> entries_;
};

/**
 * CRC-32C (Castagnoli) over one 64-bit word, low byte first. The one
 * CRC routine of the datapath: descriptor integrity stamps and the
 * wire FCS (driver::wireFcs) both fold their field words through it,
 * so the same single-bit detection guarantee holds end to end.
 */
inline std::uint32_t
crc32cWord(std::uint32_t crc, std::uint64_t word)
{
    // Byte-at-a-time table for the reflected polynomial 0x82f63b78.
    static constexpr std::array<std::uint32_t, 256> kTable = [] {
        std::array<std::uint32_t, 256> table{};
        for (std::uint32_t i = 0; i < 256; ++i) {
            std::uint32_t c = i;
            for (int b = 0; b < 8; ++b)
                c = (c >> 1) ^ (0x82f63b78u & (~(c & 1u) + 1u));
            table[i] = c;
        }
        return table;
    }();
    for (int i = 0; i < 8; ++i)
        crc = (crc >> 8) ^ kTable[(crc ^ (word >> (i * 8))) & 0xffu];
    return crc;
}

/**
 * A descriptor ring in simulated memory.
 */
class DescRing
{
  public:
    /** One logical descriptor slot. */
    struct Slot
    {
        PacketBuf *buf = nullptr;
        std::uint32_t len = 0;
        std::uint64_t meta = 0;
        bool ready = false; ///< Inline signal state.
        /// @name Integrity stamp (hardened datapath).
        /// @{
        std::uint32_t gen = 0;  ///< Publication generation tag.
        std::uint32_t csum = 0; ///< CRC-32C of fields; 0 = unstamped.
        /// @}
    };

    /**
     * CRC-32C over a slot's logical fields (generation included).
     * Reserves 0 as the "never stamped" sentinel.
     */
    static std::uint32_t
    slotChecksum(const Slot &s)
    {
        std::uint32_t crc = 0xffffffffu;
        crc = crc32cWord(
            crc, static_cast<std::uint64_t>(
                     reinterpret_cast<std::uintptr_t>(s.buf)));
        crc = crc32cWord(crc, (std::uint64_t{s.len} << 32) | s.gen);
        crc = crc32cWord(crc, s.meta);
        crc = ~crc;
        return crc ? crc : 1u;
    }

    /**
     * Round @p n up to the next power of two (minimum 1). Index
     * arithmetic masks with entries-1, so a non-power-of-two ring
     * would silently alias distinct slots onto the same storage.
     */
    static std::uint32_t
    roundUpPow2(std::uint32_t n)
    {
        if (n <= 1)
            return 1;
        --n;
        n |= n >> 1;
        n |= n >> 2;
        n |= n >> 4;
        n |= n >> 8;
        n |= n >> 16;
        return n + 1;
    }

    /**
     * @param mem_system  Memory system for ring storage.
     * @param home_socket Homing (§3.3: writer-homed is optimal).
     * @param entries     Ring size; rounded up to a power of two
     *                    (query entries() for the effective size).
     * @param layout      Cache-line layout.
     */
    DescRing(mem::CoherentSystem &mem_system, int home_socket,
             std::uint32_t entries, RingLayout layout)
        : layout_(layout), entries_(roundUpPow2(entries)),
          mask_(roundUpPow2(entries) - 1), slots_(roundUpPow2(entries)),
          sealed_(roundUpPow2(entries), 0)
    {
        entries = entries_;
        const std::uint32_t bytes_per_entry =
            layout == RingLayout::Padded ? mem::kLineBytes : 16;
        base_ = mem_system.alloc(
            home_socket,
            static_cast<std::uint64_t>(entries) * bytes_per_entry,
            mem::kLineBytes);
    }

    /** Descriptors per cache line under this layout. */
    std::uint32_t
    perLine() const
    {
        return layout_ == RingLayout::Padded ? 1 : 4;
    }

    /** Line address holding descriptor @p idx. */
    mem::Addr
    lineOf(std::uint32_t idx) const
    {
        const std::uint32_t i = idx & mask_;
        return layout_ == RingLayout::Padded
                   ? base_ + static_cast<std::uint64_t>(i) *
                                 mem::kLineBytes
                   : base_ + static_cast<std::uint64_t>(i / 4) *
                                 mem::kLineBytes;
    }

    /** Byte address of descriptor @p idx. */
    mem::Addr
    addrOf(std::uint32_t idx) const
    {
        const std::uint32_t i = idx & mask_;
        return layout_ == RingLayout::Padded
                   ? base_ + static_cast<std::uint64_t>(i) *
                                 mem::kLineBytes
                   : base_ + static_cast<std::uint64_t>(i) * 16;
    }

    Slot &slot(std::uint32_t idx) { return slots_[idx & mask_]; }
    const Slot &slot(std::uint32_t idx) const
    {
        return slots_[idx & mask_];
    }

    /// @name Descriptor integrity (generation tag + checksum).
    ///
    /// Producers stamp each slot at publication; consumers verify
    /// before trusting the content. A verification miss means the
    /// slot is torn, corrupt, or recycled mid-read — the consumer
    /// rejects it and re-polls (localized retry, escalation stage 1).
    /// @{

    /** Stamp generation + checksum on slot @p idx at publication. */
    void
    stampSlot(std::uint32_t idx)
    {
        Slot &s = slots_[idx & mask_];
        s.gen = ++genSeq_;
        s.csum = slotChecksum(s);
    }

    /** Recompute-and-compare; false = torn/corrupt descriptor. */
    bool
    slotValid(std::uint32_t idx) const
    {
        const Slot &s = slots_[idx & mask_];
        return s.csum != 0 && s.csum == slotChecksum(s);
    }

    /** Drop the stamp when a slot is blanked/recycled. */
    void
    clearStamp(std::uint32_t idx)
    {
        Slot &s = slots_[idx & mask_];
        s.gen = 0;
        s.csum = 0;
    }
    /// @}

    std::uint32_t entries() const { return entries_; }
    std::uint32_t mask() const { return mask_; }
    RingLayout layout() const { return layout_; }

    /// @name Backing storage extent (coherence-region registration).
    /// @{
    mem::Addr base() const { return base_; }
    std::uint64_t
    bytes() const
    {
        const std::uint32_t per_entry =
            layout_ == RingLayout::Padded ? mem::kLineBytes : 16;
        return static_cast<std::uint64_t>(entries_) * per_entry;
    }
    /// @}

    /** First index of the descriptor group containing @p idx. */
    std::uint32_t
    groupBase(std::uint32_t idx) const
    {
        return idx & ~(perLine() - 1);
    }

    /// @name Sealed groups (Grouped layout).
    ///
    /// A producer that abandons the tail of a group (skipping to the
    /// next line boundary) seals the line: blanks after the seal are
    /// permanent, and a consumer finding one may skip to the next
    /// group. Under batched publication a partially filled group is
    /// instead a *legal published state* — the line stays unsealed
    /// and a later flush continues mid-group — so a consumer must
    /// only skip blanks on sealed lines, never on open ones
    /// (otherwise it leaps over descriptors the next flush writes).
    /// Seals are cleared when the consumer's clear publication
    /// recycles the line, and by reset().
    /// @{
    void sealLine(std::uint32_t idx) { sealedAt(idx) = 1; }
    void clearSeal(std::uint32_t idx) { sealedAt(idx) = 0; }
    bool
    lineSealed(std::uint32_t idx) const
    {
        return sealed_[(idx & mask_) / perLine()] != 0;
    }
    void
    clearAllSeals()
    {
        std::fill(sealed_.begin(), sealed_.end(), 0);
    }
    /// @}

  private:
    std::uint8_t &
    sealedAt(std::uint32_t idx)
    {
        return sealed_[(idx & mask_) / perLine()];
    }

    RingLayout layout_;
    std::uint32_t entries_;
    std::uint32_t mask_;
    mem::Addr base_ = 0;
    std::vector<Slot> slots_;
    std::vector<std::uint8_t> sealed_;
    std::uint32_t genSeq_ = 0; ///< Monotonic publication generation.
};

/**
 * A 64-bit register on its own cache line (PCIe-style head/tail
 * signaling over coherent memory, the paper's "unoptimized" baseline).
 */
class RegisterLine
{
  public:
    RegisterLine(mem::CoherentSystem &mem_system, int home_socket)
        : addr_(mem_system.alloc(home_socket, mem::kLineBytes,
                                 mem::kLineBytes))
    {}

    mem::Addr addr() const { return addr_; }

    std::uint64_t value() const { return value_; }

    /** Publish a new value (call after the store completes). */
    void publish(std::uint64_t v) { value_ = v; }

  private:
    mem::Addr addr_;
    std::uint64_t value_ = 0;
};

} // namespace ccn::driver

#endif // CCN_DRIVER_RING_HH
