/**
 * @file
 * Packet buffer pool over simulated memory.
 *
 * Implements the buffer-management design space of §3.3-3.4:
 *
 *  - Two size classes: MTU-sized large buffers and subdivided small
 *    buffers (a 4KB chunk carved into 32x128B), selected by packet
 *    size when the optimization is on.
 *  - A global free stack whose backing storage lives in simulated
 *    memory (pool metadata accesses are charged like any other memory
 *    traffic), with plain or atomic index updates depending on whether
 *    the pool is shared with the NIC.
 *  - Per-agent recycling stacks that return the most recently freed
 *    buffers first, so a newly allocated buffer is still resident in
 *    the allocating side's cache (the paper's recycling allocator).
 *  - Optional nonsequential fill: the initial free order is strided so
 *    that consecutive allocations are not adjacent in memory, defeating
 *    producer/consumer hardware-prefetch contention.
 */

#ifndef CCN_DRIVER_MEMPOOL_HH
#define CCN_DRIVER_MEMPOOL_HH

#include <cstdint>
#include <deque>
#include <unordered_map>
#include <vector>

#include "driver/packet.hh"
#include "mem/coherence.hh"
#include "obs/obs.hh"
#include "sim/random.hh"
#include "sim/task.hh"

namespace ccn::driver {

/** Registry-backed pool counters ("pool.*", summed across pools). */
struct PoolTelemetry
{
    obs::Counter allocs{"pool.allocs"};  ///< Buffers handed out.
    obs::Counter frees{"pool.frees"};    ///< Buffers returned.
    obs::Counter recycleHits{
        "pool.recycle_hits"};            ///< Served from a recycle stack.
    obs::Counter exhausted{
        "pool.exhausted"};               ///< Burst came up short.
    obs::Gauge leaked{"pool.leaked"};    ///< High-water of buffers
                                         ///< outstanding at audit time.
    /// Per-stripe alloc breakdown: pool.allocs{queue=N}. Stripes map
    /// 1:1 to queues in the standard per-queue deployment.
    obs::LabeledCounter allocsByStripe{"pool.allocs", "queue"};
};

/// Capacity of a small-class buffer (§3.3 small-buffer subdivision).
inline constexpr std::uint32_t kSmallBufBytes = 128;
/// Capacity of each agent's recycling stack (§3.3).
inline constexpr std::uint32_t kRecycleDepth = 128;

/** Pool construction parameters and optimization toggles. */
struct MempoolConfig
{
    std::uint32_t largeBufBytes = 4096;
    std::uint32_t largeCount = 2048;
    std::uint32_t smallCount = 8192;

    bool smallBuffers = true;     ///< §3.3 small-buffer subdivision.
    bool nonSequentialFill = true;///< §3.3 anti-prefetch fill order.
    bool recycleCache = true;     ///< §3.3 per-side recycling stacks.
    bool sharedAccess = false;    ///< §3.4 NIC may alloc/free (atomics).

    int homeSocket = 0;

    /// Partition the global free ring into per-queue stripes (the
    /// standard per-queue mempool deployment); host and NIC agents of
    /// one queue share a stripe (§3.4), but queues do not contend.
    int stripes = 1;
};

/**
 * A packet buffer pool backed by simulated memory.
 */
class Mempool
{
  public:
    Mempool(mem::CoherentSystem &mem_system, const MempoolConfig &config,
            sim::Rng &rng);
    ~Mempool();
    Mempool(const Mempool &) = delete;
    Mempool &operator=(const Mempool &) = delete;

    /**
     * Allocate one buffer suited to @p size_hint bytes, charging pool
     * metadata accesses to @p agent. Returns nullptr when exhausted.
     */
    sim::Coro<PacketBuf *> alloc(mem::AgentId agent,
                                 std::uint32_t size_hint);

    /**
     * Allocate up to @p count buffers of @p size_hint bytes into
     * @p out. Returns the number allocated; metadata access for the
     * burst is amortized (one stack-line touch per 8 pointers).
     */
    sim::Coro<int> allocBurst(mem::AgentId agent, std::uint32_t size_hint,
                              PacketBuf **out, int count,
                              int stripe = 0);

    /** Release one buffer. */
    sim::Coro<void> free(mem::AgentId agent, PacketBuf *buf);

    /** Release a burst of buffers. */
    sim::Coro<void> freeBurst(mem::AgentId agent, PacketBuf **bufs,
                              int count, int stripe = 0);

    const MempoolConfig &config() const { return cfg_; }

    /** Registry-backed counters for this pool. */
    const PoolTelemetry &telemetry() const { return telem_; }

    /** Buffers currently free (global stacks only; for tests). */
    std::size_t freeCount(BufClass cls) const;

    /** Buffers parked in per-agent recycle stacks for @p cls. */
    std::size_t recycledCount(BufClass cls) const;

    /** Buffers neither in a global stack nor a recycle stack. */
    std::size_t outstandingCount(BufClass cls) const;

    /**
     * Teardown leak audit: total buffers outstanding across both
     * classes. Records the result in PoolTelemetry::leaked so leaks
     * surface in registry snapshots; returns the count (0 == clean).
     */
    std::size_t auditLeaks();

    /** Number of distinct buffers of a class. */
    std::size_t
    totalCount(BufClass cls) const
    {
        return cls == BufClass::Small ? smallBufs_.size()
                                      : largeBufs_.size();
    }

  private:
    struct Stripe
    {
        std::deque<std::uint32_t> freeStack; ///< FIFO ring
                                             ///< (rte_ring semantics).
        mem::Addr stackMem = 0; ///< Backing ring in simulated memory.
        mem::Addr indexLine = 0;///< Head index line (atomic if shared).
    };

    struct ClassState
    {
        std::vector<Stripe> stripes;
    };

    /** Per-agent recycling stacks, per class. */
    struct RecycleState
    {
        std::vector<std::uint32_t> stack;
        /// Core-local backing memory (homed on the agent's socket) so
        /// recycle operations never touch shared pool lines.
        mem::Addr localMem = 0;
    };

    /** Lazily create the recycle state for (agent, class). */
    RecycleState &recycleFor(mem::AgentId agent, BufClass cls);

    BufClass classFor(std::uint32_t size_hint) const;
    std::vector<PacketBuf> &bufsOf(BufClass cls);
    ClassState &stateOf(BufClass cls);

    /** Charge the metadata traffic of a global-stack operation. */
    sim::Coro<void> chargeGlobalOp(mem::AgentId agent, BufClass cls,
                                   int stripe, std::uint32_t slot);

    mem::CoherentSystem &mem_;
    MempoolConfig cfg_;
    PoolTelemetry telem_;
    /// Coherence-profiler regions owned by this pool (buffer arenas,
    /// per-stripe metadata, lazily-created recycle stacks).
    std::vector<obs::RegionId> profRegions_;

    std::vector<PacketBuf> largeBufs_;
    std::vector<PacketBuf> smallBufs_;
    ClassState largeState_;
    ClassState smallState_;
    std::unordered_map<std::uint64_t, RecycleState> recycle_;
};

} // namespace ccn::driver

#endif // CCN_DRIVER_MEMPOOL_HH
