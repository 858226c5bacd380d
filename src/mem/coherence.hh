/**
 * @file
 * The cache-coherent two-socket memory system.
 *
 * This is the substrate the paper's CC-NIC design runs on: a
 * directory-based MESIF-style coherence model across two sockets, each
 * with per-core private L2 caches, a shared LLC, and local DRAM,
 * connected by bandwidth-queued UPI links.
 *
 * The model is access-accurate: every demand load, store (RFO /
 * upgrade), nontemporal store, flush, atomic, DMA and DDIO access walks
 * the protocol, mutating line states, reserving link/DRAM occupancy,
 * and accumulating per-agent offcore counters (remote READ / RFO, the
 * quantities reported in the paper's Figure 17). Latencies are composed
 * from platform parameters calibrated to the paper's Figure 7/8/9
 * microbenchmarks.
 *
 * Polling is modeled the way coherent hardware actually behaves: a
 * consumer that has a line cached spins locally for free and is woken
 * by the invalidation the producer's write generates
 * (waitLineChange()), which is exactly the signaling property CC-NIC
 * exploits (§3.2).
 */

#ifndef CCN_MEM_COHERENCE_HH
#define CCN_MEM_COHERENCE_HH

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "mem/addr.hh"
#include "mem/cache.hh"
#include "mem/platform.hh"
#include "obs/coherence_profiler.hh"
#include "obs/obs.hh"
#include "sim/simulator.hh"
#include "sim/sync.hh"
#include "sim/task.hh"

namespace ccn::mem {

/** Identifies one hardware thread context (core) in the system. */
using AgentId = int;

/**
 * System-wide coherence telemetry (registry-backed, "mem.*"). Unlike
 * the per-agent AgentCounters — which benches reset between sweep
 * points — these accumulate for the life of the memory system and
 * feed the process-wide obs::Registry snapshot.
 */
struct CoherenceTelemetry
{
    obs::Counter remoteReads{
        "mem.remote_reads"};  ///< Demand reads served cross-socket.
    obs::Counter remoteRfos{
        "mem.remote_rfos"};   ///< Ownership transfers cross-socket.
    obs::Counter migratoryHandoffs{
        "mem.migratory_handoffs"}; ///< Dirty-ownership read grants.
    obs::Counter llcHits{"mem.llc_hits"};     ///< Local LLC data hits.
    obs::Counter dramReads{"mem.dram_reads"}; ///< Lines from memory.
    obs::Counter invalidations{
        "mem.invalidations"}; ///< Copies killed by writes/DDIO.
    obs::Counter ddioWrites{
        "mem.ddio_writes"};   ///< Device lines allocated into LLC.

    /// @name Fault-injection telemetry (memory chaos).
    /// @{
    obs::Counter poisonInjected{
        "mem.poison_injected"};   ///< Lines poisoned by the harness.
    obs::Counter poisonReads{
        "mem.poison_reads"};      ///< Reads that observed poison.
    obs::Counter tornInjected{
        "mem.torn_injected"};     ///< Torn-visibility windows opened.
    obs::Counter tornStaleReads{
        "mem.torn_stale_reads"};  ///< Reads that saw a torn line.
    obs::Counter stuckInjected{
        "mem.stuck_injected"};    ///< Stuck-invalidation windows.
    obs::Counter brownouts{
        "mem.brownouts"};         ///< Brownout windows opened.
    obs::Counter brownoutStretchedOps{
        "mem.brownout_stretched_ops"}; ///< Ops stretched by brownouts.
    /// @}
};

/** Per-agent access statistics (offcore-response-style counters). */
struct AgentCounters
{
    std::uint64_t loads = 0;
    std::uint64_t stores = 0;
    std::uint64_t l2Hits = 0;
    std::uint64_t l2Misses = 0;
    std::uint64_t llcHits = 0;
    std::uint64_t dramReads = 0;
    std::uint64_t remoteReads = 0; ///< Demand cross-socket reads.
    std::uint64_t remoteRfos = 0;  ///< Demand cross-socket RFOs.
    std::uint64_t prefetchIssued = 0;
    std::uint64_t prefetchRemote = 0;

    void
    reset()
    {
        *this = AgentCounters{};
    }
};

/**
 * Two-socket coherent memory system model.
 */
class CoherentSystem
{
  public:
    CoherentSystem(sim::Simulator &sim, const PlatformConfig &config);

    /** Register an agent (core context) on @p socket. */
    AgentId addAgent(int socket);

    int agentSocket(AgentId a) const { return agents_[a].socket; }
    int numAgents() const { return static_cast<int>(agents_.size()); }

    /**
     * Allocate @p bytes of simulated memory homed on @p home_socket.
     * @param align Alignment, at least a cache line for shared
     *              structures.
     */
    Addr alloc(int home_socket, std::uint64_t bytes,
               std::uint64_t align = kLineBytes);

    /// @name Demand operations (awaitable; charge full latency).
    /// @{
    sim::Coro<void> load(AgentId a, Addr addr, std::uint32_t bytes);
    sim::Coro<void> store(AgentId a, Addr addr, std::uint32_t bytes);
    sim::Coro<void> atomicRmw(AgentId a, Addr addr);
    sim::Coro<void> flush(AgentId a, Addr addr, std::uint32_t bytes);
    /// @}

    /// @name Range operations with MSHR-limited overlap.
    /// Model a core issuing back-to-back line accesses with up to
    /// mshrsPerCore misses in flight (loads/stores, posted stores) or
    /// max(4, wcBuffers / 3) nontemporal stores.
    /// @{
    sim::Coro<void> loadRange(AgentId a, Addr addr, std::uint64_t bytes);
    sim::Coro<void> storeRange(AgentId a, Addr addr, std::uint64_t bytes);
    sim::Coro<void> ntStoreRange(AgentId a, Addr addr,
                                 std::uint64_t bytes);

    /** A contiguous byte span for multi-span accesses. */
    struct Span
    {
        Addr addr;
        std::uint32_t bytes;
    };

    /**
     * Access several spans with the same MSHR-overlap pipelining as a
     * single range; models an out-of-order core streaming through a
     * burst of packet payloads or descriptor lines.
     */
    sim::Coro<void> accessMulti(AgentId a, const std::vector<Span> &spans,
                                bool write);

    /**
     * Posted (store-buffer) write of several spans: the coherence
     * walks are charged immediately and the call returns once the
     * stores are admitted to the store buffer (bounded by
     * storeBufDepth lines), while @p on_complete runs at global
     * visibility. This models a core retiring stores without stalling;
     * logical state guarded by the write must be published in the
     * callback.
     */
    sim::Coro<void> postMulti(AgentId a, const std::vector<Span> &spans,
                              std::function<void()> on_complete);

    /**
     * Fire-and-forget demand read of one line (a driver's ring
     * capacity-check / read-ahead). Under migratory sharing this
     * grants ownership ahead of the next write, turning the producer's
     * descriptor stores into local hits — the reason CC-NIC's batched
     * profile is read-dominated (Figure 17).
     */
    void touchLine(AgentId a, Addr line);
    /// @}

    /// @name Coherence-based signaling.
    /// @{
    /** Current modification version of @p line. */
    std::uint32_t lineVersion(Addr line);

    /**
     * Suspend until the version of @p line differs from
     * @p seen_version. Models local polling on a cached copy: free
     * until the producer's write invalidates it.
     */
    sim::Coro<void> waitLineChange(Addr line, std::uint32_t seen_version);

    /**
     * As waitLineChange(), but give up at @p deadline. Used by polling
     * loops that must also wake for timed work (paced transmission).
     */
    sim::Coro<void> waitLineChangeUntil(Addr line,
                                        std::uint32_t seen_version,
                                        sim::Tick deadline);
    /// @}

    /// @name Fault injection (memory-chaos harness; §RAS).
    /// Seeded schedules (workload::ChaosSchedule) call the inject
    /// methods; hardened drivers consult the range queries before
    /// trusting descriptor contents. All checks behind a single
    /// armed flag so an un-chaosed run pays one predictable branch.
    /// @{
    /**
     * Poison @p line (CXL-style): any read of the line within the
     * next @p hold ticks observes a poison indication instead of
     * data. Clears itself when the window expires.
     */
    void injectPoison(Addr line, sim::Tick hold);

    /**
     * Torn visibility: @p line appears published but carries stale
     * content for @p hold ticks — a consumer that validates
     * (generation/checksum) must reject it until the window closes.
     */
    void injectTorn(Addr line, sim::Tick hold);

    /**
     * Stuck line: the invalidation/notification for @p line is
     * delayed by @p hold ticks. Pollers keep observing the stale
     * version; gate wakeups are deferred past the window.
     */
    void injectStuck(Addr line, sim::Tick hold);

    /**
     * Interconnect brownout: every coherence op issued by agent
     * @p a is stretched by @p factor for the next @p hold ticks.
     */
    void injectBrownout(AgentId a, double factor, sim::Tick hold);

    /**
     * True if a read of [addr, addr+bytes) would observe poison
     * right now. Counts the observation (mem.poison_reads).
     */
    bool rangePoisoned(Addr addr, std::uint32_t bytes);

    /**
     * True if [addr, addr+bytes) currently presents a stale view
     * (torn content or a stuck invalidation). Hardened consumers
     * treat such slots as not-yet-ready.
     */
    bool rangeStale(Addr addr, std::uint32_t bytes);

    /** Any fault primitive ever armed on this system. */
    bool faultsArmed() const { return faultsArmed_; }
    /// @}

    /// @name Device-side (PCIe DMA / DDIO) paths.
    /// These are used by the PCIe model; they interact with coherence
    /// (invalidation, LLC allocation) but are initiated by the IIO
    /// agent of @p socket rather than a core.
    /// @{
    /** DDIO write: invalidate core copies, allocate into socket LLC. */
    sim::Tick ddioWrite(int socket, Addr addr, std::uint32_t bytes,
                        sim::Tick start);
    /** DMA read from LLC/caches/DRAM of the coherent domain. */
    sim::Tick dmaRead(int socket, Addr addr, std::uint32_t bytes,
                      sim::Tick start);
    /// @}

    /// @name Knobs.
    /// @{
    /** Enable/disable the hardware prefetcher on one socket (Fig 20). */
    void setPrefetch(int socket, bool enabled);

    /**
     * Scale cross-socket (uncore) performance: latency components are
     * multiplied by @p lat_factor, link bandwidth by @p bw_factor.
     * Models the paper's uncore-downclocking sensitivity study
     * (Fig 21).
     */
    void scaleRemotePerf(double lat_factor, double bw_factor);
    /// @}

    /// @name Stats.
    /// @{
    AgentCounters &counters(AgentId a) { return agents_[a].counters; }
    const AgentCounters &counters(AgentId a) const
    {
        return agents_[a].counters;
    }

    /** Total data bytes carried into @p socket over UPI. */
    std::uint64_t upiBytesInto(int socket) const;

    /** System-wide registry-backed coherence counters. */
    const CoherenceTelemetry &telemetry() const { return telem_; }

    /**
     * Line-granular contention profiler. Structure owners register
     * their address regions here; the protocol walk feeds it remote
     * reads/RFOs/invalidations/migratory handoffs when enabled
     * (obs::CoherenceProfiler::defaultEnabled() at construction).
     */
    obs::CoherenceProfiler &profiler() { return prof_; }
    const obs::CoherenceProfiler &profiler() const { return prof_; }

    void resetStats();
    /// @}

    /** Invalidate all caches (between experiment repetitions). */
    void dropCaches();

    /**
     * Test hook: check the directory against the caches and return one
     * message per violation (empty when they agree). Every valid L2
     * copy must be covered by the line's owner or sharers; an E or M
     * copy must be at the owner, with no other L2 or LLC holding the
     * line; every LLC copy must be in llcMask, llcMask / llcDirty
     * may name only an LLC that holds the line, and at most one LLC
     * may hold it.
     */
    std::vector<std::string> auditDirectory() const;

    const PlatformConfig &config() const { return cfg_; }
    sim::Simulator &simulator() { return sim_; }

  private:
    struct Agent
    {
        int socket;
        AgentCounters counters;
        // Stream-prefetch detector state.
        Addr lastMissLine = 0;
        int missStreak = 0;
        // Posted-store completion times (store-buffer occupancy).
        std::deque<sim::Tick> posted;
        // Publish horizon: posted writes become visible in program
        // order (TSO retire order).
        sim::Tick lastPostedPublish = 0;
    };

    /** Sharer set over up to 128 L2 caches. */
    struct SharerSet
    {
        std::uint64_t w[2] = {0, 0};

        void set(int i) { w[i >> 6] |= std::uint64_t{1} << (i & 63); }
        void clear(int i) { w[i >> 6] &= ~(std::uint64_t{1} << (i & 63)); }
        bool test(int i) const
        {
            return (w[i >> 6] >> (i & 63)) & 1;
        }
        bool any() const { return (w[0] | w[1]) != 0; }
        void reset() { w[0] = w[1] = 0; }
    };

    /** Global directory entry for one line. */
    struct LineDir
    {
        std::int16_t owner = -1;      ///< L2 (agent) holding E/M.
        std::int16_t lastWriter = -1; ///< Most recent writing agent.
        SharerSet sharers;       ///< L2s holding S copies (may be stale).
        std::uint8_t llcMask = 0;  ///< LLCs (sockets) holding a copy.
        std::uint8_t llcDirty = 0; ///< The dirty ones: the only record.
        /**
         * Adaptive migratory-sharing detection (the HitME-style
         * optimization of real UPI home agents): when a line exhibits
         * the read-then-write handoff pattern, read misses to a
         * Modified copy transfer ownership (dirty-Exclusive grant)
         * instead of downgrading to Shared, so the next write is a
         * local hit. This is what makes co-located two-way signaling
         * lines cost 2 (not 4) remote requests per exchange (Fig 8).
         */
        bool migratory = false;
        std::uint32_t version = 0;
        /**
         * Per-line transaction serialization: the home agent services
         * one coherence transaction per line at a time, so a reload
         * triggered by an in-flight write's invalidation cannot
         * complete before that write does.
         */
        sim::Tick busyUntil = 0;
        /**
         * Completion of the most recent write transaction; used by
         * waitLineChange() to close the lost-wakeup window without
         * waking pollers on mere read transfers.
         */
        sim::Tick writeBusyUntil = 0;
        /** Pollers of this line; created by the first wait. */
        std::unique_ptr<sim::Gate> gate;
    };

    /// @name The line directory.
    /// Each 4 KB page maps, through a power-of-two open-addressing
    /// index, to a table of its 64 lines' entries. The tables hold
    /// pointers, not entries, so a page with a few live lines costs
    /// 512 B; the entries themselves live in one deque.
    /// @{
    static constexpr Addr kDirPageBytes = 4096;
    using DirPage = std::array<LineDir *, kDirPageBytes / kLineBytes>;

    /** One page-index slot; empty while @p lines is null. */
    struct PageSlot
    {
        Addr page = 0;
        DirPage *lines = nullptr;
    };

    /**
     * The directory entry of @p line, created on first use. Entries
     * never move, so a walk may hold one across the nested lookups of
     * its victim handling.
     */
    LineDir &dirOf(Addr line);

    /** The line table of page number @p page, created on first use. */
    DirPage &dirPage(Addr page);
    /// @}

    /** The lines a walk covers: [addr, addr + bytes), or @p spans. */
    struct Lines
    {
        Addr addr = 0;
        std::uint64_t bytes = 0;
        const std::vector<Span> *spans = nullptr;

        /**
         * Call fn(line) for every line in address order. A range of 0
         * bytes covers the line at @p addr; an empty span covers none.
         */
        template <typename Fn>
        void forEach(Fn &&fn) const;
    };

    /**
     * The pipelined walk every range operation runs on: issue the
     * lines in order from now with at most @p depth in flight;
     * step(line, issue) walks one line and returns its completion.
     * Returns the last completion (now if no line was issued).
     */
    template <typename Step>
    sim::Tick pipelined(const Lines &lines, int depth, Step &&step);

    /** load() and store(): every line issued at now. */
    sim::Coro<void> access(AgentId a, Addr addr, std::uint32_t bytes,
                           bool write);

    /** loadRange(), storeRange() and accessMulti(). */
    sim::Coro<void> accessRange(AgentId a, Lines lines, bool write);

    /**
     * Publish-at-end: a multi-line write's logical state is visible
     * only once all of it completes at @p done, so pollers woken by
     * one line's completion re-wait until then.
     */
    void publishAt(const Lines &lines, sim::Tick done);

    /**
     * Single-line access entry point: applies an active brownout
     * stretch around the protocol walk when faults are armed.
     */
    sim::Tick walkLine(AgentId a, Addr line, bool write, sim::Tick start,
                       bool prefetch);

    /** Internal result of a single-line protocol walk. */
    sim::Tick walkLineProtocol(AgentId a, Addr line, bool write,
                               sim::Tick start, bool prefetch);

    /**
     * Write-completion bookkeeping: pending-write horizon, version
     * bump and waiter wakeup at @p when.
     */
    void bumpVersion(LineDir &d, Addr line, sim::Tick when);

    /**
     * Count one cross-socket transfer (Figure 17): a demand RFO
     * (@p write) or read that moved @p bytes from @p supplier (-1 for
     * home/LLC), traced as @p what unless null. A prefetch counts
     * only as prefetchRemote.
     */
    void noteRemote(AgentId a, Addr line, bool write, bool prefetch,
                    int supplier, std::uint32_t bytes, sim::Tick t,
                    const char *what);

    /** Update migratory-pattern detection on a write by @p a. */
    void noteWriter(LineDir &d, AgentId a);

    /** One-way link transfer into @p to_socket; returns arrival tick. */
    sim::Tick linkXfer(int to_socket, std::uint32_t bytes, sim::Tick t);

    /** DRAM access on @p socket; returns data-available tick. */
    sim::Tick dramAccess(int socket, std::uint32_t bytes, sim::Tick t);

    /// @name The timed legs of a line walk.
    /// Each reserves the links and DRAM its messages use, in the order
    /// they travel, for a requester on socket @p s whose clock reads
    /// @p t, and returns the tick its reply (data or ack) arrives.
    /// @{
    /**
     * Forward from an L2 on socket @p os: a local snoop, or the request
     * leg (skipped by a @p queued read, which starts at @p start), the
     * remote snoop and the data leg; plus the speculative memory read,
     * reserved at @p start, when the line is homed on @p s.
     */
    sim::Tick fromL2(int os, int s, int home, bool queued,
                     sim::Tick start, sim::Tick t);

    /** Data from LLC @p k, local or across the link. */
    sim::Tick fromLlc(int k, int s, sim::Tick t);

    /** Data from @p home memory, local or across the link. */
    sim::Tick fromMemory(int home, int s, sim::Tick t);

    /** The invalidate/ack round trip to the other socket. */
    sim::Tick invalRoundTrip(int s, sim::Tick t);

    /**
     * Write dirty @p line back from socket @p from to its home memory
     * at @p t: bandwidth only, off any requester's critical path.
     */
    void writeBack(Addr line, int from, sim::Tick t);
    /// @}

    /** Install a line into an L2, handling the eviction chain. */
    void installL2(AgentId a, Addr line, LineState state, bool dirty,
                   sim::Tick ready_at);

    /** Handle an L2 victim: writeback/allocate into the local LLC. */
    void handleL2Eviction(AgentId a, const Eviction &ev);

    /** Insert into a socket LLC, handling dirty victim writeback. */
    void insertLlc(int socket, Addr line, bool dirty);

    /** Invalidate every cached copy except @p except_agent's L2. */
    struct InvalResult
    {
        bool anyLocal = false;   ///< L2 copies on the requester's socket.
        bool anyRemote = false;  ///< L2 copies on the other socket.
        bool llcLocal = false;   ///< LLC copy on the requester's socket.
        bool llcRemote = false;  ///< LLC copy on the other socket.
        bool dirtyFound = false; ///< A dirty copy existed.
        int dirtyOwner = -1;     ///< L2 that held E/M, or -1.
    };
    InvalResult invalidateCopies(LineDir &d, Addr line, int req_socket,
                                 AgentId except_agent);

    /** Trigger the streaming prefetcher after a demand miss. */
    void maybePrefetch(AgentId a, Addr miss_line, sim::Tick start);

    sim::Gate &gateFor(LineDir &d);

    sim::Simulator &sim_;
    PlatformConfig cfg_;
    CoherenceTelemetry telem_;
    obs::CoherenceProfiler prof_;

    std::vector<Agent> agents_;
    std::vector<SetAssocCache> l2_;  // Indexed by agent.
    // Indexed by socket. Tags only: an LLC copy's state is always
    // Shared, and its dirtiness is the line's llcDirty bit.
    std::vector<SetAssocTags> llc_;
    // upiInto_[s]: link direction carrying traffic into socket s.
    std::vector<sim::CalendarResource> upiInto_;
    std::vector<sim::CalendarResource> dram_;
    std::vector<bool> prefetchOn_;
    std::vector<Addr> allocNext_;

    std::deque<LineDir> dir_;
    std::deque<DirPage> dirPages_;
    std::vector<PageSlot> pageIndex_; ///< Size a power of two.
    Addr lastPage_ = ~Addr{0};        ///< The page dirOf() found last.
    DirPage *lastLines_ = nullptr;    ///< Its line table.

    // ---- Fault-injection state (empty and unchecked until armed) ----
    /** A stuck invalidation: version held stale until the window ends. */
    struct StuckFault
    {
        sim::Tick until = 0;
        std::uint32_t heldVersion = 0;
    };
    /** An agent brownout: ops stretched by factor until the window ends. */
    struct BrownoutFault
    {
        double factor = 1.0;
        sim::Tick until = 0;
    };

    bool faultsArmed_ = false;
    std::unordered_map<Addr, sim::Tick> poisoned_; ///< line -> clear tick
    std::unordered_map<Addr, sim::Tick> torn_;     ///< line -> heal tick
    std::unordered_map<Addr, StuckFault> stuck_;
    std::unordered_map<AgentId, BrownoutFault> brownouts_;
};

} // namespace ccn::mem

#endif // CCN_MEM_COHERENCE_HH
