/**
 * @file
 * Line-granular coherence contention profiler (perf-c2c style).
 *
 * Every design lesson in the paper — writer-homed metadata (§3.3),
 * packed signal layouts (§3.2), two-way single-line communication
 * (Fig 8), nonsequential pool fill (§3.3) — was derived by attributing
 * interconnect traffic to specific data structures. The aggregate
 * per-agent counters (mem.remote_reads / mem.remote_rfos) say *how
 * much* traffic crossed the link; this profiler says *which line of
 * which ring / signal / pool stripe* generated it.
 *
 * Three pieces:
 *
 *  - A named **address-region registry**. Structure owners (CcNic
 *    rings and signal lines, PcieNic rings, PIO slot arrays, mempool
 *    stripes, heartbeat lines, app tables) register their simulated
 *    address ranges under symbolic names ("ccnic.tx_ring[q0]",
 *    "pool.stripe3") at init, unregister at teardown, and re-register
 *    across watchdog hot-reset. Registration is always active and
 *    costs nothing per event; overlapping ranges are rejected.
 *
 *  - **Per-line accounting** of remote reads, RFOs, invalidations,
 *    migratory handoffs and interconnect bytes, fed by
 *    mem::CoherentSystem at the same choke points that drive the
 *    Figure 17 counters. A windowed ping-pong detector counts
 *    requester alternations per line; lines whose peak flip rate
 *    crosses the threshold are classified as the *intended* two-way
 *    pattern (region registered with RegionIntent::TwoWay), accidental
 *    thrash on a single-writer region, or false sharing between
 *    distinct regions landing on one line.
 *
 *  - A **process-wide ledger** (the Registry retire-on-destruction
 *    idiom): profilers fold their tables into static storage when
 *    their CoherentSystem dies, so benches that build one World per
 *    sweep point still report everything in the final JSON snapshot
 *    ("coherence" / "coherence_hotlines" / "coherence_matrix"
 *    sections; tools/c2c_report.py renders them).
 *
 * Event hooks add NO simulated latency or protocol state — enabling
 * the profiler leaves every simulation result bit-identical. When
 * disabled (the default), the memory system pays one predictable
 * branch per hook site.
 */

#ifndef CCN_OBS_COHERENCE_PROFILER_HH
#define CCN_OBS_COHERENCE_PROFILER_HH

#include <cstdint>
#include <map>
#include <string>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "mem/addr.hh"
#include "sim/time.hh"
#include "stats/table.hh"

namespace ccn::obs {

/** Declared sharing pattern of a registered region. */
enum class RegionIntent : std::uint8_t
{
    /**
     * One side owns the line(s); the other should rarely touch them.
     * Sustained ownership alternation on an Owned region is a bug
     * (the fig14 "signal-per-descriptor" thrash).
     */
    Owned,
    /**
     * Two-way single-line communication by design: signal lines,
     * head/tail registers, heartbeat lines, grouped descriptor+signal
     * lines (Fig 8). Alternation here is the intended pattern.
     */
    TwoWay,
};

/** Intent label as reported ("owned" / "two_way"). */
const char *regionIntentName(RegionIntent intent);

/** Handle for unregistering a region. */
using RegionId = std::uint64_t;

/**
 * One memory system's coherence contention profiler. Owned by
 * mem::CoherentSystem; see the file comment for the architecture.
 */
class CoherenceProfiler
{
  public:
    CoherenceProfiler();
    ~CoherenceProfiler();
    CoherenceProfiler(const CoherenceProfiler &) = delete;
    CoherenceProfiler &operator=(const CoherenceProfiler &) = delete;

    /// @name Region registry (always active).
    /// @{
    /**
     * Register [base, base+bytes) as @p name. Ranges must not overlap
     * an existing region (throws std::invalid_argument); the same
     * *name* may cover several disjoint ranges (a stripe's stack and
     * index line both report as "pool.stripeN").
     */
    RegionId registerRegion(const std::string &name, mem::Addr base,
                            std::uint64_t bytes, RegionIntent intent);

    /** Remove a region; unknown ids are ignored (idempotent). */
    void unregisterRegion(RegionId id);

    /** Live registered ranges (leak check across hot-reset). */
    std::size_t regionCount() const { return regions_.size(); }
    /// @}

    /// @name Enablement.
    /// @{
    void enable(bool on) { enabled_ = on; }
    bool enabled() const { return enabled_; }

    /**
     * Default enable state applied by each CoherentSystem at
     * construction — how `--profile-coherence` / `profile coherence;`
     * reach worlds built behind factory functions.
     */
    static void setDefaultEnabled(bool on);
    static bool defaultEnabled();
    /// @}

    /// @name Ping-pong detector knobs (tests tighten these).
    /// @{
    /** Alternation-counting window (default 5µs). */
    void setWindow(sim::Tick w) { window_ = w ? w : 1; }
    /** Peak flips within one window that flag a line (default 8). */
    void setFlipThreshold(std::uint32_t n) { flipThreshold_ = n; }
    sim::Tick window() const { return window_; }
    std::uint32_t flipThreshold() const { return flipThreshold_; }
    /// @}

    /// @name Event hooks.
    /// Called by mem::CoherentSystem behind the enabled() guard;
    /// tests drive synthetic traces through them directly. supplier
    /// is the agent whose cache forwarded the data, or -1 when the
    /// line came from home memory / a remote LLC.
    /// @{
    void noteRemoteRead(mem::Addr line, int requester, int supplier,
                        std::uint32_t bytes, sim::Tick now);
    void noteRemoteRfo(mem::Addr line, int requester, int supplier,
                       std::uint32_t bytes, sim::Tick now);
    void noteInvalidation(mem::Addr line, sim::Tick now);
    void noteMigratory(mem::Addr line, int new_owner, int prev_owner,
                       sim::Tick now);
    /// @}

    /** Distinct lines with recorded traffic (tests; 0 when disabled). */
    std::size_t lineCount() const { return lines_.size(); }

    /**
     * Flagged ping-pong class of @p line: "" (not flagged),
     * "two_way", "thrash", or "false_sharing".
     */
    std::string lineClass(mem::Addr line) const;

    /** Region name @p line currently resolves to ("unknown" if none). */
    std::string lineRegion(mem::Addr line) const;

    /// @name Process-wide snapshot (live profilers + retired ledger).
    /// @{
    /**
     * Per-region rollup: region, intent, lines, remote_reads,
     * remote_rfos, invalidations, migratory, bytes, pingpong_lines.
     * Unattributed traffic appears under the explicit "unknown" row.
     */
    static stats::Table regionTable();

    /**
     * The perf-c2c style hot-line table, ordered by remote traffic:
     * rank, region, offset, remote_reads, remote_rfos, invalidations,
     * migratory, bytes, flips, peak_window_flips, class.
     */
    static stats::Table hotLineTable(std::size_t top_n = 32);

    /** Per-region traffic matrix by (requester, supplier) agent pair. */
    static stats::Table matrixTable();

    /** Fraction of remote reads+RFOs resolved to a named region. */
    static double attributedFraction();

    /** Drop all retired data and zero live profilers (run isolation). */
    static void clearLedger();
    /// @}

  private:
    static constexpr int kNoAgent = -2;

    // Process-wide ledger plumbing (defined in the .cc).
    struct Ledger;
    struct RegionAgg;
    struct HotLine;

    struct Region
    {
        int nameIdx = 0;
        mem::Addr base = 0;
        std::uint64_t bytes = 0;
        RegionIntent intent = RegionIntent::Owned;
        RegionId id = 0;
    };

    /** Accounting + detector state for one 64B line. */
    struct LineStats
    {
        // Attribution, re-resolved when the registry changes.
        std::uint64_t regionGen = 0;
        int nameIdx = 0;
        mem::Addr regionBase = 0;
        RegionIntent intent = RegionIntent::Owned;
        bool multiRegion = false;

        std::uint64_t remoteReads = 0;
        std::uint64_t remoteRfos = 0;
        std::uint64_t invalidations = 0;
        std::uint64_t migratory = 0;
        std::uint64_t bytes = 0;

        // Ping-pong detector: requester alternations, windowed.
        int lastRequester = kNoAgent;
        std::uint64_t flips = 0;
        sim::Tick windowStart = 0;
        std::uint32_t windowFlips = 0;
        std::uint32_t peakWindowFlips = 0;
    };

    struct MatrixCell
    {
        std::uint64_t reads = 0;
        std::uint64_t rfos = 0;
        std::uint64_t bytes = 0;
    };

    /** (nameIdx, requester, supplier) matrix key. */
    using MatrixKey = std::tuple<int, int, int>;

    LineStats &statsFor(mem::Addr line);
    void resolveRegion(mem::Addr line, LineStats &ls) const;
    void noteAlternation(LineStats &ls, int requester, sim::Tick now);
    const char *classify(const LineStats &ls) const;

    /** Non-destructively merge this profiler's tables into @p out. */
    void collectInto(std::map<int, RegionAgg> &regions,
                     std::vector<HotLine> &hot,
                     std::map<MatrixKey, MatrixCell> &matrix) const;

    /** Fold this profiler's tables into the retired ledger. */
    void fold();
    void clearLocal();

    bool enabled_ = false;
    sim::Tick window_ = 5 * sim::kMicrosecond;
    std::uint32_t flipThreshold_ = 8;

    // Registry: keyed by range base; overlap checked on insert.
    std::map<mem::Addr, Region> regions_;
    std::unordered_map<RegionId, mem::Addr> idToBase_;
    std::uint64_t regionGen_ = 1;
    RegionId nextId_ = 1;

    std::unordered_map<mem::Addr, LineStats> lines_;
    std::map<MatrixKey, MatrixCell> matrix_;
};

} // namespace ccn::obs

#endif // CCN_OBS_COHERENCE_PROFILER_HH
