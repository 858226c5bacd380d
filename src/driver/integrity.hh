/**
 * @file
 * Datapath integrity guard: poison-aware reads with bounded retry.
 *
 * CXL-class interconnects surface line poison and containment events
 * to software instead of machine-checking the host. Each NIC driver
 * owns one IntegrityGuard per device; descriptor consume paths call
 * guardRange() before trusting ring/slot content and staleView() to
 * filter torn or stuck lines. The guard keeps the cumulative
 * retry/fault counts the Watchdog polls to drive escalation
 * (retry -> reset -> fail-over).
 */

#ifndef CCN_DRIVER_INTEGRITY_HH
#define CCN_DRIVER_INTEGRITY_HH

#include <cstdint>

#include "mem/coherence.hh"
#include "obs/obs.hh"
#include "obs/trace.hh"
#include "sim/task.hh"
#include "sim/time.hh"

namespace ccn::driver {

/** Registry-backed integrity telemetry ("driver.integrity_*"). */
struct IntegrityTelemetry
{
    obs::Counter poisonRetries{
        "driver.integrity_poison_retries"}; ///< Localized read retries.
    obs::Counter tornRejects{
        "driver.integrity_torn_rejects"};   ///< Stale/torn slot rejects.
    obs::Counter descDrops{
        "driver.integrity_desc_drops"};     ///< Descriptors abandoned.
    obs::Counter poisonFaults{
        "driver.integrity_poison_faults"};  ///< Retry budget exhausted.
};

/**
 * Per-device poison/staleness guard. Stage 1 of the escalation
 * ladder: a transient poison is absorbed here with a bounded retry
 * loop; only a persistent fault (budget exhausted) is surfaced to
 * the Watchdog, which owns stages 2 (hot-reset) and 3 (fail-over).
 */
class IntegrityGuard
{
  public:
    static constexpr int kMaxRetries = 8; ///< Poison re-reads.
    static constexpr sim::Tick kRetryDelay = sim::fromNs(500);

    explicit IntegrityGuard(mem::CoherentSystem &mem)
        : mem_(mem)
    {}

    /**
     * Poison-aware read guard over [addr, addr+bytes). Retries up to
     * kMaxRetries times, kRetryDelay apart, while the range reads as
     * poisoned. Returns true once the range reads clean; false on a
     * persistent fault.
     */
    sim::Coro<bool>
    guardRange(mem::Addr addr, std::uint32_t bytes)
    {
        if (!mem_.faultsArmed() || !mem_.rangePoisoned(addr, bytes))
            co_return true;
        for (int i = 0; i < kMaxRetries; ++i) {
            retries_++;
            telem_.poisonRetries++;
            obs::tracepoint(obs::EventKind::Custom,
                            "integrity.poison_retry",
                            mem_.simulator().now(), addr);
            co_await mem_.simulator().delay(kRetryDelay);
            if (!mem_.rangePoisoned(addr, bytes))
                co_return true;
        }
        faults_++;
        telem_.poisonFaults++;
        obs::tracepoint(obs::EventKind::Custom,
                        "integrity.poison_fault",
                        mem_.simulator().now(), addr);
        co_return false;
    }

    /**
     * True while [addr, addr+bytes) presents a stale view (torn
     * content or a stuck invalidation). Consumers treat such slots
     * as not-yet-ready and re-poll.
     */
    bool
    staleView(mem::Addr addr, std::uint32_t bytes)
    {
        return mem_.rangeStale(addr, bytes);
    }

    /** Record a consumer-side integrity reject (torn/bad checksum). */
    void
    noteReject()
    {
        retries_++;
        telem_.tornRejects++;
    }

    /// @name Cumulative counts polled by the Watchdog.
    /// @{
    std::uint64_t retries() const { return retries_; }
    std::uint64_t faults() const { return faults_; }
    /// @}

  private:
    mem::CoherentSystem &mem_;
    IntegrityTelemetry telem_;
    std::uint64_t retries_ = 0;
    std::uint64_t faults_ = 0;
};

} // namespace ccn::driver

#endif // CCN_DRIVER_INTEGRITY_HH
