/**
 * @file
 * Host-side NIC liveness watchdog.
 *
 * Detection uses the same coherent-signaling discipline as the data
 * plane: liveness is a per-direction heartbeat cache line (host bumps
 * one, the device bumps the other) read with plain loads, so a healthy
 * check costs two line transfers — no doorbells, no interrupts. The
 * watchdog declares failure on either of two signals:
 *
 *  - Missed heartbeats: the device beat value has not advanced for
 *    3 consecutive checks (one every 5 us).
 *  - Ring stall: a queue's txCompleted count has not advanced for
 *    4 consecutive checks while descriptors are outstanding (head
 *    parked with work pending).
 *
 * On failure it runs the device lifecycle — quiesce(), reset(),
 * reinit() — and records the recovery latency. Callbacks let the
 * transport pause retransmission timers across the outage
 * (Endpoint::deviceResetBegin/Complete).
 *
 * Recovery escalates through three stages:
 *
 *  1. retry    — localized integrity retries (poison re-reads, torn
 *                slot rejects) absorbed inside the driver's
 *                IntegrityGuard; the watchdog samples the cumulative
 *                count and stamps it as stage "retry".
 *  2. reset    — quiesce/hot-reset/reinit, as before, but gated by an
 *                exponential backoff so a device that re-fails
 *                immediately cannot trigger a reset storm.
 *  3. failover — more than `resetBudget` resets inside `budgetWindow`
 *                declares the device permanently failed: one final
 *                quiesce+reset drains the rings and reclaims buffers
 *                (leak audit), the device stays down, and the
 *                onDeviceFailed callback lets the transport resolve
 *                every in-flight op cleanly.
 */

#ifndef CCN_DRIVER_WATCHDOG_HH
#define CCN_DRIVER_WATCHDOG_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "driver/nic_iface.hh"
#include "obs/obs.hh"
#include "sim/simulator.hh"
#include "sim/time.hh"
#include "stats/histogram.hh"

namespace ccn::driver {

/** Why the watchdog declared the device failed. */
enum class FailureKind : std::uint8_t
{
    MissedHeartbeat, ///< Device beat line stopped advancing.
    RingStall,       ///< TX head parked with descriptors outstanding.
    IntegrityFault,  ///< Persistent datapath fault (retry budget spent).
};

/** Watchdog tuning knobs. */
struct WatchdogConfig
{
    /// Fail-over budget: more than resetBudget resets inside
    /// budgetWindow declares the device permanently failed. 0 keeps
    /// resetting forever (no fail-over).
    int resetBudget = 0;
    sim::Tick budgetWindow = sim::fromUs(500.0);
};

/** Registry-backed watchdog counters ("watchdog.*"). */
struct WatchdogStats
{
    obs::Counter checks{"watchdog.checks"};
    obs::Counter missedBeats{"watchdog.missed_beats"};
    obs::Counter ringStalls{"watchdog.ring_stalls"};
    obs::Counter failures{"watchdog.failures"};
    obs::Counter recoveries{"watchdog.recoveries"};
    /// Escalation-ladder activity by stage: "retry" (localized
    /// integrity retries), "reset" (hot-reset cycles), "failover"
    /// (permanent device failure).
    obs::LabeledCounter escalations{"watchdog.escalations", "stage"};
};

/**
 * Periodic liveness monitor and recovery driver for one NIC.
 */
class Watchdog
{
  public:
    Watchdog(sim::Simulator &sim, NicInterface &nic,
             const WatchdogConfig &config = {});

    /** Spawn the monitor task; it exits once sim time reaches
     *  @p run_until. */
    void start(sim::Tick run_until);

    /**
     * Run one full recovery cycle (quiesce/reset/reinit) immediately,
     * independent of detection. Also used internally on detection.
     */
    sim::Coro<void> recover();

    /** Invoked when a failure is declared (before any recovery). */
    void onFailure(std::function<void(FailureKind)> cb)
    {
        failureCb_ = std::move(cb);
    }

    /** Invoked after a recovery completes, with its latency. */
    void onRecovered(std::function<void(sim::Tick)> cb)
    {
        recoveredCb_ = std::move(cb);
    }

    /**
     * Invoked once when the reset budget is exceeded and the device
     * is declared permanently failed (after the final drain). The
     * transport uses this to resolve every in-flight op.
     */
    void onDeviceFailed(std::function<void()> cb)
    {
        failedCb_ = std::move(cb);
    }

    const WatchdogStats &stats() const { return stats_; }

    /** Latency of each completed recovery, in ticks. */
    const stats::Histogram &recoveryLatency() const
    {
        return recoveryTicks_;
    }

    bool recovering() const { return recovering_; }

    /** True once the device has been declared permanently failed. */
    bool failed() const { return failed_; }

  private:
    sim::Task monitorTask();

    /**
     * Terminal stage 3: drain the rings and reclaim buffers with one
     * final quiesce+reset, leave the device down, notify the
     * transport. The monitor task exits afterwards.
     */
    sim::Coro<void> failover();

    sim::Simulator &sim_;
    NicInterface &nic_;
    WatchdogConfig cfg_;
    WatchdogStats stats_;
    stats::Histogram recoveryTicks_;

    sim::Tick runUntil_ = 0;
    bool recovering_ = false;
    bool failed_ = false;
    std::uint64_t lastBeat_ = 0;
    int silentChecks_ = 0;
    std::vector<std::uint64_t> lastCompleted_;
    std::vector<int> stalledChecks_;

    // Escalation state: sampled integrity counters, the reset-storm
    // backoff ladder, and the fail-over budget window.
    std::uint64_t lastIntegrityRetries_ = 0;
    std::uint64_t lastIntegrityFaults_ = 0;
    sim::Tick currentBackoff_ = 0;
    sim::Tick nextRecoverAllowed_ = 0;
    std::deque<sim::Tick> resetTimes_;

    std::function<void(FailureKind)> failureCb_;
    std::function<void(sim::Tick)> recoveredCb_;
    std::function<void()> failedCb_;
};

} // namespace ccn::driver

#endif // CCN_DRIVER_WATCHDOG_HH
