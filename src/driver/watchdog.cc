#include "driver/watchdog.hh"

#include <algorithm>

#include "obs/trace.hh"

namespace ccn::driver {

namespace {

constexpr sim::Tick kCheckInterval = sim::fromUs(5.0); ///< Poll period.
constexpr int kMissedBeats = 3; ///< Silent checks before a failure.
constexpr int kStallChecks = 4; ///< Stalled checks before a failure.

/// Reset-storm guard: the first recovery is immediate, each
/// subsequent one waits kBackoffBase * kBackoffFactor^k (capped at
/// kBackoffMax) since the last; a healthy check clears the ladder.
constexpr sim::Tick kBackoffBase = sim::fromUs(10.0);
constexpr double kBackoffFactor = 2.0;
constexpr sim::Tick kBackoffMax = sim::fromUs(200.0);

} // namespace

Watchdog::Watchdog(sim::Simulator &sim, NicInterface &nic,
                   const WatchdogConfig &config)
    : sim_(sim), nic_(nic), cfg_(config),
      lastCompleted_(static_cast<std::size_t>(nic.numQueues()), 0),
      stalledChecks_(static_cast<std::size_t>(nic.numQueues()), 0)
{
}

void
Watchdog::start(sim::Tick run_until)
{
    runUntil_ = run_until;
    sim_.spawn(monitorTask());
}

sim::Coro<void>
Watchdog::recover()
{
    recovering_ = true;
    const sim::Tick t0 = sim_.now();
    stats_.escalations.at("reset")++;
    resetTimes_.push_back(t0);
    obs::tracepoint(obs::EventKind::Custom, "watchdog.recover.begin",
                    t0, 0);
    co_await nic_.quiesce();
    co_await nic_.reset();
    co_await nic_.reinit();
    const sim::Tick latency = sim_.now() - t0;
    recoveryTicks_.record(static_cast<double>(latency));
    stats_.recoveries++;
    obs::tracepoint(obs::EventKind::Custom, "watchdog.recover.end",
                    sim_.now(), latency);

    // Re-baseline detection state so the fresh device is not
    // immediately re-declared dead.
    silentChecks_ = 0;
    lastBeat_ = co_await nic_.readDeviceBeat();
    for (int q = 0; q < nic_.numQueues(); ++q) {
        lastCompleted_[static_cast<std::size_t>(q)] =
            nic_.health(q).txCompleted;
        stalledChecks_[static_cast<std::size_t>(q)] = 0;
    }
    if (recoveredCb_)
        recoveredCb_(latency);
    // Arm the reset-storm backoff: the next recovery must wait out an
    // exponentially growing window (a healthy check clears it).
    currentBackoff_ =
        currentBackoff_ == 0
            ? kBackoffBase
            : std::min(kBackoffMax,
                       static_cast<sim::Tick>(
                           static_cast<double>(currentBackoff_) *
                           kBackoffFactor));
    nextRecoverAllowed_ = sim_.now() + currentBackoff_;
    recovering_ = false;
    co_return;
}

sim::Coro<void>
Watchdog::failover()
{
    failed_ = true;
    recovering_ = true;
    stats_.escalations.at("failover")++;
    obs::tracepoint(obs::EventKind::Custom, "watchdog.failover",
                    sim_.now(), resetTimes_.size());
    // Final drain: quiesce and reset reclaim every ring-held buffer
    // back to the pool, but the device is never reinitialized — it
    // stays down, and operational() reads false from here on.
    co_await nic_.quiesce();
    co_await nic_.reset();
    nic_.auditLeaks();
    if (failedCb_)
        failedCb_();
    recovering_ = false;
    co_return;
}

sim::Task
Watchdog::monitorTask()
{
    while (sim_.now() < runUntil_) {
        co_await sim_.delay(kCheckInterval);
        if (sim_.now() >= runUntil_)
            break;
        if (failed_)
            co_return; // Terminal: the device is gone for good.
        if (recovering_)
            continue;

        stats_.checks++;
        co_await nic_.beatHost();
        const std::uint64_t beat = co_await nic_.readDeviceBeat();

        bool failed = false;
        FailureKind kind = FailureKind::MissedHeartbeat;

        // Stage-1 accounting: localized retries the IntegrityGuard
        // already absorbed. A rising *fault* count means the retry
        // budget was spent — escalate to a hot-reset.
        const std::uint64_t iretries = nic_.integrityRetries();
        if (iretries > lastIntegrityRetries_) {
            stats_.escalations.at("retry") +=
                iretries - lastIntegrityRetries_;
            lastIntegrityRetries_ = iretries;
        }
        const std::uint64_t ifaults = nic_.integrityFaults();
        if (ifaults > lastIntegrityFaults_) {
            lastIntegrityFaults_ = ifaults;
            failed = true;
            kind = FailureKind::IntegrityFault;
        }

        if (beat == lastBeat_) {
            stats_.missedBeats++;
            if (++silentChecks_ >= kMissedBeats)
                failed = true;
        } else {
            silentChecks_ = 0;
            lastBeat_ = beat;
            // A live heartbeat clears the reset-storm backoff ladder.
            currentBackoff_ = 0;
        }

        for (int q = 0; q < nic_.numQueues(); ++q) {
            const QueueHealth h = nic_.health(q);
            auto qi = static_cast<std::size_t>(q);
            // Descriptors held back in a host-side publish batch are
            // outstanding but invisible to the device; only work the
            // device can see and still fails to consume is a stall.
            if (h.txOutstanding > h.txHeldInBatch &&
                h.txCompleted == lastCompleted_[qi]) {
                if (++stalledChecks_[qi] >= kStallChecks) {
                    stats_.ringStalls++;
                    if (!failed) {
                        failed = true;
                        kind = FailureKind::RingStall;
                    }
                    stalledChecks_[qi] = 0;
                }
            } else {
                stalledChecks_[qi] = 0;
            }
            lastCompleted_[qi] = h.txCompleted;
        }

        if (failed) {
            stats_.failures++;
            obs::tracepoint(obs::EventKind::Custom, "watchdog.failure",
                            sim_.now(),
                            static_cast<std::uint64_t>(kind));
            if (failureCb_)
                failureCb_(kind);
            // Reset-storm backoff: a re-failure inside the window
            // waits for the next check instead of resetting again.
            if (sim_.now() < nextRecoverAllowed_)
                continue;
            // Fail-over budget: too many resets inside the window
            // means resetting is not fixing the device.
            if (cfg_.resetBudget > 0) {
                while (!resetTimes_.empty() &&
                       resetTimes_.front() + cfg_.budgetWindow <= sim_.now())
                    resetTimes_.pop_front();
                if (static_cast<int>(resetTimes_.size()) >= cfg_.resetBudget) {
                    co_await failover();
                    co_return;
                }
            }
            co_await recover();
        }
    }
    co_return;
}

} // namespace ccn::driver
