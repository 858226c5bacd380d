/**
 * @file
 * Seeded fault-injection schedule and chaos measurement harness.
 *
 * A ChaosSchedule turns a seed and a count of each fault class into a
 * deterministic, sorted list of injection events — NIC wedges (the
 * device engines freeze until the driver Watchdog hot-resets the
 * device), link up/down flaps, and short wire-loss bursts — and
 * replays them at exact simulation times. Determinism matters: a
 * failing chaos run reproduces bit-for-bit from its seed.
 *
 * runKvClientServerChaos() wires the schedule, the Watchdog, and the
 * transport's device-reset survival together around the reliable KV
 * client-server workload and checks the recovery invariants: no
 * committed operation lost or duplicated, no pool buffer leaked, all
 * rings live at the end.
 */

#ifndef CCN_WORKLOAD_CHAOS_HH
#define CCN_WORKLOAD_CHAOS_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "driver/watchdog.hh"
#include "net/fabric.hh"
#include "obs/obs.hh"
#include "sim/random.hh"
#include "sim/simulator.hh"
#include "sim/time.hh"
#include "stats/histogram.hh"
#include "workload/clientserver.hh"

namespace ccn::workload {

/** Fault classes a ChaosSchedule can inject. */
enum class ChaosKind : std::uint8_t
{
    NicWedge, ///< Freeze the target NIC's device engines.
    LinkFlap, ///< Take both link directions down, then back up.
    LossBurst, ///< Force-drop the next few packets on each direction.
    MemPoison, ///< Poison the target's live datapath lines (CXL-style).
    MemTorn,   ///< Torn-visibility window on the datapath lines.
    MemStuck,  ///< Stuck line: invalidations delayed past the horizon.
    MemBrownout, ///< Stretch one agent's coherence ops by a factor.
};

/** Chaos schedule configuration. Events land in [start, end). */
struct ChaosConfig
{
    std::uint64_t seed = 0xc4a05ULL;
    sim::Tick start = 0; ///< 0: harness substitutes the warmup end.
    sim::Tick end = 0;   ///< 0: harness substitutes the window end.

    int nicWedges = 3;  ///< Device hangs the Watchdog must recover.
    int linkFlaps = 2;  ///< Up/down flaps of the client's link pair.
    sim::Tick flapDown = sim::fromUs(5.0); ///< Down time per flap.
    int lossBursts = 2; ///< Consecutive-drop bursts per direction.
    int burstDrops = 4; ///< Packets force-dropped per burst.

    // Memory-chaos events (coherence-layer fault injection). Counts
    // default to 0 so existing link/NIC chaos configs are unchanged.
    int poisons = 0;    ///< Line-poison events on live datapath lines.
    int torns = 0;      ///< Torn-visibility windows.
    int stuckLines = 0; ///< Stuck-invalidation windows.
    int brownouts = 0;  ///< Interconnect brownouts on the host agent.
    double brownoutFactor = 4.0; ///< Coherence-op stretch factor.

    /// Aim the schedule (and the Watchdog) at the server NIC instead
    /// of the client NIC.
    bool targetServer = false;

    /// Re-wedge the target immediately after every recovery: the
    /// device is permanently broken, so resets can never fix it and
    /// the Watchdog's reset budget must converge to fail-over.
    bool permanentWedge = false;
};

/** Injection targets. Any of them may be left unset (skipped). */
struct ChaosHooks
{
    std::function<void()> wedge; ///< Freeze the NIC under test.
    net::Link *uplink = nullptr;
    net::Link *downlink = nullptr;

    // Memory-chaos injectors (hold window as argument). Typically
    // close over the target host's CoherentSystem and the NIC's
    // faultLines() so events always land on live datapath lines.
    std::function<void(sim::Tick)> poison;
    std::function<void(sim::Tick)> torn;
    std::function<void(sim::Tick)> stuck;
    std::function<void(double, sim::Tick)> brownout;
};

/**
 * Deterministic fault-injection schedule. Construction expands the
 * config into per-event times (evenly spaced per class, with seeded
 * jitter, shuffled together into time order); arm() replays them.
 */
class ChaosSchedule
{
  public:
    struct Event
    {
        sim::Tick at;
        ChaosKind kind;
    };

    ChaosSchedule(sim::Simulator &sim, const ChaosConfig &cfg,
                  ChaosHooks hooks);

    /** Spawn the replay task; events fire at their recorded times. */
    void arm(sim::Tick run_until);

    /**
     * Record a completed recovery (wedge injection to device back up)
     * into the recovery-latency histogram.
     */
    void noteRecovered();

    const std::vector<Event> &events() const { return events_; }
    const stats::Histogram &recoveryLatency() const
    {
        return recoveryTicks_;
    }
    std::uint64_t wedgesInjected() const { return wedges_.value(); }
    std::uint64_t flapsInjected() const { return flaps_.value(); }
    std::uint64_t burstsInjected() const { return bursts_.value(); }
    std::uint64_t poisonsInjected() const { return poisons_.value(); }
    std::uint64_t tornsInjected() const { return torns_.value(); }
    std::uint64_t stucksInjected() const { return stucks_.value(); }
    std::uint64_t brownoutsInjected() const
    {
        return brownouts_.value();
    }

  private:
    sim::Task replayTask(sim::Tick run_until);

    sim::Simulator &sim_;
    ChaosConfig cfg_;
    ChaosHooks hooks_;
    std::vector<Event> events_;
    sim::Tick lastWedgeAt_ = 0;
    stats::Histogram recoveryTicks_;
    obs::Counter wedges_{"chaos.nic_wedges"};
    obs::Counter flaps_{"chaos.link_flaps"};
    obs::Counter bursts_{"chaos.loss_bursts"};
    obs::Counter poisons_{"chaos.mem_poisons"};
    obs::Counter torns_{"chaos.mem_torns"};
    obs::Counter stucks_{"chaos.mem_stuck_lines"};
    obs::Counter brownouts_{"chaos.mem_brownouts"};
};

/** Chaos-run result: workload outcome plus recovery accounting. */
struct ChaosKvResult
{
    ReliableClientServerResult kv;

    std::uint64_t wedgesInjected = 0;
    std::uint64_t flapsInjected = 0;
    std::uint64_t burstsInjected = 0;

    std::uint64_t recoveries = 0;   ///< Watchdog-driven hot-resets.
    std::uint64_t deviceResets = 0; ///< Transport reset notifications.
    double recoveryP50Ns = 0; ///< Wedge injection → device back up.
    double recoveryP99Ns = 0;
    double recoveryMaxNs = 0;

    std::uint64_t leakedBufs = 0; ///< Post-teardown pool audit, both NICs.
    bool ringsLive = false; ///< Both NICs operational, no stuck TX.

    // Memory-chaos and escalation accounting.
    std::uint64_t poisonsInjected = 0;
    std::uint64_t tornsInjected = 0;
    std::uint64_t stucksInjected = 0;
    std::uint64_t brownoutsInjected = 0;
    std::uint64_t integrityRetries = 0; ///< Stage-1 localized retries.
    std::uint64_t integrityFaults = 0;  ///< Persistent datapath faults.
    bool deviceFailed = false; ///< Watchdog declared permanent failure.
};

/**
 * Reliable KV client-server run under a seeded chaos schedule aimed
 * at one host's NIC, fabric links and memory agent (the client by
 * default; the server under ChaosConfig::targetServer). A Watchdog
 * monitors the target NIC and drives the escalation ladder: localized
 * integrity retries are stamped as stage "retry", wedges/stalls/
 * persistent faults hot-reset the device (stage "reset", backed off
 * exponentially), and a blown reset budget fails the device over
 * permanently (stage "failover", resolving every in-flight op through
 * Endpoint::deviceFailed). After the run both NICs are torn down
 * through quiesce()/reset()/reinit() and their pools audited for
 * leaks.
 */
ChaosKvResult runKvClientServerChaos(
    sim::Simulator &sim, mem::CoherentSystem &server_mem,
    driver::NicInterface &server_nic, mem::CoherentSystem &client_mem,
    driver::NicInterface &client_nic, net::Fabric &fabric,
    std::uint32_t server_addr, std::uint32_t client_addr,
    const ClientServerConfig &cfg, const ChaosConfig &chaos_cfg,
    const driver::WatchdogConfig &wd_cfg = {});

} // namespace ccn::workload

#endif // CCN_WORKLOAD_CHAOS_HH
