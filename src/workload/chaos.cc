#include "workload/chaos.hh"

#include <algorithm>

#include "obs/trace.hh"

namespace ccn::workload {

using sim::Tick;

namespace {

/// How long each memory-chaos event lasts. The poison window is
/// outlasted by the IntegrityGuard retry budget; the stuck window
/// exceeds the Watchdog's ring-stall horizon (4 checks 5 us apart),
/// so a stuck signal line is seen as a ring stall and escalates to a
/// hot-reset.
constexpr Tick kPoisonHold = sim::fromUs(2.0);
constexpr Tick kTornHold = sim::fromUs(2.0);
constexpr Tick kStuckHold = sim::fromUs(40.0);
constexpr Tick kBrownoutHold = sim::fromUs(20.0);

/** Quiesce+reset half of the teardown audit; leaves the device Down
 *  so the leak audit runs with every engine parked. */
sim::Task
teardownSweep(driver::NicInterface &nic, bool *done)
{
    co_await nic.quiesce();
    co_await nic.reset();
    *done = true;
    co_return;
}

/** Revive half: bring the swept device back for liveness checks. */
sim::Task
teardownRevive(driver::NicInterface &nic, bool *done)
{
    co_await nic.reinit();
    *done = true;
    co_return;
}

} // namespace

ChaosSchedule::ChaosSchedule(sim::Simulator &sim,
                             const ChaosConfig &cfg, ChaosHooks hooks)
    : sim_(sim), cfg_(cfg), hooks_(std::move(hooks))
{
    sim::Rng rng(cfg_.seed);
    const Tick span =
        cfg_.end > cfg_.start ? cfg_.end - cfg_.start : 0;

    // Each class gets evenly spaced slots across the window; seeded
    // jitter moves an event within its slot so classes interleave
    // differently per seed but never bunch at the window edges.
    const auto place = [&](int n, ChaosKind kind) {
        for (int i = 0; i < n; ++i) {
            const double denom = static_cast<double>(n);
            double frac = (static_cast<double>(i) + 0.5) / denom +
                          (rng.uniform() - 0.5) * 0.6 / denom;
            frac = std::clamp(frac, 0.0, 1.0);
            events_.push_back(
                {cfg_.start +
                     static_cast<Tick>(frac *
                                       static_cast<double>(span)),
                 kind});
        }
    };
    place(cfg_.nicWedges, ChaosKind::NicWedge);
    place(cfg_.linkFlaps, ChaosKind::LinkFlap);
    place(cfg_.lossBursts, ChaosKind::LossBurst);
    place(cfg_.poisons, ChaosKind::MemPoison);
    place(cfg_.torns, ChaosKind::MemTorn);
    place(cfg_.stuckLines, ChaosKind::MemStuck);
    place(cfg_.brownouts, ChaosKind::MemBrownout);
    std::sort(events_.begin(), events_.end(),
              [](const Event &a, const Event &b) {
                  return a.at < b.at;
              });
}

void
ChaosSchedule::arm(Tick run_until)
{
    sim_.spawn(replayTask(run_until));
}

void
ChaosSchedule::noteRecovered()
{
    if (lastWedgeAt_ == 0)
        return;
    recoveryTicks_.record(sim_.now() - lastWedgeAt_);
    lastWedgeAt_ = 0;
}

sim::Task
ChaosSchedule::replayTask(Tick run_until)
{
    for (const Event ev : events_) {
        if (ev.at >= run_until)
            break;
        if (ev.at > sim_.now())
            co_await sim_.delayUntil(ev.at);

        switch (ev.kind) {
        case ChaosKind::NicWedge:
            if (!hooks_.wedge)
                break;
            lastWedgeAt_ = sim_.now();
            hooks_.wedge();
            wedges_++;
            obs::tracepoint(obs::EventKind::Custom, "chaos.wedge",
                            sim_.now(), wedges_.value());
            break;

        case ChaosKind::LinkFlap: {
            if (!hooks_.uplink || !hooks_.downlink)
                break;
            net::Link *up = hooks_.uplink;
            net::Link *down = hooks_.downlink;
            up->setUp(false);
            down->setUp(false);
            flaps_++;
            obs::tracepoint(obs::EventKind::Custom, "chaos.flap",
                            sim_.now(), flaps_.value());
            sim_.scheduleCallback(sim_.now() + cfg_.flapDown,
                                  [up, down] {
                                      up->setUp(true);
                                      down->setUp(true);
                                  });
            break;
        }

        case ChaosKind::LossBurst:
            if (!hooks_.uplink || !hooks_.downlink)
                break;
            hooks_.uplink->forceDrop(
                static_cast<std::uint64_t>(cfg_.burstDrops));
            hooks_.downlink->forceDrop(
                static_cast<std::uint64_t>(cfg_.burstDrops));
            bursts_++;
            obs::tracepoint(obs::EventKind::Custom, "chaos.burst",
                            sim_.now(), bursts_.value());
            break;

        case ChaosKind::MemPoison:
            if (!hooks_.poison)
                break;
            hooks_.poison(kPoisonHold);
            poisons_++;
            obs::tracepoint(obs::EventKind::Custom, "chaos.mem_poison",
                            sim_.now(), poisons_.value());
            break;

        case ChaosKind::MemTorn:
            if (!hooks_.torn)
                break;
            hooks_.torn(kTornHold);
            torns_++;
            obs::tracepoint(obs::EventKind::Custom, "chaos.mem_torn",
                            sim_.now(), torns_.value());
            break;

        case ChaosKind::MemStuck:
            if (!hooks_.stuck)
                break;
            // A stuck line behaves like a wedge — the ring stalls
            // until the Watchdog hot-resets — so it starts the
            // recovery-latency clock the same way.
            lastWedgeAt_ = sim_.now();
            hooks_.stuck(kStuckHold);
            stucks_++;
            obs::tracepoint(obs::EventKind::Custom, "chaos.mem_stuck",
                            sim_.now(), stucks_.value());
            break;

        case ChaosKind::MemBrownout:
            if (!hooks_.brownout)
                break;
            hooks_.brownout(cfg_.brownoutFactor, kBrownoutHold);
            brownouts_++;
            obs::tracepoint(obs::EventKind::Custom,
                            "chaos.mem_brownout", sim_.now(),
                            brownouts_.value());
            break;
        }
    }
    co_return;
}

ChaosKvResult
runKvClientServerChaos(sim::Simulator &sim,
                       mem::CoherentSystem &server_mem,
                       driver::NicInterface &server_nic,
                       mem::CoherentSystem &client_mem,
                       driver::NicInterface &client_nic,
                       net::Fabric &fabric, std::uint32_t server_addr,
                       std::uint32_t client_addr,
                       const ClientServerConfig &cfg,
                       const ChaosConfig &chaos_cfg,
                       const driver::WatchdogConfig &wd_cfg)
{
    ChaosConfig ccfg = chaos_cfg;
    if (ccfg.start == 0)
        ccfg.start = sim.now() + cfg.warmup;
    if (ccfg.end == 0)
        ccfg.end = sim.now() + cfg.warmup + cfg.window;

    transport::Endpoint server_ep(sim, server_mem, server_nic,
                                  cfg.tp, "server");
    transport::Endpoint client_ep(sim, client_mem, client_nic,
                                  cfg.tp, "client");

    // The schedule, the Watchdog and the reset notifications all aim
    // at one host's NIC and memory agent — client by default, server
    // under targetServer (any declared host may be the fault target).
    driver::NicInterface &target_nic =
        ccfg.targetServer ? server_nic : client_nic;
    mem::CoherentSystem &target_mem =
        ccfg.targetServer ? server_mem : client_mem;
    transport::Endpoint &target_ep =
        ccfg.targetServer ? server_ep : client_ep;
    const std::uint32_t target_addr =
        ccfg.targetServer ? server_addr : client_addr;

    ChaosHooks hooks;
    hooks.wedge = [&target_nic] { target_nic.wedge(); };
    hooks.uplink = &fabric.uplinkOf(target_addr);
    hooks.downlink = &fabric.downlinkOf(target_addr);
    // Memory-chaos injectors land on the NIC's live datapath lines,
    // re-queried at fire time so they always hit the lines currently
    // carrying producer/consumer signals.
    hooks.poison = [&target_mem, &target_nic](Tick hold) {
        for (const mem::Addr a : target_nic.faultLines())
            target_mem.injectPoison(a, hold);
    };
    hooks.torn = [&target_mem, &target_nic](Tick hold) {
        for (const mem::Addr a : target_nic.faultLines())
            target_mem.injectTorn(a, hold);
    };
    hooks.stuck = [&target_mem, &target_nic](Tick hold) {
        for (const mem::Addr a : target_nic.faultLines())
            target_mem.injectStuck(a, hold);
    };
    hooks.brownout = [&target_mem, &target_nic](double factor,
                                                Tick hold) {
        target_mem.injectBrownout(target_nic.hostAgent(0), factor,
                                  hold);
    };
    ChaosSchedule chaos(sim, ccfg, std::move(hooks));

    driver::Watchdog wd(sim, target_nic, wd_cfg);
    wd.onFailure([&target_ep](driver::FailureKind) {
        target_ep.deviceResetBegin();
    });
    const bool permanent_wedge = ccfg.permanentWedge;
    wd.onRecovered(
        [&target_ep, &target_nic, &chaos, permanent_wedge](Tick) {
            target_ep.deviceResetComplete();
            chaos.noteRecovered();
            // A permanently broken device re-wedges the moment it is
            // back: resets cannot fix it, so the reset budget drains
            // and the Watchdog converges to fail-over.
            if (permanent_wedge)
                target_nic.wedge();
        });
    wd.onDeviceFailed([&target_ep] { target_ep.deviceFailed(); });

    ChaosKvResult r;
    r.kv = runReliableWithEndpoints(
        sim, server_mem, server_ep, client_ep, server_addr, cfg,
        [&wd, &chaos](Tick run_until) {
            wd.start(run_until);
            chaos.arm(run_until);
        });

    // Teardown audit: hot-reset both NICs so every ring- or
    // shadow-held buffer is reclaimed, then ask the pools what never
    // came back. A buffer the data plane truly dropped on the floor
    // is unreachable from any ring and shows up here. The audit runs
    // while both devices are still Down: a straggler retransmit that
    // lands after the sweep waits in the RX mailbox instead of being
    // consumed by a revived engine and published into a ring nobody
    // will reap (which would read as a leak that never happened).
    bool client_down = false;
    bool server_down = false;
    sim.spawn(teardownSweep(client_nic, &client_down));
    sim.spawn(teardownSweep(server_nic, &server_down));
    const Tick teardown_deadline = sim.now() + sim::fromUs(500.0);
    while (!(client_down && server_down) &&
           sim.now() < teardown_deadline)
        sim.run(sim.now() + sim::fromUs(10.0));

    r.leakedBufs = client_nic.auditLeaks() + server_nic.auditLeaks();
    r.deviceFailed = wd.failed();

    bool client_up = false;
    bool server_up = false;
    sim.spawn(teardownRevive(client_nic, &client_up));
    sim.spawn(teardownRevive(server_nic, &server_up));
    const Tick revive_deadline = sim.now() + sim::fromUs(100.0);
    while (!(client_up && server_up) && sim.now() < revive_deadline)
        sim.run(sim.now() + sim::fromUs(10.0));

    bool live = client_nic.operational() && server_nic.operational();
    for (int q = 0; live && q < client_nic.numQueues(); ++q)
        live = client_nic.health(q).txOutstanding == 0;
    for (int q = 0; live && q < server_nic.numQueues(); ++q)
        live = server_nic.health(q).txOutstanding == 0;
    r.ringsLive = live;

    r.wedgesInjected = chaos.wedgesInjected();
    r.flapsInjected = chaos.flapsInjected();
    r.burstsInjected = chaos.burstsInjected();
    r.poisonsInjected = chaos.poisonsInjected();
    r.tornsInjected = chaos.tornsInjected();
    r.stucksInjected = chaos.stucksInjected();
    r.brownoutsInjected = chaos.brownoutsInjected();
    r.integrityRetries = target_nic.integrityRetries();
    r.integrityFaults = target_nic.integrityFaults();
    r.recoveries = wd.stats().recoveries.value();
    r.deviceResets = target_ep.stats().deviceResets.value();
    const stats::Histogram &h = chaos.recoveryLatency();
    if (h.count() > 0) {
        r.recoveryP50Ns = sim::toNs(h.percentile(50.0));
        r.recoveryP99Ns = sim::toNs(h.percentile(99.0));
        r.recoveryMaxNs = sim::toNs(h.max());
    }
    return r;
}

} // namespace ccn::workload
