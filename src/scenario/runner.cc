#include "scenario/runner.hh"

#include <algorithm>
#include <memory>
#include <optional>

#include "mem/platform.hh"
#include "net/fabric.hh"
#include "obs/sampler.hh"
#include "scenario/lexer.hh"
#include "scenario/world.hh"
#include "stats/table.hh"
#include "transport/transport.hh"

namespace ccn::scenario {

using sim::Tick;

namespace {

mem::PlatformConfig
platformFor(const ScenarioSpec &spec)
{
    return spec.platform == "spr" ? mem::sprConfig()
                                  : mem::icxConfig();
}

/** Per-host link parameters: the last link block naming it wins. */
net::LinkConfig
linkFor(const ScenarioSpec &spec, const std::string &host)
{
    net::LinkConfig lc;
    for (const LinkSpec &l : spec.links) {
        if (std::find(l.endpoints.begin(), l.endpoints.end(), host) !=
            l.endpoints.end())
            lc = l.config;
    }
    return lc;
}

/** All declared hosts on one shared simulator + fabric. */
struct FabricRun
{
    explicit FabricRun(const ScenarioSpec &spec)
        : plat(platformFor(spec)), sampler(simv), fabric(simv)
    {
        sampler.start();
        for (std::size_t i = 0; i < spec.hosts.size(); ++i) {
            const HostSpec &h = spec.hosts[i];
            hosts.push_back(makeHost(simv, h.interface, plat,
                                     h.queues, 11 + i, h.batch));
            addrs.push_back(fabric.attach(h.name,
                                          hostHooks(*hosts.back()),
                                          linkFor(spec, h.name)));
            names.push_back(h.name);
        }
    }

    std::size_t
    index(const std::string &name) const
    {
        const auto it = std::find(names.begin(), names.end(), name);
        if (it == names.end())
            throw std::logic_error("unknown host " + name);
        return static_cast<std::size_t>(it - names.begin());
    }

    HostWorld &host(const std::string &name) { return *hosts[index(name)]; }
    std::uint32_t addr(const std::string &name) const
    {
        return addrs[index(name)];
    }

    sim::Simulator simv;
    mem::PlatformConfig plat;
    obs::Sampler sampler;
    net::Fabric fabric;
    std::vector<std::unique_ptr<HostWorld>> hosts;
    std::vector<std::uint32_t> addrs;
    std::vector<std::string> names;
};

/** "scenario" identity section shared by every run mode. */
void
addScenarioSection(stats::JsonReport &json, const ScenarioSpec &spec,
                   const std::string &mode)
{
    stats::Table t({"name", "platform", "mode", "file"});
    t.row().cell(spec.name).cell(spec.platform).cell(mode)
        .cell(spec.file);
    json.add("scenario", t);
}

/** Per-port fabric counters for every declared host. */
stats::Table
portsTable(const FabricRun &run)
{
    stats::Table t({"host", "tx_pkts", "rx_pkts", "tx_drops",
                    "rx_drops", "fault_drops", "down_drops"});
    for (std::size_t i = 0; i < run.names.size(); ++i) {
        const net::PortCounters c = run.fabric.counters(run.addrs[i]);
        t.row().cell(run.names[i]).cell(c.txPackets).cell(c.rxPackets)
            .cell(c.txDrops).cell(c.rxDrops).cell(c.faultDrops)
            .cell(c.downDrops);
    }
    return t;
}

void
runReplay(const ScenarioSpec &spec, FabricRun &run,
          ScenarioOutcome &out)
{
    const ReplaySpec &r = spec.replay;
    const workload::ClientServerConfig &cfg = r.config;
    const auto records = std::make_shared<const std::vector<TraceRecord>>(
        loadTrace(r.traceFile));

    HostWorld &server = run.host(r.server);
    HostWorld &client = run.host(r.client);
    transport::Endpoint server_ep(run.simv, server.system,
                                  *server.nic, cfg.tp, "server");
    transport::Endpoint client_ep(run.simv, client.system,
                                  *client.nic, cfg.tp, "client");

    // Every response counts, and sends stop at the horizon.
    const Tick start = run.simv.now();
    const bool paced = r.preserveGaps;
    const Tick span = records->empty() || !paced
                          ? 0
                          : sim::fromNs(static_cast<double>(
                                records->back().atNs));
    workload::ReliableClock clock;
    clock.measureStart = start;
    clock.measureEnd = sim::kTickMax;
    clock.runUntil = start + span + cfg.drain;

    // Round-robin the trace across one connection per client queue;
    // each connection's subsequence keeps the recorded time order and
    // sends each record at start + t_ns when paced, else at once.
    const auto conns = static_cast<std::size_t>(std::max(1, cfg.clientQueues));
    std::vector<workload::RequestSource> sources;
    for (std::size_t c = 0; c < conns; ++c) {
        sources.push_back([records, conns, c, start, paced] {
            return [records, conns, start, paced, i = c]() mutable
                   -> std::optional<workload::KvRequest> {
                if (i >= records->size())
                    return std::nullopt;
                const TraceRecord &rec = (*records)[i];
                i += conns;
                const Tick t = sim::fromNs(static_cast<double>(rec.atNs));
                return workload::KvRequest{paced ? start + t : 0, rec.get,
                                           rec.key, rec.bytes};
            };
        });
    }

    out.kv = workload::runReliableClients(
        run.simv, server.system, server_ep, client_ep,
        run.addr(r.server), cfg.kv, cfg.seed, clock, sources);

    stats::Table t({"trace_ops", "sent", "responses", "lost",
                    "duplicates", "rtt_p50_ns", "rtt_p99_ns",
                    "pacing"});
    t.row().cell(static_cast<std::uint64_t>(records->size()))
        .cell(out.kv.requestsSent).cell(out.kv.responses)
        .cell(out.kv.lostRequests).cell(out.kv.duplicateResponses)
        .cell(out.kv.rttP50Ns, 0).cell(out.kv.rttP99Ns, 0)
        .cell(paced ? "recorded" : "max");
    out.json.add("results", t);
}

void
runKv(const ScenarioSpec &spec, FabricRun &run, ScenarioOutcome &out)
{
    const WorkloadSpec &w = spec.workload;
    workload::ClientServerConfig cfg = w.config;
    if (!w.captureFile.empty()) {
        Tick start = run.simv.now();
        cfg.onRequest = [&out, start](Tick at, bool get,
                                      std::uint32_t key,
                                      std::uint32_t bytes) {
            out.captured.push_back(
                {static_cast<std::uint64_t>(sim::toNs(at - start)),
                 get, key, bytes});
        };
    }

    HostWorld &server = run.host(w.server);
    HostWorld &client = run.host(w.client);
    const std::uint32_t server_addr = run.addr(w.server);

    if (spec.faults.present) {
        workload::ChaosConfig chaos = spec.faults.config;
        chaos.targetServer = spec.faults.target == w.server;
        out.chaos = workload::runKvClientServerChaos(
            run.simv, server.system, *server.nic, client.system,
            *client.nic, run.fabric, server_addr,
            run.addr(w.client), cfg, chaos);
        out.kv = out.chaos.kv;
    } else if (w.reliable) {
        out.kv = workload::runKvClientServerReliable(
            run.simv, server.system, *server.nic, client.system,
            *client.nic, server_addr, cfg);
    } else {
        out.raw = workload::runKvClientServer(
            run.simv, server.system, *server.nic, client.system,
            *client.nic, server_addr, cfg);
    }

    if (!w.captureFile.empty())
        saveTrace(w.captureFile, out.captured);

    if (out.mode == "kv_raw") {
        stats::Table t({"offered_Mops", "sent", "responses",
                        "achieved_Mops", "gbps_in", "rtt_p50_ns",
                        "rtt_p99_ns", "tx_backpressure"});
        t.row().cell(out.raw.offeredMops, 2).cell(out.raw.requestsSent)
            .cell(out.raw.responses).cell(out.raw.achievedMops, 2)
            .cell(out.raw.gbpsIn, 2).cell(out.raw.rttP50Ns, 0)
            .cell(out.raw.rttP99Ns, 0).cell(out.raw.txBackpressure);
        out.json.add("results", t);
    } else {
        stats::Table t({"offered_Mops", "sent", "responses", "lost",
                        "retransmits", "dup_responses",
                        "achieved_Mops", "gbps_in", "rtt_p50_ns",
                        "rtt_p99_ns"});
        t.row().cell(out.kv.offeredMops, 2).cell(out.kv.requestsSent)
            .cell(out.kv.responses).cell(out.kv.lostRequests)
            .cell(out.kv.retransmits).cell(out.kv.duplicateResponses)
            .cell(out.kv.achievedMops, 2).cell(out.kv.gbpsIn, 2)
            .cell(out.kv.rttP50Ns, 0).cell(out.kv.rttP99Ns, 0);
        out.json.add("results", t);
    }
    if (out.mode == "chaos") {
        const workload::ChaosKvResult &c = out.chaos;
        stats::Table ct({"wedges", "flaps", "bursts", "recoveries",
                         "device_resets", "recovery_p50_ns",
                         "recovery_p99_ns", "recovery_max_ns",
                         "leaked_bufs", "rings_live"});
        ct.row().cell(c.wedgesInjected).cell(c.flapsInjected)
            .cell(c.burstsInjected).cell(c.recoveries)
            .cell(c.deviceResets).cell(c.recoveryP50Ns, 0)
            .cell(c.recoveryP99Ns, 0).cell(c.recoveryMaxNs, 0)
            .cell(c.leakedBufs).cell(c.ringsLive ? 1 : 0);
        out.json.add("chaos", ct);
        stats::Table mt({"poisons", "torns", "stuck_lines",
                         "brownouts", "integrity_retries",
                         "integrity_faults", "device_failed"});
        mt.row().cell(c.poisonsInjected).cell(c.tornsInjected)
            .cell(c.stucksInjected).cell(c.brownoutsInjected)
            .cell(c.integrityRetries).cell(c.integrityFaults)
            .cell(c.deviceFailed ? 1 : 0);
        out.json.add("mem_chaos", mt);
    }
}

void
runSweep(const ScenarioSpec &spec, ScenarioOutcome &out)
{
    const SweepSpec &s = spec.sweep;
    const mem::PlatformConfig plat = platformFor(spec);
    stats::Table t({"interface", "kind", "size_B", "min_rtt_ns"});
    for (const std::string &key : s.interfaces) {
        const char *kind = "";
        for (const InterfaceFamily &f : interfaceFamilies()) {
            if (key == f.key)
                kind = f.kind;
        }
        const auto factory = worldFactory(key, plat, s.queues);
        for (const std::uint32_t size : s.sizes) {
            t.row().cell(familyLabel(key)).cell(kind).cell(
                static_cast<std::uint64_t>(size))
                .cell(minLatencyNs(factory, size), 1);
        }
    }
    out.json.add("results", t);
}

std::string
reportName(const ScenarioSpec &spec)
{
    std::string n = "scenario_";
    for (const char c : spec.name) {
        n += (std::isalnum(static_cast<unsigned char>(c)) != 0)
                 ? c
                 : '_';
    }
    return n;
}

} // namespace

ScenarioOutcome
runScenario(const ScenarioSpec &spec, bool quiet)
{
    ScenarioOutcome out;
    out.json = stats::JsonReport(reportName(spec));

    // Isolate this run's time-series rows; counters are cumulative
    // per process, so one scenario per ccn_run invocation gates
    // cleanly (the gate's invariants are ratio- and zero-based).
    obs::Sampler::clearRows();

    // `profile coherence;` turns the line-level contention profiler on
    // for every memory system this run builds; restore the previous
    // default on exit so scenarios in one process don't leak state.
    const bool prev_prof = obs::CoherenceProfiler::defaultEnabled();
    if (spec.profileCoherence) {
        obs::CoherenceProfiler::setDefaultEnabled(true);
        obs::CoherenceProfiler::clearLedger();
    }
    struct ProfRestore
    {
        bool prev;
        ~ProfRestore()
        {
            obs::CoherenceProfiler::setDefaultEnabled(prev);
        }
    } prof_restore{prev_prof};

    out.mode = spec.sweep.present      ? "sweep"
               : spec.replay.present   ? "replay"
               : spec.faults.present   ? "chaos"
               : spec.workload.reliable ? "kv_reliable"
                                        : "kv_raw";
    if (!quiet) {
        stats::banner("scenario '" + spec.name + "' (" + out.mode +
                      ", platform " + spec.platform + ")");
    }

    if (spec.sweep.present) {
        runSweep(spec, out);
    } else {
        FabricRun run(spec);
        if (spec.replay.present)
            runReplay(spec, run, out);
        else
            runKv(spec, run, out);
        out.json.add("ports", portsTable(run));
    }

    addScenarioSection(out.json, spec, out.mode);
    addObsSections(out.json);

    if (!quiet) {
        // Re-print the results table to stdout for interactive runs.
        for (const auto &[section, table] : out.json.sections()) {
            if (section == "results" || section == "chaos" ||
                section == "mem_chaos" || section == "ports") {
                stats::banner(section);
                table.print();
            }
        }
    }
    return out;
}

} // namespace ccn::scenario
