/**
 * @file
 * Two-host client-server measurement harness over the network fabric.
 *
 * The KV store server (apps/kvstore) runs on one host's NIC; an
 * open-loop client runs on a second host's NIC. Both hosts are real
 * simulated machines — each with its own CoherentSystem and NIC
 * instance — attached to a shared net::Fabric, so every request and
 * response crosses modeled links and the switch. The client drives
 * Poisson request arrivals through its own driver TX path, receives
 * responses on its RX path, and measures request throughput and RTT
 * percentiles end to end (client TX burst to client RX burst).
 */

#ifndef CCN_WORKLOAD_CLIENTSERVER_HH
#define CCN_WORKLOAD_CLIENTSERVER_HH

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "apps/kvstore.hh"
#include "driver/nic_iface.hh"
#include "mem/coherence.hh"
#include "net/fabric.hh"
#include "sim/time.hh"
#include "stats/histogram.hh"
#include "transport/transport.hh"

namespace ccn::workload {

/**
 * Called once per request a client submits (raw: accepted by
 * txBurst; reliable: accepted by send()) with the submit tick,
 * GET/PUT, key, and request payload bytes.
 */
using RequestHook = std::function<void(sim::Tick at, bool get,
                                       std::uint32_t key,
                                       std::uint32_t bytes)>;

/** Client-server run configuration. */
struct ClientServerConfig
{
    apps::KvConfig kv;           ///< Server application config.
    double offeredOps = 2e6;     ///< Client open-loop request rate.
    std::uint32_t requestBytes = 64;
    int clientQueues = 1;        ///< Client NIC queues used.
    sim::Tick warmup = sim::fromUs(50.0);
    sim::Tick window = sim::fromUs(300.0);
    sim::Tick drain = sim::fromUs(30.0); ///< Post-window settle time.
    std::uint64_t seed = 42;

    /// Transport tuning for the reliable variant (ignored by the raw
    /// datagram harness).
    transport::TransportConfig tp;

    /// The scenario subsystem uses this to capture replayable traces;
    /// leave unset for no per-request overhead.
    RequestHook onRequest;
};

/** Rates and RTT percentiles of responses inside the window. */
struct KvMeasurement
{
    double offeredMops = 0;
    double achievedMops = 0; ///< Responses per second.
    double gbpsIn = 0;       ///< Response bytes at the client.
    double rttMinNs = 0;
    double rttP50Ns = 0;
    double rttP95Ns = 0;
    double rttP99Ns = 0;
};

/** Result of one client-server measurement. */
struct ClientServerResult : KvMeasurement
{
    std::uint64_t requestsSent = 0;    ///< Accepted by client TX.
    std::uint64_t txBackpressure = 0;  ///< Rejected by client TX ring.
    std::uint64_t responses = 0;       ///< Received within the window.
};

/**
 * Run the KV server on @p server_nic (host memory @p server_mem) and
 * an open-loop client on @p client_nic (host memory @p client_mem),
 * both already attached to a fabric, with the server reachable at
 * fabric address @p server_addr. Spawns all processes and runs the
 * simulation to completion.
 *
 * Both NICs must be started and configured with loopback disabled,
 * and their fabric attachments must already be in place (the harness
 * does not touch TX sinks).
 */
ClientServerResult runKvClientServer(
    sim::Simulator &sim, mem::CoherentSystem &server_mem,
    driver::NicInterface &server_nic, mem::CoherentSystem &client_mem,
    driver::NicInterface &client_nic, std::uint32_t server_addr,
    const ClientServerConfig &cfg);

/** Result of one reliable (transport-backed) client-server run. */
struct ReliableClientServerResult : KvMeasurement
{
    std::uint64_t requestsSent = 0;  ///< Accepted by transport send().
    std::uint64_t responses = 0;     ///< Over the whole run.
    /// Accepted requests that never produced a response: nonzero only
    /// when a connection aborted or the drain budget ran out.
    std::uint64_t lostRequests = 0;
    std::uint64_t retransmits = 0;   ///< Timeout + fast, both hosts.
    std::uint64_t timeouts = 0;      ///< RTO expirations, both hosts.
    std::uint64_t windowStalls = 0;  ///< send() backpressure events.
    std::uint64_t connAborts = 0;    ///< Errored connections.
    /// Responses carrying an already-seen request-id. The client
    /// dedups on the 31-bit id it packs into userData bits 32..62, so
    /// a retransmit- or reset-resync-induced double execution shows up
    /// here instead of inflating `responses`.
    std::uint64_t duplicateResponses = 0;
};

/**
 * Like runKvClientServer, but every request and response travels over
 * the reliable transport (one connection per client queue), so the
 * workload tolerates fabric loss, reordering, corruption, and link
 * flaps: requests are never lost unless a connection exhausts its
 * retries. After the measurement window the harness simulates
 * cfg.drain more; a request still unanswered then counts as lost.
 */
ReliableClientServerResult runKvClientServerReliable(
    sim::Simulator &sim, mem::CoherentSystem &server_mem,
    driver::NicInterface &server_nic, mem::CoherentSystem &client_mem,
    driver::NicInterface &client_nic, std::uint32_t server_addr,
    const ClientServerConfig &cfg);

/**
 * runKvClientServerReliable over caller-owned endpoints: one open-loop
 * client per cfg.clientQueues connection, with Poisson gaps from the
 * connection's open, Zipf keys and cfg.kv.getFraction GETs, each
 * drawn from Rng(cfg.seed * 131 + connection). Returns the
 * measurement of runReliableClients over warmup, window and drain.
 */
ReliableClientServerResult runReliableWithEndpoints(
    sim::Simulator &sim, mem::CoherentSystem &server_mem,
    transport::Endpoint &server_ep, transport::Endpoint &client_ep,
    std::uint32_t server_addr, const ClientServerConfig &cfg,
    const std::function<void(sim::Tick run_until)> &before_run =
        nullptr);

/** One request a reliable client sends. */
struct KvRequest
{
    sim::Tick at = 0; ///< Send tick; one already past sends at once.
    bool get = true;
    std::uint32_t key = 0;
    std::uint32_t bytes = 0; ///< Request payload size.
};

/**
 * One connection's request source. The client calls it once its
 * connection is open; each call of the stream it returns gives the
 * next request, or nullopt at the end.
 */
using RequestSource =
    std::function<std::function<std::optional<KvRequest>()>()>;

/**
 * When a reliable run measures and stops: responses that arrive in
 * [measureStart, measureEnd) count toward throughput and RTT; the
 * server, both endpoints and every receiver stop at runUntil; and a
 * request due once either has passed is not sent.
 */
struct ReliableClock
{
    sim::Tick measureStart = 0;
    sim::Tick measureEnd = 0;
    sim::Tick runUntil = 0;
};

/**
 * Reliable KV run over caller-owned endpoints, fed by @p sources:
 * starts a KV server with @p kv and Rng(@p server_seed) over
 * @p server_ep, opens one connection per source from @p client_ep
 * (flow id 0x5eed + its index), sends each source's requests with
 * deduplicated responses, and simulates to the clock's runUntil. If
 * @p before_run is set it is invoked — after both endpoints have been
 * started but before the simulation runs — with runUntil, so callers
 * can arm watchdogs or chaos schedules against the same deadline (see
 * workload/chaos.hh). offeredMops is left 0.
 */
ReliableClientServerResult runReliableClients(
    sim::Simulator &sim, mem::CoherentSystem &server_mem,
    transport::Endpoint &server_ep, transport::Endpoint &client_ep,
    std::uint32_t server_addr, const apps::KvConfig &kv,
    std::uint64_t server_seed, const ReliableClock &clock,
    const std::vector<RequestSource> &sources,
    const RequestHook &on_request = nullptr,
    const std::function<void(sim::Tick run_until)> &before_run =
        nullptr);

} // namespace ccn::workload

#endif // CCN_WORKLOAD_CLIENTSERVER_HH
