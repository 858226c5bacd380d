/**
 * @file
 * Parsed representation of one scenario (.ccn) file.
 *
 * A ScenarioSpec is a fully validated declaration of a run: hosts
 * with an interface family each, link parameters per fabric
 * attachment, a KV workload mix, an optional fault schedule, an
 * optional trace replay, or a loopback small-message sweep. Each
 * setting is held in the runtime config the run uses (net::LinkConfig,
 * workload::ClientServerConfig, workload::ChaosConfig); the spec adds
 * only what the DSL declares on top: host names, mode, fault target,
 * capture and trace files, pacing, and declaration sites. The parser
 * guarantees referential integrity (every named host exists, rates
 * are in range), so the runner can build the world without
 * re-validating.
 */

#ifndef CCN_SCENARIO_AST_HH
#define CCN_SCENARIO_AST_HH

#include <cstdint>
#include <string>
#include <vector>

#include "net/link.hh"
#include "workload/chaos.hh"
#include "workload/clientserver.hh"

namespace ccn::scenario {

/** One declared host: a memory system plus one NIC on the fabric. */
struct HostSpec
{
    std::string name;
    std::string interface = "ccnic"; ///< Canonical family key.
    int queues = 2;
    /// Signal-coalescing spec: "" or "off" (disabled), a positive
    /// integer (fixed publish-batch target), or "adaptive".
    std::string batch;
    int line = 0, col = 0; ///< Declaration site (diagnostics).
};

/**
 * Link parameters applied to the fabric attachment of each listed
 * endpoint host (uplink and downlink take the same config; the
 * fabric is a star through one switch, so a two-endpoint link
 * configures both hosts' cables symmetrically).
 */
struct LinkSpec
{
    std::vector<std::string> endpoints; ///< Declared host names.
    net::LinkConfig config;
    int line = 0, col = 0;
};

/** A block a scenario declares at most once, and where. */
struct Block
{
    bool present = false;
    int line = 0, col = 0; ///< Declaration site (diagnostics).
};

/** What a workload and a replay block share: two hosts, one KV run. */
struct KvBlock : Block
{
    /// The library's defaults, but for six the DSL sets its own.
    KvBlock()
    {
        config.kv.numObjects = 1u << 16;
        config.kv.serverThreads = 4;
        config.clientQueues = 2;
        config.offeredOps = 1e6;
        config.window = sim::fromUs(250.0);
        config.drain = sim::fromUs(2000.0);
    }

    std::string server; ///< Declared host name.
    std::string client;
    workload::ClientServerConfig config;
};

/** KV workload mix, run live between the two hosts. */
struct WorkloadSpec : KvBlock
{
    bool reliable = true;    ///< mode reliable | raw.
    std::string captureFile; ///< Nonempty: record the request stream.
};

/** Fault schedule against one workload host. */
struct FaultSpec : Block
{
    std::string target; ///< Host whose NIC/links take the faults.
    workload::ChaosConfig config;
};

/** Trace replay of a recorded request stream through the KV server. */
struct ReplaySpec : KvBlock
{
    std::string traceFile;
    bool preserveGaps = true; ///< pacing recorded | max.
};

/** Loopback small-message latency sweep across interface families. */
struct SweepSpec : Block
{
    std::vector<std::string> interfaces; ///< Canonical family keys.
    std::vector<std::uint32_t> sizes;
    int queues = 1;
};

/** One fully parsed and validated scenario. */
struct ScenarioSpec
{
    std::string name = "scenario";
    std::string file; ///< Source path (diagnostics, reports).
    std::string platform = "icx"; ///< icx | spr.
    /// `profile coherence;` — enable the line-level coherence
    /// contention profiler for every host in the run.
    bool profileCoherence = false;
    std::vector<HostSpec> hosts;
    std::vector<LinkSpec> links;
    WorkloadSpec workload;
    FaultSpec faults;
    ReplaySpec replay;
    SweepSpec sweep;

    /** Declared host by name, or nullptr. */
    const HostSpec *
    host(const std::string &n) const
    {
        for (const HostSpec &h : hosts) {
            if (h.name == n)
                return &h;
        }
        return nullptr;
    }
};

} // namespace ccn::scenario

#endif // CCN_SCENARIO_AST_HH
