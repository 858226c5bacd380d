/**
 * @file
 * Scenario execution: turn a validated ScenarioSpec into a running
 * simulated world, drive the declared workload (kv / replay / sweep,
 * with an optional fault schedule), and collect the same result
 * tables and observability sections the hand-written benches emit —
 * so tools/counters_gate.py gates a scenario run identically to a
 * bench run.
 */

#ifndef CCN_SCENARIO_RUNNER_HH
#define CCN_SCENARIO_RUNNER_HH

#include <string>
#include <vector>

#include "scenario/ast.hh"
#include "scenario/trace.hh"
#include "stats/json.hh"
#include "workload/chaos.hh"
#include "workload/clientserver.hh"

namespace ccn::scenario {

/** Everything a scenario run produced. */
struct ScenarioOutcome
{
    /// Report named "scenario_<name>" with a "results" table plus the
    /// standard counters/latency/timeseries sections.
    stats::JsonReport json{"scenario"};

    /// Which runner path executed, as the banner and the "scenario"
    /// section name it: "kv_raw", "kv_reliable", "chaos", "replay" or
    /// "sweep".
    std::string mode;

    workload::ClientServerResult raw;        ///< kv_raw.
    /// kv_reliable, chaos and replay. A replay measures every response
    /// (its window never closes), so its achieved rate and bandwidth
    /// read about 0; the "results" table reports counts and RTTs.
    workload::ReliableClientServerResult kv;
    workload::ChaosKvResult chaos;           ///< chaos.

    /// Requests recorded when the workload declared a capture file
    /// (also written to that file).
    std::vector<TraceRecord> captured;
};

/**
 * Run @p spec to completion. Prints the result tables to stdout
 * (matching bench output style) unless @p quiet. Throws ScenarioError
 * for runtime scenario problems (unreadable trace file) and
 * propagates harness exceptions unchanged.
 */
ScenarioOutcome runScenario(const ScenarioSpec &spec,
                            bool quiet = false);

} // namespace ccn::scenario

#endif // CCN_SCENARIO_RUNNER_HH
