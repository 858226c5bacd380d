/**
 * @file
 * Recorded KV request streams: capture from a live run, replay later.
 *
 * The on-disk format is deliberately line-oriented text so traces can
 * be inspected, filtered, and hand-written:
 *
 *   # ccn-kv-trace v1
 *   <t_ns> <get|put> <key> <bytes>
 *
 * One record per line; `t_ns` is the request's submit time in
 * nanoseconds from run start and `bytes` is the request payload size
 * put on the wire. The three numbers are unsigned decimal integers
 * without a sign; `key` and `bytes` fit in 32 bits and `t_ns` is at
 * most half the tick range in nanoseconds (about 9.2e15). Responses
 * are not recorded — replay regenerates them by running the same
 * keyspace-seeded KV server.
 */

#ifndef CCN_SCENARIO_TRACE_HH
#define CCN_SCENARIO_TRACE_HH

#include <cstdint>
#include <string>
#include <vector>

namespace ccn::scenario {

/** One recorded request. */
struct TraceRecord
{
    std::uint64_t atNs = 0; ///< Submit time, ns from run start.
    bool get = true;        ///< GET vs PUT.
    std::uint32_t key = 0;
    std::uint32_t bytes = 0; ///< Request payload size.
};

/** Write @p records to @p path in ccn-kv-trace v1 format. */
void saveTrace(const std::string &path,
               const std::vector<TraceRecord> &records);

/**
 * Parse a ccn-kv-trace file. Throws ScenarioError (file:line:1) on a
 * missing/bad header, a malformed record line (including a signed or
 * out-of-range field), or an unreadable path. Blank lines and `#`
 * comments after the header are skipped.
 */
std::vector<TraceRecord> loadTrace(const std::string &path);

} // namespace ccn::scenario

#endif // CCN_SCENARIO_TRACE_HH
