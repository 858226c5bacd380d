/**
 * @file
 * Recursive-descent parser for the scenario DSL.
 *
 * Grammar (EBNF; also reproduced in DESIGN.md):
 *
 *   scenario    = { statement } ;
 *   statement   = "scenario" string ";"
 *               | "platform" ident ";"                (* icx | spr *)
 *               | "host" ident "{" { host-prop } "}"
 *               | "link" ident { ident } "{" { link-prop } "}"
 *               | "workload" "kv" "{" { kv-prop } "}"
 *               | "faults" "{" { fault-prop } "}"
 *               | "replay" "{" { replay-prop } "}"
 *               | "sweep" "smallmsg" "{" { sweep-prop } "}"
 *               | "profile" "coherence" ";" ;
 *   host-prop   = "interface" ident ";" | "queues" number ";"
 *               | "batch" ( "off" | "adaptive" | number ) ";" ;
 *   link-prop   = ( "gbps" | "delay_ns" | "queue_pkts" | "loss"
 *                 | "dup" | "reorder" | "corrupt" | "seed" )
 *                 number ";" ;
 *   shared-prop = ( "server" | "client" ) ident ";"
 *               | "value_sizes" ( "ads" | "geo" | number ) ";"
 *               | ( "objects" | "client_queues" | "server_threads"
 *                 | "drain_us" | "min_rto_us" | "seed" ) number ";" ;
 *   kv-prop     = shared-prop
 *               | "mode" ( "reliable" | "raw" ) ";"
 *               | "capture" string ";"
 *               | ( "get_fraction" | "offered_mops" | "request_bytes"
 *                 | "warmup_us" | "window_us" ) number ";" ;
 *   fault-prop  = "target" ident ";"
 *               | ( "seed" | "nic_wedges" | "link_flaps"
 *                 | "flap_down_us" | "loss_bursts" | "burst_drops"
 *                 | "poison" | "torn" | "stuck_line" | "brownout"
 *                 | "brownout_factor" ) number ";" ;
 *   replay-prop = shared-prop
 *               | "trace" string ";"
 *               | "pacing" ( "recorded" | "max" ) ";" ;
 *   sweep-prop  = "interfaces" ident { ident } ";"
 *               | "sizes" number { number } ";"
 *               | "queues" number ";" ;
 *
 * The parser writes each setting into the runtime config the run
 * uses (ast.hh). A seed is any number in [0, 2^64), its fraction
 * dropped. A count (queues, batch, queue_pkts, objects,
 * client_queues, server_threads, request_bytes, a fixed value or
 * sweep size, and the fault event counts) is a whole number in its
 * range.
 *
 * All diagnostics — lexical, syntactic, and semantic (duplicate host
 * names, dangling link endpoints, unknown interface families,
 * out-of-range rates) — are thrown as ScenarioError with the
 * `file:line:col: message` shape.
 */

#ifndef CCN_SCENARIO_PARSER_HH
#define CCN_SCENARIO_PARSER_HH

#include <string>

#include "scenario/ast.hh"
#include "scenario/lexer.hh"

namespace ccn::scenario {

/** Parse scenario source text. @p file names it in diagnostics. */
ScenarioSpec parseScenario(const std::string &file,
                           const std::string &source);

/** Read and parse a .ccn file. Throws ScenarioError (including on
 *  an unreadable path, reported at line 1, col 1). */
ScenarioSpec loadScenario(const std::string &path);

} // namespace ccn::scenario

#endif // CCN_SCENARIO_PARSER_HH
