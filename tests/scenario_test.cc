/**
 * @file
 * Scenario subsystem tests: lexer/parser diagnostics (every error a
 * file:line:col), trace round-tripping, and end-to-end scenario runs
 * — raw and reliable KV over the fabric, KV over the PIO family, a
 * chaos schedule, a loopback sweep, and the capture→replay loop whose
 * replayed op count and loss must match the live run.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "mem/platform.hh"
#include "net/fabric.hh"
#include "scenario/parser.hh"
#include "scenario/runner.hh"
#include "scenario/trace.hh"
#include "scenario/world.hh"
#include "workload/clientserver.hh"
#include "workload/dists.hh"

namespace {

using namespace ccn;
using scenario::ScenarioError;
using scenario::ScenarioSpec;

/** Parse with a fixed file name for diagnostics. */
ScenarioSpec
parse(const std::string &src)
{
    return scenario::parseScenario("test.ccn", src);
}

/** Expect a ScenarioError whose position and message substring match. */
void
expectError(const std::string &src, int line, int col,
            const std::string &needle)
{
    try {
        parse(src);
        FAIL() << "expected ScenarioError containing '" << needle
               << "'";
    } catch (const ScenarioError &e) {
        EXPECT_EQ(e.line(), line) << e.what();
        EXPECT_EQ(e.col(), col) << e.what();
        EXPECT_NE(std::string(e.what()).find(needle),
                  std::string::npos)
            << e.what();
        // Diagnostics render as file:line:col: message.
        const std::string prefix = "test.ccn:" +
                                   std::to_string(line) + ":" +
                                   std::to_string(col) + ": ";
        EXPECT_EQ(std::string(e.what()).rfind(prefix, 0), 0u)
            << e.what();
    }
}

std::string
tempPath(const std::string &name)
{
    return testing::TempDir() + name;
}

// ---------------------------------------------------------------------------
// Lexer.

TEST(ScenarioLexer, TokensCarryPositions)
{
    const auto toks = scenario::lex("t", "host a {\n  queues 2;\n}");
    ASSERT_EQ(toks.size(), 8u); // host a { queues 2 ; } End
    EXPECT_EQ(toks[0].text, "host");
    EXPECT_EQ(toks[0].line, 1);
    EXPECT_EQ(toks[0].col, 1);
    EXPECT_EQ(toks[3].text, "queues");
    EXPECT_EQ(toks[3].line, 2);
    EXPECT_EQ(toks[3].col, 3);
    EXPECT_EQ(toks[4].number, 2.0);
}

TEST(ScenarioLexer, NumbersCommentsStrings)
{
    const auto toks = scenario::lex(
        "t", "# comment\nseed 0xc4a05; rate 2.5e6; name \"x y\";");
    EXPECT_EQ(toks[1].number, static_cast<double>(0xc4a05));
    EXPECT_EQ(toks[4].number, 2.5e6);
    EXPECT_EQ(toks[7].text, "x y");
}

TEST(ScenarioLexer, UnterminatedStringIsPositioned)
{
    try {
        scenario::lex("t", "scenario \"oops\n;");
        FAIL();
    } catch (const ScenarioError &e) {
        EXPECT_EQ(e.line(), 1);
        EXPECT_EQ(e.col(), 10);
    }
}

// ---------------------------------------------------------------------------
// Parser error paths: every diagnostic is file:line:col.

TEST(ScenarioParser, UnknownTopLevelKeyword)
{
    expectError("hosts a { }", 1, 1, "unknown keyword 'hosts'");
}

TEST(ScenarioParser, UnknownHostProperty)
{
    expectError("host a {\n  iface ccnic;\n}", 2, 3,
                "unknown keyword 'iface' in host block");
}

TEST(ScenarioParser, DuplicateHostName)
{
    expectError("host a { }\nhost a { }", 2, 6,
                "duplicate host name 'a'");
}

TEST(ScenarioParser, DanglingLinkEndpoint)
{
    expectError("host a { }\nlink a ghost { }\n"
                "workload kv { server a; client a; }",
                2, 6, "link endpoint 'ghost' is not a declared host");
}

TEST(ScenarioParser, LossRateOutOfRange)
{
    expectError("host a { }\nlink a { loss 1.5; }", 2, 15,
                "loss 1.5 out of range [0, 1]");
}

TEST(ScenarioParser, GetFractionOutOfRange)
{
    expectError("host a { }\nworkload kv {\n  server a; client a;\n"
                "  get_fraction 2;\n}",
                4, 16, "get_fraction 2 out of range");
}

TEST(ScenarioParser, UnknownInterfaceFamily)
{
    expectError("host a { interface warpdrive; }", 1, 20,
                "unknown interface family 'warpdrive'");
}

TEST(ScenarioParser, UndeclaredWorkloadHost)
{
    expectError("host a { }\nworkload kv { server a; client b; }", 2,
                10, "'b' is not a declared host");
}

TEST(ScenarioParser, ZeroQueuesRejected)
{
    expectError("host a { queues 0; }", 1, 17,
                "queues 0 out of range");
}

TEST(ScenarioParser, FractionalCountsRejected)
{
    // A count is a whole number: a fraction is an error, not cast down.
    expectError("host a { queues 2.5; }", 1, 17,
                "queues 2.5 is not a whole number");
    expectError("host a { }\nworkload kv { server a; client a; "
                "client_queues 1.5; }",
                2, 49, "client_queues 1.5 is not a whole number");
    expectError("sweep smallmsg { interfaces ccnic; sizes 64 100.5; }", 1,
                45, "sizes 100.5 is not a whole number");
    expectError("host a { }\nhost b { }\n"
                "workload kv { mode reliable; server a; client b; }\n"
                "faults { target b; nic_wedges 0.5; }",
                4, 31, "nic_wedges 0.5 is not a whole number");
}

TEST(ScenarioParser, FaultsRequireReliableWorkload)
{
    expectError("host a { }\nhost b { }\n"
                "workload kv { mode raw; server a; client b; }\n"
                "faults { target b; }",
                4, 8, "faults require a reliable kv workload");
}

TEST(ScenarioParser, NothingToRunRejected)
{
    expectError("host a { }", 1, 1, "declares nothing to run");
}

TEST(ScenarioParser, MissingSemicolonPositioned)
{
    expectError("host a { queues 2 }", 1, 19, "expected ';'");
}

TEST(ScenarioParser, NegativeSeedRejected)
{
    expectError("host a { }\nlink a { seed -1; }", 2, 15,
                "seed -1 out of range [0, 2^64)");
}

TEST(ScenarioParser, HugeSeedRejected)
{
    expectError("host a { }\nworkload kv { server a; client a; "
                "seed 1e30; }",
                2, 40, "seed 1e30 out of range [0, 2^64)");
    // 1e999 lexes to infinity.
    expectError("host a { }\nreplay { trace \"t\"; server a; "
                "client a; seed 1e999; }",
                2, 46, "seed 1e999 out of range [0, 2^64)");
}

TEST(ScenarioParser, HexSeedPast64BitsRejected)
{
    expectError("host a { }\nhost b { }\n"
                "workload kv { server a; client b; }\n"
                "faults { target b; seed 0x1ffffffffffffffff; }",
                4, 25, "seed 0x1ffffffffffffffff out of range");
}

// ---------------------------------------------------------------------------
// Parser success paths.

TEST(ScenarioParser, FullKvSpecParses)
{
    const ScenarioSpec spec = parse(
        "scenario \"demo\";\nplatform spr;\n"
        "host server { interface ccnic; queues 4; }\n"
        "host client { interface pcie; queues 2; }\n"
        "link server client { gbps 25; delay_ns 600; loss 0.01; "
        "seed 7; }\n"
        "workload kv { mode reliable; server server; client client; "
        "get_fraction 0.9; objects 1024; value_sizes geo; "
        "offered_mops 0.5; window_us 100; capture \"c.trace\"; }\n");
    EXPECT_EQ(spec.name, "demo");
    EXPECT_EQ(spec.platform, "spr");
    ASSERT_EQ(spec.hosts.size(), 2u);
    EXPECT_EQ(spec.hosts[0].interface, "ccnic");
    EXPECT_EQ(spec.hosts[0].queues, 4);
    // The DSL's generation-agnostic alias resolves to the canonical
    // registry key.
    EXPECT_EQ(spec.hosts[1].interface, "pcie_e810");
    ASSERT_EQ(spec.links.size(), 1u);
    EXPECT_EQ(spec.links[0].config.gbps, 25.0);
    EXPECT_EQ(spec.links[0].config.faults.dropRate, 0.01);
    EXPECT_EQ(spec.links[0].config.faults.seed, 7u);
    EXPECT_TRUE(spec.workload.present);
    EXPECT_TRUE(spec.workload.reliable);
    EXPECT_EQ(spec.workload.config.kv.getFraction, 0.9);
    EXPECT_EQ(spec.workload.config.kv.numObjects, 1024u);
    EXPECT_EQ(spec.workload.config.kv.sizes.mean(),
              workload::SizeDist::geo().mean());
    EXPECT_EQ(spec.workload.captureFile, "c.trace");
}

TEST(ScenarioParser, HostBatchSpecParses)
{
    const ScenarioSpec spec = parse(
        "host a { interface ccnic; batch 8; }\n"
        "host b { interface pio; batch adaptive; }\n"
        "host c { interface pcie; batch off; }\n"
        "host d { interface ccnic; }\n"
        "workload kv { server a; client b; }\n");
    ASSERT_EQ(spec.hosts.size(), 4u);
    EXPECT_EQ(spec.hosts[0].batch, "8");
    EXPECT_EQ(spec.hosts[1].batch, "adaptive");
    EXPECT_EQ(spec.hosts[2].batch, "off");
    EXPECT_EQ(spec.hosts[3].batch, ""); // Unset: policy stays off.
}

TEST(ScenarioParser, UnknownBatchModeRejected)
{
    expectError("host a { batch sometimes; }", 1, 16,
                "unknown batch mode 'sometimes' (expected off, "
                "adaptive, or a size)");
}

TEST(ScenarioParser, FixedValueSizes)
{
    const ScenarioSpec spec = parse(
        "host a { }\nhost b { }\n"
        "workload kv { server a; client b; value_sizes 256; }");
    sim::Rng rng;
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(spec.workload.config.kv.sizes.sample(rng), 256u);
}

TEST(ScenarioParser, SweepSpecParses)
{
    const ScenarioSpec spec = parse(
        "sweep smallmsg { interfaces ccnic pio; sizes 16 64; "
        "queues 1; }");
    ASSERT_TRUE(spec.sweep.present);
    EXPECT_EQ(spec.sweep.interfaces,
              (std::vector<std::string>{"ccnic", "pio"}));
    EXPECT_EQ(spec.sweep.sizes,
              (std::vector<std::uint32_t>{16, 64}));
}

TEST(ScenarioParser, LoadScenarioReportsUnreadablePath)
{
    EXPECT_THROW(scenario::loadScenario("/nonexistent/x.ccn"),
                 ScenarioError);
}

// ---------------------------------------------------------------------------
// Trace format.

TEST(ScenarioTrace, RoundTrips)
{
    const std::string path = tempPath("rt.trace");
    const std::vector<scenario::TraceRecord> recs = {
        {0, true, 7, 64},
        {1500, false, 123456, 64},
        {1500, true, 0, 128},
    };
    scenario::saveTrace(path, recs);
    const auto back = scenario::loadTrace(path);
    ASSERT_EQ(back.size(), recs.size());
    for (std::size_t i = 0; i < recs.size(); ++i) {
        EXPECT_EQ(back[i].atNs, recs[i].atNs);
        EXPECT_EQ(back[i].get, recs[i].get);
        EXPECT_EQ(back[i].key, recs[i].key);
        EXPECT_EQ(back[i].bytes, recs[i].bytes);
    }
    std::remove(path.c_str());
}

TEST(ScenarioTrace, RejectsBadHeaderAndRecords)
{
    const std::string path = tempPath("bad.trace");
    {
        std::ofstream f(path);
        f << "not a trace\n";
    }
    EXPECT_THROW(scenario::loadTrace(path), ScenarioError);
    {
        std::ofstream f(path);
        f << "# ccn-kv-trace v1\n100 frob 1 64\n";
    }
    try {
        scenario::loadTrace(path);
        FAIL();
    } catch (const ScenarioError &e) {
        EXPECT_EQ(e.line(), 2);
        EXPECT_NE(std::string(e.what()).find("unknown trace op"),
                  std::string::npos);
    }
    {
        std::ofstream f(path);
        f << "# ccn-kv-trace v1\n200 get 1 64\n100 get 2 64\n";
    }
    EXPECT_THROW(scenario::loadTrace(path), ScenarioError);
    std::remove(path.c_str());
}

TEST(ScenarioTrace, RejectsSignedAndOutOfRangeFields)
{
    // Read with a sign, a field wraps (-5 ns to 18446744073709551611
    // ns, key -1 to 4294967295); t_ns past half the tick range
    // overflows a replay's send tick.
    const std::string path = tempPath("wrap.trace");
    for (const char *rec :
         {"-5 get 1 64", "5 get -1 64", "5 get 1 -64", "+5 get 1 64",
          "18446744073709551616 get 1 64", "20000000000000000 get 1 64",
          "5 get 4294967296 64", "5 get 1 4294967296", "5 get 1 64x",
          "5.0 get 1 64"}) {
        {
            std::ofstream f(path);
            f << "# ccn-kv-trace v1\n0 get 1 64\n" << rec << "\n";
        }
        try {
            scenario::loadTrace(path);
            ADD_FAILURE() << "accepted '" << rec << "'";
        } catch (const ScenarioError &e) {
            EXPECT_EQ(e.line(), 3) << e.what();
            EXPECT_EQ(e.col(), 1) << e.what();
            EXPECT_NE(std::string(e.what()).find(
                          "malformed trace record"),
                      std::string::npos)
                << e.what();
        }
    }
    {
        std::ofstream f(path);
        f << "# ccn-kv-trace v1\n9000000000000000 put 4294967295 "
             "4294967295\n";
    }
    const auto recs = scenario::loadTrace(path);
    ASSERT_EQ(recs.size(), 1u);
    EXPECT_EQ(recs[0].atNs, 9000000000000000u);
    EXPECT_FALSE(recs[0].get);
    EXPECT_EQ(recs[0].key, 4294967295u);
    EXPECT_EQ(recs[0].bytes, 4294967295u);
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// End-to-end scenario runs. Kept small so the suite stays fast.

std::string
kvScenario(const std::string &iface, const std::string &extra_workload)
{
    return "scenario \"t\";\n"
           "host server { interface " + iface + "; queues 2; }\n"
           "host client { interface " + iface + "; queues 2; }\n"
           "link server client { gbps 25; queue_pkts 128; }\n"
           "workload kv { mode reliable; server server; "
           "client client; objects 4096; offered_mops 0.5; "
           "client_queues 2; server_threads 2; window_us 100; "
           "drain_us 1000; min_rto_us 50; " + extra_workload + " }\n";
}

TEST(ScenarioRun, ReliableKvOverCcNic)
{
    const auto out =
        scenario::runScenario(parse(kvScenario("ccnic", "")), true);
    EXPECT_EQ(out.mode, "kv_reliable");
    EXPECT_GT(out.kv.requestsSent, 0u);
    EXPECT_EQ(out.kv.lostRequests, 0u);
    EXPECT_EQ(out.kv.retransmits, 0u);
    EXPECT_EQ(out.kv.responses, out.kv.requestsSent);
}

TEST(ScenarioRun, ReliableKvOverPio)
{
    // Satellite for the PIO family: the same KV client-server path
    // end-to-end over PIO message-register NICs on the fabric.
    const auto out =
        scenario::runScenario(parse(kvScenario("pio", "")), true);
    EXPECT_EQ(out.mode, "kv_reliable");
    EXPECT_GT(out.kv.requestsSent, 0u);
    EXPECT_EQ(out.kv.lostRequests, 0u);
    EXPECT_EQ(out.kv.responses, out.kv.requestsSent);
}

TEST(ScenarioRun, CaptureThenReplayPreservesOps)
{
    const std::string trace = tempPath("cap.trace");
    const auto live = scenario::runScenario(
        parse(kvScenario("ccnic",
                         "capture \"" + trace + "\";")),
        true);
    ASSERT_GT(live.kv.requestsSent, 0u);
    ASSERT_EQ(live.captured.size(), live.kv.requestsSent);

    const auto replay = scenario::runScenario(
        parse("scenario \"r\";\n"
              "host server { interface ccnic; queues 2; }\n"
              "host client { interface ccnic; queues 2; }\n"
              "link server client { gbps 25; queue_pkts 128; }\n"
              "replay { trace \"" + trace + "\"; server server; "
              "client client; pacing recorded; client_queues 2; "
              "server_threads 2; objects 4096; drain_us 1000; "
              "min_rto_us 50; }\n"),
        true);
    EXPECT_EQ(replay.mode, "replay");
    // The replayed run sends every op the live run sent and loses
    // nothing.
    EXPECT_EQ(replay.kv.requestsSent, live.kv.requestsSent);
    EXPECT_EQ(replay.kv.responses, live.kv.requestsSent);
    EXPECT_EQ(replay.kv.lostRequests, 0u);
    // Exact replay output, pinned so a change to the replay path
    // that claims identical output is checked.
    EXPECT_EQ(replay.kv.requestsSent, 78u);
    EXPECT_EQ(replay.kv.responses, 78u);
    EXPECT_EQ(replay.kv.duplicateResponses, 0u);
    EXPECT_DOUBLE_EQ(replay.kv.rttP50Ns, 4685.824);
    EXPECT_DOUBLE_EQ(replay.kv.rttP99Ns, 8797.776);
    std::remove(trace.c_str());
}

TEST(ScenarioRun, RawKvWithCapturePinned)
{
    // The raw datagram client (no transport) with a capture: exact
    // counts and RTTs pinned so a change to the raw client's request
    // stream that claims identical output is checked.
    const std::string trace = tempPath("raw.trace");
    const auto out = scenario::runScenario(
        parse("scenario \"raw\";\n"
              "host server { interface ccnic; queues 2; }\n"
              "host client { interface ccnic; queues 2; }\n"
              "link server client { gbps 25; queue_pkts 128; }\n"
              "workload kv { mode raw; server server; client client; "
              "objects 4096; offered_mops 2; client_queues 2; "
              "server_threads 2; window_us 100; capture \"" +
              trace + "\"; }\n"),
        true);
    EXPECT_EQ(out.mode, "kv_raw");
    EXPECT_EQ(out.captured.size(), out.raw.requestsSent);
    EXPECT_EQ(out.raw.requestsSent, 308u);
    EXPECT_EQ(out.raw.responses, 203u);
    EXPECT_EQ(out.raw.txBackpressure, 0u);
    EXPECT_DOUBLE_EQ(out.raw.rttP50Ns, 4816.896);
    EXPECT_DOUBLE_EQ(out.raw.rttP99Ns, 8585.216);
    std::remove(trace.c_str());
}

TEST(ScenarioRun, ReplayMaxRateCompletes)
{
    const std::string trace = tempPath("max.trace");
    std::vector<scenario::TraceRecord> recs;
    for (int i = 0; i < 64; ++i) {
        recs.push_back({static_cast<std::uint64_t>(i) * 1000,
                        i % 4 != 0,
                        static_cast<std::uint32_t>(i % 32), 64});
    }
    scenario::saveTrace(trace, recs);
    const auto out = scenario::runScenario(
        parse("host server { interface ccnic; queues 2; }\n"
              "host client { interface ccnic; queues 2; }\n"
              "link server client { gbps 25; }\n"
              "replay { trace \"" + trace + "\"; server server; "
              "client client; pacing max; objects 64; "
              "drain_us 1000; min_rto_us 50; }\n"),
        true);
    EXPECT_EQ(out.mode, "replay");
    EXPECT_EQ(out.kv.requestsSent, 64u);
    EXPECT_EQ(out.kv.responses, 64u);
    EXPECT_EQ(out.kv.lostRequests, 0u);
    EXPECT_EQ(out.kv.duplicateResponses, 0u);
    EXPECT_DOUBLE_EQ(out.kv.rttP50Ns, 15794.176);
    EXPECT_DOUBLE_EQ(out.kv.rttP99Ns, 19791.872);
    std::remove(trace.c_str());
}

TEST(ScenarioRun, ChaosScheduleRecovers)
{
    const auto out = scenario::runScenario(
        parse("scenario \"chaos\";\n"
              "host server { interface ccnic; queues 2; }\n"
              "host client { interface ccnic; queues 2; }\n"
              "link server client { gbps 25; queue_pkts 128; "
              "loss 0.005; seed 99; }\n"
              "workload kv { mode reliable; server server; "
              "client client; objects 4096; offered_mops 0.5; "
              "client_queues 2; server_threads 2; window_us 200; "
              "drain_us 2000; min_rto_us 50; }\n"
              "faults { seed 0xc4a05; target client; nic_wedges 1; "
              "link_flaps 1; flap_down_us 5; loss_bursts 1; "
              "burst_drops 4; }\n"),
        true);
    EXPECT_EQ(out.mode, "chaos");
    EXPECT_EQ(out.chaos.wedgesInjected, 1u);
    EXPECT_EQ(out.chaos.recoveries, 1u);
    EXPECT_EQ(out.kv.lostRequests, 0u);
    EXPECT_EQ(out.chaos.leakedBufs, 0u);
    EXPECT_TRUE(out.chaos.ringsLive);
}

TEST(ScenarioRun, SweepProducesLatencyTable)
{
    const auto out = scenario::runScenario(
        parse("sweep smallmsg { interfaces ccnic pio; sizes 64; "
              "queues 1; }"),
        true);
    EXPECT_EQ(out.mode, "sweep");
    const auto &sections = out.json.sections();
    ASSERT_FALSE(sections.empty());
    EXPECT_EQ(sections[0].first, "results");
    const auto &rows = sections[0].second.rows();
    ASSERT_EQ(rows.size(), 2u);
    // min_rtt_ns is the last column; both families must measure a
    // positive closed-loop latency.
    for (const auto &row : rows)
        EXPECT_GT(std::stod(row.back()), 0.0);
}

TEST(ScenarioRun, MatchesHandCodedHarness)
{
    // The scenario path must reproduce the hand-coded harness result
    // for the same configuration: identical world construction order
    // gives identical accepted-request and response counts.
    const auto out =
        scenario::runScenario(parse(kvScenario("ccnic", "")), true);

    const auto plat = mem::icxConfig();
    sim::Simulator simv;
    obs::Sampler sampler(simv);
    sampler.start();
    auto server = scenario::makeHost(simv, "ccnic", plat, 2, 11);
    auto client = scenario::makeHost(simv, "ccnic", plat, 2, 12);
    net::Fabric fabric(simv);
    net::LinkConfig link;
    link.gbps = 25.0;
    link.propDelay = sim::fromNs(500.0);
    link.queuePackets = 128;
    const auto server_addr = fabric.attach(
        "server", scenario::hostHooks(*server), link);
    fabric.attach("client", scenario::hostHooks(*client), link);

    workload::ClientServerConfig cfg;
    cfg.kv.serverThreads = 2;
    cfg.kv.numObjects = 4096;
    cfg.kv.getFraction = 0.95;
    cfg.kv.sizes = workload::SizeDist::ads();
    cfg.offeredOps = 0.5e6;
    cfg.clientQueues = 2;
    cfg.window = sim::fromUs(100.0);
    cfg.drain = sim::fromUs(1000.0);
    cfg.tp.minRto = sim::fromUs(50.0);
    const auto direct = workload::runKvClientServerReliable(
        simv, server->system, *server->nic, client->system,
        *client->nic, server_addr, cfg);

    EXPECT_EQ(direct.lostRequests, 0u);
    EXPECT_EQ(out.kv.lostRequests, 0u);
    // Same world construction, link parameters, and workload config:
    // the scenario path must land within a few percent of the
    // hand-coded harness (scheduling order may differ slightly).
    EXPECT_NEAR(static_cast<double>(out.kv.requestsSent),
                static_cast<double>(direct.requestsSent),
                0.05 * static_cast<double>(direct.requestsSent) + 2.0);
    EXPECT_NEAR(out.kv.achievedMops, direct.achievedMops,
                0.05 * direct.achievedMops + 1e-3);
}

TEST(ScenarioWorld, FamilyRegistryAndAliases)
{
    EXPECT_EQ(scenario::canonicalFamilyKey("pcie"), "pcie_e810");
    EXPECT_EQ(scenario::canonicalFamilyKey("pcie_gen5"), "pcie_cx6");
    EXPECT_EQ(scenario::canonicalFamilyKey("ccnic"), "ccnic");
    EXPECT_EQ(scenario::canonicalFamilyKey("nope"), "");
    EXPECT_THROW(scenario::worldFactory("nope", mem::icxConfig(), 1),
                 std::invalid_argument);
    sim::Simulator simv;
    EXPECT_THROW(scenario::makeHost(simv, "nope", mem::icxConfig(), 1,
                                    1),
                 std::invalid_argument);
}

} // namespace
