/**
 * @file
 * Seeded mutation fuzzer for the scenario readers: the .ccn lexer and
 * parser, and the ccn-kv-trace reader.
 *
 * Each mutant is a corpus entry with one to three random edits (a
 * deleted run of bytes, an inserted printable character, newline or
 * dictionary token, or a replaced byte). A reader must accept it or
 * throw a ScenarioError whose `file:line:col: ` prefix points inside
 * the input; any other exception fails the test, and a crash or
 * undefined behaviour fails it under the sanitizer build. The seed and
 * the mutant counts are fixed, so every run checks the same inputs.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "scenario/parser.hh"
#include "scenario/trace.hh"
#include "sim/random.hh"

namespace {

using namespace ccn;
using scenario::ScenarioError;

/// Tokens the two formats give meaning to, inserted whole.
const std::vector<std::string> kDictionary = {
    "{", "}", ";", "\"", "#", "0x", "-1", "1e999", "0", "1", "0.5",
    "1e30", "0x1ffffffffffffffff", "4294967296",
    "18446744073709551616", "scenario", "platform", "profile", "host",
    "link", "workload", "faults", "replay", "sweep", "kv", "smallmsg",
    "icx", "spr", "coherence", "interface", "queues", "batch", "off",
    "adaptive", "ccnic", "pio", "pcie", "gbps", "delay_ns",
    "queue_pkts", "loss", "dup", "reorder", "corrupt", "seed", "mode",
    "reliable", "raw", "server", "client", "get_fraction", "objects",
    "value_sizes", "ads", "geo", "offered_mops", "request_bytes",
    "client_queues", "server_threads", "warmup_us", "window_us",
    "drain_us", "min_rto_us", "capture", "target", "nic_wedges",
    "link_flaps", "flap_down_us", "loss_bursts", "burst_drops",
    "poison", "torn", "stuck_line", "brownout", "brownout_factor",
    "trace", "pacing", "recorded", "max", "interfaces", "sizes", "get",
    "put", "# ccn-kv-trace v1"};

/// The parser tests' sources, error paths included, and two run
/// sources that between them set every property.
const std::vector<std::string> kParserSources = {
    "hosts a { }",
    "host a {\n  iface ccnic;\n}",
    "host a { }\nhost a { }",
    "host a { }\nlink a ghost { }\nworkload kv { server a; client a; }",
    "host a { }\nlink a { loss 1.5; }",
    "host a { }\nworkload kv {\n  server a; client a;\n"
    "  get_fraction 2;\n}",
    "host a { interface warpdrive; }",
    "host a { }\nworkload kv { server a; client b; }",
    "host a { queues 0; }",
    "host a { }\nhost b { }\n"
    "workload kv { mode raw; server a; client b; }\n"
    "faults { target b; }",
    "host a { }",
    "host a { queues 2 }",
    "host a { }\nlink a { seed -1; }",
    "host a { }\nworkload kv { server a; client a; seed 1e30; }",
    "host a { }\nreplay { trace \"t\"; server a; client a; "
    "seed 1e999; }",
    "host a { }\nhost b { }\nworkload kv { server a; client b; }\n"
    "faults { target b; seed 0x1ffffffffffffffff; }",
    "host a { batch sometimes; }",
    "scenario \"demo\";\nplatform spr;\n"
    "host server { interface ccnic; queues 4; }\n"
    "host client { interface pcie; queues 2; }\n"
    "link server client { gbps 25; delay_ns 600; loss 0.01; seed 7; }\n"
    "workload kv { mode reliable; server server; client client; "
    "get_fraction 0.9; objects 1024; value_sizes geo; "
    "offered_mops 0.5; window_us 100; capture \"c.trace\"; }\n",
    "host a { interface ccnic; batch 8; }\n"
    "host b { interface pio; batch adaptive; }\n"
    "host c { interface pcie; batch off; }\n"
    "host d { interface ccnic; }\n"
    "workload kv { server a; client b; }\n",
    "host a { }\nhost b { }\n"
    "workload kv { server a; client b; value_sizes 256; }",
    "sweep smallmsg { interfaces ccnic pio; sizes 16 64; queues 1; }",
    "scenario \"r\";\n"
    "host server { interface ccnic; queues 2; }\n"
    "host client { interface ccnic; queues 2; }\n"
    "link server client { gbps 25; queue_pkts 128; }\n"
    "replay { trace \"cap.trace\"; server server; client client; "
    "pacing recorded; client_queues 2; server_threads 2; "
    "objects 4096; value_sizes 64; drain_us 1000; min_rto_us 50; "
    "seed 3; }\n",
    "scenario \"chaos\";\n"
    "host server { interface ccnic; queues 2; }\n"
    "host client { interface ccnic; queues 2; }\n"
    "link server client { gbps 25; queue_pkts 128; loss 0.005; "
    "dup 0.01; reorder 0.01; corrupt 0.001; seed 99; }\n"
    "workload kv { mode reliable; server server; client client; "
    "objects 4096; offered_mops 0.5; request_bytes 128; "
    "client_queues 2; server_threads 2; warmup_us 20; window_us 200; "
    "drain_us 2000; min_rto_us 50; seed 0xc4a05; }\n"
    "faults { seed 0xc4a05; target client; nic_wedges 1; "
    "link_flaps 1; flap_down_us 5; loss_bursts 1; burst_drops 4; "
    "poison 1; torn 1; stuck_line 1; brownout 1; "
    "brownout_factor 2; }\nprofile coherence;\n",
};

std::string
readFile(const std::string &path)
{
    std::ifstream f(path);
    std::ostringstream ss;
    ss << f.rdbuf();
    return ss.str();
}

/** Apply one random edit to @p s. */
void
mutate(std::string &s, sim::Rng &rng)
{
    const std::size_t at = rng.below(s.size() + 1);
    switch (rng.below(5)) {
      case 0:
        s.erase(at, 1 + rng.below(8));
        break;
      case 1:
        s.insert(at, 1, static_cast<char>(' ' + rng.below(95)));
        break;
      case 2:
        s.insert(at, 1, '\n');
        break;
      case 3:
        s.insert(at, kDictionary[rng.below(kDictionary.size())]);
        break;
      default:
        if (!s.empty())
            s[rng.below(s.size())] = static_cast<char>(rng.below(256));
        break;
    }
}

/** @p corpus[i % size] with one to three edits. */
std::string
mutant(const std::vector<std::string> &corpus, std::size_t i,
       sim::Rng &rng)
{
    std::string s = corpus[i % corpus.size()];
    for (std::uint64_t k = 0, n = 1 + rng.below(3); k < n; ++k)
        mutate(s, rng);
    return s;
}

/** Lines in @p s, counting a last line without a newline. */
int
lineCount(const std::string &s)
{
    return static_cast<int>(std::count(s.begin(), s.end(), '\n')) +
           (!s.empty() && s.back() != '\n' ? 1 : 0);
}

/**
 * Run @p read over @p input (named @p file in diagnostics) and return
 * "accepted" or the diagnostic, checking that it is positioned inside
 * the input.
 */
template <typename Read>
std::string
outcome(const std::string &file, const std::string &input, Read read)
{
    try {
        read();
        return "accepted";
    } catch (const ScenarioError &e) {
        const std::string what = e.what();
        const std::string prefix = file + ":" + std::to_string(e.line()) +
                                   ":" + std::to_string(e.col()) + ": ";
        EXPECT_EQ(what.rfind(prefix, 0), 0u) << what;
        EXPECT_GE(e.line(), 1) << what;
        EXPECT_LE(e.line(), lineCount(input) + 1) << what;
        EXPECT_GE(e.col(), 1) << what;
        return what;
    } catch (const std::exception &e) {
        ADD_FAILURE() << "not a ScenarioError: " << e.what();
        return e.what();
    }
}

TEST(ScenarioFuzz, ParserAcceptsOrPositionsEveryMutant)
{
    std::vector<std::string> corpus = kParserSources;
    for (const char *name :
         {"chaos_recovery", "kv_reliable", "mem_chaos", "mem_chaos_pcie",
          "mem_chaos_pio", "smallmsg_sweep"}) {
        corpus.push_back(readFile(std::string(CCN_SCENARIO_DIR) + "/" +
                                  name + ".ccn"));
        ASSERT_FALSE(corpus.back().empty()) << name;
    }
    sim::Rng rng(0xf022);
    int accepted = 0;
    for (std::size_t i = 0; i < 60000 && !HasFailure(); ++i) {
        const std::string src = mutant(corpus, i, rng);
        if (outcome("fuzz.ccn", src, [&] {
                scenario::parseScenario("fuzz.ccn", src);
            }) == "accepted")
            accepted++;
        if (HasFailure())
            ADD_FAILURE() << "mutant " << i << ":\n" << src;
    }
    // The edits reach past the first diagnostic: some mutants parse.
    EXPECT_GT(accepted, 0);
}

TEST(ScenarioFuzz, TraceReaderAcceptsOrPositionsEveryMutant)
{
    const std::string path = testing::TempDir() + "fuzz.trace";
    scenario::saveTrace(path, {{0, true, 7, 64},
                               {1500, false, 123456, 64},
                               {1500, true, 0, 128},
                               {90000, true, 4294967295u, 9600}});
    const std::vector<std::string> corpus = {readFile(path)};
    sim::Rng rng(0x7ace);
    int accepted = 0;
    for (std::size_t i = 0; i < 5000 && !HasFailure(); ++i) {
        const std::string text = mutant(corpus, i, rng);
        {
            std::ofstream f(path, std::ios::binary);
            f << text;
        }
        if (outcome(path, text, [&] { scenario::loadTrace(path); }) ==
            "accepted")
            accepted++;
        if (HasFailure())
            ADD_FAILURE() << "mutant " << i << ":\n" << text;
    }
    EXPECT_GT(accepted, 0);
    std::remove(path.c_str());
}

} // namespace
