#include "scenario/parser.hh"

#include <algorithm>
#include <fstream>
#include <functional>
#include <sstream>
#include <utility>

#include "scenario/world.hh"

namespace ccn::scenario {

namespace {

/// A block's property table: each keyword with the reader that parses
/// its value into the block.
using Props = std::vector<std::pair<std::string, std::function<void()>>>;

/** Token-stream cursor with the shared error helpers. */
class Parser
{
  public:
    Parser(std::string file, const std::string &source)
        : file_(std::move(file)), toks_(lex(file_, source))
    {}

    ScenarioSpec
    parse()
    {
        ScenarioSpec spec;
        spec.file = file_;
        while (!at(TokKind::End))
            statement(spec);
        validate(spec);
        return spec;
    }

  private:
    const Token &peek() const { return toks_[pos_]; }

    const Token &
    next()
    {
        const Token &t = toks_[pos_];
        if (t.kind != TokKind::End)
            pos_++;
        return t;
    }

    bool at(TokKind k) const { return peek().kind == k; }

    [[noreturn]] void
    fail(const Token &t, const std::string &msg) const
    {
        throw ScenarioError(file_, t.line, t.col, msg);
    }

    Token
    expect(TokKind k, const std::string &what)
    {
        if (!at(k))
            fail(peek(), "expected " + what + ", got " +
                             peek().describe());
        return next();
    }

    std::string
    expectIdent(const std::string &what)
    {
        return expect(TokKind::Ident, what).text;
    }

    double
    expectNumber(const std::string &what)
    {
        return expect(TokKind::Number, "a number for " + what).number;
    }

    /** A number constrained to [lo, hi]; diagnostics carry the range. */
    double
    numberIn(const std::string &what, double lo, double hi)
    {
        const Token &t = peek();
        const double v = expectNumber(what);
        if (!(v >= lo && v <= hi)) {
            std::ostringstream os;
            os << what << " " << t.text << " out of range [" << lo
               << ", " << hi << "]";
            fail(t, os.str());
        }
        return v;
    }

    /** A seed: any number in [0, 2^64), its fraction dropped. */
    std::uint64_t
    seed()
    {
        const Token &t = peek();
        const double v = expectNumber("seed");
        if (!(v >= 0 && v < 0x1p64))
            fail(t, "seed " + t.text + " out of range [0, 2^64)");
        return static_cast<std::uint64_t>(v);
    }

    std::uint32_t
    positiveInt(const std::string &what, double hi = 1e9)
    {
        return static_cast<std::uint32_t>(numberIn(what, 1, hi));
    }

    void
    semi()
    {
        expect(TokKind::Semi, "';'");
    }

    /**
     * An identifier from @p allowed (@p what names it when missing);
     * any other is "unknown <noun> '<text>' (<hint>)".
     */
    Token
    oneOf(const std::string &what, const std::vector<std::string> &allowed,
          const std::string &noun, const std::string &hint)
    {
        const Token t = expect(TokKind::Ident, what);
        if (std::find(allowed.begin(), allowed.end(), t.text) ==
            allowed.end())
            fail(t, "unknown " + noun + " '" + t.text + "' (" + hint + ")");
        return t;
    }

    /** An interface family, as its canonical key. */
    std::string
    family()
    {
        const Token t = peek();
        const std::string key =
            canonicalFamilyKey(expectIdent("an interface family"));
        if (key.empty())
            fail(t, "unknown interface family '" + t.text +
                        "' (known: " + familyKeyList() + ")");
        return key;
    }

    /** value_sizes: ads | geo | a fixed byte count. */
    workload::SizeDist
    sizes()
    {
        if (at(TokKind::Number)) {
            const std::uint32_t b = positiveInt("value_sizes", 9600);
            return workload::SizeDist({{1.0, b, b + 1}});
        }
        return oneOf("a size distribution", {"ads", "geo"},
                     "size distribution",
                     "expected ads, geo, or a byte count")
                           .text == "geo"
                   ? workload::SizeDist::geo()
                   : workload::SizeDist::ads();
    }

    /** Mark @p b, a block a scenario declares once, as declared at @p t. */
    void
    declare(Block &b, const Token &t, const std::string &block)
    {
        if (b.present)
            fail(t, "duplicate " + block + " block");
        b.present = true;
        b.line = t.line;
        b.col = t.col;
    }

    /**
     * A block body, `"{" { property ";" } "}"`: each property is read
     * by its entry in @p props. @p what names a property in diagnostics.
     */
    void
    body(const std::string &block, const std::string &what,
         const Props &props)
    {
        expect(TokKind::LBrace, "'{'");
        while (!at(TokKind::RBrace)) {
            const Token p = expect(TokKind::Ident, what);
            const auto it = std::find_if(
                props.begin(), props.end(),
                [&](const auto &e) { return e.first == p.text; });
            if (it == props.end())
                fail(p, "unknown keyword '" + p.text + "' in " + block +
                            " block");
            it->second();
            semi();
        }
        next(); // '}'
    }

    void
    statement(ScenarioSpec &spec)
    {
        const Token kw = expect(TokKind::Ident, "a statement keyword");
        if (kw.text == "scenario") {
            spec.name = expect(TokKind::String,
                               "a quoted scenario name").text;
            semi();
        } else if (kw.text == "platform") {
            spec.platform = oneOf("a platform name", {"icx", "spr"},
                                  "platform", "expected icx or spr")
                                .text;
            semi();
        } else if (kw.text == "profile") {
            oneOf("a profile target", {"coherence"}, "profile target",
                  "only coherence is defined");
            spec.profileCoherence = true;
            semi();
        } else if (kw.text == "host") {
            hostBlock(spec);
        } else if (kw.text == "link") {
            linkBlock(spec);
        } else if (kw.text == "workload") {
            workloadBlock(spec);
        } else if (kw.text == "faults") {
            faultsBlock(spec);
        } else if (kw.text == "replay") {
            replayBlock(spec);
        } else if (kw.text == "sweep") {
            sweepBlock(spec);
        } else {
            fail(kw, "unknown keyword '" + kw.text + "'");
        }
    }

    void
    hostBlock(ScenarioSpec &spec)
    {
        HostSpec h;
        const Token name = expect(TokKind::Ident, "a host name");
        h.name = name.text;
        h.line = name.line;
        h.col = name.col;
        if (spec.host(h.name))
            fail(name, "duplicate host name '" + h.name + "'");
        body("host", "a host property", {
            {"interface", [&] { h.interface = family(); }},
            {"queues",
             [&] { h.queues = static_cast<int>(positiveInt("queues", 64)); }},
            {"batch", [&] {
                 h.batch = at(TokKind::Number)
                               ? std::to_string(positiveInt("batch", 4096))
                               : oneOf("a batch mode", {"off", "adaptive"},
                                       "batch mode",
                                       "expected off, adaptive, or a size")
                                     .text;
             }},
        });
        spec.hosts.push_back(h);
    }

    void
    linkBlock(ScenarioSpec &spec)
    {
        LinkSpec l;
        const Token first = expect(TokKind::Ident, "a link endpoint");
        l.line = first.line;
        l.col = first.col;
        l.endpoints.push_back(first.text);
        while (at(TokKind::Ident))
            l.endpoints.push_back(next().text);
        net::LinkConfig &c = l.config;
        net::FaultProfile &f = c.faults;
        body("link", "a link property", {
            {"gbps", [&] { c.gbps = numberIn("gbps", 1e-3, 1e4); }},
            {"delay_ns",
             [&] { c.propDelay = sim::fromNs(numberIn("delay_ns", 0, 1e9)); }},
            {"queue_pkts",
             [&] { c.queuePackets = positiveInt("queue_pkts", 1e6); }},
            {"loss", [&] { f.dropRate = numberIn("loss", 0, 1); }},
            {"dup", [&] { f.dupRate = numberIn("dup", 0, 1); }},
            {"reorder", [&] { f.reorderRate = numberIn("reorder", 0, 1); }},
            {"corrupt", [&] { f.corruptRate = numberIn("corrupt", 0, 1); }},
            {"seed", [&] { f.seed = seed(); }},
        });
        spec.links.push_back(l);
    }

    /**
     * The nine properties of a workload block a replay block shares.
     * The readers refer to @p b, which must outlive the table.
     */
    Props
    kvProps(KvBlock &b)
    {
        workload::ClientServerConfig &c = b.config;
        return {
            {"server", [&] { b.server = expectIdent("a host name"); }},
            {"client", [&] { b.client = expectIdent("a host name"); }},
            {"value_sizes", [&] { c.kv.sizes = sizes(); }},
            {"objects",
             [&] { c.kv.numObjects = positiveInt("objects", 1 << 24); }},
            {"client_queues", [&] {
                 c.clientQueues =
                     static_cast<int>(positiveInt("client_queues", 64));
             }},
            {"server_threads", [&] {
                 c.kv.serverThreads =
                     static_cast<int>(positiveInt("server_threads", 64));
             }},
            {"drain_us",
             [&] { c.drain = sim::fromUs(numberIn("drain_us", 0, 1e7)); }},
            {"min_rto_us", [&] {
                 // 0 keeps the transport's default.
                 const double us = numberIn("min_rto_us", 0, 1e6);
                 c.tp.minRto = us > 0 ? sim::fromUs(us)
                                      : transport::TransportConfig().minRto;
             }},
            {"seed", [&] { c.seed = seed(); }},
        };
    }

    void
    workloadBlock(ScenarioSpec &spec)
    {
        WorkloadSpec &w = spec.workload;
        declare(w, oneOf("a workload kind", {"kv"}, "workload kind",
                         "only kv is defined"),
                "workload");
        workload::ClientServerConfig &c = w.config;
        Props props = kvProps(w);
        props.insert(props.end(), {
            {"mode", [&] {
                 w.reliable = oneOf("a workload mode", {"reliable", "raw"},
                                    "mode", "expected reliable or raw")
                                  .text == "reliable";
             }},
            {"get_fraction",
             [&] { c.kv.getFraction = numberIn("get_fraction", 0, 1); }},
            {"offered_mops", [&] {
                 c.offeredOps = numberIn("offered_mops", 1e-6, 1e4) * 1e6;
             }},
            {"request_bytes",
             [&] { c.requestBytes = positiveInt("request_bytes", 9600); }},
            {"warmup_us",
             [&] { c.warmup = sim::fromUs(numberIn("warmup_us", 0, 1e6)); }},
            {"window_us",
             [&] { c.window = sim::fromUs(numberIn("window_us", 1, 1e7)); }},
            {"capture", [&] {
                 w.captureFile =
                     expect(TokKind::String, "a capture file path").text;
             }},
        });
        body("workload", "a workload property", props);
    }

    void
    faultsBlock(ScenarioSpec &spec)
    {
        FaultSpec &f = spec.faults;
        declare(f, peek(), "faults");
        workload::ChaosConfig &c = f.config;
        const auto events = [this](const char *name, int &n) {
            return Props::value_type(name, [this, name, &n] {
                n = static_cast<int>(numberIn(name, 0, 1e4));
            });
        };
        body("faults", "a fault property", {
            {"seed", [&] { c.seed = seed(); }},
            {"target", [&] { f.target = expectIdent("a host name"); }},
            events("nic_wedges", c.nicWedges),
            events("link_flaps", c.linkFlaps),
            {"flap_down_us", [&] {
                 c.flapDown = sim::fromUs(numberIn("flap_down_us", 0, 1e6));
             }},
            events("loss_bursts", c.lossBursts),
            events("burst_drops", c.burstDrops),
            events("poison", c.poisons),
            events("torn", c.torns),
            events("stuck_line", c.stuckLines),
            events("brownout", c.brownouts),
            {"brownout_factor", [&] {
                 c.brownoutFactor = numberIn("brownout_factor", 1, 1e3);
             }},
        });
    }

    void
    replayBlock(ScenarioSpec &spec)
    {
        ReplaySpec &r = spec.replay;
        declare(r, peek(), "replay");
        Props props = kvProps(r);
        props.insert(props.end(), {
            {"trace", [&] {
                 r.traceFile =
                     expect(TokKind::String, "a trace file path").text;
             }},
            {"pacing", [&] {
                 r.preserveGaps = oneOf("a pacing mode", {"recorded", "max"},
                                        "pacing", "expected recorded or max")
                                      .text == "recorded";
             }},
        });
        body("replay", "a replay property", props);
    }

    void
    sweepBlock(ScenarioSpec &spec)
    {
        SweepSpec &s = spec.sweep;
        declare(s, oneOf("a sweep kind", {"smallmsg"}, "sweep kind",
                         "only smallmsg is defined"),
                "sweep");
        body("sweep", "a sweep property", {
            {"interfaces", [&] {
                 do
                     s.interfaces.push_back(family());
                 while (at(TokKind::Ident));
             }},
            {"sizes", [&] {
                 do
                     s.sizes.push_back(positiveInt("sizes", 9600));
                 while (at(TokKind::Number));
             }},
            {"queues",
             [&] { s.queues = static_cast<int>(positiveInt("queues", 64)); }},
        });
    }

    /** Cross-reference checks once the whole file is parsed. */
    void
    validate(const ScenarioSpec &spec) const
    {
        const auto error = [&](const auto &site, const std::string &msg) {
            throw ScenarioError(file_, site.line, site.col, msg);
        };
        for (const LinkSpec &l : spec.links) {
            for (const std::string &ep : l.endpoints) {
                if (!spec.host(ep))
                    error(l, "link endpoint '" + ep +
                                 "' is not a declared host");
            }
        }
        const auto requireHost = [&](const std::string &role,
                                     const std::string &name,
                                     const Block &b) {
            if (name.empty())
                error(b, "missing " + role + " host declaration");
            if (!spec.host(name))
                error(b, role + " '" + name + "' is not a declared host");
        };
        const WorkloadSpec &w = spec.workload;
        if (w.present) {
            requireHost("server", w.server, w);
            requireHost("client", w.client, w);
        }
        if (spec.faults.present) {
            const FaultSpec &f = spec.faults;
            requireHost("target", f.target, f);
            if (!w.present || !w.reliable)
                error(f, "faults require a reliable kv workload (chaos "
                         "recovery rides the transport)");
            if (f.target != w.client && f.target != w.server)
                error(f, "fault target '" + f.target +
                             "' is not a workload host (declared hosts "
                             "in this workload: server '" +
                             w.server + "', client '" + w.client + "')");
        }
        if (spec.replay.present) {
            const ReplaySpec &r = spec.replay;
            requireHost("server", r.server, r);
            requireHost("client", r.client, r);
            if (r.traceFile.empty())
                error(r, "replay block needs a trace file");
            if (w.present)
                error(r, "a scenario declares either a workload or a "
                         "replay, not both");
        }
        if (spec.sweep.present) {
            const SweepSpec &s = spec.sweep;
            if (s.interfaces.empty() || s.sizes.empty())
                error(s, "sweep needs at least one interface and one "
                         "size");
            if (w.present || spec.replay.present || !spec.hosts.empty())
                error(s, "a sweep scenario is standalone (loopback "
                         "worlds; no hosts/workload/replay blocks)");
        }
        if (!w.present && !spec.replay.present && !spec.sweep.present)
            throw ScenarioError(file_, 1, 1,
                                "scenario declares nothing to run "
                                "(workload, replay, or sweep)");
    }

    std::string file_;
    std::vector<Token> toks_;
    std::size_t pos_ = 0;
};

} // namespace

ScenarioSpec
parseScenario(const std::string &file, const std::string &source)
{
    return Parser(file, source).parse();
}

ScenarioSpec
loadScenario(const std::string &path)
{
    std::ifstream f(path);
    if (!f)
        throw ScenarioError(path, 1, 1, "cannot open scenario file");
    std::ostringstream ss;
    ss << f.rdbuf();
    return parseScenario(path, ss.str());
}

} // namespace ccn::scenario
