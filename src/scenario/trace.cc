#include "scenario/trace.hh"

#include <charconv>
#include <fstream>
#include <sstream>

#include "scenario/lexer.hh"
#include "sim/time.hh"

namespace ccn::scenario {

namespace {

constexpr const char *kHeader = "# ccn-kv-trace v1";

/// Latest record time: half the tick range, leaving the other half for
/// a replay's start and drain, so start + t_ns + drain fits in a Tick.
constexpr std::uint64_t kMaxAtNs = sim::kTickMax / 2 / sim::kNanosecond;

/** One unsigned decimal field: digits only (no sign), in range. */
template <typename T>
bool
field(const std::string &s, T &v)
{
    const char *end = s.data() + s.size();
    const auto [p, ec] = std::from_chars(s.data(), end, v);
    return ec == std::errc() && p == end;
}

} // namespace

void
saveTrace(const std::string &path,
          const std::vector<TraceRecord> &records)
{
    std::ofstream f(path);
    if (!f)
        throw ScenarioError(path, 1, 1, "cannot open trace for write");
    f << kHeader << "\n";
    for (const TraceRecord &r : records) {
        f << r.atNs << " " << (r.get ? "get" : "put") << " " << r.key
          << " " << r.bytes << "\n";
    }
}

std::vector<TraceRecord>
loadTrace(const std::string &path)
{
    std::ifstream f(path);
    if (!f)
        throw ScenarioError(path, 1, 1, "cannot open trace file");

    std::string line;
    if (!std::getline(f, line) || line != kHeader)
        throw ScenarioError(path, 1, 1,
                            std::string("bad trace header (expected "
                                        "'") +
                                kHeader + "')");

    std::vector<TraceRecord> out;
    int lineno = 1;
    while (std::getline(f, line)) {
        lineno++;
        // Skip blanks and comments.
        std::size_t s = line.find_first_not_of(" \t\r");
        if (s == std::string::npos || line[s] == '#')
            continue;

        std::istringstream ss(line);
        TraceRecord r;
        std::string at, op, key, bytes, tail;
        if (!(ss >> at >> op >> key >> bytes) || (ss >> tail) ||
            !field(at, r.atNs) || r.atNs > kMaxAtNs ||
            !field(key, r.key) || !field(bytes, r.bytes)) {
            throw ScenarioError(path, lineno, 1,
                                "malformed trace record '" + line +
                                    "'");
        }
        if (op == "get")
            r.get = true;
        else if (op == "put")
            r.get = false;
        else
            throw ScenarioError(path, lineno, 1,
                                "unknown trace op '" + op +
                                    "' (expected get or put)");
        if (!out.empty() && r.atNs < out.back().atNs)
            throw ScenarioError(path, lineno, 1,
                                "trace timestamps must be "
                                "non-decreasing");
        out.push_back(r);
    }
    return out;
}

} // namespace ccn::scenario
