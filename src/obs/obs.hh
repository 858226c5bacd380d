/**
 * @file
 * Process-wide telemetry registry: named counters and gauges.
 *
 * The paper's argument is built on *measuring* interconnect behavior
 * (coherence transitions, ring signaling reads, descriptor transfers,
 * §3-§5), so the simulator needs one consistent instrumentation layer
 * instead of ad-hoc per-bench counters. obs provides:
 *
 *  - obs::Counter — a monotonically increasing 64-bit event count.
 *    Increments are a single inlined add on a member variable; the
 *    only extra cost versus a raw uint64_t is registration at
 *    construction and retirement at destruction.
 *  - obs::Gauge — a high-water mark (aggregated by max, not sum).
 *  - obs::Registry — the process-wide table of every live metric.
 *    Metrics sharing a name aggregate: counters sum across instances
 *    (plus the retained totals of already-destroyed instances), gauges
 *    take the max. snapshot() dumps the whole registry into a
 *    stats::Table suitable for stats::JsonReport, which is how every
 *    bench emits its "counters" section.
 *
 * Instances register under *stable* names ("transport.retransmits",
 * "net.link.drops", ...) rather than per-object names, so the metric
 * namespace is bounded and identical across bench configurations;
 * per-object detail remains available through the owning object
 * (e.g. Link::stats(), Endpoint::stats()).
 *
 * The simulator is single-threaded, so the registry takes no locks.
 */

#ifndef CCN_OBS_OBS_HH
#define CCN_OBS_OBS_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "stats/table.hh"

namespace ccn::obs {

class Registry;

/** Aggregation rule applied across same-named metric instances. */
enum class MetricKind : std::uint8_t
{
    Counter, ///< Sum of live values + retired totals.
    Gauge,   ///< Max of live values and retired maxima.
};

/** Kind label as emitted in snapshots ("counter" / "gauge"). */
const char *metricKindName(MetricKind k);

/**
 * Base of all registered metrics. Holds the current value and the
 * registration bookkeeping; derived classes only add the mutation
 * API appropriate to their kind.
 */
class Metric
{
  public:
    Metric(const Metric &) = delete;
    Metric &operator=(const Metric &) = delete;

    std::uint64_t value() const { return v_; }
    operator std::uint64_t() const { return v_; }
    const std::string &name() const { return name_; }
    MetricKind kind() const { return kind_; }

    /** Zero this instance (registry reset; does not unregister). */
    void zero() { v_ = 0; }

  protected:
    Metric(std::string name, MetricKind kind);
    ~Metric();

    std::uint64_t v_ = 0;

  private:
    friend class Registry;

    std::string name_;
    MetricKind kind_;
};

/** Monotonic event count. */
class Counter : public Metric
{
  public:
    explicit Counter(std::string name)
        : Metric(std::move(name), MetricKind::Counter)
    {
    }

    void inc(std::uint64_t n = 1) { v_ += n; }
    Counter &operator++() { ++v_; return *this; }
    std::uint64_t operator++(int) { return v_++; }
    Counter &operator+=(std::uint64_t n) { v_ += n; return *this; }
};

/** High-water mark; aggregates by max across instances. */
class Gauge : public Metric
{
  public:
    explicit Gauge(std::string name)
        : Metric(std::move(name), MetricKind::Gauge)
    {
    }

    void set(std::uint64_t v) { v_ = v; }

    /** Raise the mark to @p v if it is higher. */
    void
    observe(std::uint64_t v)
    {
        if (v > v_)
            v_ = v;
    }
};

/**
 * The process-wide metric table. Metrics self-register on
 * construction and retire their final value on destruction, so
 * snapshot() reflects everything that ever incremented — including
 * counters owned by simulator worlds that have since been torn down
 * (benches build and destroy a World per sweep point).
 */
class Registry
{
  public:
    /** The singleton every Counter/Gauge registers with. */
    static Registry &global();

    /** Aggregated value of @p name (0 if never registered). */
    std::uint64_t value(const std::string &name) const;

    /** One aggregated metric, as returned by all(). */
    struct MetricValue
    {
        std::string name;
        MetricKind kind;
        std::uint64_t value;
    };

    /** All aggregated (name, kind, value) entries, sorted by name. */
    std::vector<MetricValue> all() const;

    /**
     * Dump every metric into a three-column table ("counter",
     * "kind", "value"), sorted by name — feed straight to
     * stats::JsonReport::add("counters", ...). The kind column keeps
     * downstream diff tools (tools/counters_gate.py) from treating
     * gauges as monotonic counters.
     */
    stats::Table snapshot() const;

    /** Zero all live metrics and drop all retired totals. */
    void reset();

  private:
    friend class Metric;

    void add(Metric *m);
    void remove(Metric *m);

    /** Per-name accumulation of destroyed instances. */
    struct Retired
    {
        MetricKind kind = MetricKind::Counter;
        std::uint64_t value = 0;
    };

    std::vector<Metric *> live_;
    std::map<std::string, Retired> retired_;
};

/**
 * A family of metrics sharing a stable base name, split by one label
 * with a *bounded* value set: children register as
 * "base{key=value}". Per-queue / per-connection / per-link detail
 * shows up in every snapshot without unbounded namespace growth —
 * once maxLabels distinct values have been seen, further values fold
 * into the "{key=other}" child.
 *
 * Children are ordinary registered metrics, so same-named children
 * across Labeled instances (e.g. one per Link) aggregate in the
 * Registry exactly like any other same-named metrics. The family
 * does not register an aggregate itself: pair it with a plain
 * Counter/Gauge under the bare base name when a total is wanted.
 */
template <typename M>
class Labeled
{
  public:
    Labeled(std::string base, std::string key,
            std::size_t max_labels = 16)
        : base_(std::move(base)), key_(std::move(key)),
          maxLabels_(max_labels ? max_labels : 1)
    {
    }

    /** Child for @p label, creating (or folding to "other") it. */
    M &
    at(const std::string &label)
    {
        auto it = children_.find(label);
        if (it != children_.end())
            return *it->second;
        if (children_.size() >= maxLabels_) {
            auto o = children_.find(kOther);
            if (o != children_.end())
                return *o->second;
            return emplace(kOther);
        }
        return emplace(label);
    }

    M &at(std::uint64_t label) { return at(std::to_string(label)); }

    /** Registered full name for @p label. */
    std::string
    fullName(const std::string &label) const
    {
        return base_ + "{" + key_ + "=" + label + "}";
    }

    /** Distinct children created so far (incl. "other"). */
    std::size_t labelCount() const { return children_.size(); }

    const std::string &base() const { return base_; }

  private:
    static constexpr const char *kOther = "other";

    M &
    emplace(const std::string &label)
    {
        auto m = std::make_unique<M>(fullName(label));
        M &ref = *m;
        children_.emplace(label, std::move(m));
        return ref;
    }

    std::string base_;
    std::string key_;
    std::size_t maxLabels_;
    std::map<std::string, std::unique_ptr<M>> children_;
};

/** Counter family split by one bounded label. */
using LabeledCounter = Labeled<Counter>;

/** Gauge family split by one bounded label. */
using LabeledGauge = Labeled<Gauge>;

} // namespace ccn::obs

#endif // CCN_OBS_OBS_HH
