/**
 * @file
 * Process-wide metrics plane: named counters, gauges, and
 * fixed-log-bucket histograms behind one registry, rendered in the
 * Prometheus text exposition format (version 0.0.4).
 *
 * Design constraints, in order:
 *  - The hot path (Counter::inc, Histogram::observe) must be cheap
 *    enough to sit on every request: instruments are sharded
 *    cache-line-padded atomics, never locks.
 *  - Instruments are owned by the registry and live for its lifetime,
 *    so subsystems hold plain references across threads.
 *  - Registration is idempotent: asking for an existing
 *    (name, labels) pair returns the same instrument, which lets
 *    independently-constructed subsystems share one registry without
 *    coordination.
 *
 * The registry is instantiable (tests build private ones); the
 * serving daemon shares a single instance across CompileService,
 * ProgramCache, ArtifactGc, and CalibrationHub so one scrape sees the
 * whole process.  Metric names follow the qzz_<subsystem>_<name>
 * scheme catalogued in docs/observability.md.
 */

#ifndef QZZ_COMMON_TELEMETRY_H
#define QZZ_COMMON_TELEMETRY_H

#include <array>
#include <atomic>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace qzz::tel {

/** Label set attached to one instrument; order is preserved in the
 *  exposition output. */
using MetricLabels = std::vector<std::pair<std::string, std::string>>;

/** Monotonic counter over sharded per-thread-striped atomics.  inc()
 *  is wait-free; value() sums the stripes (a point-in-time snapshot,
 *  monotone across calls). */
class Counter
{
  public:
    void inc(uint64_t n = 1);
    uint64_t value() const;

  private:
    friend class MetricsRegistry;
    Counter() = default;

    static constexpr size_t kShards = 16;
    struct alignas(64) Shard
    {
        std::atomic<uint64_t> v{0};
    };
    std::array<Shard, kShards> shards_{};
};

/** Last-write-wins instantaneous value (queue depth, tier bytes). */
class Gauge
{
  public:
    void set(double v);
    void add(double delta);
    double value() const;

  private:
    friend class MetricsRegistry;
    Gauge() = default;

    std::atomic<double> v_{0.0};
};

/** Histogram bucket layout: @p count finite upper bounds growing
 *  geometrically from @p first_bound by @p growth, plus an implicit
 *  +Inf overflow bucket. */
struct HistogramBuckets
{
    double first_bound = 0.01;
    double growth = 2.0;
    int count = 26;

    static HistogramBuckets logarithmic(double first_bound, double growth,
                                        int count);
    /** The finite upper bounds, ascending. */
    std::vector<double> bounds() const;
};

/** Consistent point-in-time copy of a histogram, the unit quantiles
 *  are derived from (one snapshot -> p50/p95/p99 that agree). */
struct HistogramSnapshot
{
    /** Finite upper bounds; counts has one extra +Inf slot. */
    std::vector<double> bounds;
    /** Per-bucket (non-cumulative) observation counts. */
    std::vector<uint64_t> counts;
    uint64_t count = 0;
    double sum = 0.0;
    /** Smallest and largest observation (min > max: none recorded). */
    double min = std::numeric_limits<double>::infinity();
    double max = -std::numeric_limits<double>::infinity();

    /**
     * Quantile estimate by linear interpolation inside the owning
     * bucket (lower edge 0 for the first bucket), clamped to the
     * observed [min, max], so no quantile exceeds the largest value
     * seen.  Observations in the +Inf bucket resolve to the observed
     * max (the largest finite bound when none is recorded).  Returns
     * 0 for an empty histogram.  @p q in [0, 1].
     */
    double quantile(double q) const;
};

/** Fixed-log-bucket histogram over sharded atomics.  observe() is
 *  wait-free per bucket; unlike a ring reservoir nothing is ever
 *  overwritten, so quantiles weight the whole history. */
class Histogram
{
  public:
    void observe(double v);
    HistogramSnapshot snapshot() const;
    uint64_t count() const;
    double quantile(double q) const { return snapshot().quantile(q); }

  private:
    friend class MetricsRegistry;
    explicit Histogram(const HistogramBuckets &buckets);

    static constexpr size_t kShards = 4;
    struct Shard
    {
        std::unique_ptr<std::atomic<uint64_t>[]> counts;
    };

    std::vector<double> bounds_;
    std::array<Shard, kShards> shards_;
    std::atomic<double> sum_{0.0};
    std::atomic<double> min_{std::numeric_limits<double>::infinity()};
    std::atomic<double> max_{-std::numeric_limits<double>::infinity()};
};

enum class MetricKind
{
    Counter,
    Gauge,
    Histogram,
};

/**
 * The instrument namespace: owns every Counter/Gauge/Histogram and
 * renders them.  All methods are thread-safe; the returned references
 * stay valid for the registry's lifetime.  Registering a name that
 * already exists with a different kind or bucket layout is a caller
 * error (UserError).
 */
class MetricsRegistry
{
  public:
    MetricsRegistry() = default;
    MetricsRegistry(const MetricsRegistry &) = delete;
    MetricsRegistry &operator=(const MetricsRegistry &) = delete;

    Counter &counter(const std::string &name, const std::string &help,
                     const MetricLabels &labels = {});
    Gauge &gauge(const std::string &name, const std::string &help,
                 const MetricLabels &labels = {});
    Histogram &histogram(const std::string &name, const std::string &help,
                         const HistogramBuckets &buckets = {},
                         const MetricLabels &labels = {});

    /** Every registered metric name, sorted, unique. */
    std::vector<std::string> names() const;

    /** Full scrape payload in Prometheus text format 0.0.4: families
     *  sorted by name, each with # HELP / # TYPE, histograms expanded
     *  to cumulative _bucket{le=...} plus _sum and _count. */
    std::string renderPrometheus() const;

    /** The process-wide default registry (tools that do not plumb an
     *  explicit one). */
    static MetricsRegistry &global();

  private:
    struct Series
    {
        MetricLabels labels;
        std::unique_ptr<Counter> counter;
        std::unique_ptr<Gauge> gauge;
        std::unique_ptr<Histogram> histogram;
    };
    struct Family
    {
        MetricKind kind = MetricKind::Counter;
        std::string help;
        std::vector<double> bounds; ///< histogram families only
        /** Keyed by the rendered label string for deterministic
         *  exposition order. */
        std::map<std::string, Series> series;
    };

    Family &familyFor(const std::string &name, const std::string &help,
                      MetricKind kind);

    mutable std::mutex mu_;
    std::map<std::string, Family> families_;
};

/** Escape a label value for the exposition format: backslash, double
 *  quote, and newline. */
std::string promEscapeLabel(const std::string &v);

/** Render a finite double the way the exposition output does
 *  (integral values without a fraction). */
std::string promFormatValue(double v);

} // namespace qzz::tel

#endif // QZZ_COMMON_TELEMETRY_H
