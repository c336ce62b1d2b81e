/**
 * @file
 * Metrics-plane tests: instrument semantics under concurrency, the
 * histogram quantile estimator (including the monotonicity the old
 * ring-reservoir estimator could not guarantee), and the Prometheus
 * text exposition format pinned as a golden payload.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "common/telemetry.h"

namespace qzz::tel {
namespace {

TEST(CounterTest, SumsIncrementsAcrossThreads)
{
    MetricsRegistry reg;
    Counter &c = reg.counter("qzz_test_ops_total", "Ops.");
    constexpr int kThreads = 8;
    constexpr int kIncs = 10000;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back([&c] {
            for (int i = 0; i < kIncs; ++i)
                c.inc();
        });
    for (std::thread &t : threads)
        t.join();
    c.inc(42);
    EXPECT_EQ(c.value(), uint64_t(kThreads) * kIncs + 42);
}

TEST(GaugeTest, SetAndAdd)
{
    MetricsRegistry reg;
    Gauge &g = reg.gauge("qzz_test_depth", "Depth.");
    EXPECT_EQ(g.value(), 0.0);
    g.set(7.5);
    EXPECT_EQ(g.value(), 7.5);
    g.add(-2.5);
    EXPECT_EQ(g.value(), 5.0);
    g.set(1.0);
    EXPECT_EQ(g.value(), 1.0);
}

TEST(HistogramTest, CountAndSumTrackObservations)
{
    MetricsRegistry reg;
    Histogram &h = reg.histogram(
        "qzz_test_lat_ms", "Latency.",
        HistogramBuckets::logarithmic(1.0, 2.0, 8));
    h.observe(0.5);
    h.observe(3.0);
    h.observe(1000.0); // beyond the largest bound: +Inf bucket
    const HistogramSnapshot snap = h.snapshot();
    EXPECT_EQ(snap.count, 3u);
    EXPECT_DOUBLE_EQ(snap.sum, 1003.5);
    EXPECT_EQ(snap.counts.size(), snap.bounds.size() + 1);
    EXPECT_EQ(snap.counts.back(), 1u); // the 1000.0 overflow
}

TEST(HistogramTest, NanIgnoredAndNegativeClampedToZero)
{
    MetricsRegistry reg;
    Histogram &h = reg.histogram(
        "qzz_test_lat_ms", "Latency.",
        HistogramBuckets::logarithmic(1.0, 2.0, 4));
    h.observe(std::nan(""));
    EXPECT_EQ(h.count(), 0u);
    h.observe(-5.0);
    EXPECT_EQ(h.count(), 1u);
    EXPECT_EQ(h.snapshot().counts[0], 1u); // landed in the first bucket
}

// The regression the histogram replaces a ring reservoir for: under a
// skewed load the sampled reservoir could order its percentile
// estimates p50 > p95.  One histogram snapshot feeds all three
// quantiles, so they are monotone by construction — assert it under
// the skew that used to break (90% fast, 9% medium, 1% slow).
TEST(HistogramTest, QuantilesAreMonotoneUnderSkewedLoad)
{
    MetricsRegistry reg;
    Histogram &h = reg.histogram(
        "qzz_service_request_latency_ms", "Latency.",
        HistogramBuckets::logarithmic(0.01, 2.0, 26));
    for (int i = 0; i < 10000; ++i) {
        if (i % 100 == 0)
            h.observe(500.0 + double(i % 7)); // 1% ~500ms outliers
        else if (i % 100 < 10)
            h.observe(50.0 + double(i % 13)); // 9% ~50ms
        else
            h.observe(1.0 + double(i % 10) / 10.0); // 90% 1-2ms
    }
    const HistogramSnapshot snap = h.snapshot();
    const double p50 = snap.quantile(0.50);
    const double p95 = snap.quantile(0.95);
    const double p99 = snap.quantile(0.99);
    const double p999 = snap.quantile(0.999);
    EXPECT_LE(p50, p95);
    EXPECT_LE(p95, p99);
    EXPECT_LE(p99, p999);
    // Sanity: the estimates land in the right decades (p99 still sits
    // in the ~50ms band — the slow 1% starts exactly at rank 9901).
    EXPECT_GE(p50, 0.5);
    EXPECT_LE(p50, 4.0);
    EXPECT_GE(p95, 16.0);
    EXPECT_LE(p95, 128.0);
    EXPECT_GE(p99, 32.0);
    EXPECT_LE(p99, 128.0);
    EXPECT_GE(p999, 256.0);
    EXPECT_LE(p999, 1024.0);
}

// No reported quantile may leave the range of what was observed: a
// bucket's upper edge can sit far above the largest sample (a x2
// bucket up to 2x), and the +Inf bucket far above its finite bound.
TEST(HistogramTest, QuantilesStayWithinObservedMinAndMax)
{
    Rng rng(23);
    for (int trial = 0; trial < 200; ++trial) {
        MetricsRegistry reg;
        Histogram &h = reg.histogram(
            "qzz_test_lat_ms", "Latency.",
            HistogramBuckets::logarithmic(0.01, 2.0, 20));
        // Log-uniform samples over a random span, some past the
        // largest finite bound (0.01 * 2^19 ~ 5243).
        const int n = 1 + int(rng.uniform(0.0, 60.0));
        const double lo = std::pow(10.0, rng.uniform(-3.0, 3.0));
        const double span = std::pow(10.0, rng.uniform(0.0, 3.0));
        double mn = std::numeric_limits<double>::infinity();
        double mx = -mn;
        for (int i = 0; i < n; ++i) {
            const double v = lo * std::pow(span, rng.uniform(0.0, 1.0));
            h.observe(v);
            mn = std::min(mn, v);
            mx = std::max(mx, v);
        }
        const HistogramSnapshot snap = h.snapshot();
        EXPECT_EQ(snap.min, mn);
        EXPECT_EQ(snap.max, mx);
        for (int k = 0; k <= 100; ++k) {
            const double q = k / 100.0;
            const double v = snap.quantile(q);
            EXPECT_GE(v, mn) << "trial " << trial << " q " << q;
            EXPECT_LE(v, mx) << "trial " << trial << " q " << q;
        }
        const double q = rng.uniform(0.0, 1.0);
        EXPECT_GE(snap.quantile(q), mn);
        EXPECT_LE(snap.quantile(q), mx);
    }
}

TEST(HistogramTest, EmptyQuantileIsZero)
{
    MetricsRegistry reg;
    Histogram &h = reg.histogram("qzz_test_lat_ms", "Latency.");
    EXPECT_EQ(h.quantile(0.5), 0.0);
    EXPECT_EQ(h.quantile(0.99), 0.0);
}

TEST(MetricsRegistryTest, RegistrationIsIdempotent)
{
    MetricsRegistry reg;
    Counter &a = reg.counter("qzz_test_ops_total", "Ops.");
    Counter &b = reg.counter("qzz_test_ops_total", "Ops.");
    EXPECT_EQ(&a, &b);
    a.inc();
    EXPECT_EQ(b.value(), 1u);
    // Distinct label sets are distinct series under one family.
    Counter &lane_a =
        reg.counter("qzz_test_lane_total", "Lanes.", {{"lane", "a"}});
    Counter &lane_b =
        reg.counter("qzz_test_lane_total", "Lanes.", {{"lane", "b"}});
    EXPECT_NE(&lane_a, &lane_b);
}

TEST(MetricsRegistryTest, KindAndBucketMismatchesThrow)
{
    MetricsRegistry reg;
    reg.counter("qzz_test_ops_total", "Ops.");
    EXPECT_THROW(reg.gauge("qzz_test_ops_total", "Ops."), UserError);
    EXPECT_THROW(reg.histogram("qzz_test_ops_total", "Ops."), UserError);
    reg.histogram("qzz_test_lat_ms", "Latency.",
                  HistogramBuckets::logarithmic(1.0, 2.0, 4));
    EXPECT_THROW(
        reg.histogram("qzz_test_lat_ms", "Latency.",
                      HistogramBuckets::logarithmic(1.0, 2.0, 8)),
        UserError);
    EXPECT_THROW(reg.counter("0bad", "Bad name."), UserError);
    EXPECT_THROW(reg.counter("", "Empty."), UserError);
    EXPECT_THROW(reg.counter("has space", "Bad."), UserError);
}

TEST(MetricsRegistryTest, NamesRoundTripSortedUnique)
{
    MetricsRegistry reg;
    reg.counter("qzz_test_c_total", "C.");
    reg.gauge("qzz_test_a", "A.");
    reg.histogram("qzz_test_b_ms", "B.");
    reg.counter("qzz_test_c_total", "C."); // re-registration: no dup
    reg.counter("qzz_test_c_total", "C.", {{"lane", "x"}});
    const std::vector<std::string> names = reg.names();
    ASSERT_EQ(names.size(), 3u);
    EXPECT_EQ(names[0], "qzz_test_a");
    EXPECT_EQ(names[1], "qzz_test_b_ms");
    EXPECT_EQ(names[2], "qzz_test_c_total");
}

// The exposition payload is a wire format scraped by a third party:
// pin its exact shape — HELP/TYPE headers, family sort order,
// cumulative _bucket/_sum/_count expansion, and label escaping.
TEST(MetricsRegistryTest, PrometheusRenderGolden)
{
    MetricsRegistry reg;
    reg.counter("qzz_test_requests_total", "Requests served.",
                {{"lane", "a\\b\"c\nd"}})
        .inc(3);
    reg.gauge("qzz_test_depth", "Queue depth.").set(2.5);
    Histogram &h = reg.histogram(
        "qzz_test_lat_ms", "Latency (ms).",
        HistogramBuckets::logarithmic(1.0, 10.0, 2));
    h.observe(0.5);
    h.observe(5.0);
    h.observe(50.0);
    EXPECT_EQ(reg.renderPrometheus(),
              "# HELP qzz_test_depth Queue depth.\n"
              "# TYPE qzz_test_depth gauge\n"
              "qzz_test_depth 2.5\n"
              "# HELP qzz_test_lat_ms Latency (ms).\n"
              "# TYPE qzz_test_lat_ms histogram\n"
              "qzz_test_lat_ms_bucket{le=\"1\"} 1\n"
              "qzz_test_lat_ms_bucket{le=\"10\"} 2\n"
              "qzz_test_lat_ms_bucket{le=\"+Inf\"} 3\n"
              "qzz_test_lat_ms_sum 55.5\n"
              "qzz_test_lat_ms_count 3\n"
              "# HELP qzz_test_requests_total Requests served.\n"
              "# TYPE qzz_test_requests_total counter\n"
              "qzz_test_requests_total{lane=\"a\\\\b\\\"c\\nd\"} 3\n");
}

TEST(MetricsRegistryTest, HistogramBucketSeriesKeepLabels)
{
    MetricsRegistry reg;
    Histogram &h = reg.histogram(
        "qzz_test_lat_ms", "Latency.",
        HistogramBuckets::logarithmic(1.0, 10.0, 1), {{"lane", "warm"}});
    h.observe(0.5);
    const std::string out = reg.renderPrometheus();
    EXPECT_NE(out.find("qzz_test_lat_ms_bucket{lane=\"warm\","
                       "le=\"1\"} 1\n"),
              std::string::npos)
        << out;
    EXPECT_NE(out.find("qzz_test_lat_ms_bucket{lane=\"warm\","
                       "le=\"+Inf\"} 1\n"),
              std::string::npos)
        << out;
    EXPECT_NE(out.find("qzz_test_lat_ms_sum{lane=\"warm\"} 0.5\n"),
              std::string::npos)
        << out;
    EXPECT_NE(out.find("qzz_test_lat_ms_count{lane=\"warm\"} 1\n"),
              std::string::npos)
        << out;
}

TEST(FormattingTest, LabelEscaping)
{
    EXPECT_EQ(promEscapeLabel("plain"), "plain");
    EXPECT_EQ(promEscapeLabel("a\\b"), "a\\\\b");
    EXPECT_EQ(promEscapeLabel("a\"b"), "a\\\"b");
    EXPECT_EQ(promEscapeLabel("a\nb"), "a\\nb");
}

TEST(FormattingTest, ValuesRenderIntegralWithoutFraction)
{
    EXPECT_EQ(promFormatValue(0.0), "0");
    EXPECT_EQ(promFormatValue(42.0), "42");
    EXPECT_EQ(promFormatValue(-3.0), "-3");
    EXPECT_EQ(promFormatValue(2.5), "2.5");
    EXPECT_EQ(promFormatValue(0.01), "0.01");
}

} // namespace
} // namespace qzz::tel
