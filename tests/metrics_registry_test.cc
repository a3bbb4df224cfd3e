// Unified metrics registry: primitives, snapshot lookups and quantiles,
// the single export path, the one-quantile-implementation regression,
// the BatchStats merge operators, and the one-way export of every stats
// struct (Publish* helpers and Summarize, checked point by point in the
// snapshot they leave behind).

#include "util/metrics.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "batch/batch_scheduler.h"
#include "lm/prefix_cache.h"
#include "lm/resilient_backend.h"
#include "serve/executor.h"
#include "serve/overload.h"
#include "serve/queue.h"
#include "ts/stats.h"
#include "util/quantile.h"
#include "util/random.h"

namespace multicast {
namespace util {
namespace {

// ---------------------------------------------------------------------
// Registry primitives.
// ---------------------------------------------------------------------

TEST(MetricsRegistryTest, FirstTouchOrderIsSnapshotOrder) {
  MetricsRegistry registry;
  registry.GetCounter("b");
  registry.GetCounter("a");
  registry.GetGauge("g");
  registry.GetHistogram("h");
  MetricsSnapshot snapshot = registry.Snapshot();
  ASSERT_EQ(snapshot.points().size(), 4u);
  EXPECT_EQ(snapshot.points()[0].name, "b");
  EXPECT_EQ(snapshot.points()[1].name, "a");
  EXPECT_EQ(snapshot.points()[2].name, "g");
  EXPECT_EQ(snapshot.points()[3].name, "h");
  // Handles are stable: re-requesting a name returns the same object.
  EXPECT_EQ(registry.GetCounter("b"), registry.GetCounter("b"));
  EXPECT_EQ(registry.size(), 4u);
}

TEST(MetricsRegistryTest, CounterAddsAndGaugeKeepsHighWaterMark) {
  MetricsRegistry registry;
  Counter* c = registry.GetCounter("c");
  c->Increment();
  c->Add(2.5);
  EXPECT_DOUBLE_EQ(c->value(), 3.5);
  Gauge* g = registry.GetGauge("g");
  g->Set(4.0);
  g->SetMax(2.0);  // lower: ignored
  EXPECT_DOUBLE_EQ(g->value(), 4.0);
  g->SetMax(7.0);  // higher: raises the mark
  EXPECT_DOUBLE_EQ(g->value(), 7.0);
}

TEST(MetricsRegistryTest, FixedBoundHistogramBucketsByBoundary) {
  MetricsRegistry registry;
  Histogram* h = registry.GetHistogram("latency", {1.0, 2.0});
  h->Observe(0.5);  // <= 1.0
  h->Observe(1.0);  // <= 1.0 (boundary is inclusive)
  h->Observe(1.5);  // <= 2.0
  h->Observe(99.0);  // overflow
  EXPECT_EQ(h->buckets(), (std::vector<uint64_t>{2, 1, 1}));
  EXPECT_DOUBLE_EQ(h->sum(), 102.0);
  EXPECT_EQ(h->count(), 4u);
}

TEST(MetricsRegistryTest, IndexedHistogramGrowsAndZeroCountExtends) {
  MetricsRegistry registry;
  Histogram* h = registry.GetHistogram("occupancy");
  h->ObserveIndex(2, 5);
  EXPECT_EQ(h->buckets(), (std::vector<uint64_t>{0, 0, 5}));
  // A zero-count observation extends the vector without counting —
  // the occupancy-length-preserving behaviour the struct views need.
  h->ObserveIndex(4, 0);
  EXPECT_EQ(h->buckets(), (std::vector<uint64_t>{0, 0, 5, 0, 0}));
  EXPECT_EQ(h->count(), 5u);
  EXPECT_DOUBLE_EQ(h->sum(), 10.0);  // 2 * 5
}

// ---------------------------------------------------------------------
// Snapshot lookups and histogram quantiles.
// ---------------------------------------------------------------------

MetricsSnapshot MakeSnapshot(double counter, double gauge,
                             std::vector<uint64_t> buckets) {
  MetricsRegistry registry;
  registry.GetCounter("c")->Add(counter);
  registry.GetGauge("g")->Set(gauge);
  Histogram* h = registry.GetHistogram("h");
  for (size_t i = 0; i < buckets.size(); ++i) h->ObserveIndex(i, buckets[i]);
  return registry.Snapshot();
}

TEST(MetricsSnapshotTest, FindAndValue) {
  MetricsSnapshot snapshot = MakeSnapshot(3.0, 9.0, {1});
  EXPECT_DOUBLE_EQ(snapshot.Value("c"), 3.0);
  EXPECT_DOUBLE_EQ(snapshot.Value("absent"), 0.0);
  ASSERT_NE(snapshot.Find("h"), nullptr);
  EXPECT_EQ(snapshot.Find("h")->kind, MetricKind::kHistogram);
  EXPECT_EQ(snapshot.Find("absent"), nullptr);
}

TEST(MetricsSnapshotTest, HistogramQuantileInterpolatesFixedBounds) {
  MetricsRegistry registry;
  // Uniform 1..100 against decade bounds: ten observations per bucket,
  // so every quantile has a closed-form expected value.
  Histogram* h = registry.GetHistogram(
      "lat", {10, 20, 30, 40, 50, 60, 70, 80, 90, 100});
  for (int v = 1; v <= 100; ++v) h->Observe(static_cast<double>(v));
  MetricsSnapshot snapshot = registry.Snapshot();
  EXPECT_DOUBLE_EQ(snapshot.HistogramQuantile("lat", 0.5), 50.0);
  EXPECT_DOUBLE_EQ(snapshot.HistogramQuantile("lat", 0.95), 95.0);
  EXPECT_DOUBLE_EQ(snapshot.HistogramQuantile("lat", 0.25), 25.0);
  EXPECT_DOUBLE_EQ(snapshot.HistogramQuantile("lat", 1.0), 100.0);
  // q = 0 lands at the floor of the first non-empty bucket.
  EXPECT_DOUBLE_EQ(snapshot.HistogramQuantile("lat", 0.0), 0.0);
  // Out-of-range q clamps rather than extrapolating.
  EXPECT_DOUBLE_EQ(snapshot.HistogramQuantile("lat", 2.0), 100.0);
  EXPECT_DOUBLE_EQ(snapshot.HistogramQuantile("lat", -1.0), 0.0);
}

TEST(MetricsSnapshotTest, HistogramQuantileSkewedAndPartialBuckets) {
  MetricsRegistry registry;
  Histogram* h = registry.GetHistogram("lat", {10.0, 20.0, 40.0});
  for (int i = 0; i < 30; ++i) h->Observe(5.0);   // bucket [0, 10]
  for (int i = 0; i < 10; ++i) h->Observe(30.0);  // bucket (20, 40]
  MetricsSnapshot snapshot = registry.Snapshot();
  // p50: rank 20 of 30 in the first bucket -> 10 * 20/30.
  EXPECT_DOUBLE_EQ(snapshot.HistogramQuantile("lat", 0.5), 10.0 * 2 / 3);
  // p90: rank 36; 30 live below 10, the 6 remaining interpolate into
  // (20, 40] — the empty middle bucket is skipped entirely.
  EXPECT_DOUBLE_EQ(snapshot.HistogramQuantile("lat", 0.9),
                   20.0 + 20.0 * 6 / 10);
}

TEST(MetricsSnapshotTest, HistogramQuantileOverflowPinsToLastBound) {
  MetricsRegistry registry;
  Histogram* h = registry.GetHistogram("lat", {1.0, 2.0});
  for (int i = 0; i < 4; ++i) h->Observe(50.0);  // all overflow
  MetricsSnapshot snapshot = registry.Snapshot();
  EXPECT_DOUBLE_EQ(snapshot.HistogramQuantile("lat", 0.5), 2.0);
  EXPECT_DOUBLE_EQ(snapshot.HistogramQuantile("lat", 0.99), 2.0);
}

TEST(MetricsSnapshotTest, HistogramQuantileIndexedReturnsBucketIndex) {
  // Indexed histograms (batch occupancy) have no bounds: the quantile
  // is the bucket index itself.
  MetricsSnapshot snapshot = MakeSnapshot(0.0, 0.0, {0, 5, 0, 5});
  EXPECT_DOUBLE_EQ(snapshot.HistogramQuantile("h", 0.5), 1.0);
  EXPECT_DOUBLE_EQ(snapshot.HistogramQuantile("h", 0.95), 3.0);
}

TEST(MetricsSnapshotTest, HistogramQuantileDegenerateInputsReturnZero) {
  MetricsSnapshot snapshot = MakeSnapshot(3.0, 9.0, {});
  EXPECT_DOUBLE_EQ(snapshot.HistogramQuantile("absent", 0.5), 0.0);
  EXPECT_DOUBLE_EQ(snapshot.HistogramQuantile("c", 0.5), 0.0);  // counter
  EXPECT_DOUBLE_EQ(snapshot.HistogramQuantile("h", 0.5), 0.0);  // empty
}

TEST(MetricsSnapshotTest, ToTableShowsHistogramQuantiles) {
  MetricsSnapshot snapshot = MakeSnapshot(1.0, 1.0, {0, 4});
  std::string table = snapshot.ToTable();
  EXPECT_NE(table.find("p50 1"), std::string::npos) << table;
  EXPECT_NE(table.find("p95 1"), std::string::npos) << table;
  // An empty histogram renders without quantile columns.
  MetricsSnapshot empty = MakeSnapshot(1.0, 1.0, {});
  EXPECT_EQ(empty.ToTable().find("p50"), std::string::npos);
}

// ---------------------------------------------------------------------
// The single export path: MetricsJson / WriteMetricsJson / ToTable.
// ---------------------------------------------------------------------

TEST(MetricsExportTest, JsonCarriesEveryKind) {
  MetricsSnapshot snapshot = MakeSnapshot(3.0, 9.5, {1, 0, 2});
  std::string json = MetricsJson(snapshot);
  EXPECT_NE(json.find("{\"name\": \"c\", \"kind\": \"counter\", "
                      "\"value\": 3}"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"kind\": \"gauge\", \"value\": 9.5"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"buckets\": [1, 0, 2]"), std::string::npos) << json;
}

TEST(MetricsExportTest, WriteMetricsJsonEmitsSections) {
  const std::string path = "metrics_registry_test_artifact.json";
  std::vector<std::pair<std::string, MetricsSnapshot>> sections;
  sections.emplace_back("alpha", MakeSnapshot(1.0, 2.0, {3}));
  sections.emplace_back("beta", MakeSnapshot(4.0, 5.0, {}));
  ASSERT_TRUE(WriteMetricsJson(path, sections).ok());
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();
  std::remove(path.c_str());
  EXPECT_NE(text.find("\"sections\""), std::string::npos);
  EXPECT_NE(text.find("\"name\": \"alpha\""), std::string::npos);
  EXPECT_NE(text.find("\"name\": \"beta\""), std::string::npos);
  // Section order is caller order; alpha's metrics precede beta's.
  EXPECT_LT(text.find("\"alpha\""), text.find("\"beta\""));
}

TEST(MetricsExportTest, ToTableListsEveryPointInOrder) {
  MetricsSnapshot snapshot = MakeSnapshot(3.0, 9.0, {1});
  std::string table = snapshot.ToTable();
  size_t c = table.find("c");
  size_t g = table.find("g");
  size_t h = table.find("h");
  EXPECT_NE(c, std::string::npos);
  EXPECT_NE(g, std::string::npos);
  EXPECT_NE(h, std::string::npos);
  EXPECT_LT(c, g);
  EXPECT_LT(g, h);
}

// ---------------------------------------------------------------------
// One quantile implementation (regression for the three divergent
// copies: FP-ceil nearest-rank, exact-integer nearest-rank, and the
// interpolated ts:: estimator).
// ---------------------------------------------------------------------

TEST(QuantileTest, NearestRankMatchesExactIntegerFormForAllSmallN) {
  for (size_t n = 1; n <= 20; ++n) {
    std::vector<double> sorted;
    for (size_t i = 1; i <= n; ++i) sorted.push_back(static_cast<double>(i));
    for (int p : {50, 90, 95, 99}) {
      // The overload controller's exact integer nearest-rank:
      // rank = ceil(p/100 * n) computed without floating point.
      size_t rank = (n * static_cast<size_t>(p) + 99) / 100;
      if (rank < 1) rank = 1;
      const double q = static_cast<double>(p) / 100.0;
      EXPECT_DOUBLE_EQ(NearestRankQuantileSorted(sorted, q),
                       sorted[rank - 1])
          << "n=" << n << " p=" << p;
      // Brute force from the definition: the smallest order statistic
      // whose cumulative fraction reaches q.
      size_t brute = n;
      for (size_t k = 1; k <= n; ++k) {
        if (static_cast<double>(k) / static_cast<double>(n) >=
            q - 1e-12) {
          brute = k;
          break;
        }
      }
      EXPECT_DOUBLE_EQ(NearestRankQuantileSorted(sorted, q),
                       sorted[brute - 1])
          << "n=" << n << " p=" << p;
    }
  }
}

TEST(QuantileTest, CeilOvershootRegression) {
  // 0.07 * 100 is mathematically 7, but the product computes to
  // 7.000000000000001 in binary floating point, so the old
  // std::ceil(q * n) implementation returned rank 8 instead of rank 7.
  std::vector<double> sorted;
  for (int i = 1; i <= 100; ++i) sorted.push_back(static_cast<double>(i));
  EXPECT_GT(std::ceil(0.07 * 100.0), 7.0);  // the bug's mechanism
  EXPECT_DOUBLE_EQ(NearestRankQuantileSorted(sorted, 0.07), 7.0);
  // Exact-integer cross-check at the same point: rank (100*7+99)/100.
  EXPECT_EQ((100u * 7u + 99u) / 100u, 7u);
}

TEST(QuantileTest, InterpolatedMatchesTsQuantile) {
  std::vector<double> values = {5.0, 1.0, 4.0, 2.0, 8.0, 3.0, 9.0};
  std::vector<double> sorted = values;
  std::sort(sorted.begin(), sorted.end());
  for (double q : {0.0, 0.25, 0.5, 0.75, 0.9, 1.0}) {
    EXPECT_DOUBLE_EQ(InterpolatedQuantileSorted(sorted, q),
                     ts::Quantile(values, q))
        << "q=" << q;
  }
}

TEST(QuantileTest, LerpMatchesTheSortedFormBitForBit) {
  // The classical bands' estimator as it read before it moved here:
  // sort a copy, then lo + frac * (hi - lo) at q * (n - 1).
  auto sorted_form = [](std::vector<double> xs, double q) {
    std::sort(xs.begin(), xs.end());
    const double pos = q * static_cast<double>(xs.size() - 1);
    const size_t lo = static_cast<size_t>(std::floor(pos));
    const size_t hi = std::min(lo + 1, xs.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return xs[lo] + frac * (xs[hi] - xs[lo]);
  };
  Rng rng(41);
  for (size_t n = 1; n <= 40; ++n) {
    std::vector<double> values;
    for (size_t i = 0; i < n; ++i) {
      // Rounded draws, so some samples hold ties.
      values.push_back(std::round(rng.NextGaussian(0.0, 3.0) * 4.0) / 4.0);
    }
    for (double q : {0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95}) {
      const double got = LerpQuantile(values, q);
      const double want = sorted_form(values, q);
      EXPECT_EQ(std::memcmp(&got, &want, sizeof(double)), 0)
          << "n=" << n << " q=" << q << ": " << got << " vs " << want;
    }
  }
  EXPECT_DOUBLE_EQ(LerpQuantile({}, 0.5), 0.0);
}

TEST(QuantileTest, EmptySamplesReturnZero) {
  EXPECT_DOUBLE_EQ(NearestRankQuantileSorted({}, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(NearestRankQuantile({}, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(InterpolatedQuantileSorted({}, 0.5), 0.0);
}

// ---------------------------------------------------------------------
// BatchStats merge operators (the per-dispatch deltas and the serve
// rollup use them).
// ---------------------------------------------------------------------

batch::BatchStats MakeBatchStats(size_t base, std::vector<size_t> occupancy) {
  batch::BatchStats s;
  s.steps = base;
  s.slot_steps = base * 2;
  s.submitted = base + 1;
  s.admitted = base + 2;
  s.retired = base + 3;
  s.backfills = base + 4;
  s.preemptions = base + 5;
  s.peak_batch = base + 6;
  s.occupancy = std::move(occupancy);
  return s;
}

TEST(StatsMergeTest, BatchStatsMergeHandlesRaggedOccupancy) {
  batch::BatchStats a = MakeBatchStats(10, {1, 2});
  batch::BatchStats b = MakeBatchStats(5, {3, 4, 5});
  a += b;
  EXPECT_EQ(a.steps, 15u);
  EXPECT_EQ(a.peak_batch, 16u);  // max, not sum
  EXPECT_EQ(a.occupancy, (std::vector<size_t>{4, 6, 5}));
}

TEST(StatsMergeTest, BatchStatsDeltaSaturates) {
  batch::BatchStats before = MakeBatchStats(10, {4, 4});
  batch::BatchStats after = MakeBatchStats(7, {6, 2, 1});
  batch::BatchStats delta = after - before;
  EXPECT_EQ(delta.steps, 0u);  // 7 - 10 saturates
  EXPECT_EQ(delta.occupancy, (std::vector<size_t>{2, 0, 1}));
}

TEST(StatsMergeTest, BatchStatsEmptyPlusNonemptyIsIdentity) {
  batch::BatchStats empty;
  batch::BatchStats x = MakeBatchStats(3, {1, 0, 2});
  batch::BatchStats merged = empty;
  merged += x;
  EXPECT_EQ(merged.steps, x.steps);
  EXPECT_EQ(merged.peak_batch, x.peak_batch);
  EXPECT_EQ(merged.occupancy, x.occupancy);
  batch::BatchStats other = x;
  other += batch::BatchStats{};
  EXPECT_EQ(other.steps, x.steps);
  EXPECT_EQ(other.occupancy, x.occupancy);
}

// ---------------------------------------------------------------------
// One-way export: Publish a struct into a registry and check the
// snapshot it leaves behind, point by point, in registration order.
// ---------------------------------------------------------------------

/// One expected counter or gauge point.
struct Expected {
  std::string name;
  MetricKind kind;
  double value;
};

constexpr MetricKind kC = MetricKind::kCounter;
constexpr MetricKind kG = MetricKind::kGauge;

/// `snapshot` starts with exactly `want`'s points, in order.
void ExpectPoints(const MetricsSnapshot& snapshot,
                  const std::vector<Expected>& want) {
  EXPECT_GE(snapshot.points().size(), want.size());
  const size_t n = std::min(snapshot.points().size(), want.size());
  for (size_t i = 0; i < n; ++i) {
    const MetricPoint& point = snapshot.points()[i];
    EXPECT_EQ(point.name, want[i].name) << "point " << i;
    EXPECT_EQ(point.kind, want[i].kind) << point.name;
    EXPECT_EQ(point.value, want[i].value) << point.name;
  }
}

TEST(MetricsViewTest, QueueStatsRoundTrips) {
  serve::QueueStats s;
  s.offered = 10;
  s.admitted = 8;
  s.rejected_full = 1;
  s.rejected_closed = 1;
  s.dropped_expired = 2;
  s.popped = 6;
  s.max_depth = 4;
  MetricsRegistry registry;
  serve::PublishQueueStats(s, &registry, "queue.");
  const MetricsSnapshot snapshot = registry.Snapshot();
  EXPECT_EQ(snapshot.points().size(), 7u);
  ExpectPoints(snapshot, {{"queue.offered", kC, 10},
                          {"queue.admitted", kC, 8},
                          {"queue.rejected_full", kC, 1},
                          {"queue.rejected_closed", kC, 1},
                          {"queue.dropped_expired", kC, 2},
                          {"queue.popped", kC, 6},
                          {"queue.max_depth", kG, 4}});
}

TEST(MetricsViewTest, RetryStatsRoundTrips) {
  lm::RetryStats s;
  s.calls = 5;
  s.attempts = 9;
  s.retries = 4;
  s.successes = 4;
  s.failures = 1;
  s.retryable_errors = 3;
  s.terminal_errors = 1;
  s.circuit_rejections = 2;
  s.budget_exhausted = 1;
  s.cancelled_calls = 1;
  s.deadline_preempted = 1;
  s.backoff_seconds = 0.75;
  s.latency_seconds = 2.25;
  MetricsRegistry registry;
  lm::PublishRetryStats(s, &registry, "retry.");
  const MetricsSnapshot snapshot = registry.Snapshot();
  EXPECT_EQ(snapshot.points().size(), 13u);
  ExpectPoints(snapshot, {{"retry.calls", kC, 5},
                          {"retry.attempts", kC, 9},
                          {"retry.retries", kC, 4},
                          {"retry.successes", kC, 4},
                          {"retry.failures", kC, 1},
                          {"retry.retryable_errors", kC, 3},
                          {"retry.terminal_errors", kC, 1},
                          {"retry.circuit_rejections", kC, 2},
                          {"retry.budget_exhausted", kC, 1},
                          {"retry.cancelled_calls", kC, 1},
                          {"retry.deadline_preempted", kC, 1},
                          {"retry.backoff_seconds", kC, 0.75},
                          {"retry.latency_seconds", kC, 2.25}});
}

TEST(MetricsViewTest, PrefixCacheStatsRoundTrips) {
  lm::PrefixCacheStats s;
  s.lookups = 12;
  s.full_hits = 9;
  s.misses = 3;
  s.insertions = 7;
  s.evictions = 2;
  s.prompt_tokens_seen = 900;
  s.prompt_tokens_reused = 700;
  s.prompt_tokens_replayed = 200;
  MetricsRegistry registry;
  lm::PublishPrefixCacheStats(s, &registry, "prefix_cache.");
  const MetricsSnapshot snapshot = registry.Snapshot();
  EXPECT_EQ(snapshot.points().size(), 8u);
  ExpectPoints(snapshot, {{"prefix_cache.lookups", kC, 12},
                          {"prefix_cache.full_hits", kC, 9},
                          {"prefix_cache.misses", kC, 3},
                          {"prefix_cache.insertions", kC, 7},
                          {"prefix_cache.evictions", kC, 2},
                          {"prefix_cache.prompt_tokens_seen", kC, 900},
                          {"prefix_cache.prompt_tokens_reused", kC, 700},
                          {"prefix_cache.prompt_tokens_replayed", kC, 200}});
}

TEST(MetricsViewTest, BatchStatsRoundTrips) {
  batch::BatchStats s = MakeBatchStats(20, {0, 3, 0, 7});
  MetricsRegistry registry;
  batch::PublishBatchStats(s, &registry, "batch.");
  const MetricsSnapshot snapshot = registry.Snapshot();
  ASSERT_EQ(snapshot.points().size(), 9u);
  ExpectPoints(snapshot, {{"batch.steps", kC, 20},
                          {"batch.slot_steps", kC, 40},
                          {"batch.submitted", kC, 21},
                          {"batch.admitted", kC, 22},
                          {"batch.retired", kC, 23},
                          {"batch.backfills", kC, 24},
                          {"batch.preemptions", kC, 25},
                          {"batch.peak_batch", kG, 26}});
  // Occupancy exports as an indexed histogram, bucket k = steps at
  // occupancy k, leading and inner zeros kept.
  const MetricPoint& occupancy = snapshot.points()[8];
  EXPECT_EQ(occupancy.name, "batch.occupancy");
  EXPECT_EQ(occupancy.kind, MetricKind::kHistogram);
  EXPECT_TRUE(occupancy.bounds.empty());
  EXPECT_EQ(occupancy.buckets, (std::vector<uint64_t>{0, 3, 0, 7}));
  EXPECT_EQ(occupancy.count, 10u);
  EXPECT_EQ(occupancy.sum, 1.0 * 3 + 3.0 * 7);
}

TEST(MetricsViewTest, OverloadStatsRoundTrips) {
  serve::OverloadStats s;
  s.aimd_rejected = 3;
  s.ladder_rejected = 2;
  s.demoted_reduced = 4;
  s.demoted_classical = 1;
  s.escalations = 5;
  s.recoveries = 4;
  s.peak_level = 3;
  s.final_limit = 24.0;
  MetricsRegistry registry;
  serve::PublishOverloadStats(s, &registry, "overload.");
  const MetricsSnapshot snapshot = registry.Snapshot();
  EXPECT_EQ(snapshot.points().size(), 8u);
  ExpectPoints(snapshot, {{"overload.aimd_rejected", kC, 3},
                          {"overload.ladder_rejected", kC, 2},
                          {"overload.demoted_reduced", kC, 4},
                          {"overload.demoted_classical", kC, 1},
                          {"overload.escalations", kC, 5},
                          {"overload.recoveries", kC, 4},
                          {"overload.peak_level", kG, 3},
                          {"overload.final_limit", kG, 24}});
}

TEST(MetricsViewTest, ClusterStatsRoundTrips) {
  serve::ClusterStats s;
  s.replica = 2;  // not published: per-request identity, not a counter
  s.failovers = 2;
  s.redispatched_draws = 6;
  s.wasted_seconds = 1.25;
  MetricsRegistry registry;
  serve::PublishClusterStats(s, &registry, "cluster.");
  const MetricsSnapshot snapshot = registry.Snapshot();
  EXPECT_EQ(snapshot.points().size(), 3u);
  ExpectPoints(snapshot, {{"cluster.failovers", kC, 2},
                          {"cluster.redispatched_draws", kC, 6},
                          {"cluster.wasted_seconds", kC, 1.25}});
}

TEST(MetricsViewTest, RejectionBreakdownRoundTrips) {
  serve::RejectionBreakdown s;
  s.queue_full = 3;
  s.deadline_expired = 2;
  s.backend_unavailable = 1;
  s.cancelled = 4;
  s.other = 1;
  s.retry_after_hint_sum = 4.5;
  s.retry_after_hints = 3;
  MetricsRegistry registry;
  serve::PublishRejectionBreakdown(s, &registry, "rejections.");
  const MetricsSnapshot snapshot = registry.Snapshot();
  // The mean is derived, not published: readers divide the two sums.
  EXPECT_EQ(snapshot.points().size(), 7u);
  ExpectPoints(snapshot, {{"rejections.queue_full", kC, 3},
                          {"rejections.deadline_expired", kC, 2},
                          {"rejections.backend_unavailable", kC, 1},
                          {"rejections.cancelled", kC, 4},
                          {"rejections.other", kC, 1},
                          {"rejections.retry_after_hint_sum", kC, 4.5},
                          {"rejections.retry_after_hints", kC, 3}});
  EXPECT_DOUBLE_EQ(s.mean_retry_after_seconds(), 1.5);
  EXPECT_EQ(s.total(), 11u);
  EXPECT_EQ(serve::RejectionBreakdown{}.mean_retry_after_seconds(), 0.0);
}

TEST(MetricsViewTest, PublishingTwiceAccumulatesLikeMerge) {
  serve::QueueStats s;
  s.offered = 3;
  s.max_depth = 2;
  MetricsRegistry registry;
  serve::PublishQueueStats(s, &registry, "queue.");
  s.max_depth = 5;
  serve::PublishQueueStats(s, &registry, "queue.");
  const MetricsSnapshot snapshot = registry.Snapshot();
  EXPECT_EQ(snapshot.Value("queue.offered"), 6.0);    // counters add
  EXPECT_EQ(snapshot.Value("queue.max_depth"), 5.0);  // high-water mark
}

// ---------------------------------------------------------------------
// Summarize: computed from the stats, published once.
// ---------------------------------------------------------------------

void ExpectSameSummary(const serve::ServeSummary& a,
                       const serve::ServeSummary& b) {
  EXPECT_EQ(a.total, b.total);
  EXPECT_EQ(a.served, b.served);
  EXPECT_EQ(a.served_degraded, b.served_degraded);
  EXPECT_EQ(a.shed_queue_full, b.shed_queue_full);
  EXPECT_EQ(a.shed_expired, b.shed_expired);
  EXPECT_EQ(a.cancelled_drain, b.cancelled_drain);
  EXPECT_EQ(a.failed, b.failed);
  EXPECT_EQ(a.hedges_fired, b.hedges_fired);
  EXPECT_EQ(a.hedge_wins, b.hedge_wins);
  EXPECT_EQ(a.tier_llm_full, b.tier_llm_full);
  EXPECT_EQ(a.tier_llm_reduced, b.tier_llm_reduced);
  EXPECT_EQ(a.tier_classical, b.tier_classical);
  EXPECT_EQ(a.tier_shed, b.tier_shed);
  EXPECT_EQ(a.p50_latency_seconds, b.p50_latency_seconds);
  EXPECT_EQ(a.p99_latency_seconds, b.p99_latency_seconds);
  EXPECT_EQ(a.mean_queue_wait_seconds, b.mean_queue_wait_seconds);
  EXPECT_EQ(a.p50_queue_wait_seconds, b.p50_queue_wait_seconds);
  EXPECT_EQ(a.p95_queue_wait_seconds, b.p95_queue_wait_seconds);
  EXPECT_EQ(a.p99_queue_wait_seconds, b.p99_queue_wait_seconds);
  EXPECT_EQ(a.p50_service_seconds, b.p50_service_seconds);
  EXPECT_EQ(a.p95_service_seconds, b.p95_service_seconds);
  EXPECT_EQ(a.p99_service_seconds, b.p99_service_seconds);
  EXPECT_EQ(a.retry.calls, b.retry.calls);
  EXPECT_EQ(a.retry.attempts, b.retry.attempts);
  EXPECT_EQ(a.retry.backoff_seconds, b.retry.backoff_seconds);
  EXPECT_EQ(a.retry.latency_seconds, b.retry.latency_seconds);
  EXPECT_EQ(a.ledger.prompt_tokens, b.ledger.prompt_tokens);
  EXPECT_EQ(a.ledger.generated_tokens, b.ledger.generated_tokens);
  EXPECT_EQ(a.prefix_cache.lookups, b.prefix_cache.lookups);
  EXPECT_EQ(a.prefix_cache.full_hits, b.prefix_cache.full_hits);
  EXPECT_EQ(a.batch.steps, b.batch.steps);
  EXPECT_EQ(a.batch.peak_batch, b.batch.peak_batch);
  EXPECT_EQ(a.batch.occupancy, b.batch.occupancy);
  EXPECT_EQ(a.rejections.queue_full, b.rejections.queue_full);
  EXPECT_EQ(a.rejections.retry_after_hint_sum,
            b.rejections.retry_after_hint_sum);
  EXPECT_EQ(a.rejections.retry_after_hints, b.rejections.retry_after_hints);
  EXPECT_EQ(a.rejections.total(), b.rejections.total());
  EXPECT_EQ(a.cluster.failovers, b.cluster.failovers);
  EXPECT_EQ(a.cluster.wasted_seconds, b.cluster.wasted_seconds);
  EXPECT_EQ(a.served_per_replica, b.served_per_replica);
  EXPECT_EQ(a.finished_per_replica, b.finished_per_replica);
}

serve::ServeStats ServedStats(size_t id, double backoff, size_t peak_batch) {
  serve::ServeStats st;
  st.id = id;
  st.outcome = serve::RequestOutcome::kServed;
  st.tier = serve::ServiceTier::kLlmFull;
  st.attempts = 1;
  st.arrival_seconds = 0.1 * static_cast<double>(id);
  st.start_seconds = st.arrival_seconds + 0.2;
  st.finish_seconds = st.start_seconds + 1.0;
  st.queue_wait_seconds = 0.2;
  st.latency_seconds = 1.2;
  st.retry.calls = 1;
  st.retry.attempts = 2;
  st.retry.backoff_seconds = backoff;
  st.ledger.prompt_tokens = 100;
  st.ledger.generated_tokens = 12;
  st.batch.steps = 4;
  st.batch.slot_steps = 4 * peak_batch;
  st.batch.peak_batch = peak_batch;
  st.batch.occupancy.assign(peak_batch + 1, 0);
  st.batch.occupancy[peak_batch] = 4;
  return st;
}

TEST(MetricsViewTest, SummarizeIntoAUsedRegistryMatchesAFreshOne) {
  const std::vector<serve::ServeStats> first = {ServedStats(0, 0.1, 8)};
  const std::vector<serve::ServeStats> second = {ServedStats(1, 0.3, 2)};
  MetricsRegistry registry;
  serve::Summarize(first, &registry);
  const serve::ServeSummary shared = serve::Summarize(second, &registry);
  const serve::ServeSummary fresh = serve::Summarize(second);
  // The second summary is the second batch's own: a high-water mark or
  // a floating-point sum the registry already held must not leak in.
  EXPECT_EQ(shared.batch.peak_batch, 2u);
  EXPECT_EQ(shared.retry.backoff_seconds, 0.3);
  ExpectSameSummary(shared, fresh);
  // The registry itself stays cumulative across both calls.
  const MetricsSnapshot snapshot = registry.Snapshot();
  EXPECT_EQ(snapshot.Value("serve.total"), 2.0);
  EXPECT_EQ(snapshot.Value("serve.served"), 2.0);
  EXPECT_EQ(snapshot.Value("serve.retry.backoff_seconds"), 0.1 + 0.3);
  EXPECT_EQ(snapshot.Value("serve.ledger.prompt_tokens"), 200.0);
  EXPECT_EQ(snapshot.Value("serve.batch.peak_batch"), 8.0);
}

TEST(MetricsViewTest, SummarizeExportsOneColumnSetWhateverTheOutcomes) {
  // Every outcome, every tier, every rejection status, three replicas,
  // hedges and nonzero sub-struct counters.
  std::vector<serve::ServeStats> mix;
  const serve::RequestOutcome outcomes[] = {
      serve::RequestOutcome::kServed,
      serve::RequestOutcome::kServedDegraded,
      serve::RequestOutcome::kShedQueueFull,
      serve::RequestOutcome::kShedExpired,
      serve::RequestOutcome::kCancelledDrain,
      serve::RequestOutcome::kFailed,
      serve::RequestOutcome::kFailed,
      serve::RequestOutcome::kFailed};
  const Status statuses[] = {Status::OK(),
                             Status::OK(),
                             Status::ResourceExhausted("full"),
                             Status::DeadlineExceeded("late"),
                             Status::Cancelled("drain"),
                             Status::Unavailable("down"),
                             Status::Internal("bug"),
                             Status::DeadlineExceeded("late")};
  const serve::ServiceTier tiers[] = {
      serve::ServiceTier::kLlmFull,   serve::ServiceTier::kLlmReduced,
      serve::ServiceTier::kShed,      serve::ServiceTier::kShed,
      serve::ServiceTier::kShed,      serve::ServiceTier::kShed,
      serve::ServiceTier::kShed,      serve::ServiceTier::kClassical};
  for (size_t i = 0; i < 8; ++i) {
    serve::ServeStats st = ServedStats(i, 0.05, 1 + i % 3);
    st.outcome = outcomes[i];
    st.status = statuses[i];
    st.tier = tiers[i];
    st.retry_after_seconds = i == 2 ? 0.5 : 0.0;
    st.hedge_fired = i < 2;
    st.hedge_won = i == 1;
    st.cluster.replica = static_cast<int>(i % 3);
    st.cluster.failovers = i % 2;
    st.prefix_cache.lookups = 1;
    mix.push_back(st);
  }
  MetricsRegistry empty_registry;
  MetricsRegistry mix_registry;
  serve::Summarize({}, &empty_registry);
  const serve::ServeSummary summary = serve::Summarize(mix, &mix_registry);
  ASSERT_EQ(summary.rejections.total(), 6u);
  ASSERT_EQ(summary.finished_per_replica.size(), 3u);

  const MetricsSnapshot empty = empty_registry.Snapshot();
  const MetricsSnapshot full = mix_registry.Snapshot();
  ASSERT_EQ(empty.points().size(), full.points().size());
  for (size_t i = 0; i < full.points().size(); ++i) {
    EXPECT_EQ(empty.points()[i].name, full.points()[i].name) << i;
    EXPECT_EQ(empty.points()[i].kind, full.points()[i].kind) << i;
  }
  EXPECT_EQ(full.points().front().name, "serve.total");
  EXPECT_EQ(full.points().back().name, "serve.mean_queue_wait_seconds");
}

}  // namespace
}  // namespace util
}  // namespace multicast
