// Unified metrics registry: one place every subsystem reports into,
// one export path out.
//
// Stats flow one way. Each subsystem keeps its own stats struct
// (RetryStats, PrefixCacheStats, BatchStats, QueueStats, OverloadStats,
// ClusterStats, ...) as the only state its callers read; the registry
// is a write-only export sink those structs are published into. Three
// primitives:
//
//   Counter   — monotonic double (exact for integer counts < 2^53),
//               lock-free thread-safe Add().
//   Gauge     — last-value / high-water-mark double (Set / SetMax).
//   Histogram — either fixed ascending boundaries (bucket i counts
//               v <= bounds[i], +overflow) or, with empty bounds, an
//               *indexed* histogram: one bucket per non-negative
//               integer (the occupancy-vector shape).
//
// Snapshot() takes a point-in-time copy of every metric, in
// registration order (first-touch order, deterministic for the
// single-threaded sims). Snapshots exist to be exported:
// MetricsJson() and WriteMetricsJson() render the machine artifact, and
// serve-sim's and cluster-sim's `--metrics-json` and the benches'
// `BENCH_*_metrics.json` files are written through them — there is no
// other serialization path. The human-readable tables those tools print
// are rendered from the stats structs, not from the registry.
//
// Nothing is read back into a struct. Each subsystem offers a
// Publish<Struct>() helper (declared next to the struct) that adds the
// struct's counters into a registry; summaries such as
// serve::ServeSummary are computed from the structs themselves, with
// the structs' own merge operators, and published once.

#ifndef MULTICAST_UTIL_METRICS_H_
#define MULTICAST_UTIL_METRICS_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "util/status.h"

namespace multicast {
namespace util {

enum class MetricKind { kCounter, kGauge, kHistogram };

const char* MetricKindName(MetricKind kind);

/// Monotonic accumulator. Doubles represent every integer count this
/// codebase can produce exactly (< 2^53), and virtual-time seconds sum
/// in call order, so porting size_t/double struct fields here is
/// value-preserving.
class Counter {
 public:
  void Add(double delta) { value_.fetch_add(delta, std::memory_order_relaxed); }
  void Increment() { Add(1.0); }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Last-value or high-water-mark metric.
class Gauge {
 public:
  void Set(double value) { value_.store(value, std::memory_order_relaxed); }
  /// Raises the gauge to `value` if larger (high-water mark).
  void SetMax(double value) {
    double seen = value_.load(std::memory_order_relaxed);
    while (value > seen &&
           !value_.compare_exchange_weak(seen, value,
                                         std::memory_order_relaxed)) {
    }
  }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed-boundary or indexed histogram (see file comment). Mutex-backed:
/// histograms sit on reporting paths, not token-level hot loops — the
/// hot-loop primitives are the lock-free Counter and Gauge.
class Histogram {
 public:
  /// `bounds` ascending; empty selects the indexed form.
  explicit Histogram(std::vector<double> bounds);

  /// Fixed-boundary observation: increments the first bucket whose
  /// boundary is >= value (the last, overflow, bucket otherwise).
  void Observe(double value);
  /// Indexed observation: adds `count` to bucket `index`, growing the
  /// bucket vector as needed. Only valid on indexed histograms.
  void ObserveIndex(size_t index, uint64_t count = 1);

  const std::vector<double>& bounds() const { return bounds_; }
  std::vector<uint64_t> buckets() const;
  double sum() const;
  uint64_t count() const;

 private:
  const std::vector<double> bounds_;
  mutable std::mutex mu_;
  std::vector<uint64_t> buckets_;  // guarded by mu_
  double sum_ = 0.0;               // guarded by mu_
  uint64_t count_ = 0;             // guarded by mu_
};

/// One exported metric value.
struct MetricPoint {
  std::string name;
  MetricKind kind = MetricKind::kCounter;
  /// Counter / gauge value (0 for histograms).
  double value = 0.0;
  /// Histogram payload; `bounds` empty = indexed histogram.
  std::vector<double> bounds;
  std::vector<uint64_t> buckets;
  double sum = 0.0;
  uint64_t count = 0;
};

/// Point-in-time copy of a registry, in registration order: the unit
/// of export.
class MetricsSnapshot {
 public:
  const std::vector<MetricPoint>& points() const { return points_; }
  bool empty() const { return points_.empty(); }

  /// Point by name; null when absent.
  const MetricPoint* Find(const std::string& name) const;
  /// Counter/gauge value by name; 0.0 when absent (absent and
  /// never-incremented are indistinguishable).
  double Value(const std::string& name) const;

  /// Appends a point (the building block of MetricsRegistry::Snapshot).
  void Append(MetricPoint point);

 private:
  std::vector<MetricPoint> points_;
  std::unordered_map<std::string, size_t> index_;
};

/// See file comment. Get* registers on first use (first-touch order is
/// the registration order) and returns a stable handle; subsequent
/// calls with the same name return the same handle. A name carries one
/// kind forever — re-requesting it as a different kind is a programming
/// error (MC_CHECK).
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  /// `bounds` is consulted only on first registration.
  Histogram* GetHistogram(const std::string& name,
                          std::vector<double> bounds = {});

  MetricsSnapshot Snapshot() const;
  size_t size() const;

 private:
  struct Entry {
    std::string name;
    MetricKind kind;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };
  Entry* FindOrCreate(const std::string& name, MetricKind kind,
                      std::vector<double>* bounds);

  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Entry>> entries_;  // registration order
  std::unordered_map<std::string, size_t> index_;
};

/// The JSON form of one snapshot: an array of point objects
/// `{"name", "kind", "value" | "bounds"/"buckets"/"sum"/"count"}`.
std::string MetricsJson(const MetricsSnapshot& snapshot);

/// Writes the single JSON artifact shared by serve-sim, cluster-sim and
/// the benches: `{"sections": [{"name": ..., "metrics": [...]}, ...]}`.
/// Every exporter goes through this function (or MetricsJson) — there
/// is no second serialization path.
Status WriteMetricsJson(
    const std::string& path,
    const std::vector<std::pair<std::string, MetricsSnapshot>>& sections);

}  // namespace util
}  // namespace multicast

#endif  // MULTICAST_UTIL_METRICS_H_
