#include "util/metrics.h"

#include <algorithm>
#include <fstream>

#include "util/strings.h"
#include "util/table.h"

namespace multicast {
namespace util {

namespace {

/// Shortest decimal form that round-trips a double (JSON + tables).
std::string FormatNumber(double v) {
  std::string text = StrFormat("%.17g", v);
  for (int digits = 1; digits < 17; ++digits) {
    std::string candidate = StrFormat("%.*g", digits, v);
    if (std::stod(candidate) == v) return candidate;
  }
  return text;
}

}  // namespace

const char* MetricKindName(MetricKind kind) {
  switch (kind) {
    case MetricKind::kCounter:
      return "counter";
    case MetricKind::kGauge:
      return "gauge";
    case MetricKind::kHistogram:
      return "histogram";
  }
  return "?";
}

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)), buckets_(bounds_.empty() ? 0 : bounds_.size() + 1, 0) {}

void Histogram::Observe(double value) {
  std::lock_guard<std::mutex> lock(mu_);
  MC_CHECK(!bounds_.empty());
  size_t bucket = bounds_.size();  // overflow bucket
  for (size_t i = 0; i < bounds_.size(); ++i) {
    if (value <= bounds_[i]) {
      bucket = i;
      break;
    }
  }
  ++buckets_[bucket];
  sum_ += value;
  ++count_;
}

void Histogram::ObserveIndex(size_t index, uint64_t count) {
  std::lock_guard<std::mutex> lock(mu_);
  MC_CHECK(bounds_.empty());
  // A zero count still extends the bucket vector: a published
  // occupancy vector that holds "0 steps at occupancy k" keeps its
  // length in the export.
  if (buckets_.size() <= index) buckets_.resize(index + 1, 0);
  if (count == 0) return;
  buckets_[index] += count;
  sum_ += static_cast<double>(index) * static_cast<double>(count);
  count_ += count;
}

std::vector<uint64_t> Histogram::buckets() const {
  std::lock_guard<std::mutex> lock(mu_);
  return buckets_;
}

double Histogram::sum() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sum_;
}

uint64_t Histogram::count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return count_;
}

const MetricPoint* MetricsSnapshot::Find(const std::string& name) const {
  auto it = index_.find(name);
  if (it == index_.end()) return nullptr;
  return &points_[it->second];
}

double MetricsSnapshot::Value(const std::string& name) const {
  const MetricPoint* point = Find(name);
  return point != nullptr ? point->value : 0.0;
}

double MetricsSnapshot::HistogramQuantile(const std::string& name,
                                          double q) const {
  const MetricPoint* point = Find(name);
  if (point == nullptr || point->kind != MetricKind::kHistogram ||
      point->count == 0) {
    return 0.0;
  }
  q = std::min(1.0, std::max(0.0, q));
  // The target rank in [0, count]; the bucket whose cumulative count
  // first reaches it holds the quantile.
  const double target = q * static_cast<double>(point->count);
  double cumulative = 0.0;
  for (size_t i = 0; i < point->buckets.size(); ++i) {
    if (point->buckets[i] == 0) continue;
    const double in_bucket = static_cast<double>(point->buckets[i]);
    if (cumulative + in_bucket >= target) {
      // Indexed histogram: the bucket index *is* the observed value.
      if (point->bounds.empty()) return static_cast<double>(i);
      // Overflow bucket: no upper bound to interpolate toward.
      if (i >= point->bounds.size()) return point->bounds.back();
      const double hi = point->bounds[i];
      const double lo = i == 0 ? 0.0 : point->bounds[i - 1];
      double frac = (target - cumulative) / in_bucket;
      if (frac < 0.0) frac = 0.0;
      return lo + frac * (hi - lo);
    }
    cumulative += in_bucket;
  }
  // count > 0 guarantees a bucket reached the target above; this line
  // only absorbs floating-point edge dust.
  return point->bounds.empty() ? 0.0 : point->bounds.back();
}

void MetricsSnapshot::Append(MetricPoint point) {
  MC_CHECK(index_.find(point.name) == index_.end());
  index_.emplace(point.name, points_.size());
  points_.push_back(std::move(point));
}

std::string MetricsSnapshot::ToTable() const {
  TextTable table({"Metric", "Kind", "Value"});
  for (const MetricPoint& point : points_) {
    std::string value;
    if (point.kind == MetricKind::kHistogram) {
      value = StrFormat("count %llu, sum %s, buckets [",
                        static_cast<unsigned long long>(point.count),
                        FormatNumber(point.sum).c_str());
      for (size_t k = 0; k < point.buckets.size(); ++k) {
        if (k > 0) value += " ";
        value += StrFormat(
            "%llu", static_cast<unsigned long long>(point.buckets[k]));
      }
      value += "]";
      if (point.count > 0) {
        value += StrFormat(
            ", p50 %s, p95 %s",
            FormatNumber(HistogramQuantile(point.name, 0.5)).c_str(),
            FormatNumber(HistogramQuantile(point.name, 0.95)).c_str());
      }
    } else {
      value = FormatNumber(point.value);
    }
    table.AddRow({point.name, MetricKindName(point.kind), value});
  }
  return table.Render();
}

MetricsRegistry::Entry* MetricsRegistry::FindOrCreate(
    const std::string& name, MetricKind kind, std::vector<double>* bounds) {
  auto it = index_.find(name);
  if (it != index_.end()) {
    Entry* entry = entries_[it->second].get();
    MC_CHECK(entry->kind == kind);
    return entry;
  }
  auto entry = std::make_unique<Entry>();
  entry->name = name;
  entry->kind = kind;
  switch (kind) {
    case MetricKind::kCounter:
      entry->counter = std::make_unique<Counter>();
      break;
    case MetricKind::kGauge:
      entry->gauge = std::make_unique<Gauge>();
      break;
    case MetricKind::kHistogram:
      entry->histogram = std::make_unique<Histogram>(
          bounds != nullptr ? std::move(*bounds) : std::vector<double>{});
      break;
  }
  index_.emplace(name, entries_.size());
  entries_.push_back(std::move(entry));
  return entries_.back().get();
}

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  return FindOrCreate(name, MetricKind::kCounter, nullptr)->counter.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  return FindOrCreate(name, MetricKind::kGauge, nullptr)->gauge.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name,
                                         std::vector<double> bounds) {
  std::lock_guard<std::mutex> lock(mu_);
  return FindOrCreate(name, MetricKind::kHistogram, &bounds)
      ->histogram.get();
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  MetricsSnapshot snapshot;
  for (const auto& entry : entries_) {
    MetricPoint point;
    point.name = entry->name;
    point.kind = entry->kind;
    switch (entry->kind) {
      case MetricKind::kCounter:
        point.value = entry->counter->value();
        break;
      case MetricKind::kGauge:
        point.value = entry->gauge->value();
        break;
      case MetricKind::kHistogram:
        point.bounds = entry->histogram->bounds();
        point.buckets = entry->histogram->buckets();
        point.sum = entry->histogram->sum();
        point.count = entry->histogram->count();
        break;
    }
    snapshot.Append(std::move(point));
  }
  return snapshot;
}

size_t MetricsRegistry::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

std::string MetricsJson(const MetricsSnapshot& snapshot) {
  std::string json = "[";
  bool first = true;
  for (const MetricPoint& point : snapshot.points()) {
    if (!first) json += ",";
    first = false;
    json += StrFormat("\n    {\"name\": \"%s\", \"kind\": \"%s\"",
                      point.name.c_str(), MetricKindName(point.kind));
    if (point.kind == MetricKind::kHistogram) {
      json += ", \"bounds\": [";
      for (size_t k = 0; k < point.bounds.size(); ++k) {
        if (k > 0) json += ", ";
        json += FormatNumber(point.bounds[k]);
      }
      json += "], \"buckets\": [";
      for (size_t k = 0; k < point.buckets.size(); ++k) {
        if (k > 0) json += ", ";
        json += StrFormat(
            "%llu", static_cast<unsigned long long>(point.buckets[k]));
      }
      json += StrFormat("], \"sum\": %s, \"count\": %llu",
                        FormatNumber(point.sum).c_str(),
                        static_cast<unsigned long long>(point.count));
    } else {
      json += StrFormat(", \"value\": %s", FormatNumber(point.value).c_str());
    }
    json += "}";
  }
  json += first ? "]" : "\n  ]";
  return json;
}

Status WriteMetricsJson(
    const std::string& path,
    const std::vector<std::pair<std::string, MetricsSnapshot>>& sections) {
  std::ofstream out(path);
  if (!out) {
    return Status::Unavailable(
        StrFormat("cannot open '%s' for writing", path.c_str()));
  }
  out << "{\n\"sections\": [";
  for (size_t i = 0; i < sections.size(); ++i) {
    if (i > 0) out << ",";
    out << "\n  {\"name\": \"" << sections[i].first << "\", \"metrics\": "
        << MetricsJson(sections[i].second) << "}";
  }
  out << "\n]\n}\n";
  out.close();
  if (!out) {
    return Status::Unavailable(
        StrFormat("failed writing '%s'", path.c_str()));
  }
  return Status::OK();
}

}  // namespace util
}  // namespace multicast
