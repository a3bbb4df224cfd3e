#include "ts/stats.h"

#include <algorithm>
#include <cmath>

#include "util/quantile.h"

namespace multicast {
namespace ts {

Summary Summarize(const std::vector<double>& values) {
  Summary s;
  if (values.empty()) return s;
  s.count = values.size();
  s.min = values[0];
  s.max = values[0];
  double sum = 0.0;
  for (double v : values) {
    sum += v;
    s.min = std::min(s.min, v);
    s.max = std::max(s.max, v);
  }
  s.mean = sum / static_cast<double>(s.count);
  double ss = 0.0;
  for (double v : values) {
    double d = v - s.mean;
    ss += d * d;
  }
  s.stddev = std::sqrt(ss / static_cast<double>(s.count));
  return s;
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double Variance(const std::vector<double>& values) {
  if (values.size() < 2) return 0.0;
  double m = Mean(values);
  double ss = 0.0;
  for (double v : values) {
    double d = v - m;
    ss += d * d;
  }
  return ss / static_cast<double>(values.size());
}

double PearsonCorrelation(const std::vector<double>& a,
                          const std::vector<double>& b) {
  if (a.size() != b.size() || a.size() < 2) return 0.0;
  double ma = Mean(a);
  double mb = Mean(b);
  double num = 0.0, da = 0.0, db = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    double xa = a[i] - ma;
    double xb = b[i] - mb;
    num += xa * xb;
    da += xa * xa;
    db += xb * xb;
  }
  if (da <= 0.0 || db <= 0.0) return 0.0;
  return num / std::sqrt(da * db);
}

double Autocorrelation(const std::vector<double>& values, size_t lag) {
  if (lag >= values.size()) return 0.0;
  double m = Mean(values);
  double denom = 0.0;
  for (double v : values) {
    double d = v - m;
    denom += d * d;
  }
  if (denom <= 0.0) return 0.0;
  double num = 0.0;
  for (size_t i = lag; i < values.size(); ++i) {
    num += (values[i] - m) * (values[i - lag] - m);
  }
  return num / denom;
}

double Quantile(std::vector<double> values, double q) {
  // Linear interpolation between order statistics — intentionally a
  // different estimator than the serving layer's nearest-rank quantile;
  // both now live in util/quantile.h as the single implementation.
  return util::InterpolatedQuantile(std::move(values), q);
}

double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

}  // namespace ts
}  // namespace multicast
