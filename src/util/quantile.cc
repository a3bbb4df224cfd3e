#include "util/quantile.h"

#include <algorithm>
#include <cmath>

namespace multicast {
namespace util {

double NearestRankQuantileSorted(const std::vector<double>& sorted,
                                 double q) {
  if (sorted.empty()) return 0.0;
  const double n = static_cast<double>(sorted.size());
  // ceil with an absolute tolerance: 0.07 * 100 evaluates to slightly
  // above 7 in binary floating point, and a raw ceil would jump to
  // rank 8. Any real q*n this close to an integer is an exact rank.
  const double pos = std::clamp(q, 0.0, 1.0) * n;
  size_t rank = static_cast<size_t>(std::ceil(pos - 1e-9));
  if (rank == 0) rank = 1;
  if (rank > sorted.size()) rank = sorted.size();
  return sorted[rank - 1];
}

double NearestRankQuantile(std::vector<double> values, double q) {
  std::sort(values.begin(), values.end());
  return NearestRankQuantileSorted(values, q);
}

namespace {

// Where the interpolated quantile of n > 0 values falls: between the
// order statistics `lo` and `hi` (0-based, hi == lo or lo + 1), with
// weight `frac` on the latter.
struct Interpolation {
  size_t lo;
  size_t hi;
  double frac;
};

Interpolation InterpolationAt(size_t n, double q) {
  const double pos = std::clamp(q, 0.0, 1.0) * static_cast<double>(n - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = static_cast<size_t>(std::ceil(pos));
  return Interpolation{lo, hi, pos - static_cast<double>(lo)};
}

}  // namespace

double InterpolatedQuantileSorted(const std::vector<double>& sorted,
                                  double q) {
  if (sorted.empty()) return 0.0;
  const Interpolation at = InterpolationAt(sorted.size(), q);
  return sorted[at.lo] * (1.0 - at.frac) + sorted[at.hi] * at.frac;
}

double InterpolatedQuantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  const Interpolation at = InterpolationAt(values.size(), q);
  const auto lo = values.begin() + static_cast<std::ptrdiff_t>(at.lo);
  std::nth_element(values.begin(), lo, values.end());
  // Everything after the floor statistic is at least it, so the ceil
  // statistic is the least of them.
  const double hi =
      at.hi == at.lo ? *lo : *std::min_element(lo + 1, values.end());
  return *lo * (1.0 - at.frac) + hi * at.frac;
}

double LerpQuantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  const double pos =
      std::clamp(q, 0.0, 1.0) * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  const auto lo_it = values.begin() + static_cast<std::ptrdiff_t>(lo);
  std::nth_element(values.begin(), lo_it, values.end());
  const double hi_value =
      hi == lo ? *lo_it : *std::min_element(lo_it + 1, values.end());
  return *lo_it + frac * (hi_value - *lo_it);
}

}  // namespace util
}  // namespace multicast
