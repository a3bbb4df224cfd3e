// Summary statistics over series.

#ifndef MULTICAST_TS_STATS_H_
#define MULTICAST_TS_STATS_H_

#include <cstddef>
#include <vector>

namespace multicast {
namespace ts {

/// Moments and extrema of a value sequence, computed in one pass.
struct Summary {
  size_t count = 0;
  double mean = 0.0;
  double stddev = 0.0;  ///< population standard deviation
  double min = 0.0;
  double max = 0.0;
};

/// Computes the Summary of `values`. Empty input yields count == 0 with
/// zeroed fields.
Summary Summarize(const std::vector<double>& values);

/// Arithmetic mean (0 for empty input).
double Mean(const std::vector<double>& values);

/// Population variance (0 for fewer than 2 values).
double Variance(const std::vector<double>& values);

/// Pearson correlation of two equal-length sequences; 0 when degenerate
/// (mismatched lengths, < 2 points, or zero variance).
double PearsonCorrelation(const std::vector<double>& a,
                          const std::vector<double>& b);

/// Lag-k autocorrelation; 0 when k >= size or variance is 0.
double Autocorrelation(const std::vector<double>& values, size_t lag);

/// `q`-th quantile (0 <= q <= 1) by linear interpolation between order
/// statistics of the copy (selected, not fully sorted); 0 for empty
/// input.
double Quantile(std::vector<double> values, double q);

/// Median (quantile 0.5).
double Median(std::vector<double> values);

}  // namespace ts
}  // namespace multicast

#endif  // MULTICAST_TS_STATS_H_
