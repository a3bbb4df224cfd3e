// One quantile implementation for the whole codebase.
//
// The repo grew three quantile routines that could disagree on the
// same sample: serve/executor.cc computed nearest-rank via a
// floating-point ceil (which overshoots whenever q*n is an exact
// integer that binary floating point represents as slightly more —
// ceil(0.07 * 100) = 8, not 7), serve/overload.cc used the exact
// integer form (n*95 + 99) / 100, and ts::Quantile interpolates
// linearly. The first two claim the same estimator with different
// arithmetic, so the overload ladder's pressure p95 and the reported
// p95_queue_wait_seconds were one FP excess away from diverging on the
// same window. This header is now the single authority:
//
//   * NearestRankQuantile — rank = ceil(q*n), computed so that exact
//     integer ranks stay exact (the serving-layer estimator).
//   * InterpolatedQuantile — linear interpolation between order
//     statistics at position q*(n-1) (the ts:: estimator, used by
//     forecast bands and scalers; intentionally different semantics).
//   * LerpQuantile — the same position, interpolated as
//     lo + frac * (hi - lo) (the classical tier's residual bands).

#ifndef MULTICAST_UTIL_QUANTILE_H_
#define MULTICAST_UTIL_QUANTILE_H_

#include <vector>

namespace multicast {
namespace util {

/// Nearest-rank quantile of an already-sorted sample: the value at
/// 1-based rank ceil(q * n), clamped to [1, n]. Returns 0.0 on an empty
/// sample. The rank is computed with a tolerance so q*n values that are
/// mathematically integral (0.07 * 100 = 7) do not round up an extra
/// rank through floating-point excess.
double NearestRankQuantileSorted(const std::vector<double>& sorted,
                                 double q);

/// NearestRankQuantileSorted over an unsorted sample (copies + sorts).
double NearestRankQuantile(std::vector<double> values, double q);

/// Linearly-interpolated quantile of an already-sorted sample: the
/// value at fractional position q * (n - 1) between adjacent order
/// statistics. Returns 0.0 on an empty sample; q is clamped to [0, 1].
double InterpolatedQuantileSorted(const std::vector<double>& sorted,
                                  double q);

/// InterpolatedQuantileSorted over an unsorted sample, by selection
/// instead of a full sort: the floor order statistic from nth_element,
/// the ceil one as the least value above it. Bit-identical to sorting
/// first, since the two order statistics are the same values.
double InterpolatedQuantile(std::vector<double> values, double q);

/// The classical tier's band estimator (forecast/classical.cc): the
/// order statistics `lo` = floor(q * (n - 1)) and `hi` = min(lo + 1,
/// n - 1), combined as lo + frac * (hi - lo). That is the same point as
/// InterpolatedQuantile in exact arithmetic, but it rounds differently
/// (and gives NaN, not lo, when frac is 0 and hi - lo is not finite),
/// so the two are kept apart: switching the bands to the other form
/// would move their last bits. Selects with nth_element like
/// InterpolatedQuantile. Returns 0.0 on an empty sample; q is clamped
/// to [0, 1].
double LerpQuantile(std::vector<double> values, double q);

}  // namespace util
}  // namespace multicast

#endif  // MULTICAST_UTIL_QUANTILE_H_
