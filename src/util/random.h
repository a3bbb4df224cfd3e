// Deterministic pseudo-random number generation (PCG32).
//
// Every stochastic component in MultiCast (LM sampling, dataset
// generators, LSTM init, dropout) takes an explicit seed so that all
// tables and figures reproduce bit-for-bit across runs and machines.

#ifndef MULTICAST_UTIL_RANDOM_H_
#define MULTICAST_UTIL_RANDOM_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

namespace multicast {

/// PCG32 generator (O'Neill 2014, pcg32_random_r). Small state, good
/// statistical quality, stable across platforms — unlike std::mt19937's
/// distribution helpers, whose outputs vary by standard library.
class Rng {
 public:
  /// Seeds the generator. `stream` selects an independent sequence.
  explicit Rng(uint64_t seed = 0x853c49e6748fea9bULL, uint64_t stream = 1);

  /// Next 32 uniformly distributed bits.
  uint32_t NextUint32();

  /// Uniform integer in [0, bound). `bound` must be > 0. Uses rejection
  /// sampling to avoid modulo bias.
  uint32_t NextBounded(uint32_t bound);

  /// Uniform double in [0, 1).
  double NextDouble();

  /// Uniform double in [lo, hi).
  double NextUniform(double lo, double hi);

  /// Standard normal via Box–Muller (cached second draw).
  double NextGaussian();

  /// Normal with given mean and standard deviation.
  double NextGaussian(double mean, double stddev);

  /// Samples an index from (unnormalized, non-negative) weights, read in
  /// place. Returns weights.size()-1 on accumulated floating-point
  /// shortfall. At least one weight must be positive.
  int SampleDiscrete(std::span<const double> weights);
  int SampleDiscrete(const std::vector<double>& weights) {
    return SampleDiscrete(std::span<const double>(weights));
  }

  /// Draws what SampleDiscrete draws over weights whose running sums
  /// (the `acc` it forms, in index order) are `cdf`, kept at a subset of
  /// the indices that holds every positive weight. Consumes the same one
  /// NextDouble and returns the position in `cdf` of the index
  /// SampleDiscrete would return, or cdf.size() where it falls back to
  /// its last index. cdf.back() must be positive.
  int SampleCdf(std::span<const double> cdf);

  /// Fisher–Yates shuffles `v` in place.
  template <typename T>
  void Shuffle(std::vector<T>* v) {
    for (size_t i = v->size(); i > 1; --i) {
      size_t j = NextBounded(static_cast<uint32_t>(i));
      std::swap((*v)[i - 1], (*v)[j]);
    }
  }

  /// Derives an independent child generator (for parallel components that
  /// must not share a stream).
  Rng Fork();

 private:
  uint64_t state_;
  uint64_t inc_;
  bool have_cached_gaussian_ = false;
  double cached_gaussian_ = 0.0;
};

}  // namespace multicast

#endif  // MULTICAST_UTIL_RANDOM_H_
