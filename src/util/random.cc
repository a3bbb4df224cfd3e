#include "util/random.h"

#include <cmath>

#include "util/status.h"

namespace multicast {

namespace {
constexpr uint64_t kPcgMultiplier = 6364136223846793005ULL;
}  // namespace

Rng::Rng(uint64_t seed, uint64_t stream) {
  inc_ = (stream << 1u) | 1u;
  state_ = 0u;
  NextUint32();
  state_ += seed;
  NextUint32();
}

uint32_t Rng::NextUint32() {
  uint64_t old = state_;
  state_ = old * kPcgMultiplier + inc_;
  uint32_t xorshifted = static_cast<uint32_t>(((old >> 18u) ^ old) >> 27u);
  uint32_t rot = static_cast<uint32_t>(old >> 59u);
  return (xorshifted >> rot) | (xorshifted << ((-rot) & 31u));
}

uint32_t Rng::NextBounded(uint32_t bound) {
  MC_CHECK(bound > 0);
  uint32_t threshold = (-bound) % bound;
  for (;;) {
    uint32_t r = NextUint32();
    if (r >= threshold) return r % bound;
  }
}

double Rng::NextDouble() {
  // 53 random bits -> [0, 1) double.
  uint64_t hi = NextUint32();
  uint64_t lo = NextUint32();
  uint64_t bits = ((hi << 32) | lo) >> 11;
  return static_cast<double>(bits) * (1.0 / 9007199254740992.0);
}

double Rng::NextUniform(double lo, double hi) {
  return lo + (hi - lo) * NextDouble();
}

double Rng::NextGaussian() {
  if (have_cached_gaussian_) {
    have_cached_gaussian_ = false;
    return cached_gaussian_;
  }
  double u1, u2;
  do {
    u1 = NextDouble();
  } while (u1 <= 1e-300);
  u2 = NextDouble();
  double r = std::sqrt(-2.0 * std::log(u1));
  double theta = 2.0 * M_PI * u2;
  cached_gaussian_ = r * std::sin(theta);
  have_cached_gaussian_ = true;
  return r * std::cos(theta);
}

double Rng::NextGaussian(double mean, double stddev) {
  return mean + stddev * NextGaussian();
}

int Rng::SampleDiscrete(std::span<const double> weights) {
  MC_CHECK(!weights.empty());
  double total = 0.0;
  for (double w : weights) {
    MC_CHECK(w >= 0.0);
    total += w;
  }
  MC_CHECK(total > 0.0);
  double target = NextDouble() * total;
  double acc = 0.0;
  for (size_t i = 0; i < weights.size(); ++i) {
    acc += weights[i];
    if (target < acc) return static_cast<int>(i);
  }
  return static_cast<int>(weights.size()) - 1;
}

int Rng::SampleCdf(std::span<const double> cdf) {
  MC_CHECK(!cdf.empty() && cdf.back() > 0.0);
  // SampleDiscrete's total is its last running sum: the same additions
  // in the same order, and a zero weight leaves a sum unchanged, so an
  // index left out of `cdf` is never the first whose sum exceeds the
  // target.
  const double target = NextDouble() * cdf.back();
  for (size_t i = 0; i < cdf.size(); ++i) {
    if (target < cdf[i]) return static_cast<int>(i);
  }
  return static_cast<int>(cdf.size());
}

Rng Rng::Fork() {
  uint64_t seed = (static_cast<uint64_t>(NextUint32()) << 32) | NextUint32();
  uint64_t stream = (static_cast<uint64_t>(NextUint32()) << 32) | NextUint32();
  return Rng(seed, stream | 1);
}

}  // namespace multicast
