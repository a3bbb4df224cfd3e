#include "util/random.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <vector>

namespace multicast {
namespace {

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123, 1), b(123, 1);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextUint32(), b.NextUint32());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(123, 1), b(124, 1);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextUint32() == b.NextUint32()) ++same;
  }
  EXPECT_LT(same, 4);
}

TEST(RngTest, DifferentStreamsDiffer) {
  Rng a(123, 1), b(123, 2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextUint32() == b.NextUint32()) ++same;
  }
  EXPECT_LT(same, 4);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    double v = rng.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, NextDoubleMeanIsHalf) {
  Rng rng(11);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.NextDouble();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(RngTest, BoundedStaysInRange) {
  Rng rng(99);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 10000; ++i) {
    uint32_t v = rng.NextBounded(10);
    ASSERT_LT(v, 10u);
    ++counts[v];
  }
  // Roughly uniform: each bucket within 30% of expectation.
  for (int c : counts) EXPECT_NEAR(c, 1000, 300);
}

TEST(RngTest, GaussianMomentsMatch) {
  Rng rng(5);
  const int n = 200000;
  double sum = 0.0, sq = 0.0;
  for (int i = 0; i < n; ++i) {
    double v = rng.NextGaussian();
    sum += v;
    sq += v * v;
  }
  double mean = sum / n;
  double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.02);
  EXPECT_NEAR(var, 1.0, 0.03);
}

TEST(RngTest, GaussianWithParams) {
  Rng rng(5);
  const int n = 100000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += rng.NextGaussian(10.0, 2.0);
  EXPECT_NEAR(sum / n, 10.0, 0.05);
}

TEST(RngTest, SampleDiscreteRespectsWeights) {
  Rng rng(17);
  std::vector<double> weights = {1.0, 3.0, 0.0, 6.0};
  std::vector<int> counts(4, 0);
  const int n = 50000;
  for (int i = 0; i < n; ++i) ++counts[rng.SampleDiscrete(weights)];
  EXPECT_EQ(counts[2], 0);
  EXPECT_NEAR(counts[0] / static_cast<double>(n), 0.1, 0.02);
  EXPECT_NEAR(counts[1] / static_cast<double>(n), 0.3, 0.02);
  EXPECT_NEAR(counts[3] / static_cast<double>(n), 0.6, 0.02);
}

TEST(RngTest, SampleDiscreteSingleElement) {
  Rng rng(1);
  EXPECT_EQ(rng.SampleDiscrete({5.0}), 0);
}

// A draw trie node keeps SampleDiscrete's running sums only at the
// tokens its grammar position admits. Over random weights (zeros, top-k
// cuts, a zero-weight last token, sums that overflow to +inf), SampleCdf
// over those sums must pick the index SampleDiscrete picks over the
// weights, its fallback to the last index included, and leave the RNG in
// the same state.
TEST(RngTest, SampleCdfMatchesSampleDiscrete) {
  Rng gen(2024);
  int fallbacks = 0;
  for (int trial = 0; trial < 20000; ++trial) {
    const size_t vocab = 2 + gen.NextBounded(20);
    std::vector<double> weights(vocab, 0.0);
    for (double& w : weights) {
      switch (gen.NextBounded(5)) {
        case 0:
          break;  // zero
        case 1:
          w = gen.NextDouble();
          break;
        case 2:
          w = std::pow(gen.NextDouble(), 1.0 / 0.45);
          break;
        case 3:
          w = 1e-300 * gen.NextDouble();
          break;
        default:
          w = std::exp(40.0 * gen.NextDouble());
          break;
      }
    }
    if (gen.NextBounded(3) == 0) {
      // A top-k cut: only the k largest weights survive.
      const size_t k = 1 + gen.NextBounded(static_cast<uint32_t>(vocab));
      std::vector<double> sorted = weights;
      std::sort(sorted.begin(), sorted.end(), std::greater<double>());
      const double floor = sorted[k - 1];
      for (double& w : weights) {
        if (w < floor) w = 0.0;
      }
    }
    if (gen.NextBounded(2) == 0) weights.back() = 0.0;  // the comma
    if (gen.NextBounded(10) == 0) {
      // Running sums that overflow: the draw falls past the total.
      weights[gen.NextBounded(static_cast<uint32_t>(vocab))] =
          std::numeric_limits<double>::max();
      weights[gen.NextBounded(static_cast<uint32_t>(vocab))] =
          std::numeric_limits<double>::max();
    }
    if (*std::max_element(weights.begin(), weights.end()) <= 0.0) {
      weights[gen.NextBounded(static_cast<uint32_t>(vocab))] = 0.5;
    }
    // The admitted tokens: every positive weight, and some zero ones (a
    // token the grammar admits but top-k cut).
    std::vector<int> admitted;
    std::vector<double> cdf;
    double acc = 0.0;
    for (size_t i = 0; i < vocab; ++i) {
      if (weights[i] > 0.0 || gen.NextBounded(2) == 0) {
        acc += weights[i];
        admitted.push_back(static_cast<int>(i));
        cdf.push_back(acc);
      }
    }
    const uint64_t seed = gen.NextUint32();
    Rng discrete(seed);
    Rng cumulative(seed);
    const int want = discrete.SampleDiscrete(weights);
    const int at = cumulative.SampleCdf(cdf);
    ASSERT_GE(at, 0);
    ASSERT_LE(at, static_cast<int>(cdf.size()));
    const int got = at < static_cast<int>(cdf.size())
                        ? admitted[static_cast<size_t>(at)]
                        : static_cast<int>(vocab) - 1;
    if (at == static_cast<int>(cdf.size())) ++fallbacks;
    ASSERT_EQ(got, want) << "trial " << trial;
    ASSERT_EQ(cumulative.NextUint32(), discrete.NextUint32())
        << "trial " << trial;
  }
  EXPECT_GT(fallbacks, 0);
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(3);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> orig = v;
  rng.Shuffle(&v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

TEST(RngTest, ShuffleActuallyPermutes) {
  Rng rng(3);
  std::vector<int> v(100);
  for (int i = 0; i < 100; ++i) v[i] = i;
  rng.Shuffle(&v);
  int moved = 0;
  for (int i = 0; i < 100; ++i) {
    if (v[i] != i) ++moved;
  }
  EXPECT_GT(moved, 50);
}

TEST(RngTest, ForkIsIndependent) {
  Rng a(42);
  Rng child = a.Fork();
  // The fork and parent should produce different streams.
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextUint32() == child.NextUint32()) ++same;
  }
  EXPECT_LT(same, 4);
}

TEST(RngTest, UniformRange) {
  Rng rng(8);
  for (int i = 0; i < 1000; ++i) {
    double v = rng.NextUniform(-2.0, 3.0);
    EXPECT_GE(v, -2.0);
    EXPECT_LT(v, 3.0);
  }
}

}  // namespace
}  // namespace multicast
