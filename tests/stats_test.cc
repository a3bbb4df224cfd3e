#include "ts/stats.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "util/quantile.h"
#include "util/random.h"

namespace multicast {
namespace ts {
namespace {

TEST(SummarizeTest, BasicMoments) {
  Summary s = Summarize({1.0, 2.0, 3.0, 4.0});
  EXPECT_EQ(s.count, 4u);
  EXPECT_DOUBLE_EQ(s.mean, 2.5);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 4.0);
  EXPECT_NEAR(s.stddev, std::sqrt(1.25), 1e-12);
}

TEST(SummarizeTest, EmptyIsZeroed) {
  Summary s = Summarize({});
  EXPECT_EQ(s.count, 0u);
  EXPECT_DOUBLE_EQ(s.mean, 0.0);
}

TEST(SummarizeTest, SingleValue) {
  Summary s = Summarize({7.0});
  EXPECT_DOUBLE_EQ(s.mean, 7.0);
  EXPECT_DOUBLE_EQ(s.stddev, 0.0);
}

TEST(MeanVarianceTest, Agreement) {
  std::vector<double> v = {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  EXPECT_DOUBLE_EQ(Mean(v), 5.0);
  EXPECT_DOUBLE_EQ(Variance(v), 4.0);
}

TEST(PearsonTest, PerfectCorrelation) {
  std::vector<double> a = {1.0, 2.0, 3.0, 4.0};
  std::vector<double> b = {2.0, 4.0, 6.0, 8.0};
  EXPECT_NEAR(PearsonCorrelation(a, b), 1.0, 1e-12);
}

TEST(PearsonTest, PerfectAntiCorrelation) {
  std::vector<double> a = {1.0, 2.0, 3.0};
  std::vector<double> b = {3.0, 2.0, 1.0};
  EXPECT_NEAR(PearsonCorrelation(a, b), -1.0, 1e-12);
}

TEST(PearsonTest, DegenerateCases) {
  EXPECT_DOUBLE_EQ(PearsonCorrelation({1.0}, {1.0}), 0.0);
  EXPECT_DOUBLE_EQ(PearsonCorrelation({1.0, 2.0}, {1.0, 2.0, 3.0}), 0.0);
  EXPECT_DOUBLE_EQ(PearsonCorrelation({5.0, 5.0}, {1.0, 2.0}), 0.0);
}

TEST(PearsonTest, IndependentNoiseNearZero) {
  Rng rng(42);
  std::vector<double> a, b;
  for (int i = 0; i < 5000; ++i) {
    a.push_back(rng.NextGaussian());
    b.push_back(rng.NextGaussian());
  }
  EXPECT_NEAR(PearsonCorrelation(a, b), 0.0, 0.05);
}

TEST(AutocorrelationTest, Lag0IsOne) {
  std::vector<double> v = {1.0, 3.0, 2.0, 5.0, 4.0};
  EXPECT_NEAR(Autocorrelation(v, 0), 1.0, 1e-12);
}

TEST(AutocorrelationTest, PeriodicSignalPeaksAtPeriod) {
  std::vector<double> v;
  for (int i = 0; i < 400; ++i) v.push_back(std::sin(2 * M_PI * i / 20.0));
  EXPECT_GT(Autocorrelation(v, 20), 0.9);
  EXPECT_LT(Autocorrelation(v, 10), -0.9);
}

TEST(AutocorrelationTest, LagTooLargeIsZero) {
  EXPECT_DOUBLE_EQ(Autocorrelation({1.0, 2.0}, 5), 0.0);
}

TEST(QuantileTest, ExactPoints) {
  std::vector<double> v = {1.0, 2.0, 3.0, 4.0, 5.0};
  EXPECT_DOUBLE_EQ(Quantile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(Quantile(v, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(Quantile(v, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(Quantile(v, 0.25), 2.0);
}

TEST(QuantileTest, Interpolates) {
  std::vector<double> v = {0.0, 10.0};
  EXPECT_DOUBLE_EQ(Quantile(v, 0.3), 3.0);
}

// Selection, not a full sort: the same order statistics, so the same
// interpolated bits as sorting first, on samples full of ties.
TEST(QuantileTest, SelectionMatchesTheSortedQuantile) {
  Rng rng(41);
  for (size_t n : {size_t{1}, size_t{2}, size_t{1000}}) {
    for (int trial = 0; trial < 20; ++trial) {
      std::vector<double> values(n);
      for (double& v : values) {
        v = static_cast<double>(rng.NextBounded(7)) * 0.37 - 1.0;
      }
      std::vector<double> sorted = values;
      std::sort(sorted.begin(), sorted.end());
      for (double q : {0.0, 0.1, 0.5, 0.9, 1.0}) {
        SCOPED_TRACE(testing::Message() << "n " << n << " q " << q);
        EXPECT_EQ(Quantile(values, q),
                  util::InterpolatedQuantileSorted(sorted, q));
      }
    }
  }
}

TEST(QuantileTest, ClampsAndHandlesEmpty) {
  EXPECT_DOUBLE_EQ(Quantile({}, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(Quantile({2.0}, -1.0), 2.0);
  EXPECT_DOUBLE_EQ(Quantile({2.0}, 2.0), 2.0);
}

TEST(MedianTest, OddEven) {
  EXPECT_DOUBLE_EQ(Median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(Median({4.0, 1.0, 2.0, 3.0}), 2.5);
}

TEST(MedianTest, UnsortedInputHandled) {
  EXPECT_DOUBLE_EQ(Median({9.0, 1.0, 5.0, 2.0, 7.0}), 5.0);
}

}  // namespace
}  // namespace ts
}  // namespace multicast
