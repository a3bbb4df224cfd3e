#include "baselines/ets.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "metrics/metrics.h"
#include "ts/split.h"
#include "util/random.h"

namespace multicast {
namespace baselines {
namespace {

TEST(EtsTest, FlatSeriesForecastsFlat) {
  std::vector<double> v(40, 7.5);
  auto model = EtsModel::Fit(v, EtsOptions{});
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  auto fc = model.value().Forecast(5);
  ASSERT_TRUE(fc.ok());
  for (double x : fc.value()) EXPECT_NEAR(x, 7.5, 1e-6);
}

TEST(EtsTest, TrendExtrapolated) {
  std::vector<double> v;
  for (int t = 0; t < 60; ++t) v.push_back(3.0 * t + 10.0);
  EtsOptions opts;
  opts.damping = 1.0;  // undamped Holt for an exact line
  auto model = EtsModel::Fit(v, opts);
  ASSERT_TRUE(model.ok());
  auto fc = model.value().Forecast(5);
  ASSERT_TRUE(fc.ok());
  for (size_t h = 0; h < 5; ++h) {
    EXPECT_NEAR(fc.value()[h], 3.0 * (59.0 + h + 1) + 10.0, 0.5);
  }
}

TEST(EtsTest, DampingFlattensLongHorizon) {
  std::vector<double> v;
  for (int t = 0; t < 60; ++t) v.push_back(2.0 * t);
  EtsOptions damped;
  damped.damping = 0.8;
  auto model = EtsModel::Fit(v, damped).ValueOrDie();
  auto fc = model.Forecast(50).ValueOrDie();
  // Damped trend: increments shrink geometrically.
  double inc_early = fc[1] - fc[0];
  double inc_late = fc[49] - fc[48];
  EXPECT_LT(inc_late, inc_early * 0.05);
}

TEST(EtsTest, SeasonalPatternContinuesInPhase) {
  // Period-8 square-ish wave.
  std::vector<double> v;
  for (int t = 0; t < 96; ++t) {
    v.push_back(10.0 + ((t % 8) < 4 ? 3.0 : -3.0));
  }
  EtsOptions opts;
  opts.season_length = 8;
  auto model = EtsModel::Fit(v, opts);
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  auto fc = model.value().Forecast(16).ValueOrDie();
  for (size_t h = 0; h < 16; ++h) {
    double expected = 10.0 + (((96 + h) % 8) < 4 ? 3.0 : -3.0);
    EXPECT_NEAR(fc[h], expected, 0.8) << "h=" << h;
  }
}

TEST(EtsTest, SineWaveTrackedWithSeason) {
  std::vector<double> v;
  for (int t = 0; t < 120; ++t) {
    v.push_back(5.0 * std::sin(2.0 * M_PI * t / 12.0));
  }
  EtsOptions opts;
  opts.season_length = 12;
  auto model = EtsModel::Fit(v, opts).ValueOrDie();
  auto fc = model.Forecast(12).ValueOrDie();
  double ss = 0.0;
  for (size_t h = 0; h < 12; ++h) {
    double truth = 5.0 * std::sin(2.0 * M_PI * (120 + h) / 12.0);
    ss += (fc[h] - truth) * (fc[h] - truth);
  }
  EXPECT_LT(std::sqrt(ss / 12.0), 1.0);
}

TEST(EtsTest, GridSearchReducesMse) {
  Rng rng(3);
  std::vector<double> v;
  double level = 10.0;
  for (int t = 0; t < 100; ++t) {
    level += rng.NextGaussian(0.0, 0.5);
    v.push_back(level);
  }
  EtsOptions fine;
  fine.grid_steps = 10;
  EtsOptions coarse;
  coarse.grid_steps = 2;
  double fine_mse = EtsModel::Fit(v, fine).ValueOrDie().mse();
  double coarse_mse = EtsModel::Fit(v, coarse).ValueOrDie().mse();
  EXPECT_LE(fine_mse, coarse_mse + 1e-9);
}

TEST(EtsTest, RejectsBadInputs) {
  std::vector<double> v(20, 1.0);
  EtsOptions opts;
  opts.season_length = 15;  // needs 30 points
  EXPECT_FALSE(EtsModel::Fit(v, opts).ok());
  EXPECT_FALSE(EtsModel::Fit({1.0, 2.0}, EtsOptions{}).ok());
  opts = EtsOptions{};
  opts.damping = 0.0;
  EXPECT_FALSE(EtsModel::Fit(v, opts).ok());
  opts = EtsOptions{};
  opts.grid_steps = 1;
  EXPECT_FALSE(EtsModel::Fit(v, opts).ok());
  auto model = EtsModel::Fit(v, EtsOptions{}).ValueOrDie();
  EXPECT_FALSE(model.Forecast(0).ok());
}

TEST(EtsForecasterTest, MultivariateShape) {
  std::vector<double> a, b;
  for (int t = 0; t < 50; ++t) {
    a.push_back(t * 0.5);
    b.push_back(100.0 - t);
  }
  ts::Frame frame = ts::Frame::FromSeries(
                        {ts::Series(a, "a"), ts::Series(b, "b")}, "f")
                        .ValueOrDie();
  EtsForecaster f(EtsOptions{});
  EXPECT_EQ(f.name(), "HoltWinters");
  auto result = f.Forecast(frame, 6);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.value().forecast.num_dims(), 2u);
  EXPECT_EQ(result.value().forecast.length(), 6u);
  // Opposite trends continue in opposite directions.
  EXPECT_GT(result.value().forecast.at(0, 5), a.back());
  EXPECT_LT(result.value().forecast.at(1, 5), b.back());
}

TEST(EtsForecasterTest, AutoSeasonDetectsPeriod) {
  // Strong period-12 signal: auto-season should find it and beat the
  // non-seasonal fit.
  Rng rng(21);
  std::vector<double> v;
  for (int t = 0; t < 144; ++t) {
    v.push_back(6.0 * std::sin(2.0 * M_PI * t / 12.0) +
                rng.NextGaussian(0.0, 0.3));
  }
  ts::Frame frame =
      ts::Frame::FromSeries({ts::Series(v, "s")}, "sine").ValueOrDie();
  auto split = ts::SplitHorizon(frame, 12).ValueOrDie();

  EtsOptions flat;  // no season
  EtsOptions autos;
  autos.auto_season = true;
  auto flat_run =
      EtsForecaster(flat).Forecast(split.train, 12).ValueOrDie();
  auto auto_run =
      EtsForecaster(autos).Forecast(split.train, 12).ValueOrDie();
  double flat_rmse = metrics::Rmse(split.test.dim(0).values(),
                                   flat_run.forecast.dim(0).values())
                         .ValueOrDie();
  double auto_rmse = metrics::Rmse(split.test.dim(0).values(),
                                   auto_run.forecast.dim(0).values())
                         .ValueOrDie();
  EXPECT_LT(auto_rmse, flat_rmse * 0.5);
  EXPECT_LT(auto_rmse, 1.5);
}

TEST(EtsForecasterTest, AutoSeasonFallsBackOnAperiodicData) {
  Rng rng(22);
  std::vector<double> v;
  double level = 0.0;
  for (int t = 0; t < 80; ++t) {
    level += rng.NextGaussian(0.0, 1.0);
    v.push_back(level);
  }
  ts::Frame frame =
      ts::Frame::FromSeries({ts::Series(v, "walk")}, "rw").ValueOrDie();
  EtsOptions autos;
  autos.auto_season = true;
  auto run = EtsForecaster(autos).Forecast(frame, 5);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
}

TEST(EtsForecasterTest, CompetitiveOnNoisySine) {
  Rng rng(9);
  std::vector<double> v;
  for (int t = 0; t < 144; ++t) {
    v.push_back(5.0 * std::sin(2.0 * M_PI * t / 12.0) +
                rng.NextGaussian(0.0, 0.4));
  }
  ts::Frame frame =
      ts::Frame::FromSeries({ts::Series(v, "s")}, "sine").ValueOrDie();
  auto split = ts::SplitHorizon(frame, 12).ValueOrDie();
  EtsOptions opts;
  opts.season_length = 12;
  EtsForecaster f(opts);
  auto run = f.Forecast(split.train, 12).ValueOrDie();
  double rmse = metrics::Rmse(split.test.dim(0).values(),
                              run.forecast.dim(0).values())
                    .ValueOrDie();
  EXPECT_LT(rmse, 1.2);
}

// ---------------------------------------------------------------------
// The lane-scored grid against the serial grid it replaced: the serial
// search below is EtsModel::Fit as it read before candidates were
// scored in lanes (one Smooth per candidate, strict < in grid order,
// then one Smooth of the winner for the residuals), kept here as the
// reference. Every field must match bit for bit.
// ---------------------------------------------------------------------

struct ReferenceFit {
  double alpha = 0.5, beta = 0.1, gamma = 0.1;
  double level = 0.0, trend = 0.0;
  std::vector<double> season;
  double mse = std::numeric_limits<double>::infinity();
  std::vector<double> residuals;
};

double ReferenceSmooth(const std::vector<double>& series,
                       const EtsOptions& options, double alpha, double beta,
                       double gamma, double* level, double* trend,
                       std::vector<double>* season,
                       std::vector<double>* residuals = nullptr) {
  const size_t m = options.season_length;
  const double phi = options.damping;
  double l, b = 0.0;
  std::vector<double> s;
  size_t start;
  if (m > 0) {
    double mean = 0.0;
    for (size_t i = 0; i < m; ++i) mean += series[i];
    mean /= static_cast<double>(m);
    l = mean;
    s.resize(m);
    for (size_t i = 0; i < m; ++i) s[i] = series[i] - mean;
    start = m;
  } else {
    l = series[0];
    start = 1;
  }
  double sse = 0.0;
  size_t count = 0;
  for (size_t t = start; t < series.size(); ++t) {
    double seasonal = m > 0 ? s[t % m] : 0.0;
    double forecast = l + phi * b + seasonal;
    double error = series[t] - forecast;
    sse += error * error;
    ++count;
    if (residuals != nullptr) residuals->push_back(error);
    double l_prev = l;
    l = alpha * (series[t] - seasonal) + (1.0 - alpha) * (l + phi * b);
    b = beta * (l - l_prev) + (1.0 - beta) * phi * b;
    if (m > 0) {
      s[t % m] = gamma * (series[t] - l) + (1.0 - gamma) * s[t % m];
    }
  }
  *level = l;
  *trend = b;
  *season = std::move(s);
  return count > 0 ? sse / static_cast<double>(count)
                   : std::numeric_limits<double>::infinity();
}

ReferenceFit ReferenceSerialGrid(const std::vector<double>& series,
                                 const EtsOptions& options) {
  ReferenceFit best;
  const int g = options.grid_steps;
  for (int ai = 1; ai <= g; ++ai) {
    double alpha = static_cast<double>(ai) / (g + 1);
    for (int bi = 0; bi <= g; ++bi) {
      double beta = static_cast<double>(bi) / (g + 1);
      int gamma_steps = options.season_length > 0 ? g : 0;
      for (int gi = 0; gi <= gamma_steps; ++gi) {
        double gamma = static_cast<double>(gi) / (g + 1);
        double level, trend;
        std::vector<double> season;
        double mse = ReferenceSmooth(series, options, alpha, beta, gamma,
                                     &level, &trend, &season);
        if (mse < best.mse) {
          best.alpha = alpha;
          best.beta = beta;
          best.gamma = gamma;
          best.level = level;
          best.trend = trend;
          best.season = std::move(season);
          best.mse = mse;
        }
      }
    }
  }
  double level, trend;
  std::vector<double> season;
  ReferenceSmooth(series, options, best.alpha, best.beta, best.gamma, &level,
                  &trend, &season, &best.residuals);
  return best;
}

std::vector<double> ReferenceForecast(const ReferenceFit& fit,
                                      const EtsOptions& options,
                                      size_t train_length, size_t horizon) {
  std::vector<double> out;
  const size_t m = options.season_length;
  double damp_sum = 0.0;
  double damp_pow = 1.0;
  for (size_t h = 1; h <= horizon; ++h) {
    damp_pow *= options.damping;
    damp_sum += damp_pow;
    double seasonal = m > 0 ? fit.season[(train_length + h - 1) % m] : 0.0;
    out.push_back(fit.level + damp_sum * fit.trend + seasonal);
  }
  return out;
}

uint64_t Bits(double x) { return std::bit_cast<uint64_t>(x); }

void ExpectSameBits(const std::vector<double>& got,
                    const std::vector<double>& want, const std::string& what,
                    const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << what << " " << label;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(Bits(got[i]), Bits(want[i]))
        << what << "[" << i << "] " << got[i] << " vs " << want[i] << " "
        << label;
  }
}

// Fits `series` both ways and compares every output. A seasonal fit
// with no season to forecast from must refuse to forecast.
void ExpectMatchesSerialGrid(const std::vector<double>& series,
                             const EtsOptions& options,
                             const std::string& label) {
  const ReferenceFit want = ReferenceSerialGrid(series, options);
  Result<EtsModel> fit = EtsModel::Fit(series, options);
  ASSERT_TRUE(fit.ok()) << fit.status().ToString() << " " << label;
  const EtsModel& got = fit.value();
  EXPECT_EQ(Bits(got.alpha()), Bits(want.alpha)) << "alpha " << label;
  EXPECT_EQ(Bits(got.beta()), Bits(want.beta)) << "beta " << label;
  EXPECT_EQ(Bits(got.gamma()), Bits(want.gamma)) << "gamma " << label;
  EXPECT_EQ(Bits(got.mse()), Bits(want.mse)) << "mse " << label;
  EXPECT_EQ(Bits(got.level()), Bits(want.level)) << "level " << label;
  EXPECT_EQ(Bits(got.trend()), Bits(want.trend)) << "trend " << label;
  ExpectSameBits(got.season(), want.season, "season", label);
  ExpectSameBits(got.residuals(), want.residuals, "residuals", label);
  if (options.season_length > 0 && want.season.empty()) {
    // The serial grid's Forecast would read past the empty season.
    EXPECT_EQ(got.Forecast(3).status().code(),
              StatusCode::kFailedPrecondition)
        << label;
    return;
  }
  const size_t horizon = options.season_length + 5;
  ExpectSameBits(got.Forecast(horizon).ValueOrDie(),
                 ReferenceForecast(want, options, series.size(), horizon),
                 "forecast", label);
}

// Season + noise over a random-walk level. Odd seeds also walk the
// slope, so that candidates with beta > 0 win and the trend path of
// the recursion decides the winner's MSE.
std::vector<double> MakeSeries(size_t n, size_t period, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> v;
  double level = 50.0;
  double slope = 0.2;
  for (size_t t = 0; t < n; ++t) {
    if (seed % 2 == 1) slope += rng.NextGaussian(0.0, 0.3);
    level += slope + rng.NextGaussian(0.0, seed % 2 == 1 ? 0.1 : 1.0);
    const double season =
        period > 0 ? 4.0 * std::sin(2.0 * M_PI * static_cast<double>(t) /
                                    static_cast<double>(period))
                   : 0.0;
    v.push_back(level + season + rng.NextGaussian(0.0, 0.5));
  }
  return v;
}

TEST(EtsLaneGridTest, MatchesTheSerialGridBitForBit) {
  // Candidate counts g(g+1) and g(g+1)^2: 6/18, 12/48, 72/648 and
  // 90/900, so passes end both on and off a multiple of 8 lanes.
  uint64_t seed = 1;
  for (size_t m : {0, 4, 7, 12}) {
    for (int g : {2, 3, 8, 9}) {
      for (size_t n : {4, 5, 7, 8, 9, 14, 15, 24, 25, 37, 64, 150, 300}) {
        if (n < 2 * m) continue;
        EtsOptions options;
        options.season_length = m;
        options.grid_steps = g;
        options.damping = seed % 3 == 0 ? 1.0 : 0.98;
        ExpectMatchesSerialGrid(
            MakeSeries(n, m > 0 ? m : 9, seed), options,
            "m=" + std::to_string(m) + " g=" + std::to_string(g) +
                " n=" + std::to_string(n));
        ++seed;
      }
    }
  }
}

TEST(EtsLaneGridTest, ConstantSeriesKeepsTheFirstCandidate) {
  // Every candidate fits a zero series exactly, so all MSEs tie at 0
  // and the first in grid order must win: alpha = 1/(g+1), beta =
  // gamma = 0. A nonzero constant rounds differently per alpha, so its
  // MSEs only nearly tie; that must match the serial grid too.
  for (size_t m : {0, 4, 7}) {
    for (int g : {2, 8, 9}) {
      EtsOptions options;
      options.season_length = m;
      options.grid_steps = g;
      const std::string label =
          "m=" + std::to_string(m) + " g=" + std::to_string(g);
      ExpectMatchesSerialGrid(std::vector<double>(40, 3.25), options, label);
      const std::vector<double> flat(40, 0.0);
      ExpectMatchesSerialGrid(flat, options, label);
      const EtsModel model = EtsModel::Fit(flat, options).ValueOrDie();
      EXPECT_EQ(model.mse(), 0.0) << label;
      EXPECT_EQ(model.alpha(), 1.0 / (g + 1)) << label;
      EXPECT_EQ(model.beta(), 0.0) << label;
      EXPECT_EQ(model.gamma(), 0.0) << label;
    }
  }
}

TEST(EtsLaneGridTest, NanSeriesKeepsTheDefaults) {
  // A NaN makes every candidate's MSE NaN, so none wins: the defaults
  // stand with zero states, an empty season and an infinite MSE, and
  // the residuals come from smoothing at the default parameters.
  for (size_t m : {0, 4, 12}) {
    for (int g : {3, 8}) {
      std::vector<double> series = MakeSeries(60, m > 0 ? m : 9, 77);
      series[30] = std::nan("");
      EtsOptions options;
      options.season_length = m;
      options.grid_steps = g;
      const std::string label =
          "m=" + std::to_string(m) + " g=" + std::to_string(g);
      ExpectMatchesSerialGrid(series, options, label);
      const EtsModel model = EtsModel::Fit(series, options).ValueOrDie();
      EXPECT_EQ(model.alpha(), 0.5) << label;
      EXPECT_EQ(model.beta(), 0.1) << label;
      EXPECT_EQ(model.gamma(), 0.1) << label;
      EXPECT_EQ(model.level(), 0.0) << label;
      EXPECT_EQ(model.trend(), 0.0) << label;
      EXPECT_TRUE(model.season().empty()) << label;
      EXPECT_TRUE(std::isinf(model.mse())) << label;
      EXPECT_EQ(model.residuals().size(), series.size() - (m > 0 ? m : 1))
          << label;
    }
  }
}

}  // namespace
}  // namespace baselines
}  // namespace multicast
