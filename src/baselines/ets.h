// Exponential smoothing (Holt–Winters) forecasting.
//
// The linear-model family the paper's introduction cites alongside
// ARIMA. Additive error/trend/seasonality with damping; smoothing
// parameters are chosen per series by grid search over the in-sample
// one-step-ahead SSE — the classical "parameter search" workflow that
// zero-shot forecasting removes.

#ifndef MULTICAST_BASELINES_ETS_H_
#define MULTICAST_BASELINES_ETS_H_

#include <string>
#include <vector>

#include "forecast/forecaster.h"
#include "util/status.h"

namespace multicast {
namespace baselines {

struct EtsOptions {
  /// Season length in samples; 0 disables the seasonal component.
  size_t season_length = 0;
  /// When set, EtsForecaster detects each dimension's dominant period
  /// (ts::DetectSeasonality) and uses it as that dimension's season
  /// length, overriding `season_length`. Dimensions with no significant
  /// period fall back to non-seasonal smoothing.
  bool auto_season = false;
  /// Trend damping factor in (0, 1]; 1 = undamped Holt trend.
  double damping = 0.98;
  /// Grid resolution for the (alpha, beta, gamma) search.
  int grid_steps = 8;
};

/// A fitted additive Holt–Winters model for one series.
class EtsModel {
 public:
  /// Fits level/trend/season states with grid-searched smoothing
  /// parameters. Needs at least 2 full seasons when seasonal.
  ///
  /// The grid's (alpha, beta, gamma) candidates are scored 8 at a time,
  /// in lanes that share one pass over the series; each lane runs
  /// Smooth's expression sequence, so every candidate's MSE is the one
  /// a serial Smooth would return. The first candidate in grid order
  /// with the strictly lowest MSE wins, and one Smooth with its
  /// parameters yields the states and residuals. When no candidate
  /// wins (an MSE that is NaN everywhere, as on a series holding NaN),
  /// the model keeps the default parameters, zero level and trend, an
  /// empty season and an infinite MSE, with the residuals of a Smooth
  /// at the default parameters.
  static Result<EtsModel> Fit(const std::vector<double>& series,
                              const EtsOptions& options);

  /// Forecasts `horizon` steps ahead. kFailedPrecondition for a
  /// seasonal model whose fit found no winning candidate (its season is
  /// empty).
  Result<std::vector<double>> Forecast(size_t horizon) const;

  double alpha() const { return alpha_; }
  double beta() const { return beta_; }
  double gamma() const { return gamma_; }
  /// Final smoothing states of the chosen fit; the season is indexed
  /// by absolute time modulo the season length.
  double level() const { return level_; }
  double trend() const { return trend_; }
  const std::vector<double>& season() const { return season_; }
  /// In-sample one-step-ahead mean squared error of the chosen fit.
  double mse() const { return mse_; }
  /// In-sample one-step-ahead residuals (actual - forecast) of the
  /// chosen fit, in time order. The classical serving tier turns these
  /// into empirical forecast bands.
  const std::vector<double>& residuals() const { return residuals_; }

 private:
  EtsModel() = default;

  // Runs the smoothing recursion; returns one-step SSE and leaves the
  // final states in the out-params. When `residuals` is non-null, the
  // one-step errors are appended to it in time order.
  static double Smooth(const std::vector<double>& series,
                       const EtsOptions& options, double alpha, double beta,
                       double gamma, double* level, double* trend,
                       std::vector<double>* season,
                       std::vector<double>* residuals = nullptr);

  EtsOptions options_;
  double alpha_ = 0.5, beta_ = 0.1, gamma_ = 0.1;
  double level_ = 0.0, trend_ = 0.0;
  std::vector<double> season_;  // indexed by absolute time modulo m
  size_t train_length_ = 0;     // keeps the seasonal phase for Forecast
  double mse_ = 0.0;
  std::vector<double> residuals_;
};

/// Forecaster adapter: independent Holt–Winters per dimension.
class EtsForecaster final : public forecast::Forecaster {
 public:
  explicit EtsForecaster(const EtsOptions& options) : options_(options) {}

  std::string name() const override { return "HoltWinters"; }

  using forecast::Forecaster::Forecast;
  Result<forecast::ForecastResult> Forecast(const ts::Frame& history,
                                            size_t horizon,
                                            const RequestContext& ctx)
      override;

 private:
  EtsOptions options_;
};

}  // namespace baselines
}  // namespace multicast

#endif  // MULTICAST_BASELINES_ETS_H_
