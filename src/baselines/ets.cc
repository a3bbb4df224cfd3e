#include "baselines/ets.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "ts/seasonality.h"
#include "util/strings.h"
#include "util/timer.h"

namespace multicast {
namespace baselines {

namespace {

/// Smooth's initial states: level from the first observation (or the
/// first-season mean), seasonal offsets from the first season (empty
/// when m is 0). Returns the first time step the recursion forecasts.
size_t InitialStates(const std::vector<double>& series, size_t m,
                     double* level, std::vector<double>* season) {
  if (m == 0) {
    *level = series[0];
    season->clear();
    return 1;
  }
  double mean = 0.0;
  for (size_t i = 0; i < m; ++i) mean += series[i];
  mean /= static_cast<double>(m);
  *level = mean;
  season->resize(m);
  for (size_t i = 0; i < m; ++i) (*season)[i] = series[i] - mean;
  return m;
}

/// Smoothing candidates scored per pass over the series.
constexpr size_t kLanes = 8;

/// Runs EtsModel::Smooth's recursion for kLanes candidates at once,
/// from the shared initial states already in `level`, `trend` and
/// `season` (laid out season[phase * kLanes + lane]), and leaves each
/// lane's one-step SSE in `sse`. Per lane, the expressions and their
/// order are Smooth's, so the sums are bit-identical to it.
template <bool kSeasonal>
void SmoothLanes(const std::vector<double>& series, size_t start, size_t m,
                 double phi, const double* alpha, const double* beta,
                 const double* gamma, double* level, double* trend,
                 double* season, double* sse) {
  size_t phase = kSeasonal ? start % m : 0;
  for (size_t t = start; t < series.size(); ++t) {
    const double x = series[t];
    double* s = kSeasonal ? season + phase * kLanes : nullptr;
    for (size_t k = 0; k < kLanes; ++k) {
      const double seasonal = kSeasonal ? s[k] : 0.0;
      const double forecast = level[k] + phi * trend[k] + seasonal;
      const double error = x - forecast;
      sse[k] += error * error;
      const double l_prev = level[k];
      level[k] = alpha[k] * (x - seasonal) +
                 (1.0 - alpha[k]) * (level[k] + phi * trend[k]);
      trend[k] =
          beta[k] * (level[k] - l_prev) + (1.0 - beta[k]) * phi * trend[k];
      if constexpr (kSeasonal) {
        s[k] = gamma[k] * (x - level[k]) + (1.0 - gamma[k]) * s[k];
      }
    }
    if (kSeasonal && ++phase == m) phase = 0;
  }
}

}  // namespace

double EtsModel::Smooth(const std::vector<double>& series,
                        const EtsOptions& options, double alpha, double beta,
                        double gamma, double* level, double* trend,
                        std::vector<double>* season,
                        std::vector<double>* residuals) {
  const size_t m = options.season_length;
  const double phi = options.damping;

  // Initial states (zero trend), then the one-step recursion.
  double l, b = 0.0;
  std::vector<double> s;
  const size_t start = InitialStates(series, m, &l, &s);

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

Result<EtsModel> EtsModel::Fit(const std::vector<double>& series,
                               const EtsOptions& options) {
  if (options.season_length > 0 &&
      series.size() < 2 * options.season_length) {
    return Status::InvalidArgument(
        StrFormat("need >= 2 seasons (%zu values) for season length %zu",
                  2 * options.season_length, options.season_length));
  }
  if (series.size() < 4) {
    return Status::InvalidArgument("series too short for Holt-Winters");
  }
  if (!(options.damping > 0.0 && options.damping <= 1.0)) {
    return Status::InvalidArgument("damping must be in (0, 1]");
  }
  if (options.grid_steps < 2) {
    return Status::InvalidArgument("grid_steps must be >= 2");
  }

  // The candidates in grid order: alpha outermost, gamma innermost.
  struct Candidate {
    double alpha, beta, gamma;
  };
  std::vector<Candidate> grid;
  const int g = options.grid_steps;
  const int gamma_steps = options.season_length > 0 ? g : 0;
  for (int ai = 1; ai <= g; ++ai) {
    double alpha = static_cast<double>(ai) / (g + 1);
    for (int bi = 0; bi <= g; ++bi) {
      double beta = static_cast<double>(bi) / (g + 1);
      for (int gi = 0; gi <= gamma_steps; ++gi) {
        double gamma = static_cast<double>(gi) / (g + 1);
        grid.push_back(Candidate{alpha, beta, gamma});
      }
    }
  }

  // Smooth's initial states, shared by every candidate. The validation
  // above leaves at least one step to forecast.
  const size_t m = options.season_length;
  double initial_level;
  std::vector<double> initial_season;
  const size_t start =
      InitialStates(series, m, &initial_level, &initial_season);
  const double count = static_cast<double>(series.size() - start);

  double best_mse = std::numeric_limits<double>::infinity();
  size_t winner = grid.size();  // none yet
  std::vector<double> season(m * kLanes);
  for (size_t first = 0; first < grid.size(); first += kLanes) {
    // A short last pass repeats its final candidate in the spare lanes,
    // which are then ignored.
    const size_t lanes = std::min(kLanes, grid.size() - first);
    double alpha[kLanes], beta[kLanes], gamma[kLanes];
    double level[kLanes], trend[kLanes], sse[kLanes];
    for (size_t k = 0; k < kLanes; ++k) {
      const Candidate& c = grid[first + std::min(k, lanes - 1)];
      alpha[k] = c.alpha;
      beta[k] = c.beta;
      gamma[k] = c.gamma;
      level[k] = initial_level;
      trend[k] = 0.0;
      sse[k] = 0.0;
    }
    for (size_t i = 0; i < m; ++i) {
      std::fill_n(season.begin() + i * kLanes, kLanes, initial_season[i]);
    }
    if (m > 0) {
      SmoothLanes<true>(series, start, m, options.damping, alpha, beta,
                        gamma, level, trend, season.data(), sse);
    } else {
      SmoothLanes<false>(series, start, m, options.damping, alpha, beta,
                         gamma, level, trend, season.data(), sse);
    }
    for (size_t k = 0; k < lanes; ++k) {
      const double mse = sse[k] / count;
      if (mse < best_mse) {
        best_mse = mse;
        winner = first + k;
      }
    }
  }

  EtsModel best;
  best.options_ = options;
  best.train_length_ = series.size();
  best.mse_ = best_mse;
  if (winner < grid.size()) {
    best.alpha_ = grid[winner].alpha;
    best.beta_ = grid[winner].beta;
    best.gamma_ = grid[winner].gamma;
  }
  // One more pass with the chosen (or, with no winner, the default)
  // parameters gives the states and the one-step residuals the
  // classical tier builds its bands from.
  Smooth(series, options, best.alpha_, best.beta_, best.gamma_, &best.level_,
         &best.trend_, &best.season_, &best.residuals_);
  if (winner == grid.size()) {
    // No winner keeps no state: zero level and trend, no season.
    best.level_ = 0.0;
    best.trend_ = 0.0;
    best.season_.clear();
  }
  return best;
}

Result<std::vector<double>> EtsModel::Forecast(size_t horizon) const {
  if (horizon == 0) return Status::InvalidArgument("horizon must be >= 1");
  const size_t m = options_.season_length;
  if (season_.size() != m) {
    // No grid candidate had a finite MSE (a NaN in the series), so the
    // fit kept no seasonal state to forecast from.
    return Status::FailedPrecondition(
        "no seasonal state: the fit found no candidate with a finite MSE");
  }
  std::vector<double> out;
  out.reserve(horizon);
  const double phi = options_.damping;
  // Damped-trend multiplier: phi + phi^2 + ... + phi^h.
  double damp_sum = 0.0;
  double damp_pow = 1.0;
  for (size_t h = 1; h <= horizon; ++h) {
    damp_pow *= phi;
    damp_sum += damp_pow;
    double seasonal = 0.0;
    if (m > 0) {
      // The season buffer is indexed by absolute time modulo m, and
      // training ended at t = n - 1, so forecast step h lands at
      // (n + h - 1) % m.
      seasonal = season_[(train_length_ + h - 1) % m];
    }
    out.push_back(level_ + damp_sum * trend_ + seasonal);
  }
  return out;
}

Result<forecast::ForecastResult> EtsForecaster::Forecast(
    const ts::Frame& history, size_t horizon,
    const RequestContext& ctx) {
  Timer timer;
  MC_RETURN_IF_ERROR(ctx.Check(name().c_str()));
  std::vector<ts::Series> out_dims;
  for (size_t d = 0; d < history.num_dims(); ++d) {
    EtsOptions dim_options = options_;
    if (options_.auto_season) {
      dim_options.season_length = 0;
      Result<ts::Seasonality> season =
          ts::DetectSeasonality(history.dim(d));
      // Two full seasons are required to initialize the seasonal state.
      if (season.ok() && season.value().period > 0 &&
          history.length() >= 2 * season.value().period) {
        dim_options.season_length = season.value().period;
      }
    }
    MC_ASSIGN_OR_RETURN(
        EtsModel model,
        EtsModel::Fit(history.dim(d).values(), dim_options));
    MC_ASSIGN_OR_RETURN(std::vector<double> fc, model.Forecast(horizon));
    out_dims.emplace_back(std::move(fc), history.dim(d).name());
  }
  forecast::ForecastResult result;
  MC_ASSIGN_OR_RETURN(result.forecast,
                      ts::Frame::FromSeries(std::move(out_dims),
                                            history.name()));
  result.seconds = timer.Seconds();
  return result;
}

}  // namespace baselines
}  // namespace multicast
