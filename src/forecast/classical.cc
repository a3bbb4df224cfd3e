#include "forecast/classical.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "util/quantile.h"
#include "util/strings.h"
#include "util/timer.h"

namespace multicast {
namespace forecast {

namespace {

/// One fitted engine for one dimension: point path plus the in-sample
/// one-step residuals the bands are built from.
struct EngineFit {
  ClassicalEngine engine = ClassicalEngine::kNaiveLast;
  std::vector<double> forecast;
  std::vector<double> residuals;
};

double MeanSquare(const std::vector<double>& xs) {
  if (xs.empty()) return std::numeric_limits<double>::infinity();
  double sum = 0.0;
  for (double x : xs) sum += x * x;
  return sum / static_cast<double>(xs.size());
}

EngineFit FitNaive(const std::vector<double>& x, size_t horizon) {
  EngineFit fit;
  fit.engine = ClassicalEngine::kNaiveLast;
  fit.forecast.assign(horizon, x.back());
  for (size_t t = 1; t < x.size(); ++t) {
    fit.residuals.push_back(x[t] - x[t - 1]);
  }
  return fit;
}

EngineFit FitDrift(const std::vector<double>& x, size_t horizon) {
  EngineFit fit;
  fit.engine = ClassicalEngine::kDrift;
  const size_t n = x.size();
  const double slope =
      (x[n - 1] - x[0]) / static_cast<double>(n - 1);
  fit.forecast.reserve(horizon);
  for (size_t h = 0; h < horizon; ++h) {
    fit.forecast.push_back(x[n - 1] + slope * static_cast<double>(h + 1));
  }
  for (size_t t = 1; t < n; ++t) {
    fit.residuals.push_back(x[t] - (x[t - 1] + slope));
  }
  return fit;
}

/// Theta-style decomposition: a grid-searched SES level carries the
/// local mean, half the global regression slope carries the long-run
/// trend (the classical Theta(0, 2) combination).
EngineFit FitTheta(const std::vector<double>& x, size_t horizon) {
  const size_t n = x.size();
  // Regression slope of x against time.
  double t_mean = static_cast<double>(n - 1) / 2.0;
  double x_mean = 0.0;
  for (double v : x) x_mean += v;
  x_mean /= static_cast<double>(n);
  double cov = 0.0, var = 0.0;
  for (size_t t = 0; t < n; ++t) {
    double dt = static_cast<double>(t) - t_mean;
    cov += dt * (x[t] - x_mean);
    var += dt * dt;
  }
  const double slope = var > 0.0 ? cov / var : 0.0;

  // SES with the smoothing constant grid-searched on one-step SSE.
  double best_sse = std::numeric_limits<double>::infinity();
  double best_alpha = 0.5;
  for (int ai = 1; ai <= 9; ++ai) {
    const double alpha = static_cast<double>(ai) / 10.0;
    double level = x[0];
    double sse = 0.0;
    for (size_t t = 1; t < n; ++t) {
      const double err = x[t] - level;
      sse += err * err;
      level = alpha * x[t] + (1.0 - alpha) * level;
    }
    if (sse < best_sse) {
      best_sse = sse;
      best_alpha = alpha;
    }
  }

  EngineFit fit;
  fit.engine = ClassicalEngine::kTheta;
  double level = x[0];
  for (size_t t = 1; t < n; ++t) {
    fit.residuals.push_back(x[t] - (level + 0.5 * slope));
    level = best_alpha * x[t] + (1.0 - best_alpha) * level;
  }
  fit.forecast.reserve(horizon);
  for (size_t h = 0; h < horizon; ++h) {
    fit.forecast.push_back(level + 0.5 * slope *
                                       static_cast<double>(h + 1));
  }
  return fit;
}

Result<EngineFit> FitEts(const std::vector<double>& x, size_t horizon,
                         const baselines::EtsOptions& options) {
  MC_ASSIGN_OR_RETURN(baselines::EtsModel model,
                      baselines::EtsModel::Fit(x, options));
  MC_ASSIGN_OR_RETURN(std::vector<double> fc, model.Forecast(horizon));
  EngineFit fit;
  fit.engine = ClassicalEngine::kEts;
  fit.forecast = std::move(fc);
  fit.residuals = model.residuals();
  return fit;
}

Result<EngineFit> FitDimension(const std::vector<double>& x, size_t horizon,
                               const ClassicalOptions& options) {
  switch (options.engine) {
    case ClassicalEngine::kNaiveLast:
      return FitNaive(x, horizon);
    case ClassicalEngine::kDrift:
      if (x.size() < 2) {
        return Status::InvalidArgument("drift needs >= 2 observations");
      }
      return FitDrift(x, horizon);
    case ClassicalEngine::kTheta:
      if (x.size() < 3) {
        return Status::InvalidArgument("theta needs >= 3 observations");
      }
      return FitTheta(x, horizon);
    case ClassicalEngine::kEts:
      return FitEts(x, horizon, options.ets);
    case ClassicalEngine::kAuto:
      break;
  }
  // Auto: every engine the series is long enough for competes on
  // in-sample one-step MSE; ties go to the cheaper (earlier) engine.
  EngineFit best = FitNaive(x, horizon);
  double best_mse = MeanSquare(best.residuals);
  auto consider = [&](EngineFit candidate) {
    const double mse = MeanSquare(candidate.residuals);
    if (mse < best_mse) {
      best = std::move(candidate);
      best_mse = mse;
    }
  };
  if (x.size() >= 2) consider(FitDrift(x, horizon));
  if (x.size() >= 3) consider(FitTheta(x, horizon));
  if (x.size() >= 4) {
    Result<EngineFit> ets = FitEts(x, horizon, options.ets);
    if (ets.ok()) consider(std::move(ets).value());
  }
  return best;
}

}  // namespace

const char* ClassicalEngineName(ClassicalEngine engine) {
  switch (engine) {
    case ClassicalEngine::kAuto:
      return "auto";
    case ClassicalEngine::kNaiveLast:
      return "naive";
    case ClassicalEngine::kDrift:
      return "drift";
    case ClassicalEngine::kTheta:
      return "theta";
    case ClassicalEngine::kEts:
      return "ets";
  }
  return "?";
}

std::string ClassicalForecaster::name() const {
  return StrFormat("Classical(%s)", ClassicalEngineName(options_.engine));
}

Result<ForecastResult> ClassicalForecaster::Forecast(
    const ts::Frame& history, size_t horizon, const RequestContext& ctx) {
  Timer timer;
  MC_RETURN_IF_ERROR(ctx.Check(name().c_str()));
  if (horizon == 0) return Status::InvalidArgument("horizon must be >= 1");
  if (history.length() < 1) {
    return Status::InvalidArgument("history too short");
  }
  std::vector<double> levels = options_.quantiles;
  for (double q : levels) {
    if (!(q > 0.0 && q < 1.0)) {
      return Status::InvalidArgument(
          StrFormat("quantile level %.3f outside (0, 1)", q));
    }
  }
  std::sort(levels.begin(), levels.end());
  levels.erase(std::unique(levels.begin(), levels.end()), levels.end());

  std::vector<ts::Series> point_dims;
  std::vector<std::vector<ts::Series>> band_dims(levels.size());
  for (size_t d = 0; d < history.num_dims(); ++d) {
    MC_ASSIGN_OR_RETURN(
        EngineFit fit,
        FitDimension(history.dim(d).values(), horizon, options_));
    // Bands: point path shifted by the residual quantile, widened with
    // the random-walk sqrt(h) growth so multi-step uncertainty fans out.
    for (size_t qi = 0; qi < levels.size(); ++qi) {
      const double offset = util::LerpQuantile(fit.residuals, levels[qi]);
      std::vector<double> band;
      band.reserve(horizon);
      for (size_t h = 0; h < horizon; ++h) {
        band.push_back(fit.forecast[h] +
                       offset * std::sqrt(static_cast<double>(h + 1)));
      }
      band_dims[qi].emplace_back(std::move(band), history.dim(d).name());
    }
    point_dims.emplace_back(std::move(fit.forecast),
                            history.dim(d).name());
  }

  ForecastResult result;
  MC_ASSIGN_OR_RETURN(
      result.forecast,
      ts::Frame::FromSeries(std::move(point_dims), history.name()));
  for (size_t qi = 0; qi < levels.size(); ++qi) {
    MC_ASSIGN_OR_RETURN(
        ts::Frame band,
        ts::Frame::FromSeries(std::move(band_dims[qi]), history.name()));
    result.quantile_bands.emplace_back(levels[qi], std::move(band));
  }
  result.tier = ForecastTier::kClassical;
  result.seconds = timer.Seconds();
  if (!options_.demotion_note.empty()) {
    result.degraded = true;
    result.warnings.push_back(options_.demotion_note);
  }
  return result;
}

}  // namespace forecast
}  // namespace multicast
