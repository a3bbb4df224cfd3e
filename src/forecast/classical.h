// The classical fallback tier: statistical forecasting engines wrapped
// behind the Forecaster interface as a robustness resource.
//
// An LLM forecast costs a token stream; a naive/drift/theta/ETS forecast
// costs zero tokens and about 0.2 ms of CPU (192-204 us per demoted
// two-dimension GasRate request in perfbench's traced serve-burst run,
// shared 4-vCPU Xeon, gcc 12.2). ClassicalForecaster packages the
// src/baselines/ engines so the serving layer can demote to them under
// overload (the ladder's third rung), the FallbackForecaster chain can
// end on them, and cluster hedging can race them against a slow LLM
// replica — while still emitting the full ForecastResult shape:
// per-dimension point forecasts plus probabilistic bands built from the
// empirical quantiles of the engine's in-sample one-step residuals
// (widened with the random-walk sqrt(h) horizon scaling).
//
// Deterministic: no RNG, no token stream, and zero virtual seconds —
// at serving granularity a classical forecast is instantaneous next to
// an LLM call. Results are tagged ForecastTier::kClassical.

#ifndef MULTICAST_FORECAST_CLASSICAL_H_
#define MULTICAST_FORECAST_CLASSICAL_H_

#include <string>
#include <vector>

#include "baselines/ets.h"
#include "forecast/forecaster.h"
#include "ts/frame.h"
#include "util/status.h"

namespace multicast {
namespace forecast {

enum class ClassicalEngine {
  kAuto,       ///< per dimension: lowest in-sample one-step MSE wins
  kNaiveLast,  ///< repeat the last observation
  kDrift,      ///< last observation + average historical slope
  kTheta,      ///< SES level + half the regression slope (theta-style)
  kEts,        ///< damped additive Holt-Winters (baselines::EtsModel)
};

const char* ClassicalEngineName(ClassicalEngine engine);

struct ClassicalOptions {
  ClassicalEngine engine = ClassicalEngine::kAuto;
  /// Quantile levels for the residual bands, each in (0, 1). Empty
  /// yields a point-only result, like the other classical baselines.
  std::vector<double> quantiles = {0.1, 0.9};
  /// Configuration of the ETS engine (season detection off by default;
  /// the tier must stay cheap and deterministic per series).
  baselines::EtsOptions ets;
  /// When non-empty, every result is flagged `degraded` and carries
  /// this warning — set by the overload ladder / fallback chain when it
  /// demotes a request here, left empty when a caller asked for the
  /// classical tier outright.
  std::string demotion_note;
};

/// See file comment.
class ClassicalForecaster final : public Forecaster {
 public:
  explicit ClassicalForecaster(const ClassicalOptions& options)
      : options_(options) {}
  ClassicalForecaster() : ClassicalForecaster(ClassicalOptions{}) {}

  std::string name() const override;

  using Forecaster::Forecast;
  Result<ForecastResult> Forecast(const ts::Frame& history, size_t horizon,
                                  const RequestContext& ctx) override;

  const ClassicalOptions& options() const { return options_; }

 private:
  ClassicalOptions options_;
};

}  // namespace forecast
}  // namespace multicast

#endif  // MULTICAST_FORECAST_CLASSICAL_H_
