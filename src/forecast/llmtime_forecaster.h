// LLMTime baseline (Gruver et al., NeurIPS 2023), as evaluated in the
// paper: the same numeric serialization and sampling pipeline, applied
// to *each dimension independently* — the state of the art MultiCast is
// compared against. Ignores inter-dimensional correlations by design.

#ifndef MULTICAST_FORECAST_LLMTIME_FORECASTER_H_
#define MULTICAST_FORECAST_LLMTIME_FORECASTER_H_

#include <memory>
#include <string>

#include "batch/batch_scheduler.h"
#include "forecast/forecaster.h"
#include "forecast/multicast_forecaster.h"
#include "lm/fault_injection.h"
#include "lm/prefix_cache.h"
#include "lm/profiles.h"
#include "scale/scaler.h"

namespace multicast {
namespace forecast {

struct LlmTimeOptions {
  /// Digits per rescaled value.
  int digits = 2;
  /// Samples per dimension; the estimate is the per-timestamp median.
  int num_samples = 5;
  lm::ModelProfile profile = lm::ModelProfile::Llama2_7B();
  scale::ScalerOptions scaler;
  uint64_t seed = 42;
  /// Injected fault model and resilience behaviour, applied to every
  /// per-dimension pipeline (same semantics as MultiCastOptions).
  lm::FaultProfile faults;
  ResilienceConfig resilience;
  /// External base backend shared by every per-dimension pipeline (not
  /// owned; same contract as MultiCastOptions::backend).
  lm::LlmBackend* backend = nullptr;
  /// Prefix-cached decoding, same semantics as
  /// MultiCastOptions::prefix_cache_capacity (0 = no cache). One cache is
  /// shared by all per-dimension pipelines (and across Forecast calls),
  /// so dimensions with equal serialized prompts reuse frozen prompt
  /// states. Bit-identical output either way.
  size_t prefix_cache_capacity = 64;
  /// Externally shared cache; overrides `prefix_cache_capacity` when set.
  std::shared_ptr<lm::PrefixCache> shared_prefix_cache;
  /// Shared continuous-batching scheduler, forwarded into every
  /// per-dimension pipeline (same semantics as
  /// MultiCastOptions::batch_scheduler): all dimensions' draws — and any
  /// other pipelines on the same scheduler — decode one token per step
  /// together. Bit-identical output either way.
  std::shared_ptr<batch::BatchScheduler> batch_scheduler;
  /// Session memory, shared by every per-dimension pipeline (same
  /// semantics — and the same bit-identity guarantee — as the
  /// MultiCastOptions fields of the same names): one pool for all
  /// dimensions, so cross-dimension frozen prompt state shares blocks
  /// by refcount. Built from `block_span`/`pool_blocks` (a block
  /// budget, not a hard cap) unless an external `block_pool` is given.
  size_t block_span = 32;
  size_t pool_blocks = 0;
  std::shared_ptr<lm::BlockPool> block_pool;
};

/// Runs a univariate serialized forecast per dimension and stitches the
/// results back into a frame. Token ledgers of all per-dimension calls
/// are summed, matching the paper's "total time = sum of time needed per
/// dimension" accounting.
class LlmTimeForecaster final : public Forecaster {
 public:
  explicit LlmTimeForecaster(const LlmTimeOptions& options);
  ~LlmTimeForecaster() override;

  std::string name() const override { return "LLMTIME"; }

  /// The per-dimension loop checks `ctx` between dimensions and threads
  /// it into every underlying MultiCast pipeline; a request that dies
  /// partway fails with the context's status rather than finishing the
  /// remaining dimensions.
  using Forecaster::Forecast;
  Result<ForecastResult> Forecast(const ts::Frame& history, size_t horizon,
                                  const RequestContext& ctx) override;

  const LlmTimeOptions& options() const { return options_; }

  /// The cache shared by every per-dimension pipeline; null when
  /// disabled. Exposed for benches, serving stats and tests.
  const std::shared_ptr<lm::PrefixCache>& prefix_cache() const {
    return prefix_cache_;
  }

  /// The pool shared by every per-dimension pipeline; never null.
  const std::shared_ptr<lm::BlockPool>& block_pool() const {
    return block_pool_;
  }

 private:
  LlmTimeOptions options_;
  std::shared_ptr<lm::PrefixCache> prefix_cache_;
  std::shared_ptr<lm::BlockPool> block_pool_;
};

}  // namespace forecast
}  // namespace multicast

#endif  // MULTICAST_FORECAST_LLMTIME_FORECASTER_H_
