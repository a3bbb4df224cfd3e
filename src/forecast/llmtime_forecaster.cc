#include "forecast/llmtime_forecaster.h"

#include <utility>
#include <vector>

#include "forecast/multicast_forecaster.h"
#include "util/timer.h"

namespace multicast {
namespace forecast {

LlmTimeForecaster::LlmTimeForecaster(const LlmTimeOptions& options)
    : options_(options) {
  if (options_.shared_prefix_cache != nullptr) {
    prefix_cache_ = options_.shared_prefix_cache;
  } else if (options_.prefix_cache_capacity > 0) {
    prefix_cache_ =
        std::make_shared<lm::PrefixCache>(options_.prefix_cache_capacity);
  }
  if (options_.block_pool != nullptr) {
    block_pool_ = options_.block_pool;
  } else {
    lm::PagedMemoryOptions paged;
    paged.block_span = options_.block_span;
    paged.max_blocks = options_.pool_blocks;
    block_pool_ = std::make_shared<lm::BlockPool>(paged);
  }
}

LlmTimeForecaster::~LlmTimeForecaster() = default;

Result<ForecastResult> LlmTimeForecaster::Forecast(const ts::Frame& history,
                                                   size_t horizon,
                                                   const RequestContext& ctx) {
  Timer timer;
  // A univariate stream is the degenerate multiplex (d = 1; VI and VC
  // coincide with LLMTime's "v1,v2,..." serialization), so each
  // dimension reuses the MultiCast pipeline on a single-dimension frame.
  MultiCastOptions base;
  base.mux = multiplex::MuxKind::kValueConcat;
  base.digits = options_.digits;
  base.num_samples = options_.num_samples;
  base.profile = options_.profile;
  base.scaler = options_.scaler;
  base.faults = options_.faults;
  base.resilience = options_.resilience;
  base.backend = options_.backend;
  // One cache across all dimensions and Forecast calls: the inner
  // pipelines never build their own.
  base.prefix_cache_capacity = 0;
  base.shared_prefix_cache = prefix_cache_;
  // Cross-request draw tries only on a cache the caller shares.
  base.cache_draw_tries = options_.shared_prefix_cache != nullptr;
  // One scheduler across all dimensions (and whoever else shares it):
  // each decode job is independent, so batching leaves outputs as they
  // are.
  base.batch_scheduler = options_.batch_scheduler;
  // One pool across all dimensions: the per-dimension pipelines attach
  // it through their profile.
  base.block_pool = block_pool_;

  const size_t dims = history.num_dims();
  const double t0 = ctx.now();
  ForecastResult result;
  std::vector<ts::Series> out_dims;
  for (size_t d = 0; d < dims; ++d) {
    MC_RETURN_IF_ERROR(ctx.Check("LLMTIME dimension loop"));
    MultiCastOptions mc = base;
    // Decorrelated seeds per dimension keep samples independent. The
    // fault-schedule seed shifts with the dimension too, so one noisy
    // window does not hit every dimension identically.
    mc.seed = options_.seed + 0x9e3779b97f4a7c15ULL * (d + 1);
    mc.faults.seed = options_.faults.seed + d;
    MC_ASSIGN_OR_RETURN(
        ts::Frame uni,
        ts::Frame::FromSeries({history.dim(d)}, history.dim(d).name()));
    // Each dimension runs like a sample draw: on a branch clock that
    // starts at the loop's entry time, with a private cancel token. Its
    // forecast (and the deadline checks inside it) thus does not depend
    // on the virtual time earlier dimensions consumed; the loop checks
    // the request context between dimensions and replays each
    // dimension's cost onto the request clock.
    VirtualClock branch;
    branch.AdvanceTo(t0);
    RequestContext dim_ctx;
    dim_ctx.clock = ctx.clock != nullptr ? &branch : nullptr;
    dim_ctx.deadline = ctx.deadline;
    MC_ASSIGN_OR_RETURN(
        ForecastResult uni_result,
        MultiCastForecaster(mc).Forecast(uni, horizon, dim_ctx));
    if (ctx.clock != nullptr) ctx.clock->Advance(uni_result.virtual_seconds);
    result.ledger += uni_result.ledger;
    result.retry_stats += uni_result.retry_stats;
    result.virtual_seconds += uni_result.virtual_seconds;
    result.degraded = result.degraded || uni_result.degraded;
    result.samples_requested += uni_result.samples_requested;
    result.samples_used += uni_result.samples_used;
    for (const std::string& warning : uni_result.warnings) {
      result.warnings.push_back(history.dim(d).name() + ": " + warning);
    }
    out_dims.push_back(uni_result.forecast.dim(0));
  }
  MC_ASSIGN_OR_RETURN(result.forecast,
                      ts::Frame::FromSeries(std::move(out_dims),
                                            history.name()));
  result.seconds = timer.Seconds();
  return result;
}

}  // namespace forecast
}  // namespace multicast
