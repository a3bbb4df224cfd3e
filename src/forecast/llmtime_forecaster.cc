#include "forecast/llmtime_forecaster.h"

#include <algorithm>
#include <future>
#include <optional>
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
  } else if (options_.prefix_cache) {
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

ThreadPool* LlmTimeForecaster::Pool() {
  if (options_.threads <= 1) return nullptr;
  if (pool_ == nullptr) {
    pool_ = std::make_unique<ThreadPool>(options_.threads);
  }
  return pool_.get();
}

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
  // An external backend is shared by every per-dimension pipeline, so
  // its calls are serialized here once (the per-dimension forecasters
  // would otherwise each wrap the raw backend separately and race on
  // it) — unless the caller declares it thread-safe, in which case the
  // calls may overlap.
  std::optional<lm::SerializedBackend> serialized;
  base.backend = options_.backend;
  if (options_.backend != nullptr && !options_.backend_thread_safe) {
    serialized.emplace(options_.backend);
    base.backend = &*serialized;
  }
  // Either way the backend handed down is safe for the inner pipelines
  // to call without re-wrapping.
  base.backend_thread_safe = true;
  // Parallelism lives at the dimension level here; the inner pipelines
  // sample serially so the pool is never waited on from inside itself.
  base.threads = 1;
  // One cache across all dimensions and Forecast calls: the inner
  // pipelines never build their own. PrefixCache is thread-safe, so
  // concurrent dimension workers share it directly.
  base.prefix_cache = false;
  base.shared_prefix_cache = prefix_cache_;
  // Cross-request draw tries only on a cache the caller shares.
  base.cache_draw_tries = options_.shared_prefix_cache != nullptr;
  // One scheduler across all dimensions (and whoever else shares it):
  // the scheduler is thread-safe and each decode job is independent, so
  // dimension workers batch their draws without affecting outputs.
  base.batch_scheduler = options_.batch_scheduler;
  // One pool across all dimensions: BlockPool is thread-safe, and the
  // per-dimension pipelines attach it through their profile.
  base.block_pool = block_pool_;

  const size_t dims = history.num_dims();
  const double t0 = ctx.now();
  // One dimension's forecast, isolated like a sample draw: decorrelated
  // seeds, a branch clock starting at the loop entry time and a private
  // context (the shared cancel token is not thread-safe; cancellation is
  // observed between dimensions by the merge below). The dimension's
  // result is a pure function of (d, t0, deadline), so the merge order —
  // not the execution order — decides everything observable.
  auto run_dim = [&, t0](size_t d) -> Result<ForecastResult> {
    MultiCastOptions mc = base;
    // Decorrelated seeds per dimension keep samples independent. The
    // fault-schedule seed shifts with the dimension too, so one noisy
    // window does not hit every dimension identically.
    mc.seed = options_.seed + 0x9e3779b97f4a7c15ULL * (d + 1);
    mc.faults.seed = options_.faults.seed + d;
    MC_ASSIGN_OR_RETURN(
        ts::Frame uni,
        ts::Frame::FromSeries({history.dim(d)}, history.dim(d).name()));
    VirtualClock branch;
    branch.AdvanceTo(t0);
    RequestContext dim_ctx;
    dim_ctx.clock = ctx.clock != nullptr ? &branch : nullptr;
    dim_ctx.deadline = ctx.deadline;
    MultiCastForecaster forecaster(mc);
    return forecaster.Forecast(uni, horizon, dim_ctx);
  };

  ThreadPool* pool = Pool();
  std::vector<std::future<Result<ForecastResult>>> inflight;
  if (pool != nullptr && dims > 1) {
    inflight.reserve(dims);
    for (size_t d = 0; d < dims; ++d) {
      inflight.push_back(pool->Submit([run_dim, d]() { return run_dim(d); }));
    }
  }

  ForecastResult result;
  std::vector<ts::Series> out_dims;
  Status failed = Status::OK();
  for (size_t d = 0; d < dims; ++d) {
    std::optional<Result<ForecastResult>> uni_or;
    if (!inflight.empty()) uni_or.emplace(inflight[d].get());
    if (!failed.ok()) continue;  // drain remaining futures
    Status active = ctx.Check("LLMTIME dimension loop");
    if (!active.ok()) {
      failed = active;
      continue;
    }
    if (!uni_or.has_value()) uni_or.emplace(run_dim(d));
    if (!uni_or->ok()) {
      failed = uni_or->status();
      continue;
    }
    ForecastResult uni_result = std::move(*uni_or).value();
    // Replay the dimension's virtual cost onto the shared request clock
    // in dimension order, so the accounting (and therefore the deadline
    // gating above) matches the serial schedule at any thread count.
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
  MC_RETURN_IF_ERROR(failed);
  MC_ASSIGN_OR_RETURN(result.forecast,
                      ts::Frame::FromSeries(std::move(out_dims),
                                            history.name()));
  result.seconds = timer.Seconds();
  return result;
}

}  // namespace forecast
}  // namespace multicast
