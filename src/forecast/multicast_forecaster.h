// The MultiCast forecaster: the paper's end-to-end pipeline.
//
//   rescale each dimension (b digits)      [scale]
//   -> multiplex dimensions to one stream  [multiplex: DI | VI | VC]
//   -> tokenize to corpus ids              [token]
//   -> n constrained autoregressive samples[lm]
//   -> demultiplex + descale each sample   [multiplex, scale]
//   -> per-timestamp median across samples
//
// With SAX quantization enabled, rescaling/tokenizing is replaced by the
// per-dimension SAX codec (one symbol per PAA segment), shrinking tokens
// per timestamp from (b + 1) to ~1/segment_length and shortening both
// the prompt and the generation (Tables VIII-IX).

#ifndef MULTICAST_FORECAST_MULTICAST_FORECASTER_H_
#define MULTICAST_FORECAST_MULTICAST_FORECASTER_H_

#include <memory>
#include <string>

#include "batch/batch_scheduler.h"
#include "forecast/forecaster.h"
#include "lm/fault_injection.h"
#include "lm/prefix_cache.h"
#include "lm/profiles.h"
#include "multiplex/multiplexer.h"
#include "sax/sax.h"
#include "scale/scaler.h"

namespace multicast {
namespace forecast {

/// Which quantization the pipeline applies before tokenization.
enum class Quantization {
  kNone,           ///< raw b-digit serialization (paper's "MultiCast")
  kSaxAlphabetic,  ///< "MultiCast SAX (alphabetical)"
  kSaxDigital,     ///< "MultiCast SAX (digital)"
};

const char* QuantizationName(Quantization q);

struct MultiCastOptions {
  /// Multiplexing scheme (Sec. III-A).
  multiplex::MuxKind mux = multiplex::MuxKind::kDigitInterleave;
  /// Digits per rescaled value (paper's b). Ignored under SAX.
  int digits = 2;
  /// Samples drawn per forecast; the estimate is their per-timestamp
  /// median (Table II default: 5).
  int num_samples = 5;
  /// Simulated LLM back-end.
  lm::ModelProfile profile = lm::ModelProfile::Llama2_7B();
  /// Quantization mode and its SAX parameters (Table II defaults).
  Quantization quantization = Quantization::kNone;
  int sax_segment_length = 6;
  int sax_alphabet_size = 5;
  /// Percentile/headroom of the rescaler (raw mode only).
  scale::ScalerOptions scaler;
  /// Seed for all sampling in this forecaster.
  uint64_t seed = 42;
  /// Quantile levels (each in (0, 1)) to report as probabilistic bands
  /// alongside the median point forecast, computed across the n drawn
  /// samples per timestamp. Empty disables bands. Levels finer than the
  /// sample count resolves are interpolated.
  std::vector<double> quantiles;
  /// Injected fault model of the simulated backend (None = clean path,
  /// bit-identical to the paper pipeline).
  lm::FaultProfile faults;
  /// Retry/fallback behaviour when backend calls fail (see
  /// ResilienceConfig in forecaster.h).
  ResilienceConfig resilience;
  /// External base backend (not owned; must outlive the forecaster and
  /// accept this pipeline's vocabulary size). Null builds the usual
  /// internal SimulatedLlm from `profile`. Lets the serving layer share
  /// one backend across requests, and lets tests interpose call-counting
  /// or cancelling decorators under the fault/retry stack. A call is
  /// charged the latency its backend reports through
  /// last_latency_seconds().
  lm::LlmBackend* backend = nullptr;
  /// Entry capacity of the internally owned prefix cache
  /// (lm/prefix_cache.h; LRU beyond it); 0 = no cache. With a cache the
  /// pipeline observes each prompt once into a frozen model state and
  /// every draw forks a copy-on-write session off it, instead of
  /// replaying the prompt token-by-token per sample. Output is
  /// bit-identical with the cache on or off — only redundant replay work
  /// disappears. Applies to the internally built SimulatedLlm only; an
  /// externally injected `backend` owns its own state and is never
  /// cached here. With rolling-origin evaluation each window's prompt
  /// lands in one entry, so the default comfortably covers a sweep.
  size_t prefix_cache_capacity = 64;
  /// Externally shared cache (one cache across serving requests, or
  /// LLMTime's per-dimension pipelines). When set it is used regardless
  /// of `prefix_cache_capacity` and the forecaster owns no cache of its
  /// own.
  std::shared_ptr<lm::PrefixCache> shared_prefix_cache;
  /// With `shared_prefix_cache` set, the draws walk the draw trie its
  /// entry for the prompt keeps (lm::PrefixCache::DrawTrieFor), so every
  /// request on the cache reuses what earlier ones decoded, instead of a
  /// trie of the forecast's own. Output is bit-identical either way.
  /// LlmTimeForecaster clears it when the cache it hands down is its
  /// own: a trie that outlives a forecast on a cache the pipeline keeps
  /// would only replay its earlier forecasts.
  bool cache_draw_tries = true;
  /// Continuous-batching decode scheduler (batch/batch_scheduler.h).
  /// When set (and no external `backend` is injected), every draw's
  /// backend stack bottoms out in a batch::BatchLlm that submits its
  /// decode session to this shared scheduler instead of running its own
  /// token loop — draws from this forecast, concurrent forecasts and
  /// other in-flight serving requests sharing the scheduler advance one
  /// token per step together. Output is bit-identical to the unbatched
  /// path at any batch size; only the execution schedule (and
  /// wall-clock against a latency-bound step) changes.
  std::shared_ptr<batch::BatchScheduler> batch_scheduler;
  /// Session memory (lm/paged_store.h): model layers live in
  /// fixed-span refcounted blocks from a BlockPool, so concurrent draws
  /// share frozen prompt state at block granularity. Without an
  /// external `block_pool` the forecaster builds its own from the two
  /// fields below. Output is bit-identical at any block span, pool cap,
  /// batch size and cache state (lm.mem.* metrics report the bytes).
  ///
  /// Payload slots per block.
  size_t block_span = 32;
  /// Pool-wide live-block budget; 0 = unbounded. A block allocated at
  /// or past it is still served (bit-identical) and counted as one
  /// lm.mem.exhaustion_events, and the pool's fullness feeds the
  /// serving layer's overload ladder.
  size_t pool_blocks = 0;
  /// Externally shared pool (one pool across serving requests or
  /// LLMTime's per-dimension pipelines). When set the forecaster creates
  /// no pool of its own.
  std::shared_ptr<lm::BlockPool> block_pool;
};

/// See file comment.
class MultiCastForecaster final : public Forecaster {
 public:
  explicit MultiCastForecaster(const MultiCastOptions& options);
  ~MultiCastForecaster() override;

  /// "MultiCast (DI)", or "MultiCast SAX (alphabetical)" under SAX.
  std::string name() const override;

  /// The sample loop observes `ctx` between LLM calls and threads it
  /// into every backend call: once the request is cancelled or past its
  /// deadline no further calls are issued — the forecast degrades to
  /// the samples already drawn when at least `resilience.min_samples`
  /// survived, and fails with the context's status otherwise.
  using Forecaster::Forecast;
  Result<ForecastResult> Forecast(const ts::Frame& history, size_t horizon,
                                  const RequestContext& ctx) override;

  const MultiCastOptions& options() const { return options_; }

  /// The prefix cache in use (owned or shared); null when disabled.
  /// Persists across Forecast() calls, so rolling windows reuse warmed
  /// prompt states. Exposed for benches, serving stats and tests.
  const std::shared_ptr<lm::PrefixCache>& prefix_cache() const {
    return prefix_cache_;
  }

  /// The block pool in use (owned or shared); never null. Exposed for
  /// benches, serving stats and tests.
  const std::shared_ptr<lm::BlockPool>& block_pool() const {
    return block_pool_;
  }

 private:
  Result<ForecastResult> ForecastRaw(const ts::Frame& history, size_t horizon,
                                     const RequestContext& ctx);
  Result<ForecastResult> ForecastSax(const ts::Frame& history, size_t horizon,
                                     const RequestContext& ctx);

  MultiCastOptions options_;
  std::shared_ptr<lm::PrefixCache> prefix_cache_;
  std::shared_ptr<lm::BlockPool> block_pool_;
};

/// Aggregates `samples[s][t]` (s samples of an h-step forecast) into the
/// per-timestamp median, LLMTime's estimator. Exposed for tests.
Result<std::vector<double>> MedianAggregate(
    const std::vector<std::vector<double>>& samples);

/// Per-timestamp `q`-quantile across samples (same shape rules as
/// MedianAggregate; q must be in (0, 1)).
Result<std::vector<double>> QuantileAggregate(
    const std::vector<std::vector<double>>& samples, double q);

/// Degradation-tolerant variant: samples may have differing lengths
/// (salvaged prefixes of truncated/corrupted generations). Timestamp t
/// aggregates over the samples that still cover t; timestamps no sample
/// reaches hold the last aggregated value so the output always has
/// exactly `out_length` entries. `held_tail` (optional) reports whether
/// that hold-last fill was needed. Zero samples, an all-empty sample
/// set, and a zero `out_length` are all clean InvalidArgument errors —
/// never a silent empty or garbage forecast.
Result<std::vector<double>> QuantileAggregateRagged(
    const std::vector<std::vector<double>>& samples, double q,
    size_t out_length, bool* held_tail = nullptr);

}  // namespace forecast
}  // namespace multicast

#endif  // MULTICAST_FORECAST_MULTICAST_FORECASTER_H_
