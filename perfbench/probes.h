// Instruments the benchmark attaches to the library from outside, through
// seams the library already exposes:
//
//   Recorder        time of every Forecaster::Forecast call (the
//                   end-to-end latency samples), the calibration chunk run
//                   after each, plus spans when traced;
//   TimedForecaster the same, as a decorator the serving factories return;
//   TimingBackend   an lm::LlmBackend interposed via MultiCastOptions::
//                   backend / LlmTimeOptions::backend: a SimulatedLlm over
//                   its own PrefixCache, timed per Complete() and able to
//                   capture each call (prompt, rng state, tokens);
//   ReplayAndCheck  re-runs one captured forecast stage by stage through
//                   the public stage functions (scale, multiplex, sax,
//                   token, WarmPrefix, AcquireSession, NextDistribution /
//                   SampleToken / Observe, QuantileAggregateRagged), timing
//                   each and checking that it reproduces the prompt, the
//                   tokens and the aggregated output it shadows.

#ifndef PERFBENCH_PROBES_H_
#define PERFBENCH_PROBES_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "forecast/forecaster.h"
#include "forecast/multicast_forecaster.h"
#include "harness.h"
#include "lm/generator.h"
#include "lm/prefix_cache.h"
#include "lm/profiles.h"

namespace perfbench {

/// Latency samples and spans of one process.
struct Recorder {
  /// Null in untraced runs: no span is recorded at all.
  Tracer* tracer = nullptr;
  /// Milliseconds of every Forecast() call since the last Clear(): its
  /// wall time, less any time in which the process did not run at all
  /// (the smaller of wall and process CPU time), so that the host giving
  /// the CPU to another tenant does not count as the library's latency.
  std::vector<double> latency_ms;
  /// Request id stamped on spans (the task or request index).
  int64_t request = -1;
  /// When set, every Forecast() call is followed by one calibration chunk
  /// (CalibrationChunkNs), outside its latency sample, so that the host's
  /// speed is sampled all through the work it times; `chunk_ns` then runs
  /// parallel to `latency_ms`.
  bool calibrate = false;
  std::vector<double> chunk_ns;

  void Clear() {
    latency_ms.clear();
    chunk_ns.clear();
  }

  /// Times `forecaster->Forecast(history, horizon, ctx)` under a span of
  /// `layer` ("forecast" or "forecast.classical").
  multicast::Result<multicast::forecast::ForecastResult> Forecast(
      multicast::forecast::Forecaster* forecaster,
      const multicast::ts::Frame& history, size_t horizon,
      const multicast::RequestContext& ctx, const char* layer);
};

/// Decorator handed to the serving executors: forwards Forecast() through
/// Recorder::Forecast.
class TimedForecaster final : public multicast::forecast::Forecaster {
 public:
  TimedForecaster(std::unique_ptr<multicast::forecast::Forecaster> inner,
                  Recorder* recorder, const char* layer)
      : inner_(std::move(inner)), recorder_(recorder), layer_(layer) {}

  std::string name() const override { return inner_->name(); }

  using Forecaster::Forecast;
  multicast::Result<multicast::forecast::ForecastResult> Forecast(
      const multicast::ts::Frame& history, size_t horizon,
      const multicast::RequestContext& ctx) override {
    return recorder_->Forecast(inner_.get(), history, horizon, ctx, layer_);
  }

 private:
  std::unique_ptr<multicast::forecast::Forecaster> inner_;
  Recorder* recorder_;
  const char* layer_;
};

/// One backend call as the sample loop issued it.
struct CapturedCall {
  std::vector<multicast::token::TokenId> prompt;
  size_t num_tokens = 0;
  multicast::lm::GrammarMask mask;
  multicast::Rng rng;  ///< generator state before the call
  std::vector<multicast::token::TokenId> tokens;
};

/// See file comment.
class TimingBackend final : public multicast::lm::LlmBackend {
 public:
  TimingBackend(const multicast::lm::ModelProfile& profile, size_t vocab_size,
                size_t cache_capacity, Recorder* recorder);

  std::string name() const override { return inner_.name(); }
  size_t vocab_size() const override { return inner_.vocab_size(); }

  using LlmBackend::Complete;
  multicast::Result<multicast::lm::GenerationResult> Complete(
      const std::vector<multicast::token::TokenId>& prompt, size_t num_tokens,
      const multicast::lm::GrammarMask& mask, multicast::Rng* rng,
      const multicast::lm::CallOptions& call) override;

  /// Starts (or stops) keeping every call for replay.
  void set_capture(bool capture) { capture_ = capture; }
  std::vector<CapturedCall> TakeCalls();
  const std::shared_ptr<multicast::lm::PrefixCache>& cache() const {
    return cache_;
  }

 private:
  std::shared_ptr<multicast::lm::PrefixCache> cache_;
  multicast::lm::SimulatedLlm inner_;
  Recorder* recorder_;
  int layer_ = -1;
  bool capture_ = false;
  std::vector<CapturedCall> calls_;
};

/// Nanosecond accumulators of the replayed stages.
struct StageTimes {
  size_t forecasts = 0;      ///< replayed pipelines
  size_t raw_forecasts = 0;  ///< ... of which raw (scaled digits)
  size_t sax_forecasts = 0;  ///< ... of which SAX
  int64_t scale_ns = 0;      ///< fit + scale + digits, and parse + descale
  int64_t sax_ns = 0;        ///< SAX fit + encode, and decode
  int64_t mux_ns = 0;
  int64_t demux_ns = 0;
  int64_t encode_ns = 0;
  int64_t decode_ns = 0;     ///< token ids -> text
  int64_t aggregate_ns = 0;
  int64_t ingest_ns = 0;     ///< WarmPrefix on an empty cache
  size_t ingest_tokens = 0;
  int64_t fork_ns = 0;       ///< AcquireSession on the warmed cache
  size_t forks = 0;
  int64_t loop_ns = 0;       ///< whole decode loops, untimed inside
  size_t loop_tokens = 0;
  int64_t next_ns = 0;       ///< per-call timed, clock cost removed
  int64_t sample_ns = 0;
  int64_t observe_ns = 0;
  size_t op_tokens = 0;
};

/// Replays a captured forecast of either family and checks the replayed
/// aggregates against `result`: a MultiCast pipeline (`llmtime` false)
/// or an LLMTime run, replayed one univariate pipeline per dimension.
bool ReplayAndCheck(const multicast::forecast::MultiCastOptions& options,
                    bool llmtime, const multicast::ts::Frame& history,
                    size_t horizon, const std::vector<CapturedCall>& calls,
                    const multicast::forecast::ForecastResult& result,
                    StageTimes* times, std::string* why);

/// Vocabulary size of the pipeline `options` builds (what an interposed
/// backend must accept).
size_t PipelineVocabSize(const multicast::forecast::MultiCastOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_PROBES_H_
