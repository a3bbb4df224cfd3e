#include "probes.h"

#include <algorithm>

#include "multiplex/multiplexer.h"
#include "sax/sax.h"
#include "scale/scaler.h"
#include "token/codec.h"
#include "token/vocabulary.h"

namespace perfbench {

namespace mc = multicast;

mc::Result<mc::forecast::ForecastResult> Recorder::Forecast(
    mc::forecast::Forecaster* forecaster, const mc::ts::Frame& history,
    size_t horizon, const mc::RequestContext& ctx, const char* layer) {
  if (tracer != nullptr) tracer->Begin(tracer->Layer(layer), request);
  const int64_t cpu_start = ProcessCpuNs();
  const int64_t start = NowNs();
  mc::Result<mc::forecast::ForecastResult> result =
      forecaster->Forecast(history, horizon, ctx);
  const int64_t end = NowNs();
  const int64_t cpu_end = ProcessCpuNs();
  if (tracer != nullptr) tracer->End();
  latency_ms.push_back(
      static_cast<double>(std::min(end - start, cpu_end - cpu_start)) / 1e6);
  if (calibrate) chunk_ns.push_back(static_cast<double>(CalibrationChunkNs()));
  return result;
}

TimingBackend::TimingBackend(const mc::lm::ModelProfile& profile,
                             size_t vocab_size, size_t cache_capacity,
                             Recorder* recorder)
    : cache_(std::make_shared<mc::lm::PrefixCache>(cache_capacity)),
      inner_(profile, vocab_size, cache_),
      recorder_(recorder) {
  if (recorder_->tracer != nullptr) {
    layer_ = recorder_->tracer->Layer("lm.complete");
  }
}

mc::Result<mc::lm::GenerationResult> TimingBackend::Complete(
    const std::vector<mc::token::TokenId>& prompt, size_t num_tokens,
    const mc::lm::GrammarMask& mask, mc::Rng* rng,
    const mc::lm::CallOptions& call) {
  const mc::Rng before = *rng;
  ScopedSpan span(recorder_->tracer, layer_, recorder_->request);
  mc::Result<mc::lm::GenerationResult> result =
      inner_.Complete(prompt, num_tokens, mask, rng, call);
  if (capture_ && result.ok()) {
    calls_.push_back(
        {prompt, num_tokens, mask, before, result.value().tokens});
  }
  return result;
}

std::vector<CapturedCall> TimingBackend::TakeCalls() {
  std::vector<CapturedCall> calls = std::move(calls_);
  calls_.clear();
  return calls;
}

size_t PipelineVocabSize(const mc::forecast::MultiCastOptions& options) {
  switch (options.quantization) {
    case mc::forecast::Quantization::kSaxAlphabetic:
      return mc::token::Vocabulary::SaxAlphabetic(options.sax_alphabet_size)
          .value()
          .size();
    case mc::forecast::Quantization::kSaxDigital:
      return mc::token::Vocabulary::SaxDigital(options.sax_alphabet_size)
          .value()
          .size();
    case mc::forecast::Quantization::kNone:
      break;
  }
  return mc::token::Vocabulary::Digits().size();
}

namespace {

// Median cost of one NowNs() pair, subtracted from per-call op timings.
int64_t ClockCostNs() {
  static const int64_t cost = [] {
    std::vector<double> diffs;
    for (int i = 0; i < 2001; ++i) {
      const int64_t a = NowNs();
      const int64_t b = NowNs();
      diffs.push_back(static_cast<double>(b - a));
    }
    return static_cast<int64_t>(Median(diffs));
  }();
  return cost;
}

int64_t Net(int64_t start, int64_t end) {
  return std::max<int64_t>(0, end - start - ClockCostNs());
}

bool Fail(std::string* why, const std::string& reason) {
  *why = reason;
  return false;
}

// Replays one pipeline run: `calls` are the backend calls it made, in
// order. On success fills `point` (one series per dimension) and `bands`
// (ascending distinct levels) with the replayed aggregates; on a mismatch
// returns false with the reason in `why`.
bool ReplayForecast(const mc::forecast::MultiCastOptions& spec,
                    const mc::ts::Frame& history, size_t horizon,
                    const std::vector<CapturedCall>& calls, StageTimes* times,
                    std::vector<std::vector<double>>* point,
                    std::vector<std::vector<std::vector<double>>>* bands,
                    std::string* why) {
  using mc::forecast::Quantization;
  mc::scale::ScalerOptions scaler = spec.scaler;
  scaler.digits = spec.digits;  // as MultiCastForecaster does
  const size_t dims = history.num_dims();
  const bool sax = spec.quantization != Quantization::kNone;
  if (calls.empty()) return Fail(why, "no backend calls captured");

  // 1. Scale (raw) or SAX-encode (quantized) every dimension.
  int64_t t = NowNs();
  std::vector<mc::scale::ScalerParams> params(dims);
  std::vector<mc::sax::SaxCodec> codecs;
  mc::multiplex::MuxInput input;
  input.values.resize(dims);
  std::vector<int> widths(dims, sax ? 1 : spec.digits);
  mc::sax::SaxOptions sax_opts;
  sax_opts.segment_length = spec.sax_segment_length;
  sax_opts.alphabet_size = spec.sax_alphabet_size;
  sax_opts.symbols = spec.quantization == Quantization::kSaxDigital
                         ? mc::sax::SymbolKind::kDigital
                         : mc::sax::SymbolKind::kAlphabetic;
  for (size_t d = 0; d < dims; ++d) {
    if (sax) {
      auto codec = mc::sax::SaxCodec::Fit(history.dim(d), sax_opts);
      if (!codec.ok()) return Fail(why, codec.status().ToString());
      auto word = codec.value().Encode(history.dim(d).values());
      if (!word.ok()) return Fail(why, word.status().ToString());
      for (char c : word.value()) input.values[d].emplace_back(1, c);
      codecs.push_back(std::move(codec).value());
      continue;
    }
    auto fitted = mc::scale::FitScaler(history.dim(d), scaler);
    if (!fitted.ok()) return Fail(why, fitted.status().ToString());
    params[d] = fitted.value();
    for (int64_t v : mc::scale::ScaleValues(history.dim(d).values(),
                                            params[d])) {
      auto s = mc::token::FixedWidthDigits(v, spec.digits);
      if (!s.ok()) return Fail(why, s.status().ToString());
      input.values[d].push_back(std::move(s).value());
    }
  }
  int64_t quant_ns = NowNs() - t;

  // 2. Multiplex; the trailing comma opens the first generated timestamp.
  t = NowNs();
  std::unique_ptr<mc::multiplex::Multiplexer> mux =
      mc::multiplex::CreateMultiplexer(spec.mux);
  auto stream = mux->Multiplex(input, widths);
  if (!stream.ok()) return Fail(why, stream.status().ToString());
  std::string text = std::move(stream).value();
  text.push_back(',');
  times->mux_ns += NowNs() - t;

  // 3. Tokenize over the pipeline's vocabulary.
  t = NowNs();
  mc::token::Vocabulary vocab =
      spec.quantization == Quantization::kSaxDigital
          ? mc::token::Vocabulary::SaxDigital(spec.sax_alphabet_size).value()
      : spec.quantization == Quantization::kSaxAlphabetic
          ? mc::token::Vocabulary::SaxAlphabetic(spec.sax_alphabet_size)
                .value()
          : mc::token::Vocabulary::Digits();
  auto prompt_or = mc::token::Encode(text, vocab);
  if (!prompt_or.ok()) return Fail(why, prompt_or.status().ToString());
  const std::vector<mc::token::TokenId> prompt = std::move(prompt_or).value();
  times->encode_ns += NowNs() - t;
  for (const CapturedCall& call : calls) {
    if (call.prompt != prompt) {
      return Fail(why, "replayed prompt differs from the backend's prompt");
    }
  }

  // 4. Ingest the prompt into an empty cache, then fork and decode every
  // captured draw twice: once as one untimed-inside loop, once with each
  // NextDistribution / SampleToken / Observe timed on its own.
  const size_t vocab_size = vocab.size();
  auto cache = std::make_shared<mc::lm::PrefixCache>(4);
  mc::lm::SimulatedLlm warmer(spec.profile, vocab_size, cache);
  t = NowNs();
  mc::Status warmed = warmer.WarmPrefix(prompt);
  times->ingest_ns += NowNs() - t;
  if (!warmed.ok()) return Fail(why, warmed.ToString());
  times->ingest_tokens += prompt.size();
  const uint64_t fingerprint =
      mc::lm::ModelFingerprint(spec.profile, vocab_size);
  const mc::lm::PrefixCache::ModelFactory fresh = [&spec, vocab_size] {
    return mc::lm::NewDecoderModel(spec.profile, vocab_size);
  };

  std::vector<std::vector<std::vector<double>>> samples(dims);
  const size_t segments =
      sax ? (horizon + static_cast<size_t>(spec.sax_segment_length) - 1) /
                static_cast<size_t>(spec.sax_segment_length)
          : horizon;
  for (const CapturedCall& call : calls) {
    t = NowNs();
    std::unique_ptr<mc::lm::LanguageModel> session =
        cache->AcquireSession(fingerprint, prompt, fresh);
    times->fork_ns += NowNs() - t;
    ++times->forks;
    auto cycle_or =
        mc::lm::HoistGrammarCycle(call.mask, call.num_tokens, vocab_size);
    if (!cycle_or.ok()) return Fail(why, cycle_or.status().ToString());
    const auto& cycle = cycle_or.value();

    std::vector<mc::token::TokenId> tokens;
    tokens.reserve(call.num_tokens);
    std::vector<double> probs;
    mc::Rng rng = call.rng;
    t = NowNs();
    for (size_t step = 0; step < call.num_tokens; ++step) {
      session->NextDistribution(&probs);
      auto next = mc::lm::SampleToken(probs, *cycle[step % cycle.size()],
                                      spec.profile.sampler, &rng);
      if (!next.ok()) return Fail(why, next.status().ToString());
      tokens.push_back(next.value());
      session->Observe(next.value());
    }
    times->loop_ns += NowNs() - t;
    times->loop_tokens += call.num_tokens;
    if (tokens != call.tokens) {
      return Fail(why, "replayed decode differs from the backend's tokens");
    }

    session = cache->AcquireSession(fingerprint, prompt, fresh);
    rng = call.rng;
    tokens.clear();
    for (size_t step = 0; step < call.num_tokens; ++step) {
      int64_t a = NowNs();
      session->NextDistribution(&probs);
      int64_t b = NowNs();
      auto next = mc::lm::SampleToken(probs, *cycle[step % cycle.size()],
                                      spec.profile.sampler, &rng);
      int64_t c = NowNs();
      if (!next.ok()) return Fail(why, next.status().ToString());
      session->Observe(next.value());
      int64_t e = NowNs();
      tokens.push_back(next.value());
      times->next_ns += Net(a, b);
      times->sample_ns += Net(b, c);
      times->observe_ns += Net(c, e);
    }
    times->op_tokens += call.num_tokens;
    if (tokens != call.tokens) {
      return Fail(why, "timed decode differs from the backend's tokens");
    }

    // 5. Tokens -> text -> per-dimension values.
    t = NowNs();
    auto out_text = mc::token::Decode(tokens, vocab);
    times->decode_ns += NowNs() - t;
    if (!out_text.ok()) return Fail(why, out_text.status().ToString());
    t = NowNs();
    auto demuxed =
        mux->Demultiplex(out_text.value(), widths, /*allow_partial=*/true);
    times->demux_ns += NowNs() - t;
    if (!demuxed.ok()) return Fail(why, demuxed.status().ToString());
    if (demuxed.value().num_timestamps() < segments) {
      return Fail(why, "replayed generation is short of the horizon");
    }
    t = NowNs();
    for (size_t d = 0; d < dims; ++d) {
      const auto& fields = demuxed.value().values[d];
      if (sax) {
        std::string word;
        for (size_t seg = 0; seg < segments; ++seg) {
          word.push_back(fields[seg][0]);
        }
        auto values = codecs[d].Decode(word, horizon);
        if (!values.ok()) return Fail(why, values.status().ToString());
        samples[d].push_back(std::move(values).value());
        continue;
      }
      std::vector<int64_t> scaled;
      for (size_t s = 0; s < horizon; ++s) {
        auto v = mc::token::ParseFixedWidthDigits(fields[s]);
        if (!v.ok()) return Fail(why, v.status().ToString());
        scaled.push_back(v.value());
      }
      samples[d].push_back(mc::scale::DescaleValues(scaled, params[d]));
    }
    quant_ns += NowNs() - t;
  }
  (sax ? times->sax_ns : times->scale_ns) += quant_ns;
  ++(sax ? times->sax_forecasts : times->raw_forecasts);
  ++times->forecasts;

  // 6. Median point forecast and bands at the sorted distinct levels.
  t = NowNs();
  std::vector<double> levels = spec.quantiles;
  std::sort(levels.begin(), levels.end());
  levels.erase(std::unique(levels.begin(), levels.end()), levels.end());
  point->assign(dims, {});
  bands->assign(levels.size(), std::vector<std::vector<double>>(dims));
  for (size_t d = 0; d < dims; ++d) {
    auto median =
        mc::forecast::QuantileAggregateRagged(samples[d], 0.5, horizon);
    if (!median.ok()) return Fail(why, median.status().ToString());
    (*point)[d] = std::move(median).value();
    for (size_t l = 0; l < levels.size(); ++l) {
      auto band = mc::forecast::QuantileAggregateRagged(samples[d], levels[l],
                                                        horizon);
      if (!band.ok()) return Fail(why, band.status().ToString());
      (*bands)[l][d] = std::move(band).value();
    }
  }
  times->aggregate_ns += NowNs() - t;
  return true;
}

}  // namespace

bool ReplayAndCheck(const mc::forecast::MultiCastOptions& options,
                    bool llmtime, const mc::ts::Frame& history,
                    size_t horizon, const std::vector<CapturedCall>& calls,
                    const mc::forecast::ForecastResult& result,
                    StageTimes* times, std::string* why) {
  std::vector<std::vector<double>> point;
  std::vector<std::vector<std::vector<double>>> bands;
  if (!llmtime) {
    if (!ReplayForecast(options, history, horizon, calls,
                        times, &point, &bands, why)) {
      return false;
    }
    for (size_t d = 0; d < point.size(); ++d) {
      if (point[d] != result.forecast.dim(d).values()) {
        return Fail(why, "replayed median differs from the forecast");
      }
    }
    if (bands.size() != result.quantile_bands.size()) {
      return Fail(why, "replayed band count differs");
    }
    for (size_t l = 0; l < bands.size(); ++l) {
      for (size_t d = 0; d < point.size(); ++d) {
        if (bands[l][d] != result.quantile_bands[l].second.dim(d).values()) {
          return Fail(why, "replayed band differs from the forecast");
        }
      }
    }
    return true;
  }
  // LLMTime: one univariate value-concatenated pipeline per dimension,
  // each issuing num_samples calls in dimension order.
  mc::forecast::MultiCastOptions uni = options;
  uni.mux = mc::multiplex::MuxKind::kValueConcat;
  uni.quantization = mc::forecast::Quantization::kNone;
  uni.quantiles.clear();
  const size_t n = static_cast<size_t>(options.num_samples);
  if (calls.size() != n * history.num_dims()) {
    return Fail(why, "LLMTime call count differs from dims x samples");
  }
  for (size_t d = 0; d < history.num_dims(); ++d) {
    auto frame = mc::ts::Frame::FromSeries({history.dim(d)});
    if (!frame.ok()) return Fail(why, frame.status().ToString());
    std::vector<CapturedCall> dim_calls(calls.begin() + d * n,
                                        calls.begin() + (d + 1) * n);
    if (!ReplayForecast(uni, frame.value(), horizon,
                        dim_calls, times, &point, &bands, why)) {
      return false;
    }
    if (point[0] != result.forecast.dim(d).values()) {
      return Fail(why, "replayed LLMTime dimension differs");
    }
  }
  return true;
}

}  // namespace perfbench
