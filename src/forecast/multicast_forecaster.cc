#include "forecast/multicast_forecaster.h"

#include <algorithm>
#include <functional>
#include <memory>
#include <utility>

#include "batch/batch_llm.h"
#include "lm/generator.h"
#include "lm/resilient_backend.h"
#include "token/codec.h"
#include "ts/stats.h"
#include "util/strings.h"
#include "util/timer.h"

namespace multicast {
namespace forecast {

namespace {

// Builds the per-step grammar mask for a multiplexed digit stream: comma
// at separator positions of the timestamp cycle, any non-comma symbol
// elsewhere.
lm::GrammarMask StructuredMask(const multiplex::CycleLayout& layout,
                               const token::Vocabulary& vocab) {
  const size_t cycle = layout.size();
  token::TokenId comma = vocab.CommaId().ValueOrDie();
  size_t vocab_size = vocab.size();
  // One shared immutable mask per cycle position, built once; declaring
  // the period lets the decode loop stop calling the functor entirely.
  std::vector<lm::GrammarMask::Shared> positions(cycle);
  for (size_t p = 0; p < cycle; ++p) {
    bool want_comma = layout[p].is_separator();
    std::vector<bool> allowed(vocab_size, !want_comma);
    allowed[static_cast<size_t>(comma)] = want_comma;
    positions[p] =
        std::make_shared<const std::vector<bool>>(std::move(allowed));
  }
  return lm::GrammarMask(
      [positions = std::move(positions), cycle](size_t step) {
        return positions[step % cycle];
      },
      /*period=*/cycle);
}

// Builds the median point forecast and any requested quantile bands
// from the per-dimension sample matrix, writing into `result`. Samples
// may be ragged (salvaged prefixes); the output is always dims x
// `horizon`, and any hold-last fill marks the result degraded.
Status FillAggregates(
    const std::vector<std::vector<std::vector<double>>>& samples_per_dim,
    const ts::Frame& history, const std::vector<double>& quantiles,
    size_t horizon, ForecastResult* result) {
  std::vector<ts::Series> out_dims;
  for (size_t d = 0; d < samples_per_dim.size(); ++d) {
    bool held_tail = false;
    MC_ASSIGN_OR_RETURN(std::vector<double> agg,
                        QuantileAggregateRagged(samples_per_dim[d], 0.5,
                                                horizon, &held_tail));
    if (held_tail) {
      result->degraded = true;
      result->warnings.push_back(StrFormat(
          "dimension %zu: no surviving sample covers the full horizon; "
          "tail timestamps hold the last aggregated value", d));
    }
    out_dims.emplace_back(std::move(agg), history.dim(d).name());
  }
  MC_ASSIGN_OR_RETURN(result->forecast,
                      ts::Frame::FromSeries(std::move(out_dims),
                                            history.name()));

  // Validate every level before computing any band (an invalid level
  // must not leave the bands half-built), then dedupe: repeated levels
  // would emit identical bands under one level twice.
  for (double level : quantiles) {
    if (!(level > 0.0 && level < 1.0)) {
      return Status::InvalidArgument(
          StrFormat("quantile level %g outside (0, 1)", level));
    }
  }
  std::vector<double> sorted_levels = quantiles;
  std::sort(sorted_levels.begin(), sorted_levels.end());
  sorted_levels.erase(
      std::unique(sorted_levels.begin(), sorted_levels.end()),
      sorted_levels.end());
  for (double level : sorted_levels) {
    std::vector<ts::Series> band_dims;
    for (size_t d = 0; d < samples_per_dim.size(); ++d) {
      MC_ASSIGN_OR_RETURN(std::vector<double> agg,
                          QuantileAggregateRagged(samples_per_dim[d], level,
                                                  horizon));
      band_dims.emplace_back(std::move(agg), history.dim(d).name());
    }
    MC_ASSIGN_OR_RETURN(ts::Frame band,
                        ts::Frame::FromSeries(std::move(band_dims),
                                              history.name()));
    result->quantile_bands.emplace_back(level, std::move(band));
  }
  return Status::OK();
}

// Splitmix-style decorrelation of a base seed per draw (or dimension)
// index; the golden-ratio stride keeps nearby indices far apart in seed
// space.
uint64_t MixSeed(uint64_t seed, uint64_t index) {
  return seed + 0x9e3779b97f4a7c15ULL * (index + 1);
}

// One draw's private backend stack: simulated decoder (or the injected
// external backend), optionally behind a fault injector, optionally
// behind the resilient retry layer. Each draw owns the whole stack with
// draw-indexed seeds, so its fault schedule, breaker state and retry
// stats depend on its index alone, never on what earlier draws met. All
// virtual time lands on the draw's branch `clock`.
struct BackendStack {
  std::unique_ptr<lm::LlmBackend> base;
  std::unique_ptr<lm::FaultInjectingBackend> faults;
  std::unique_ptr<lm::ResilientBackend> resilient;
  lm::LlmBackend* top = nullptr;
};

BackendStack BuildDrawStack(const MultiCastOptions& options,
                            size_t vocab_size, VirtualClock* clock,
                            lm::LlmBackend* external, uint64_t draw_index,
                            const std::shared_ptr<lm::PrefixCache>& cache,
                            lm::DrawTrie* trie) {
  BackendStack stack;
  if (external != nullptr) {
    stack.top = external;
  } else {
    // The shared prefix cache is one deliberate exception to "nothing
    // shared across draws": it is internally synchronized and only ever
    // hands out forks of immutable state, so draws stay isolated and
    // bit-identical (see lm/prefix_cache.h). The draw trie is the
    // other: lanes walk it without a lock and add nodes under its own
    // (see lm::DrawTrie).
    if (options.batch_scheduler != nullptr) {
      // Same lane as SimulatedLlm, but its steps run inside the shared
      // continuous-batching scheduler — draws from every pipeline on
      // this scheduler decode one token per step together. Bit-identical
      // output either way.
      stack.base = std::make_unique<batch::BatchLlm>(
          options.profile, vocab_size, options.batch_scheduler, cache,
          trie);
    } else {
      stack.base = std::make_unique<lm::SimulatedLlm>(
          options.profile, vocab_size, cache, trie);
    }
    stack.top = stack.base.get();
  }
  if (options.faults.any()) {
    // Per-draw fault schedule: decorrelated from the other draws and a
    // pure function of the draw index, so the faults a draw sees do not
    // depend on which other draws ran first.
    lm::FaultProfile profile = options.faults;
    profile.seed = MixSeed(options.faults.seed, draw_index);
    stack.faults = std::make_unique<lm::FaultInjectingBackend>(
        stack.top, profile);
    stack.top = stack.faults.get();
  }
  if (options.resilience.retries_enabled) {
    lm::RetryPolicy retry = options.resilience.retry;
    retry.seed = MixSeed(retry.seed, draw_index);
    stack.resilient = std::make_unique<lm::ResilientBackend>(
        stack.top, retry, options.resilience.breaker, clock);
    stack.top = stack.resilient.get();
  }
  return stack;
}

// Longest prefix of `text` that obeys the multiplexer's cycle layout,
// measured in *complete* timestamps. Corrupted generations put commas at
// digit positions (or vice versa); everything before the first
// violation, rounded down to a whole timestamp cycle, is salvageable.
size_t GrammarValidTimestamps(const std::string& text,
                              const multiplex::CycleLayout& layout) {
  const size_t cycle = layout.size();
  size_t complete = 0;
  for (size_t i = 0; i < text.size(); ++i) {
    if ((text[i] == ',') != layout[i % cycle].is_separator()) break;
    if (i % cycle + 1 == cycle) ++complete;
  }
  return complete;
}

// Outcome of drawing one sample through the backend stack: either a
// usable (possibly shortened) generation or a reason to skip/redraw.
struct SampleDraw {
  bool usable = false;
  std::string text;            // grammar-valid prefix, whole timestamps
  size_t timestamps = 0;       // timestamps `text` covers
  Status failure;              // why the draw was skipped (when !usable)
  double latency_seconds = 0.0;  // simulated cost of the backend call
};

// Draws one sample and salvages the grammar-valid prefix. Terminal
// (non-retryable) statuses propagate as errors; transient failures,
// fully corrupted streams, and cancellation/deadline stops come back as
// unusable draws — the caller decides whether to redraw or wind down
// with what already survived.
Result<SampleDraw> DrawSample(lm::LlmBackend* backend,
                              const std::vector<token::TokenId>& prompt,
                              size_t tokens_needed,
                              const lm::GrammarMask& mask, Rng* sample_rng,
                              const multiplex::CycleLayout& layout,
                              const token::Vocabulary& vocab,
                              const RequestContext& ctx,
                              lm::TokenLedger* ledger) {
  SampleDraw draw;
  lm::CallOptions call;
  call.context = ctx;
  Result<lm::GenerationResult> gen_or =
      backend->Complete(prompt, tokens_needed, mask, sample_rng, call);
  draw.latency_seconds = backend->last_latency_seconds();
  if (!gen_or.ok()) {
    StatusCode code = gen_or.status().code();
    if (code != StatusCode::kCancelled && !IsRetryable(code)) {
      return gen_or.status();
    }
    draw.failure = gen_or.status();
    return draw;
  }
  lm::GenerationResult gen = std::move(gen_or).value();
  *ledger += gen.ledger;
  MC_ASSIGN_OR_RETURN(std::string text, token::Decode(gen.tokens, vocab));
  draw.timestamps = GrammarValidTimestamps(text, layout);
  if (draw.timestamps == 0) {
    draw.failure = Status::Unavailable(
        "generation corrupted before the first complete timestamp");
    return draw;
  }
  text.resize(draw.timestamps * layout.size());
  draw.text = std::move(text);
  draw.usable = true;
  return draw;
}

// Everything one draw produced, which the sample loop merges into the
// forecast.
struct DrawOutcome {
  bool usable = false;
  bool terminal = false;  // failure ends the whole forecast
  Status failure;
  lm::TokenLedger ledger;
  lm::RetryStats retry_stats;
  /// Virtual seconds this draw consumed on its branch clock; the loop
  /// replays them onto the request clock.
  double virtual_cost = 0.0;
  std::vector<std::vector<double>> values;  // [dim][t]
  size_t salvaged = 0;       // timestamps (raw) / segments (SAX) kept
  size_t salvage_total = 0;  // what a full draw would have covered
};

// Everything a draw needs that is shared across all draws of one
// forecast: read-only but for the draw trie, which the draws grow.
// `parse` turns a salvaged grammar-valid text into per-dimension value
// rows.
struct SampleLoopState {
  const MultiCastOptions* options = nullptr;
  const std::vector<token::TokenId>* prompt = nullptr;
  size_t tokens_needed = 0;
  const lm::GrammarMask* mask = nullptr;
  const multiplex::CycleLayout* layout = nullptr;
  const token::Vocabulary* vocab = nullptr;
  /// The injected external backend; null when the forecast builds its
  /// own simulated base per draw.
  lm::LlmBackend* external = nullptr;
  /// Shared prefix cache for the per-draw simulated backends, pre-warmed
  /// with this forecast's prompt; null when caching is off or an
  /// external backend is in play.
  std::shared_ptr<lm::PrefixCache> cache;
  /// What earlier draws decoded (lm::DrawTrie), walked and grown by each
  /// draw's SimulatedLlm or BatchLlm lane; null when the draws decode
  /// through an external backend, or only one draw can run and no shared
  /// cache keeps a trie for the prompt.
  lm::DrawTrie* trie = nullptr;
  std::function<Status(const std::string& text, DrawOutcome* out)> parse;
  const char* salvage_noun = "timestamps";
};

// Runs one complete draw — backend stack construction, the LLM call,
// salvage, parse — on a branch clock starting at `t0`, the sample
// loop's entry time, with a private cancel token. Inside the draw the
// request's deadline is thus measured from `t0` plus the draw's own
// cost, and a cancel that fires meanwhile is seen by the loop before
// the next draw, not mid-call: the draw's result is a function of
// (draw_index, rng, t0, deadline) and the shared read-only state, not
// of how much virtual time earlier draws consumed.
DrawOutcome RunDraw(const SampleLoopState& st, int draw_index, Rng rng,
                    double t0, const Deadline& deadline) {
  DrawOutcome out;
  VirtualClock branch;
  branch.AdvanceTo(t0);
  RequestContext draw_ctx;
  draw_ctx.clock = &branch;
  draw_ctx.deadline = deadline;
  BackendStack stack = BuildDrawStack(
      *st.options, st.vocab->size(), &branch, st.external,
      static_cast<uint64_t>(draw_index), st.cache, st.trie);
  Result<SampleDraw> draw_or =
      DrawSample(stack.top, *st.prompt, st.tokens_needed, *st.mask, &rng,
                 *st.layout, *st.vocab, draw_ctx, &out.ledger);
  if (stack.resilient != nullptr) {
    out.retry_stats = stack.resilient->stats();
  }
  if (!draw_or.ok()) {
    out.terminal = true;
    out.failure = draw_or.status();
    out.virtual_cost = branch.now() - t0;
    return out;
  }
  SampleDraw draw = std::move(draw_or).value();
  // The resilient layer charges latency (and backoff) to the branch
  // clock itself; a bare stack charges the call latency its top layer
  // reports here.
  if (stack.resilient == nullptr) branch.Advance(draw.latency_seconds);
  if (!draw.usable) {
    out.failure = draw.failure;
    out.virtual_cost = branch.now() - t0;
    return out;
  }
  Status parsed = st.parse(draw.text, &out);
  out.virtual_cost = branch.now() - t0;
  if (!parsed.ok()) {
    out.terminal = true;
    out.failure = parsed;
    return out;
  }
  out.usable = true;
  return out;
}

// Shared post-loop bookkeeping: surviving-sample accounting, degraded
// flag, and the minimum-survivor check. `min_samples` is clamped to the
// requested sample count — a fully successful forecast must never fail
// its own survivor floor just because the floor was configured above
// num_samples.
Status FinishSampling(const MultiCastOptions& options, int survivors,
                      const Status& last_failure, ForecastResult* result) {
  result->samples_requested = static_cast<size_t>(options.num_samples);
  result->samples_used = static_cast<size_t>(survivors);
  const int min_samples = std::min(
      std::max(1, options.resilience.min_samples), options.num_samples);
  if (survivors < min_samples) {
    Status cause = last_failure.ok()
                       ? Status::Unavailable("no failure recorded")
                       : last_failure;
    return Status(cause.code(),
                  StrFormat("only %d of %d samples survived (minimum %d); "
                            "last failure: %s",
                            survivors, options.num_samples, min_samples,
                            cause.ToString().c_str()));
  }
  if (survivors < options.num_samples) {
    result->degraded = true;
    result->warnings.push_back(
        StrFormat("aggregated %d of %d requested samples", survivors,
                  options.num_samples));
  }
  return Status::OK();
}

// The sample loop shared by the raw and SAX pipelines: one draw at a
// time, in draw-index order, until `num_samples` survive, the redraw
// budget is spent, the request dies or a draw fails terminally. Draw k
// takes the k-th fork of the request's RNG stream and runs per RunDraw;
// the loop checks the request context before each draw and replays the
// draw's virtual cost onto the request clock after it. Draws on the
// simulated decoder, run to completion or in a batch scheduler, share
// one draw trie, which each draw grows as it decodes, so every later
// draw walks what every earlier one decoded. On a caller's prefix cache
// the trie is the prompt's entry's, so the draws also read what earlier
// requests added.
Status RunSampleLoop(const MultiCastOptions& options,
                     SampleLoopState st, const RequestContext& ctx,
                     VirtualClock* clock, uint64_t rng_stream, size_t dims,
                     std::vector<std::vector<std::vector<double>>>*
                         samples_per_dim,
                     ForecastResult* result) {
  Rng rng(options.seed, rng_stream);
  const int target = options.num_samples;
  const int max_draws =
      target + std::max(0, options.resilience.max_redraws);
  // The trie the draws walk: their prompt's entry's in a caller's
  // prefix cache, shared with every request on it, or one of the
  // forecast's own. Held here, so an entry evicted mid-forecast leaves
  // it alive until the draws are done. A lane whose sampler or grammar
  // the entry's trie was not made for decodes without it.
  std::shared_ptr<lm::DrawTrie> trie;
  if (st.cache != nullptr && options.shared_prefix_cache != nullptr &&
      options.cache_draw_tries) {
    const size_t vocab = st.vocab->size();
    trie = st.cache->DrawTrieFor(
        lm::ModelFingerprint(options.profile, vocab), *st.prompt,
        [&](std::shared_ptr<const std::vector<token::TokenId>> prompt) {
          return std::make_shared<lm::DrawTrie>(
              options.profile, vocab, std::move(prompt), st.tokens_needed,
              *st.mask, lm::kCacheDrawTrieBytes);
        });
  }
  if (trie == nullptr && max_draws > 1 && st.external == nullptr) {
    trie = std::make_shared<lm::DrawTrie>(
        options.profile, st.vocab->size(),
        std::make_shared<const std::vector<token::TokenId>>(*st.prompt),
        st.tokens_needed, *st.mask);
  }
  st.trie = trie.get();

  const double t0 = clock->now();
  int survivors = 0;
  Status last_failure = Status::OK();
  for (int s = 0; s < max_draws && survivors < target; ++s) {
    Status active = ctx.Check("sample loop");
    if (!active.ok()) {
      // The request died mid-pipeline: stop issuing LLM calls and wind
      // down with whatever already survived.
      last_failure = active;
      result->warnings.push_back(StrFormat(
          "stopped issuing LLM calls after %d surviving samples: %s",
          survivors, active.ToString().c_str()));
      break;
    }
    DrawOutcome out = RunDraw(st, s, rng.Fork(), t0, ctx.deadline);
    clock->Advance(out.virtual_cost);
    if (out.terminal) return out.failure;
    result->ledger += out.ledger;
    result->retry_stats += out.retry_stats;
    if (!out.usable) {
      last_failure = out.failure;
      result->warnings.push_back(StrFormat(
          "sample draw %d lost: %s", s, out.failure.ToString().c_str()));
      continue;
    }
    if (out.salvaged < out.salvage_total) {
      result->degraded = true;
      result->warnings.push_back(StrFormat(
          "sample draw %d truncated: salvaged %zu of %zu %s", s,
          out.salvaged, out.salvage_total, st.salvage_noun));
    }
    for (size_t d = 0; d < dims; ++d) {
      (*samples_per_dim)[d].push_back(std::move(out.values[d]));
    }
    ++survivors;
  }
  return FinishSampling(options, survivors, last_failure, result);
}

// The half of a forecast the raw and SAX pipelines share once they have
// serialized the history: `st` holds the prompt, the tokens to draw, the
// mux layout, the vocabulary and the parse. Checks an external backend
// against the vocabulary, pre-warms the prefix cache, draws the samples
// on the request's clock and aggregates the survivors.
Result<ForecastResult> SampleAndAggregate(
    const MultiCastOptions& options,
    const std::shared_ptr<lm::PrefixCache>& prefix_cache,
    SampleLoopState st, uint64_t rng_stream, const ts::Frame& history,
    size_t horizon, const RequestContext& ctx, const Timer& timer) {
  if (options.backend != nullptr &&
      options.backend->vocab_size() != st.vocab->size()) {
    return Status::InvalidArgument(StrFormat(
        "external backend vocabulary size %zu does not match the "
        "pipeline's %zu",
        options.backend->vocab_size(), st.vocab->size()));
  }
  const lm::GrammarMask mask = StructuredMask(*st.layout, *st.vocab);
  VirtualClock local_clock;
  VirtualClock* clock = ctx.clock != nullptr ? ctx.clock : &local_clock;
  const double virtual_start = clock->now();
  st.options = &options;
  st.mask = &mask;
  st.external = options.backend;
  // Pre-warm the prompt's frozen state once before the first draw: every
  // draw then forks the same full cache hit. External backends own
  // their own state and are never cached here.
  if (options.backend == nullptr && prefix_cache != nullptr) {
    st.cache = prefix_cache;
    lm::SimulatedLlm warmer(options.profile, st.vocab->size(), st.cache);
    MC_RETURN_IF_ERROR(warmer.WarmPrefix(*st.prompt));
  }

  // samples_per_dim[d][s] is sample s of dimension d (possibly a
  // salvaged prefix shorter than the draw asked for).
  const size_t dims = history.num_dims();
  std::vector<std::vector<std::vector<double>>> samples_per_dim(dims);
  ForecastResult result;
  MC_RETURN_IF_ERROR(RunSampleLoop(options, std::move(st), ctx, clock,
                                   rng_stream, dims, &samples_per_dim,
                                   &result));
  // The median across surviving samples (+ quantile bands), per
  // dimension and timestamp.
  MC_RETURN_IF_ERROR(FillAggregates(samples_per_dim, history,
                                    options.quantiles, horizon, &result));
  result.seconds = timer.Seconds();
  result.virtual_seconds = clock->now() - virtual_start;
  return result;
}

}  // namespace

const char* QuantizationName(Quantization q) {
  switch (q) {
    case Quantization::kNone:
      return "none";
    case Quantization::kSaxAlphabetic:
      return "alphabetical";
    case Quantization::kSaxDigital:
      return "digital";
  }
  return "?";
}

MultiCastForecaster::MultiCastForecaster(const MultiCastOptions& options)
    : options_(options) {
  options_.scaler.digits = options_.digits;
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
  // The profile is the single conduit to every model construction site
  // (SimulatedLlm draw stacks, BatchLlm sessions, cache warmers).
  options_.profile.memory_pool = block_pool_;
}

MultiCastForecaster::~MultiCastForecaster() = default;

std::string MultiCastForecaster::name() const {
  if (options_.quantization == Quantization::kNone) {
    return StrFormat("MultiCast (%s)",
                     multiplex::MuxKindName(options_.mux));
  }
  return StrFormat("MultiCast SAX (%s)",
                   QuantizationName(options_.quantization));
}

Result<ForecastResult> MultiCastForecaster::Forecast(const ts::Frame& history,
                                                     size_t horizon,
                                                     const RequestContext& ctx) {
  if (horizon == 0) return Status::InvalidArgument("horizon must be >= 1");
  if (history.length() < 4) {
    return Status::InvalidArgument("history too short to forecast from");
  }
  if (options_.num_samples < 1) {
    return Status::InvalidArgument("num_samples must be >= 1");
  }
  MC_RETURN_IF_ERROR(ctx.Check(name().c_str()));
  if (options_.quantization == Quantization::kNone) {
    return ForecastRaw(history, horizon, ctx);
  }
  return ForecastSax(history, horizon, ctx);
}

Result<ForecastResult> MultiCastForecaster::ForecastRaw(
    const ts::Frame& history, size_t horizon, const RequestContext& ctx) {
  Timer timer;
  const size_t dims = history.num_dims();

  // 1. Rescale every dimension to b-digit integers (fit on history only).
  std::vector<scale::ScalerParams> params(dims);
  multiplex::MuxInput input;
  input.values.resize(dims);
  std::vector<int> widths(dims, options_.digits);
  for (size_t d = 0; d < dims; ++d) {
    MC_ASSIGN_OR_RETURN(params[d],
                        scale::FitScaler(history.dim(d), options_.scaler));
    std::vector<int64_t> scaled =
        scale::ScaleValues(history.dim(d).values(), params[d]);
    input.values[d].reserve(scaled.size());
    for (int64_t v : scaled) {
      MC_ASSIGN_OR_RETURN(std::string s,
                          token::FixedWidthDigits(v, options_.digits));
      input.values[d].push_back(std::move(s));
    }
  }

  // 2. Multiplex to one stream; the trailing comma opens a new timestamp
  // so generation starts at the first digit position of the cycle.
  const multiplex::Multiplexer mux(options_.mux);
  MC_ASSIGN_OR_RETURN(std::string stream, mux.Multiplex(input, widths));
  stream.push_back(',');
  const multiplex::CycleLayout layout = mux.Layout(widths);

  // 3. Tokenize.
  token::Vocabulary vocab = token::Vocabulary::Digits();
  MC_ASSIGN_OR_RETURN(std::vector<token::TokenId> prompt,
                      token::Encode(stream, vocab));

  // 4. Draw constrained continuations through per-draw backend stacks,
  // redrawing failed samples up to the resilience cap, then (6.) take
  // the median of the survivors.
  SampleLoopState st;
  st.prompt = &prompt;
  st.tokens_needed = horizon * layout.size();
  st.layout = &layout;
  st.vocab = &vocab;
  st.salvage_noun = "timestamps";
  st.parse = [&mux, &widths, &params, dims, horizon](
                 const std::string& text, DrawOutcome* out) -> Status {
    // 5. Demultiplex and descale the salvaged prefix of this sample.
    MC_ASSIGN_OR_RETURN(
        multiplex::MuxInput demuxed,
        mux.Demultiplex(text, widths, /*allow_partial=*/true));
    const size_t usable =
        std::min<size_t>(horizon, demuxed.num_timestamps());
    out->salvaged = usable;
    out->salvage_total = horizon;
    out->values.resize(dims);
    for (size_t d = 0; d < dims; ++d) {
      std::vector<int64_t> scaled;
      scaled.reserve(usable);
      for (size_t t = 0; t < usable; ++t) {
        MC_ASSIGN_OR_RETURN(int64_t v,
                            token::ParseFixedWidthDigits(demuxed.values[d][t]));
        scaled.push_back(v);
      }
      out->values[d] = scale::DescaleValues(scaled, params[d]);
    }
    return Status::OK();
  };
  return SampleAndAggregate(options_, prefix_cache_, std::move(st),
                            /*rng_stream=*/7, history, horizon, ctx, timer);
}

Result<ForecastResult> MultiCastForecaster::ForecastSax(
    const ts::Frame& history, size_t horizon, const RequestContext& ctx) {
  Timer timer;
  const size_t dims = history.num_dims();
  const bool digital = options_.quantization == Quantization::kSaxDigital;

  sax::SaxOptions sax_opts;
  sax_opts.segment_length = options_.sax_segment_length;
  sax_opts.alphabet_size = options_.sax_alphabet_size;
  sax_opts.symbols =
      digital ? sax::SymbolKind::kDigital : sax::SymbolKind::kAlphabetic;

  // 1. SAX-encode every dimension: one symbol per PAA segment.
  std::vector<sax::SaxCodec> codecs;
  multiplex::MuxInput input;
  input.values.resize(dims);
  std::vector<int> widths(dims, 1);
  for (size_t d = 0; d < dims; ++d) {
    MC_ASSIGN_OR_RETURN(sax::SaxCodec codec,
                        sax::SaxCodec::Fit(history.dim(d), sax_opts));
    MC_ASSIGN_OR_RETURN(std::string word,
                        codec.Encode(history.dim(d).values()));
    input.values[d].reserve(word.size());
    for (char c : word) input.values[d].emplace_back(1, c);
    codecs.push_back(std::move(codec));
  }

  // 2. Multiplex the symbol streams (each "timestamp" is one PAA segment).
  const multiplex::Multiplexer mux(options_.mux);
  MC_ASSIGN_OR_RETURN(std::string stream, mux.Multiplex(input, widths));
  stream.push_back(',');
  const multiplex::CycleLayout layout = mux.Layout(widths);

  // 3. Tokenize over the SAX vocabulary (the generation constraint set
  // becomes the active alphabet plus comma instead of [0-9,]).
  Result<token::Vocabulary> vocab_or =
      digital ? token::Vocabulary::SaxDigital(options_.sax_alphabet_size)
              : token::Vocabulary::SaxAlphabetic(options_.sax_alphabet_size);
  if (!vocab_or.ok()) return vocab_or.status();
  token::Vocabulary vocab = std::move(vocab_or).value();
  MC_ASSIGN_OR_RETURN(std::vector<token::TokenId> prompt,
                      token::Encode(stream, vocab));

  // 4. Generate enough whole segments to cover `horizon` raw timestamps.
  size_t segments_needed =
      (horizon + static_cast<size_t>(options_.sax_segment_length) - 1) /
      static_cast<size_t>(options_.sax_segment_length);
  const size_t segment_length =
      static_cast<size_t>(options_.sax_segment_length);
  SampleLoopState st;
  st.prompt = &prompt;
  st.tokens_needed = segments_needed * layout.size();
  st.layout = &layout;
  st.vocab = &vocab;
  st.salvage_noun = "segments";
  st.parse = [&mux, &widths, &codecs, dims, horizon, segments_needed,
              segment_length](const std::string& text,
                              DrawOutcome* out) -> Status {
    // 5. Demultiplex the salvaged symbol stream back into per-dimension
    // SAX words (one symbol per surviving segment).
    MC_ASSIGN_OR_RETURN(
        multiplex::MuxInput demuxed,
        mux.Demultiplex(text, widths, /*allow_partial=*/true));
    const size_t usable_segments =
        std::min(segments_needed, demuxed.num_timestamps());
    const size_t usable_steps =
        std::min(horizon, usable_segments * segment_length);
    out->salvaged = usable_segments;
    out->salvage_total = segments_needed;
    out->values.resize(dims);
    for (size_t d = 0; d < dims; ++d) {
      std::string word;
      word.reserve(usable_segments);
      for (size_t seg = 0; seg < usable_segments; ++seg) {
        word.push_back(demuxed.values[d][seg][0]);
      }
      MC_ASSIGN_OR_RETURN(out->values[d],
                          codecs[d].Decode(word, usable_steps));
    }
    return Status::OK();
  };
  return SampleAndAggregate(options_, prefix_cache_, std::move(st),
                            /*rng_stream=*/11, history, horizon, ctx, timer);
}

Result<std::vector<double>> MedianAggregate(
    const std::vector<std::vector<double>>& samples) {
  return QuantileAggregate(samples, 0.5);
}

Result<std::vector<double>> QuantileAggregate(
    const std::vector<std::vector<double>>& samples, double q) {
  if (samples.empty()) return Status::InvalidArgument("no samples");
  if (!(q > 0.0 && q < 1.0)) {
    return Status::InvalidArgument(
        StrFormat("quantile %g outside (0, 1)", q));
  }
  size_t h = samples[0].size();
  for (const auto& s : samples) {
    if (s.size() != h) {
      return Status::InvalidArgument("samples have differing horizons");
    }
  }
  if (h == 0) {
    return Status::InvalidArgument(
        StrFormat("all %zu samples are empty: nothing to aggregate",
                  samples.size()));
  }
  std::vector<double> out;
  out.reserve(h);
  for (size_t t = 0; t < h; ++t) {
    std::vector<double> column;
    column.reserve(samples.size());
    for (const auto& s : samples) column.push_back(s[t]);
    out.push_back(ts::Quantile(std::move(column), q));
  }
  return out;
}

Result<std::vector<double>> QuantileAggregateRagged(
    const std::vector<std::vector<double>>& samples, double q,
    size_t out_length, bool* held_tail) {
  if (held_tail != nullptr) *held_tail = false;
  if (samples.empty()) {
    return Status::InvalidArgument("no surviving samples to aggregate");
  }
  if (!(q > 0.0 && q < 1.0)) {
    return Status::InvalidArgument(
        StrFormat("quantile %g outside (0, 1)", q));
  }
  if (out_length == 0) {
    return Status::InvalidArgument("requested aggregate length is zero");
  }
  bool any_nonempty = false;
  for (const auto& s : samples) {
    if (!s.empty()) {
      any_nonempty = true;
      break;
    }
  }
  if (!any_nonempty) {
    return Status::InvalidArgument(
        StrFormat("all %zu surviving samples are empty: nothing to "
                  "aggregate",
                  samples.size()));
  }
  std::vector<double> out;
  out.reserve(out_length);
  for (size_t t = 0; t < out_length; ++t) {
    std::vector<double> column;
    column.reserve(samples.size());
    for (const auto& s : samples) {
      if (t < s.size()) column.push_back(s[t]);
    }
    if (column.empty()) {
      if (out.empty()) {
        return Status::InvalidArgument(
            "no sample covers the first timestamp");
      }
      // Hold the last aggregated value: shape is preserved even when
      // every surviving sample was truncated short of the horizon.
      out.push_back(out.back());
      if (held_tail != nullptr) *held_tail = true;
      continue;
    }
    out.push_back(ts::Quantile(std::move(column), q));
  }
  return out;
}

}  // namespace forecast
}  // namespace multicast
