// google-benchmark microbenchmarks for the hot components: tokenizer,
// multiplexers, SAX codec, n-gram LM observe/decode, sampler, and the
// classical baselines' fit paths.

#include <benchmark/benchmark.h>

#include <cmath>

#include "baselines/arima.h"
#include "baselines/ets.h"
#include "baselines/lstm.h"
#include "baselines/sarima.h"
#include "batch/batch_llm.h"
#include "batch/batch_scheduler.h"
#include "data/datasets.h"
#include "forecast/multicast_forecaster.h"
#include "lm/generator.h"
#include "lm/ngram_model.h"
#include "lm/paged_store.h"
#include "lm/prefix_cache.h"
#include "multiplex/multiplexer.h"
#include "sax/sax.h"
#include "scale/scaler.h"
#include "ts/seasonality.h"
#include "token/codec.h"
#include "util/random.h"

namespace multicast {
namespace {

std::string MakeDigitStream(size_t values) {
  Rng rng(7);
  std::string out;
  for (size_t i = 0; i < values; ++i) {
    if (i > 0) out.push_back(',');
    out += token::FixedWidthDigits(rng.NextBounded(100), 2).ValueOrDie();
  }
  return out;
}

void BM_TokenizeDigits(benchmark::State& state) {
  token::Vocabulary vocab = token::Vocabulary::Digits();
  std::string text = MakeDigitStream(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    auto ids = token::Encode(text, vocab);
    benchmark::DoNotOptimize(ids);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(text.size()));
}
BENCHMARK(BM_TokenizeDigits)->Arg(256)->Arg(4096);

void BM_Multiplex(benchmark::State& state) {
  auto kind = static_cast<multiplex::MuxKind>(state.range(0));
  auto mux = multiplex::CreateMultiplexer(kind);
  Rng rng(11);
  multiplex::MuxInput input;
  input.values.resize(3);
  std::vector<int> widths(3, 2);
  for (size_t d = 0; d < 3; ++d) {
    for (int t = 0; t < 512; ++t) {
      input.values[d].push_back(
          token::FixedWidthDigits(rng.NextBounded(100), 2).ValueOrDie());
    }
  }
  for (auto _ : state) {
    auto text = mux->Multiplex(input, widths);
    benchmark::DoNotOptimize(text);
  }
  state.SetLabel(mux->name());
}
BENCHMARK(BM_Multiplex)->Arg(0)->Arg(1)->Arg(2);

void BM_Demultiplex(benchmark::State& state) {
  auto kind = static_cast<multiplex::MuxKind>(state.range(0));
  auto mux = multiplex::CreateMultiplexer(kind);
  Rng rng(11);
  multiplex::MuxInput input;
  input.values.resize(3);
  std::vector<int> widths(3, 2);
  for (size_t d = 0; d < 3; ++d) {
    for (int t = 0; t < 512; ++t) {
      input.values[d].push_back(
          token::FixedWidthDigits(rng.NextBounded(100), 2).ValueOrDie());
    }
  }
  std::string text = mux->Multiplex(input, widths).ValueOrDie();
  for (auto _ : state) {
    auto back = mux->Demultiplex(text, widths, false);
    benchmark::DoNotOptimize(back);
  }
  state.SetLabel(mux->name());
}
BENCHMARK(BM_Demultiplex)->Arg(0)->Arg(1)->Arg(2);

void BM_SaxEncode(benchmark::State& state) {
  Rng rng(13);
  std::vector<double> v;
  for (int i = 0; i < 4096; ++i) {
    v.push_back(std::sin(i * 0.1) + rng.NextGaussian(0.0, 0.2));
  }
  sax::SaxOptions opts;
  opts.segment_length = static_cast<int>(state.range(0));
  opts.alphabet_size = 5;
  auto codec = sax::SaxCodec::Fit(ts::Series(v, "x"), opts).ValueOrDie();
  for (auto _ : state) {
    auto word = codec.Encode(v);
    benchmark::DoNotOptimize(word);
  }
  state.SetItemsProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_SaxEncode)->Arg(3)->Arg(9);

// Prompt ingest, one layer: a prompt-shaped stream (2-digit fields and
// commas, as MultiCast serializes a series) of 1,700 tokens into an
// order-8 model, the Llama2 profile's order. Arguments: `bulk` 0 = one
// Observe per token, 1 = ObserveAll (the bulk build); `base` 0 = a fresh
// model, as a prefix-cache miss builds, 1 = a fork over a frozen base
// that observed another 1,700-token prompt: the ingest a lane makes into
// its prefix-cache fork when it leaves its draw trie (lm::DecodeLane),
// there only the few tokens the trie walk kept back. Reports per_token,
// the time per prompt token; model set-up and teardown are inside the
// timing.
void BM_NGramObserve(benchmark::State& state) {
  constexpr size_t kTokens = 1700;
  const bool bulk = state.range(0) != 0;
  const bool over_base = state.range(1) != 0;
  lm::NGramOptions opts;
  opts.max_order = 8;
  auto pool = std::make_shared<lm::BlockPool>(lm::PagedMemoryOptions{});
  const token::Vocabulary vocab = token::Vocabulary::Digits();
  auto prompt_tokens = [&](uint64_t seed) {
    Rng rng(seed);
    std::string text;
    while (text.size() < kTokens) {
      text += token::FixedWidthDigits(rng.NextBounded(100), 2).ValueOrDie();
      text.push_back(',');
    }
    text.resize(kTokens);
    return token::Encode(text, vocab).ValueOrDie();
  };
  const std::vector<token::TokenId> tokens = prompt_tokens(17);
  lm::NGramLanguageModel base(vocab.size(), opts, pool);
  base.ObserveAll(prompt_tokens(18));
  base.Freeze();
  for (auto _ : state) {
    std::unique_ptr<lm::NGramLanguageModel> model =
        over_base ? base.Fork()
                  : std::make_unique<lm::NGramLanguageModel>(vocab.size(),
                                                             opts, pool);
    if (bulk) {
      model->ObserveAll(tokens);
    } else {
      for (token::TokenId id : tokens) model->Observe(id);
    }
    benchmark::DoNotOptimize(model->context_length());
  }
  state.counters["per_token"] = benchmark::Counter(
      static_cast<double>(kTokens),
      benchmark::Counter::kIsIterationInvariantRate |
          benchmark::Counter::kInvert);
}
BENCHMARK(BM_NGramObserve)
    ->ArgNames({"bulk", "base"})
    ->ArgsProduct({{0, 1}, {0, 1}});

void BM_NGramNextDistribution(benchmark::State& state) {
  lm::NGramOptions opts;
  opts.max_order = 10;
  lm::NGramLanguageModel model(11, opts);
  Rng rng(19);
  for (int i = 0; i < 2048; ++i) {
    model.Observe(static_cast<token::TokenId>(rng.NextBounded(11)));
  }
  for (auto _ : state) {
    auto probs = model.NextDistribution();
    benchmark::DoNotOptimize(probs);
  }
}
BENCHMARK(BM_NGramNextDistribution);

void BM_LlmDecodeTokens(benchmark::State& state) {
  lm::ModelProfile profile = lm::ModelProfile::Llama2_7B();
  profile.memory_pool =
      std::make_shared<lm::BlockPool>(lm::PagedMemoryOptions{});
  lm::SimulatedLlm llm(profile, 11);
  std::string prompt_text = MakeDigitStream(256) + ",";
  auto prompt =
      token::Encode(prompt_text, token::Vocabulary::Digits()).ValueOrDie();
  lm::GrammarMask mask = lm::AllowAll(11);
  Rng rng(23);
  for (auto _ : state) {
    auto gen = llm.Complete(prompt, 64, mask, &rng);
    benchmark::DoNotOptimize(gen);
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_LlmDecodeTokens);

// MultiCast's grammar for values of b = 2 digits: two digits, then the
// separator, the one token its position allows.
lm::GrammarMask SeparatorMask() {
  const token::TokenId comma =
      token::Vocabulary::Digits().CommaId().ValueOrDie();
  std::vector<bool> digits(11, true);
  digits[static_cast<size_t>(comma)] = false;
  std::vector<bool> separator(11, false);
  separator[static_cast<size_t>(comma)] = true;
  auto digit_pos = std::make_shared<const std::vector<bool>>(digits);
  auto separator_pos = std::make_shared<const std::vector<bool>>(separator);
  return lm::GrammarMask(
      [digit_pos, separator_pos](size_t step) {
        return step % 3 == 2 ? separator_pos : digit_pos;
      },
      /*period=*/3);
}

// The pipelines' decode shape: the prompt is a prefix-cache full hit, so
// each call forks the frozen prompt state and decodes 64 tokens on the
// fork's overlay (copy-on-first-touch from the shared frozen base).
// `structured` 0: a 256-value prompt, every token allowed. 1: MultiCast's
// separator grammar over a 1,365-value (4,095-token) prompt, whose
// frozen store does not fit in L2.
void BM_LlmDecodeForked(benchmark::State& state) {
  const bool structured = state.range(0) != 0;
  lm::ModelProfile profile = lm::ModelProfile::Llama2_7B();
  profile.memory_pool =
      std::make_shared<lm::BlockPool>(lm::PagedMemoryOptions{});
  lm::SimulatedLlm llm(profile, 11, std::make_shared<lm::PrefixCache>(4));
  std::string prompt_text = MakeDigitStream(structured ? 1365 : 256) + ",";
  auto prompt =
      token::Encode(prompt_text, token::Vocabulary::Digits()).ValueOrDie();
  lm::GrammarMask mask = structured ? SeparatorMask() : lm::AllowAll(11);
  if (!llm.WarmPrefix(prompt).ok()) {
    state.SkipWithError("warming the prefix cache failed");
    return;
  }
  Rng rng(29);
  for (auto _ : state) {
    auto gen = llm.Complete(prompt, 64, mask, &rng);
    benchmark::DoNotOptimize(gen);
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_LlmDecodeForked)->ArgName("structured")->Arg(0)->Arg(1);

// BM_LlmDecodeForked/structured:1 decoded through batch::BatchLlm on a
// scheduler that only ever holds this one job: the difference between
// the two is the scheduler's cost per decoded token.
void BM_LlmDecodeBatched(benchmark::State& state) {
  lm::ModelProfile profile = lm::ModelProfile::Llama2_7B();
  profile.memory_pool =
      std::make_shared<lm::BlockPool>(lm::PagedMemoryOptions{});
  auto cache = std::make_shared<lm::PrefixCache>(4);
  lm::SimulatedLlm warmer(profile, 11, cache);
  batch::BatchLlm llm(profile, 11, std::make_shared<batch::BatchScheduler>(),
                      cache);
  std::string prompt_text = MakeDigitStream(1365) + ",";
  auto prompt =
      token::Encode(prompt_text, token::Vocabulary::Digits()).ValueOrDie();
  lm::GrammarMask mask = SeparatorMask();
  if (!warmer.WarmPrefix(prompt).ok()) {
    state.SkipWithError("warming the prefix cache failed");
    return;
  }
  Rng rng(29);
  for (auto _ : state) {
    auto gen = llm.Complete(prompt, 64, mask, &rng);
    benchmark::DoNotOptimize(gen);
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_LlmDecodeBatched);

void BM_MultiCastForecast(benchmark::State& state) {
  ts::Frame frame = data::MakeGasRate().ValueOrDie();
  ts::Frame history = frame.Head(236);
  forecast::MultiCastOptions opts;
  opts.num_samples = 1;
  for (auto _ : state) {
    forecast::MultiCastForecaster f(opts);
    auto result = f.Forecast(history, 60);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_MultiCastForecast);

// Table VII's sweep: one MultiCast (DI) forecast of Gas Rate with n =
// 5, 10 and 20 samples on a warm prefix cache. Items are draws. The
// draws of a forecast share the distributions of the prefixes they
// agree on (DESIGN.md §5m), so the time per draw falls as n grows;
// BM_MultiCastDrawsBatched runs the same draws as lanes of a
// BatchScheduler, which walk the same trie inside the scheduler's step;
// BM_MultiCastDrawsUnshared decodes them through an external backend,
// which has no draw trie, and so costs about the same per draw at every
// n.
enum class DrawPath { kShared, kBatched, kUnshared };
void MultiCastDraws(benchmark::State& state, DrawPath path) {
  ts::Frame history = data::MakeGasRate().ValueOrDie().Head(236);
  forecast::MultiCastOptions opts;
  opts.num_samples = static_cast<int>(state.range(0));
  opts.block_pool = std::make_shared<lm::BlockPool>(lm::PagedMemoryOptions{});
  lm::ModelProfile profile = opts.profile;
  profile.memory_pool = opts.block_pool;
  lm::SimulatedLlm external(profile, token::Vocabulary::Digits().size(),
                            std::make_shared<lm::PrefixCache>(4));
  if (path == DrawPath::kBatched) {
    opts.batch_scheduler = std::make_shared<batch::BatchScheduler>();
  }
  if (path == DrawPath::kUnshared) opts.backend = &external;
  forecast::MultiCastForecaster forecaster(opts);
  for (auto _ : state) {
    auto result = forecaster.Forecast(history, 24);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
void BM_MultiCastDraws(benchmark::State& state) {
  MultiCastDraws(state, DrawPath::kShared);
}
void BM_MultiCastDrawsBatched(benchmark::State& state) {
  MultiCastDraws(state, DrawPath::kBatched);
}
void BM_MultiCastDrawsUnshared(benchmark::State& state) {
  MultiCastDraws(state, DrawPath::kUnshared);
}
BENCHMARK(BM_MultiCastDraws)->Arg(5)->Arg(10)->Arg(20);
BENCHMARK(BM_MultiCastDrawsBatched)->Arg(5)->Arg(10)->Arg(20);
BENCHMARK(BM_MultiCastDrawsUnshared)->Arg(5)->Arg(10)->Arg(20);

void BM_ArimaFit(benchmark::State& state) {
  ts::Frame frame = data::MakeGasRate().ValueOrDie();
  const std::vector<double>& v = frame.dim(1).values();
  baselines::ArimaOptions opts;
  for (auto _ : state) {
    auto model = baselines::ArimaModel::Fit(v, opts);
    benchmark::DoNotOptimize(model);
  }
}
BENCHMARK(BM_ArimaFit);

void BM_LstmEpoch(benchmark::State& state) {
  baselines::LstmOptions opts;
  opts.hidden_units = static_cast<int>(state.range(0));
  opts.seed = 3;
  baselines::LstmNetwork net(2, 2, opts);
  Rng rng(29);
  std::vector<std::vector<std::vector<double>>> windows;
  std::vector<std::vector<double>> targets;
  for (int s = 0; s < 16; ++s) {
    std::vector<std::vector<double>> w;
    for (int t = 0; t < 12; ++t) {
      w.push_back({rng.NextGaussian(), rng.NextGaussian()});
    }
    windows.push_back(w);
    targets.push_back({rng.NextGaussian(), rng.NextGaussian()});
  }
  for (auto _ : state) {
    auto loss = net.TrainBatch(windows, targets, &rng);
    benchmark::DoNotOptimize(loss);
  }
}
BENCHMARK(BM_LstmEpoch)->Arg(32)->Arg(128);

void BM_SarimaFit(benchmark::State& state) {
  ts::Frame frame = data::MakeWeather().ValueOrDie();
  const std::vector<double>& v = frame.dim(0).values();
  baselines::SarimaOptions opts;
  opts.period = 12;
  for (auto _ : state) {
    auto model = baselines::SarimaModel::Fit(v, opts);
    benchmark::DoNotOptimize(model);
  }
}
BENCHMARK(BM_SarimaFit);

void BM_EtsFit(benchmark::State& state) {
  ts::Frame frame = data::MakeElectricity().ValueOrDie();
  const std::vector<double>& v = frame.dim(0).values();
  baselines::EtsOptions opts;
  opts.season_length = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    auto model = baselines::EtsModel::Fit(v, opts);
    benchmark::DoNotOptimize(model);
  }
  state.SetLabel(state.range(0) == 0 ? "non-seasonal" : "seasonal");
}
BENCHMARK(BM_EtsFit)->Arg(0)->Arg(12);

void BM_SeasonalityDetect(benchmark::State& state) {
  ts::Frame frame = data::MakeWeather().ValueOrDie();
  for (auto _ : state) {
    auto s = ts::DetectSeasonality(frame.dim(0));
    benchmark::DoNotOptimize(s);
  }
}
BENCHMARK(BM_SeasonalityDetect);

void BM_ScalerRoundTrip(benchmark::State& state) {
  ts::Frame frame = data::MakeWeather().ValueOrDie();
  const std::vector<double>& v = frame.dim(0).values();
  scale::ScalerOptions opts;
  auto params = scale::FitScaler(frame.dim(0), opts).ValueOrDie();
  for (auto _ : state) {
    auto scaled = scale::ScaleValues(v, params);
    auto back = scale::DescaleValues(scaled, params);
    benchmark::DoNotOptimize(back);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(v.size()));
}
BENCHMARK(BM_ScalerRoundTrip);

}  // namespace
}  // namespace multicast

BENCHMARK_MAIN();
