#include "forecast/multicast_forecaster.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "batch/batch_scheduler.h"
#include "forecast/llmtime_forecaster.h"
#include "lm/generator.h"
#include "metrics/metrics.h"
#include "token/vocabulary.h"
#include "util/metrics.h"
#include "util/random.h"
#include "ts/split.h"

namespace multicast {
namespace forecast {
namespace {

// A strongly periodic, correlated 2-D frame the pattern model can nail.
ts::Frame PeriodicFrame(size_t n) {
  std::vector<double> a(n), b(n);
  for (size_t i = 0; i < n; ++i) {
    double phase = 2.0 * M_PI * static_cast<double>(i) / 12.0;
    a[i] = 10.0 + 5.0 * std::sin(phase);
    b[i] = 50.0 - 20.0 * std::sin(phase);  // anti-correlated twin
  }
  return ts::Frame::FromSeries({ts::Series(a, "a"), ts::Series(b, "b")},
                               "periodic")
      .ValueOrDie();
}

TEST(MedianAggregateTest, MedianPerTimestamp) {
  auto r = MedianAggregate({{1.0, 10.0}, {3.0, 30.0}, {2.0, 20.0}});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), (std::vector<double>{2.0, 20.0}));
}

TEST(MedianAggregateTest, SingleSampleIsIdentity) {
  auto r = MedianAggregate({{5.0, 6.0}});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), (std::vector<double>{5.0, 6.0}));
}

TEST(MedianAggregateTest, RejectsBadShapes) {
  EXPECT_FALSE(MedianAggregate({}).ok());
  EXPECT_FALSE(MedianAggregate({{1.0}, {1.0, 2.0}}).ok());
}

TEST(MedianAggregateTest, RobustToOneWildSample) {
  auto r = MedianAggregate({{1.0}, {1.1}, {900.0}});
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r.value()[0], 1.1, 1e-12);
}

class MuxVariantTest : public testing::TestWithParam<multiplex::MuxKind> {};

TEST_P(MuxVariantTest, ShapeAndNames) {
  MultiCastOptions opts;
  opts.mux = GetParam();
  opts.num_samples = 3;
  MultiCastForecaster f(opts);
  ts::Frame frame = PeriodicFrame(96);
  auto result = f.Forecast(frame, 12);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.value().forecast.num_dims(), 2u);
  EXPECT_EQ(result.value().forecast.length(), 12u);
  EXPECT_EQ(result.value().forecast.dim(0).name(), "a");
  EXPECT_EQ(result.value().forecast.dim(1).name(), "b");
  EXPECT_GT(result.value().ledger.prompt_tokens, 0u);
  EXPECT_GT(result.value().ledger.generated_tokens, 0u);
}

TEST_P(MuxVariantTest, TracksPeriodicSignal) {
  MultiCastOptions opts;
  opts.mux = GetParam();
  opts.num_samples = 5;
  MultiCastForecaster f(opts);
  ts::Frame frame = PeriodicFrame(96);
  auto split = ts::SplitHorizon(frame, 12).ValueOrDie();
  auto result = f.Forecast(split.train, 12);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // RMSE well under the signal amplitude on each dimension.
  auto rmse0 = metrics::Rmse(split.test.dim(0).values(),
                             result.value().forecast.dim(0).values());
  auto rmse1 = metrics::Rmse(split.test.dim(1).values(),
                             result.value().forecast.dim(1).values());
  ASSERT_TRUE(rmse0.ok());
  ASSERT_TRUE(rmse1.ok());
  EXPECT_LT(rmse0.value(), 2.5) << "amplitude 5";
  EXPECT_LT(rmse1.value(), 10.0) << "amplitude 20";
}

TEST_P(MuxVariantTest, DeterministicForSameSeed) {
  MultiCastOptions opts;
  opts.mux = GetParam();
  opts.num_samples = 2;
  opts.seed = 99;
  ts::Frame frame = PeriodicFrame(60);
  MultiCastForecaster f1(opts), f2(opts);
  auto r1 = f1.Forecast(frame, 6);
  auto r2 = f2.Forecast(frame, 6);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  for (size_t d = 0; d < 2; ++d) {
    EXPECT_EQ(r1.value().forecast.dim(d).values(),
              r2.value().forecast.dim(d).values());
  }
}

TEST_P(MuxVariantTest, PagedMemoryIsBitIdentical) {
  // The block geometry and the pool's owner must never change an
  // output: same forecast, same bands, same ledger. The baseline runs on
  // a caller's pool of span 32; the other builds its own pool of span
  // 16.
  MultiCastOptions base;
  lm::PagedMemoryOptions popts;
  popts.block_span = 32;
  base.block_pool = std::make_shared<lm::BlockPool>(popts);
  base.mux = GetParam();
  base.num_samples = 4;
  base.seed = 7;
  base.quantiles = {0.1, 0.9};
  ts::Frame frame = PeriodicFrame(72);
  auto baseline = MultiCastForecaster(base).Forecast(frame, 8);
  ASSERT_TRUE(baseline.ok());
  EXPECT_GT(base.block_pool->stats().blocks_peak, 0u);
  MultiCastOptions paged = base;
  paged.block_pool = nullptr;
  paged.block_span = 16;
  MultiCastForecaster f(paged);
  ASSERT_NE(f.block_pool(), base.block_pool);
  auto result = f.Forecast(frame, 8);
  ASSERT_TRUE(result.ok());
  for (size_t d = 0; d < 2; ++d) {
    EXPECT_EQ(baseline.value().forecast.dim(d).values(),
              result.value().forecast.dim(d).values());
    ASSERT_EQ(baseline.value().quantile_bands.size(),
              result.value().quantile_bands.size());
    for (size_t q = 0; q < baseline.value().quantile_bands.size(); ++q) {
      EXPECT_EQ(baseline.value().quantile_bands[q].second.dim(d).values(),
                result.value().quantile_bands[q].second.dim(d).values());
    }
  }
  EXPECT_EQ(baseline.value().ledger.total(), result.value().ledger.total());
  // The pipeline really exercised the pool.
  EXPECT_GT(f.block_pool()->stats().blocks_peak, 0u);
  EXPECT_GT(f.block_pool()->stats().sessions, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, MuxVariantTest,
    testing::Values(multiplex::MuxKind::kDigitInterleave,
                    multiplex::MuxKind::kValueInterleave,
                    multiplex::MuxKind::kValueConcat),
    [](const testing::TestParamInfo<multiplex::MuxKind>& info) {
      return multiplex::MuxKindName(info.param);
    });

TEST(MultiCastForecasterTest, NamesFollowPaper) {
  MultiCastOptions opts;
  opts.mux = multiplex::MuxKind::kDigitInterleave;
  EXPECT_EQ(MultiCastForecaster(opts).name(), "MultiCast (DI)");
  opts.mux = multiplex::MuxKind::kValueInterleave;
  EXPECT_EQ(MultiCastForecaster(opts).name(), "MultiCast (VI)");
  opts.quantization = Quantization::kSaxAlphabetic;
  EXPECT_EQ(MultiCastForecaster(opts).name(), "MultiCast SAX (alphabetical)");
  opts.quantization = Quantization::kSaxDigital;
  EXPECT_EQ(MultiCastForecaster(opts).name(), "MultiCast SAX (digital)");
}

TEST(MultiCastForecasterTest, RejectsBadArguments) {
  MultiCastForecaster f(MultiCastOptions{});
  ts::Frame frame = PeriodicFrame(48);
  EXPECT_FALSE(f.Forecast(frame, 0).ok());
  EXPECT_FALSE(f.Forecast(frame.Head(2), 4).ok());
  MultiCastOptions bad;
  bad.num_samples = 0;
  EXPECT_FALSE(MultiCastForecaster(bad).Forecast(frame, 4).ok());
}

TEST(MultiCastForecasterTest, TokenCostScalesWithSamples) {
  ts::Frame frame = PeriodicFrame(72);
  auto total_for = [&](int samples) {
    MultiCastOptions opts;
    opts.num_samples = samples;
    MultiCastForecaster f(opts);
    return f.Forecast(frame, 8).ValueOrDie().ledger.total();
  };
  size_t t5 = total_for(5);
  size_t t10 = total_for(10);
  EXPECT_EQ(t10, 2 * t5);  // Table VII: time doubles with samples
}

// PeriodicFrame plus seeded noise: draws agree on some prefixes and
// part ways after others.
ts::Frame NoisyFrame(size_t n) {
  Rng rng(23);
  std::vector<double> a(n), b(n);
  for (size_t i = 0; i < n; ++i) {
    double phase = 2.0 * M_PI * static_cast<double>(i) / 12.0;
    a[i] = 10.0 + 5.0 * std::sin(phase) + rng.NextGaussian(0.0, 1.5);
    b[i] = 50.0 - 20.0 * std::sin(phase) + rng.NextGaussian(0.0, 4.0);
  }
  return ts::Frame::FromSeries({ts::Series(a, "a"), ts::Series(b, "b")},
                               "noisy")
      .ValueOrDie();
}

// Everything a forecast reports that its draws decide.
void ExpectSameForecast(const Result<ForecastResult>& want,
                        const Result<ForecastResult>& got) {
  ASSERT_EQ(want.ok(), got.ok()) << want.status().ToString() << " vs "
                                 << got.status().ToString();
  if (!want.ok()) {
    EXPECT_EQ(want.status().ToString(), got.status().ToString());
    return;
  }
  const ForecastResult& a = want.value();
  const ForecastResult& b = got.value();
  ASSERT_EQ(a.forecast.num_dims(), b.forecast.num_dims());
  for (size_t d = 0; d < a.forecast.num_dims(); ++d) {
    EXPECT_EQ(a.forecast.dim(d).values(), b.forecast.dim(d).values());
  }
  ASSERT_EQ(a.quantile_bands.size(), b.quantile_bands.size());
  for (size_t q = 0; q < a.quantile_bands.size(); ++q) {
    EXPECT_EQ(a.quantile_bands[q].first, b.quantile_bands[q].first);
    for (size_t d = 0; d < a.forecast.num_dims(); ++d) {
      EXPECT_EQ(a.quantile_bands[q].second.dim(d).values(),
                b.quantile_bands[q].second.dim(d).values());
    }
  }
  EXPECT_EQ(a.warnings, b.warnings);
  EXPECT_EQ(a.degraded, b.degraded);
  EXPECT_EQ(a.ledger.prompt_tokens, b.ledger.prompt_tokens);
  EXPECT_EQ(a.ledger.generated_tokens, b.ledger.generated_tokens);
  EXPECT_EQ(a.samples_requested, b.samples_requested);
  EXPECT_EQ(a.samples_used, b.samples_used);
  EXPECT_EQ(a.virtual_seconds, b.virtual_seconds);
  EXPECT_EQ(a.retry_stats.calls, b.retry_stats.calls);
  EXPECT_EQ(a.retry_stats.attempts, b.retry_stats.attempts);
  EXPECT_EQ(a.retry_stats.retries, b.retry_stats.retries);
  EXPECT_EQ(a.retry_stats.circuit_rejections,
            b.retry_stats.circuit_rejections);
  EXPECT_EQ(a.retry_stats.backoff_seconds, b.retry_stats.backoff_seconds);
}

// Draws on the internal simulated decoder share one draw trie per
// forecast (lm::DrawTrie), run to completion or as lanes of a batch
// scheduler; an external SimulatedLlm decodes every draw in full. The
// two must agree on every pipeline, sample count, cache setting and
// batch size (no scheduler, one slot, eight), clean and
// under chaos with retries and redraws.
TEST(MultiCastForecasterTest, SharedPrefixDrawsMatchUnsharedDecode) {
  const ts::Frame frame = NoisyFrame(60);
  const size_t horizon = 7;
  struct Pipeline {
    std::string name;
    Quantization quantization;
    multiplex::MuxKind mux;
    size_t vocab;
  };
  const std::vector<Pipeline> pipelines = {
      {"DI", Quantization::kNone, multiplex::MuxKind::kDigitInterleave, 11},
      {"VI", Quantization::kNone, multiplex::MuxKind::kValueInterleave, 11},
      {"VC", Quantization::kNone, multiplex::MuxKind::kValueConcat, 11},
      {"SAX-alpha", Quantization::kSaxAlphabetic,
       multiplex::MuxKind::kValueInterleave,
       token::Vocabulary::SaxAlphabetic(5).ValueOrDie().size()},
      {"SAX-digit", Quantization::kSaxDigital,
       multiplex::MuxKind::kDigitInterleave,
       token::Vocabulary::SaxDigital(5).ValueOrDie().size()},
      {"LLMTime", Quantization::kNone, multiplex::MuxKind::kValueConcat, 11},
  };
  for (const Pipeline& pipeline : pipelines) {
    for (int samples : {1, 5, 20}) {
      for (bool cached : {true, false}) {
        for (bool chaos : {false, true}) {
          SCOPED_TRACE(pipeline.name + " n=" + std::to_string(samples) +
                       (cached ? " cached" : " uncached") +
                       (chaos ? " chaos" : ""));
          const lm::ModelProfile profile = lm::ModelProfile::Llama2_7B();
          lm::SimulatedLlm unshared(profile, pipeline.vocab);
          ResilienceConfig resilience;
          lm::FaultProfile faults;
          if (chaos) {
            faults = lm::FaultProfile::Chaos(0.2, 99);
            resilience.retries_enabled = true;
            resilience.retry.max_attempts = 3;
            resilience.max_redraws = 4;
          }
          // One forecast per batch setting (0: no scheduler); `backend`
          // set decodes through it instead.
          auto forecast = [&](size_t max_batch, lm::LlmBackend* backend) {
            std::shared_ptr<batch::BatchScheduler> scheduler;
            if (max_batch > 0) {
              batch::BatchPolicy policy;
              policy.max_batch = max_batch;
              scheduler = std::make_shared<batch::BatchScheduler>(policy);
            }
            if (pipeline.name == "LLMTime") {
              LlmTimeOptions opts;
              opts.num_samples = samples;
              opts.faults = faults;
              opts.resilience = resilience;
              opts.prefix_cache_capacity = cached ? 64 : 0;
              opts.batch_scheduler = scheduler;
              opts.backend = backend;
              return LlmTimeForecaster(opts).Forecast(frame, horizon);
            }
            MultiCastOptions opts;
            opts.quantization = pipeline.quantization;
            opts.mux = pipeline.mux;
            opts.num_samples = samples;
            opts.quantiles = {0.1, 0.9};
            opts.faults = faults;
            opts.resilience = resilience;
            opts.prefix_cache_capacity = cached ? 64 : 0;
            opts.batch_scheduler = scheduler;
            opts.backend = backend;
            return MultiCastForecaster(opts).Forecast(frame, horizon);
          };
          const Result<ForecastResult> want = forecast(0, &unshared);
          for (size_t max_batch : {0, 1, 8}) {
            SCOPED_TRACE("max_batch=" + std::to_string(max_batch));
            ExpectSameForecast(want, forecast(max_batch, nullptr));
          }
        }
      }
    }
  }
}

// A caller's prefix cache keeps one draw trie per prompt, which every
// later request for the prompt walks and extends. A request over a trie
// other requests filled must equal the same request decoded cold (a
// fresh cache, and no trie but its own) in forecasts, bands, warnings,
// ledgers and virtual time; and the cache's counters after every
// request must equal those of the same sequence with cache_draw_tries
// off. The sequence runs one prompt into its trie's byte budget, then
// three prompts through a two-entry cache (evictions), run to
// completion and in a batch scheduler whose decode steps Clear() the
// cache every so often, mid-forecast.
TEST(MultiCastForecasterTest, CacheDrawTriesMatchColdForecasts) {
  const std::vector<ts::Frame> frames = {NoisyFrame(60), NoisyFrame(72),
                                         PeriodicFrame(60)};
  const size_t horizon = 7;
  struct Request {
    size_t frame;
    uint64_t seed;
    int samples;
  };
  std::vector<Request> requests;
  const size_t one_prompt = 12;  // requests before the second prompt's
  for (uint64_t k = 0; k < one_prompt; ++k) {
    requests.push_back({0, 100 + k, 20});
  }
  for (uint64_t k = 0; k < 18; ++k) {
    requests.push_back({k % 3, 200 + k, k % 4 == 3 ? 1 : 5});
  }
  auto options = [&](const Request& r) {
    MultiCastOptions opts;
    opts.mux = multiplex::MuxKind::kValueInterleave;
    opts.num_samples = r.samples;
    opts.seed = r.seed;
    opts.quantiles = {0.1, 0.9};
    // Hotter than the profile's default, so that draws part ways often
    // and the first prompt's trie reaches its budget.
    opts.profile.sampler.temperature = 1.0;
    return opts;
  };
  auto forecast = [&](const MultiCastOptions& opts, const Request& r) {
    VirtualClock clock;
    RequestContext ctx;
    ctx.clock = &clock;
    return MultiCastForecaster(opts).Forecast(frames[r.frame], horizon, ctx);
  };
  std::vector<Result<ForecastResult>> cold;
  for (const Request& r : requests) cold.push_back(forecast(options(r), r));

  for (bool batched : {false, true}) {
    SCOPED_TRACE(batched ? "batched" : "run to completion");
    std::vector<lm::PrefixCacheStats> want_stats;
    for (bool cache_tries : {false, true}) {
      SCOPED_TRACE(cache_tries ? "cache tries" : "per-forecast tries");
      auto cache = std::make_shared<lm::PrefixCache>(2);
      std::shared_ptr<batch::BatchScheduler> scheduler;
      size_t steps = 0;
      if (batched) {
        batch::BatchPolicy policy;
        policy.max_batch = 4;
        policy.on_step = [&](size_t) {
          if (++steps % 997 == 0) cache->Clear();
        };
        scheduler = std::make_shared<batch::BatchScheduler>(policy);
      }
      // The most nodes the cache's tries held while only the first
      // prompt had one.
      size_t one_prompt_nodes = 0;
      for (size_t i = 0; i < requests.size(); ++i) {
        SCOPED_TRACE("request " + std::to_string(i));
        MultiCastOptions opts = options(requests[i]);
        opts.shared_prefix_cache = cache;
        opts.cache_draw_tries = cache_tries;
        opts.batch_scheduler = scheduler;
        ExpectSameForecast(cold[i], forecast(opts, requests[i]));
        if (cache_tries) {
          EXPECT_EQ(cache->stats().lookups, want_stats[i].lookups);
          EXPECT_EQ(cache->stats().full_hits, want_stats[i].full_hits);
          EXPECT_EQ(cache->stats().misses, want_stats[i].misses);
          EXPECT_EQ(cache->stats().insertions, want_stats[i].insertions);
          EXPECT_EQ(cache->stats().evictions, want_stats[i].evictions);
          EXPECT_EQ(cache->stats().prompt_tokens_replayed,
                    want_stats[i].prompt_tokens_replayed);
          if (i < one_prompt) {
            one_prompt_nodes =
                std::max(one_prompt_nodes, cache->draw_tries().nodes);
          }
        } else {
          want_stats.push_back(cache->stats());
          EXPECT_EQ(cache->draw_tries().nodes, 0u);
        }
      }
      if (cache_tries) {
        // The budget was reached: VI nodes of 16 header bytes and ten
        // running sums.
        EXPECT_EQ(one_prompt_nodes,
                  lm::kCacheDrawTrieBytes / (16 + 10 * sizeof(double)));
        EXPECT_GT(cache->draw_tries().steps, 0u);
        EXPECT_GT(want_stats.back().evictions, 0u);
      }
      if (batched) {
        EXPECT_GT(steps, 997u);  // Clear() fired mid-run
      }
    }
  }
}

// Forecasts on several threads over one cached prompt share its trie:
// they walk it while others publish into it, and another thread reads
// the cache's bytes and metrics meanwhile. Each must equal its cold
// forecast. (Run under TSan in CI.)
TEST(MultiCastForecasterTest, ConcurrentForecastsShareOneCacheTrie) {
  const ts::Frame frame = NoisyFrame(60);
  const size_t horizon = 7;
  const int threads = 4;
  const int per_thread = 5;
  auto options = [](uint64_t seed) {
    MultiCastOptions opts;
    opts.mux = multiplex::MuxKind::kValueInterleave;
    opts.num_samples = 5;
    opts.seed = seed;
    return opts;
  };
  for (bool batched : {false, true}) {
    SCOPED_TRACE(batched ? "batched" : "run to completion");
    auto cache = std::make_shared<lm::PrefixCache>(4);
    std::shared_ptr<batch::BatchScheduler> scheduler;
    if (batched) {
      batch::BatchPolicy policy;
      policy.max_batch = 4;
      scheduler = std::make_shared<batch::BatchScheduler>(policy);
    }
    std::vector<Result<ForecastResult>> got(
        threads * per_thread, Status::Internal("not run"));
    std::vector<std::thread> workers;
    for (int t = 0; t < threads; ++t) {
      workers.emplace_back([&, t] {
        for (int k = 0; k < per_thread; ++k) {
          MultiCastOptions opts = options(
              static_cast<uint64_t>(t * per_thread + k));
          opts.shared_prefix_cache = cache;
          opts.batch_scheduler = scheduler;
          got[static_cast<size_t>(t * per_thread + k)] =
              MultiCastForecaster(opts).Forecast(frame, horizon);
        }
      });
    }
    std::atomic<bool> done{false};
    size_t reads = 0;
    std::thread reader([&] {
      util::MetricsRegistry registry;
      do {
        cache->PublishMetrics(&registry);
        ++reads;
      } while (!done.load());
    });
    for (std::thread& w : workers) w.join();
    done.store(true);
    reader.join();
    EXPECT_GT(reads, 0u);
    for (int i = 0; i < threads * per_thread; ++i) {
      SCOPED_TRACE("request " + std::to_string(i));
      ExpectSameForecast(
          MultiCastForecaster(options(static_cast<uint64_t>(i)))
              .Forecast(frame, horizon),
          got[static_cast<size_t>(i)]);
    }
    EXPECT_GT(cache->draw_tries().nodes, 0u);
    EXPECT_GT(cache->draw_tries().steps, 0u);
  }
}

TEST(MultiCastForecasterTest, SaxUsesFarFewerTokens) {
  ts::Frame frame = PeriodicFrame(96);
  MultiCastOptions raw;
  raw.num_samples = 3;
  MultiCastOptions sax = raw;
  sax.quantization = Quantization::kSaxAlphabetic;
  sax.sax_segment_length = 6;
  size_t raw_total =
      MultiCastForecaster(raw).Forecast(frame, 12).ValueOrDie().ledger
          .total();
  size_t sax_total =
      MultiCastForecaster(sax).Forecast(frame, 12).ValueOrDie().ledger
          .total();
  // Tables VIII/IX: SAX shrinks cost by roughly an order of magnitude
  // (the exact factor is ~ segment_length * (b + 1) / 2 here).
  EXPECT_LE(sax_total * 8, raw_total);
}

TEST(MultiCastForecasterTest, SaxAlphabeticForecastWorks) {
  MultiCastOptions opts;
  opts.quantization = Quantization::kSaxAlphabetic;
  opts.sax_segment_length = 3;
  opts.sax_alphabet_size = 5;
  opts.num_samples = 3;
  MultiCastForecaster f(opts);
  ts::Frame frame = PeriodicFrame(96);
  auto result = f.Forecast(frame, 12);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.value().forecast.length(), 12u);
  // Forecast stays within a sane band around the signal range.
  for (size_t t = 0; t < 12; ++t) {
    EXPECT_GT(result.value().forecast.at(0, t), 0.0);
    EXPECT_LT(result.value().forecast.at(0, t), 25.0);
  }
}

TEST(MultiCastForecasterTest, SaxDigitalForecastWorks) {
  MultiCastOptions opts;
  opts.quantization = Quantization::kSaxDigital;
  opts.sax_segment_length = 3;
  opts.sax_alphabet_size = 5;
  opts.num_samples = 3;
  MultiCastForecaster f(opts);
  auto result = f.Forecast(PeriodicFrame(96), 12);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.value().forecast.length(), 12u);
}

TEST(MultiCastForecasterTest, SaxDigitalAlphabet20Rejected) {
  // Table IX's N/A cell.
  MultiCastOptions opts;
  opts.quantization = Quantization::kSaxDigital;
  opts.sax_alphabet_size = 20;
  MultiCastForecaster f(opts);
  EXPECT_FALSE(f.Forecast(PeriodicFrame(96), 6).ok());
}

TEST(MultiCastForecasterTest, HorizonNotMultipleOfSegmentLength) {
  MultiCastOptions opts;
  opts.quantization = Quantization::kSaxAlphabetic;
  opts.sax_segment_length = 6;
  opts.num_samples = 2;
  MultiCastForecaster f(opts);
  auto result = f.Forecast(PeriodicFrame(96), 8);  // 8 % 6 != 0
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.value().forecast.length(), 8u);
}

TEST(QuantileAggregateTest, MatchesTsQuantile) {
  std::vector<std::vector<double>> samples = {
      {1.0, 10.0}, {2.0, 20.0}, {3.0, 30.0}, {4.0, 40.0}};
  auto lo = QuantileAggregate(samples, 0.25).ValueOrDie();
  auto hi = QuantileAggregate(samples, 0.75).ValueOrDie();
  EXPECT_DOUBLE_EQ(lo[0], 1.75);
  EXPECT_DOUBLE_EQ(hi[1], 32.5);
  EXPECT_FALSE(QuantileAggregate(samples, 0.0).ok());
  EXPECT_FALSE(QuantileAggregate(samples, 1.0).ok());
  EXPECT_FALSE(QuantileAggregate({}, 0.5).ok());
}

TEST(QuantileAggregateTest, AllEmptySamplesRejected) {
  std::vector<std::vector<double>> samples = {{}, {}, {}};
  auto r = QuantileAggregate(samples, 0.5);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().message().find("empty"), std::string::npos);
}

TEST(QuantileAggregateRaggedTest, ZeroSamplesRejected) {
  auto r = QuantileAggregateRagged({}, 0.5, 4);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().message().find("no surviving samples"),
            std::string::npos);
}

TEST(QuantileAggregateRaggedTest, AllEmptySamplesRejected) {
  std::vector<std::vector<double>> samples = {{}, {}};
  auto r = QuantileAggregateRagged(samples, 0.5, 4);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().message().find("empty"), std::string::npos);
}

TEST(QuantileAggregateRaggedTest, ZeroOutLengthRejected) {
  std::vector<std::vector<double>> samples = {{1.0, 2.0}};
  auto r = QuantileAggregateRagged(samples, 0.5, 0);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().message().find("length is zero"), std::string::npos);
}

TEST(QuantileAggregateRaggedTest, HoldsLastValueBeyondCoverage) {
  // One sample reaches t=2, the other stops at t=1; t=3 has no coverage
  // at all and must hold the last aggregated value.
  std::vector<std::vector<double>> samples = {{1.0, 3.0, 5.0}, {3.0, 5.0}};
  bool held = false;
  auto r = QuantileAggregateRagged(samples, 0.5, 4, &held);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r.value().size(), 4u);
  EXPECT_DOUBLE_EQ(r.value()[0], 2.0);  // median of {1, 3}
  EXPECT_DOUBLE_EQ(r.value()[1], 4.0);  // median of {3, 5}
  EXPECT_DOUBLE_EQ(r.value()[2], 5.0);  // only sample 0 covers t=2
  EXPECT_DOUBLE_EQ(r.value()[3], 5.0);  // hold-last fill
  EXPECT_TRUE(held);
}

TEST(MultiCastForecasterTest, QuantileBandsBracketMedian) {
  MultiCastOptions opts;
  opts.num_samples = 9;
  opts.quantiles = {0.9, 0.1};  // unsorted on purpose
  MultiCastForecaster f(opts);
  auto result = f.Forecast(PeriodicFrame(72), 8).ValueOrDie();
  ASSERT_EQ(result.quantile_bands.size(), 2u);
  // Returned in ascending level order.
  EXPECT_DOUBLE_EQ(result.quantile_bands[0].first, 0.1);
  EXPECT_DOUBLE_EQ(result.quantile_bands[1].first, 0.9);
  for (size_t d = 0; d < 2; ++d) {
    for (size_t t = 0; t < 8; ++t) {
      double lo = result.quantile_bands[0].second.at(d, t);
      double hi = result.quantile_bands[1].second.at(d, t);
      double mid = result.forecast.at(d, t);
      EXPECT_LE(lo, mid + 1e-12);
      EXPECT_LE(mid, hi + 1e-12);
    }
  }
}

TEST(MultiCastForecasterTest, QuantileBandsWorkUnderSax) {
  MultiCastOptions opts;
  opts.num_samples = 5;
  opts.quantiles = {0.25, 0.75};
  opts.quantization = Quantization::kSaxAlphabetic;
  opts.sax_segment_length = 3;
  MultiCastForecaster f(opts);
  auto result = f.Forecast(PeriodicFrame(72), 6).ValueOrDie();
  ASSERT_EQ(result.quantile_bands.size(), 2u);
  EXPECT_EQ(result.quantile_bands[0].second.length(), 6u);
}

TEST(MultiCastForecasterTest, BadQuantileLevelRejected) {
  MultiCastOptions opts;
  opts.num_samples = 3;
  opts.quantiles = {1.5};
  MultiCastForecaster f(opts);
  EXPECT_FALSE(f.Forecast(PeriodicFrame(48), 4).ok());
}

TEST(MultiCastForecasterTest, NoQuantilesByDefault) {
  MultiCastOptions opts;
  opts.num_samples = 2;
  MultiCastForecaster f(opts);
  auto result = f.Forecast(PeriodicFrame(48), 4).ValueOrDie();
  EXPECT_TRUE(result.quantile_bands.empty());
}

TEST(MultiCastForecasterTest, SingleDimensionSupported) {
  std::vector<double> v;
  for (int i = 0; i < 60; ++i) v.push_back(std::sin(i * 0.5) * 3 + 5);
  ts::Frame uni =
      ts::Frame::FromSeries({ts::Series(v, "solo")}, "uni").ValueOrDie();
  MultiCastOptions opts;
  opts.num_samples = 2;
  MultiCastForecaster f(opts);
  auto result = f.Forecast(uni, 6);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.value().forecast.num_dims(), 1u);
}

TEST(MultiCastForecasterTest, FourDigitsSupported) {
  MultiCastOptions opts;
  opts.digits = 4;
  opts.num_samples = 2;
  MultiCastForecaster f(opts);
  auto result = f.Forecast(PeriodicFrame(60), 4);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
}

// ---------------------------------------------------------------------
// Prefix-cache identity: enabling the cache must never change output.
// The uncached run is the reference; the cache-on run must reproduce it
// bit for bit — same forecasts, bands, ledgers, retry stats, virtual
// time, degradation and warnings.
// ---------------------------------------------------------------------

struct VariantParam {
  multiplex::MuxKind mux;
  Quantization quantization;
};

// Every mux and quantization variant of the pipeline.
class ParallelIdentityTest : public testing::TestWithParam<VariantParam> {};

// Clean pipeline with quantile bands.
TEST_P(ParallelIdentityTest, PrefixCacheIsOutputInvariant) {
  ts::Frame frame = PeriodicFrame(96);
  MultiCastOptions opts;
  opts.mux = GetParam().mux;
  opts.quantization = GetParam().quantization;
  opts.num_samples = 6;
  opts.seed = 1234;
  opts.quantiles = {0.1, 0.9};

  opts.prefix_cache_capacity = 0;
  auto uncached = MultiCastForecaster(opts).Forecast(frame, 12);
  ASSERT_TRUE(uncached.ok()) << uncached.status().ToString();
  opts.prefix_cache_capacity = 64;
  MultiCastForecaster forecaster(opts);
  ExpectSameForecast(uncached, forecaster.Forecast(frame, 12));
  // The cache actually engaged: the prompt was reused, not replayed.
  ASSERT_NE(forecaster.prefix_cache(), nullptr);
  EXPECT_GT(forecaster.prefix_cache()->stats().hits(), 0u);
}

// Same under chaos + retries: faulted calls redraw with fresh prompts,
// and the cache must not perturb the fault schedule or accounting.
TEST_P(ParallelIdentityTest, PrefixCacheIsOutputInvariantUnderChaos) {
  ts::Frame frame = PeriodicFrame(96);
  MultiCastOptions opts;
  opts.mux = GetParam().mux;
  opts.quantization = GetParam().quantization;
  opts.num_samples = 5;
  opts.seed = 77;
  opts.faults = lm::FaultProfile::Chaos(0.2, 4242);
  opts.resilience.retries_enabled = true;

  opts.prefix_cache_capacity = 0;
  auto uncached = MultiCastForecaster(opts).Forecast(frame, 12);
  ASSERT_TRUE(uncached.ok()) << uncached.status().ToString();
  opts.prefix_cache_capacity = 64;
  ExpectSameForecast(uncached, MultiCastForecaster(opts).Forecast(frame, 12));
}

INSTANTIATE_TEST_SUITE_P(
    AllVariants, ParallelIdentityTest,
    testing::Values(
        VariantParam{multiplex::MuxKind::kDigitInterleave,
                     Quantization::kNone},
        VariantParam{multiplex::MuxKind::kValueInterleave,
                     Quantization::kNone},
        VariantParam{multiplex::MuxKind::kValueConcat, Quantization::kNone},
        VariantParam{multiplex::MuxKind::kValueInterleave,
                     Quantization::kSaxAlphabetic},
        VariantParam{multiplex::MuxKind::kValueInterleave,
                     Quantization::kSaxDigital}),
    [](const testing::TestParamInfo<VariantParam>& info) {
      std::string name = multiplex::MuxKindName(info.param.mux);
      switch (info.param.quantization) {
        case Quantization::kNone:
          return name + "Raw";
        case Quantization::kSaxAlphabetic:
          return name + "SaxAlpha";
        case Quantization::kSaxDigital:
          return name + "SaxDigit";
      }
      return name;
    });

// Deadline degradation with the cache on: the surviving-sample set must
// match the uncached run exactly (the cache must not shift virtual
// time — fault latency is modeled per call, not per token replayed).
TEST(PrefixCacheDegradationTest, DeadlineDegradationMatchesUncached) {
  ts::Frame frame = PeriodicFrame(48);
  auto run = [&](bool cache, double deadline) {
    MultiCastOptions opts;
    opts.num_samples = 8;
    opts.seed = 5;
    opts.prefix_cache_capacity = cache ? 64 : 0;
    opts.faults = lm::FaultProfile::Chaos(0.1, 88);
    opts.resilience.retries_enabled = true;
    MultiCastForecaster forecaster(opts);
    VirtualClock clock;
    RequestContext ctx;
    ctx.clock = &clock;
    if (deadline > 0.0) ctx.deadline = Deadline::At(deadline);
    return forecaster.Forecast(frame, 6, ctx);
  };
  // Probe the clean run's total virtual cost, then budget half of it:
  // the first draw always fits (the gate at t=0 passes) and the last
  // never does, so the loop degrades partway through.
  auto probe = run(false, 0.0);
  ASSERT_TRUE(probe.ok()) << probe.status().ToString();
  const double deadline = probe.value().virtual_seconds * 0.5;
  ASSERT_GT(deadline, 0.0);
  auto uncached = run(false, deadline);
  ASSERT_TRUE(uncached.ok()) << uncached.status().ToString();
  EXPECT_TRUE(uncached.value().degraded);
  ExpectSameForecast(uncached, run(true, deadline));
}

// LLMTime shares one cache across its per-dimension pipelines; output
// must still match the uncached run.
TEST(PrefixCacheLlmTimeTest, SharedDimensionCacheIsOutputInvariant) {
  ts::Frame frame = PeriodicFrame(96);
  LlmTimeOptions opts;
  opts.num_samples = 4;
  opts.seed = 9;
  opts.faults = lm::FaultProfile::Chaos(0.15, 31);
  opts.resilience.retries_enabled = true;

  opts.prefix_cache_capacity = 0;
  auto uncached = LlmTimeForecaster(opts).Forecast(frame, 12);
  ASSERT_TRUE(uncached.ok()) << uncached.status().ToString();
  opts.prefix_cache_capacity = 64;
  LlmTimeForecaster forecaster(opts);
  ExpectSameForecast(uncached, forecaster.Forecast(frame, 12));
  ASSERT_NE(forecaster.prefix_cache(), nullptr);
  EXPECT_GT(forecaster.prefix_cache()->stats().hits(), 0u);
}

// A caller-supplied shared cache (the serve-sim wiring) behaves like
// the forecaster-owned one — reused across Forecast calls, output
// invariant.
TEST(PrefixCacheSharingTest, ExternallySharedCacheIsOutputInvariant) {
  ts::Frame frame = PeriodicFrame(96);
  MultiCastOptions opts;
  opts.num_samples = 4;
  opts.seed = 11;
  opts.prefix_cache_capacity = 0;
  auto uncached = MultiCastForecaster(opts).Forecast(frame, 12);
  ASSERT_TRUE(uncached.ok()) << uncached.status().ToString();

  auto shared = std::make_shared<lm::PrefixCache>(16);
  opts.shared_prefix_cache = shared;
  for (int i = 0; i < 3; ++i) {
    SCOPED_TRACE("shared-cache call " + std::to_string(i));
    ExpectSameForecast(uncached,
                       MultiCastForecaster(opts).Forecast(frame, 12));
  }
  // Later forecasters full-hit the entries built by the first.
  EXPECT_GT(shared->stats().full_hits, 0u);
  EXPECT_EQ(shared->stats().prompt_tokens_seen,
            shared->stats().prompt_tokens_reused +
                shared->stats().prompt_tokens_replayed);
}

// min_samples larger than num_samples used to make every forecast fail
// ("needed at least 50 of 3"); it now clamps to num_samples, so a clean
// run at full strength succeeds.
TEST(MinSamplesClampTest, MinSamplesAboveNumSamplesClampsInsteadOfFailing) {
  ts::Frame frame = PeriodicFrame(48);
  MultiCastOptions opts;
  opts.num_samples = 3;
  opts.resilience.min_samples = 50;
  auto result = MultiCastForecaster(opts).Forecast(frame, 6);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_FALSE(result.value().degraded);
  EXPECT_EQ(result.value().samples_used, 3u);
}

// Repeated quantile levels used to emit identical duplicate bands;
// they now dedupe to one band per distinct level, in ascending order.
TEST(QuantileBandTest, DuplicateLevelsAreDeduped) {
  ts::Frame frame = PeriodicFrame(48);
  MultiCastOptions opts;
  opts.num_samples = 3;
  opts.quantiles = {0.8, 0.2, 0.2, 0.8};
  auto result = MultiCastForecaster(opts).Forecast(frame, 6);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result.value().quantile_bands.size(), 2u);
  EXPECT_EQ(result.value().quantile_bands[0].first, 0.2);
  EXPECT_EQ(result.value().quantile_bands[1].first, 0.8);
}

// An out-of-range level fails the whole forecast up front — no bands
// are computed for the valid levels before the bad one is noticed.
TEST(QuantileBandTest, InvalidLevelFailsBeforeAnyBandIsBuilt) {
  ts::Frame frame = PeriodicFrame(48);
  MultiCastOptions opts;
  opts.num_samples = 3;
  opts.quantiles = {0.2, 1.5};
  auto result = MultiCastForecaster(opts).Forecast(frame, 6);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find("quantile level"),
            std::string::npos);
}

// An external backend that reports each call's latency through
// last_latency_seconds(), as every backend does.
class LatencyBackend final : public lm::LlmBackend {
 public:
  LatencyBackend(size_t vocab_size, double call_seconds)
      : inner_(lm::ModelProfile::Llama2_7B(), vocab_size),
        call_seconds_(call_seconds) {}

  std::string name() const override { return "latency-reporting"; }
  size_t vocab_size() const override { return inner_.vocab_size(); }
  double last_latency_seconds() const override { return call_seconds_; }

  using LlmBackend::Complete;
  Result<lm::GenerationResult> Complete(
      const std::vector<token::TokenId>& prompt, size_t num_tokens,
      const lm::GrammarMask& mask, Rng* rng,
      const lm::CallOptions& call) override {
    ++calls;
    return inner_.Complete(prompt, num_tokens, mask, rng, call);
  }

  size_t calls = 0;

 private:
  lm::SimulatedLlm inner_;
  double call_seconds_;
};

// With no retry layer to charge it, the sample loop charges the call's
// latency to the request clock, so a deadline stops the loop: 0.12 s at
// 0.05 s/call lets draws at t=0, 0.05 and 0.10 run; the fourth finds the
// clock at 0.15 and the loop stops, degraded 3/5.
TEST(AccessorLatencyTest, DeadlineBitesOnAccessorReportedLatency) {
  ts::Frame frame = PeriodicFrame(48);
  LatencyBackend backend(token::Vocabulary::Digits().size(), 0.05);
  MultiCastOptions opts;
  opts.num_samples = 5;
  opts.backend = &backend;
  MultiCastForecaster forecaster(opts);
  VirtualClock clock;
  RequestContext ctx;
  ctx.clock = &clock;
  ctx.deadline = Deadline::At(0.12);
  auto result = forecaster.Forecast(frame, 6, ctx);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(backend.calls, 3u);
  EXPECT_TRUE(result.value().degraded);
  EXPECT_EQ(result.value().samples_used, 3u);
  EXPECT_NEAR(result.value().virtual_seconds, 0.15, 1e-12);
  EXPECT_NEAR(clock.now(), 0.15, 1e-12);
}

}  // namespace
}  // namespace forecast
}  // namespace multicast
