// Prefix-cache effectiveness on the rolling GasRate workload.
//
// MultiCast draws n samples per forecast and rolling-origin evaluation
// slides the serialization window forward fold after fold, so the
// uncached pipeline re-ingests each ~1.5k-token prompt n times per fold.
// With the cache, the prompt is observed once (pre-warm) and every draw
// forks the frozen state. A fold's prompt does not extend the previous
// fold's: it serializes values rescaled over that fold's own history,
// so it is re-serialized from its first token, and each fold is one
// miss followed by n full hits. This bench runs the identical rolling
// sweep cached and uncached at n = 8 and n = 20, asserts the forecasts
// and ledgers are bit-identical (the cache's core contract), and
// reports wall-clock speedup plus the fraction of prompt-ingestion work
// eliminated (ledger prompt tokens vs physically replayed tokens).
//
// Run from the repo root: ./build/bench/prefix_cache [--smoke]
// Writes BENCH_prefix_cache.json, plus BENCH_prefix_cache_metrics.json
// through the util::WriteMetricsJson export path the sims share. Exits
// non-zero when the cached run diverges, the n=8 speedup is < 2x, or
// the n=8 replay reduction < 80%.

#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "lm/prefix_cache.h"
#include "metrics/metrics.h"
#include "util/timer.h"

namespace multicast {
namespace bench {
namespace {

struct SweepResult {
  double wall_seconds = 0.0;
  /// Per-fold forecast values, flattened, for bitwise comparison.
  std::vector<double> values;
  /// Summed ledger over all folds (logical token counts).
  lm::TokenLedger ledger;
  double mean_rmse = 0.0;
  lm::PrefixCacheStats cache;
};

// Rolling-origin sweep: one persistent forecaster serves every fold, and
// its cache keeps one entry per fold's prompt.
SweepResult RunSweep(const ts::Frame& frame, int samples, bool cached,
                     size_t horizon, size_t folds, int repetitions) {
  SweepResult out;
  const size_t first_origin = frame.length() - folds * horizon;
  for (int rep = 0; rep < repetitions; ++rep) {
    forecast::MultiCastOptions opts =
        DefaultMultiCast(multiplex::MuxKind::kValueInterleave);
    opts.num_samples = samples;
    opts.seed = 42;
    if (!cached) opts.prefix_cache_capacity = 0;
    forecast::MultiCastForecaster forecaster(opts);
    SweepResult pass;
    Timer timer;
    for (size_t fold = 0; fold < folds; ++fold) {
      const size_t origin = first_origin + fold * horizon;
      ts::Frame train = frame.Head(origin);
      ts::Frame test =
          OrDie(frame.Slice(origin, origin + horizon), "test slice");
      forecast::ForecastResult result =
          OrDie(forecaster.Forecast(train, horizon), "forecast");
      for (size_t d = 0; d < result.forecast.num_dims(); ++d) {
        const std::vector<double>& vals = result.forecast.dim(d).values();
        pass.values.insert(pass.values.end(), vals.begin(), vals.end());
        pass.mean_rmse +=
            OrDie(metrics::Rmse(test.dim(d).values(), vals), "rmse");
      }
      pass.ledger += result.ledger;
    }
    pass.wall_seconds = timer.Seconds();
    pass.mean_rmse /= static_cast<double>(folds * frame.num_dims());
    if (cached && forecaster.prefix_cache() != nullptr) {
      pass.cache = forecaster.prefix_cache()->stats();
    }
    // Keep the fastest repetition's clock; every repetition must agree
    // on the values (checked by the caller against the uncached run).
    if (rep == 0 || pass.wall_seconds < out.wall_seconds) {
      double wall = pass.wall_seconds;
      out = pass;
      out.wall_seconds = wall;
    }
  }
  return out;
}

}  // namespace

int Main(bool smoke) {
  const size_t kHorizon = 12;
  const size_t folds = smoke ? 2 : 6;
  const int repetitions = smoke ? 1 : 3;
  const std::vector<int> sample_counts = smoke ? std::vector<int>{8}
                                               : std::vector<int>{8, 20};

  ts::Frame frame = OrDie(data::LoadDataset("GasRate"), "GasRate");

  std::printf("prefix-cache effectiveness: MultiCast (VI), rolling "
              "GasRate, horizon %zu, %zu folds, best of %d\n\n",
              kHorizon, folds, repetitions);

  struct Row {
    int samples = 0;
    double uncached_seconds = 0.0;
    double cached_seconds = 0.0;
    double speedup = 0.0;
    double replay_reduction = 0.0;
    bool identical = false;
    size_t prompt_tokens = 0;
    size_t replayed = 0;
  };
  std::vector<Row> rows;
  lm::PrefixCacheStats last_cache;
  TextTable table({"Samples", "Uncached (s)", "Cached (s)", "Speedup",
                   "Prompt tok", "Replayed", "Saved", "Identical"});
  for (int samples : sample_counts) {
    SweepResult uncached =
        RunSweep(frame, samples, false, kHorizon, folds, repetitions);
    SweepResult cached =
        RunSweep(frame, samples, true, kHorizon, folds, repetitions);

    Row row;
    row.samples = samples;
    row.uncached_seconds = uncached.wall_seconds;
    row.cached_seconds = cached.wall_seconds;
    row.speedup = uncached.wall_seconds / cached.wall_seconds;
    // The cache's contract, checked bitwise: same forecasts and the
    // same *logical* ledger (prompt tokens count the prompt presented,
    // not the replay work actually done).
    row.identical =
        uncached.values == cached.values &&
        uncached.ledger.prompt_tokens == cached.ledger.prompt_tokens &&
        uncached.ledger.generated_tokens == cached.ledger.generated_tokens &&
        uncached.mean_rmse == cached.mean_rmse;
    // Ingestion work: uncached observes every ledger prompt token;
    // cached physically replays only each fold's one miss.
    row.prompt_tokens = uncached.ledger.prompt_tokens;
    row.replayed = cached.cache.prompt_tokens_replayed;
    row.replay_reduction =
        1.0 - static_cast<double>(row.replayed) /
                  static_cast<double>(row.prompt_tokens);
    table.AddRow({StrFormat("%d", samples),
                  StrFormat("%.3f", row.uncached_seconds),
                  StrFormat("%.3f", row.cached_seconds),
                  StrFormat("%.2fx", row.speedup),
                  StrFormat("%zu", row.prompt_tokens),
                  StrFormat("%zu", row.replayed),
                  StrFormat("%.1f%%", row.replay_reduction * 100.0),
                  row.identical ? "yes" : "NO"});
    rows.push_back(row);
    last_cache = cached.cache;
  }
  std::printf("%s\n", table.Render().c_str());

  // The biggest sweep's cache counters, exported through the same
  // registry path serve-sim uses for its per-method sections.
  util::MetricsRegistry registry;
  lm::PublishPrefixCacheStats(last_cache, &registry, "prefix_cache.");
  WriteBenchMetrics(
      "BENCH_prefix_cache_metrics.json",
      StrFormat("cached n=%d", sample_counts.back()), registry);

  std::FILE* json = std::fopen("BENCH_prefix_cache.json", "w");
  if (json == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_prefix_cache.json\n");
    return 1;
  }
  std::fprintf(json,
               "{\n"
               "  \"bench\": \"prefix_cache\",\n"
               "  \"dataset\": \"GasRate\",\n"
               "  \"method\": \"MultiCast (VI)\",\n"
               "  \"horizon\": %zu,\n"
               "  \"folds\": %zu,\n"
               "  \"repetitions\": %d,\n"
               "  \"smoke\": %s,\n"
               "  \"results\": [\n",
               kHorizon, folds, repetitions, smoke ? "true" : "false");
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& row = rows[i];
    std::fprintf(
        json,
        "    {\"num_samples\": %d, \"uncached_seconds\": %.4f, "
        "\"cached_seconds\": %.4f, \"speedup\": %.3f, "
        "\"prompt_tokens\": %zu, \"prompt_tokens_replayed\": %zu, "
        "\"replay_reduction\": %.4f, \"identical_to_uncached\": %s}%s\n",
        row.samples, row.uncached_seconds, row.cached_seconds, row.speedup,
        row.prompt_tokens, row.replayed, row.replay_reduction,
        row.identical ? "true" : "false", i + 1 < rows.size() ? "," : "");
  }
  const Row& gate = rows.front();  // n = 8 carries the acceptance gates
  std::fprintf(json,
               "  ],\n"
               "  \"speedup_at_8_samples\": %.3f,\n"
               "  \"replay_reduction_at_8_samples\": %.4f,\n"
               "  \"all_identical_to_uncached\": %s\n"
               "}\n",
               gate.speedup, gate.replay_reduction,
               [&] {
                 for (const Row& row : rows) {
                   if (!row.identical) return false;
                 }
                 return true;
               }()
                   ? "true"
                   : "false");
  std::fclose(json);
  std::printf("wrote BENCH_prefix_cache.json\n");

  int status = 0;
  for (const Row& row : rows) {
    if (!row.identical) {
      std::fprintf(stderr,
                   "FAIL: cached forecast diverged from uncached at n=%d\n",
                   row.samples);
      status = 1;
    }
  }
  if (gate.replay_reduction < 0.8) {
    std::fprintf(stderr,
                 "FAIL: replay reduction %.1f%% at n=8 is below the 80%% "
                 "floor\n",
                 gate.replay_reduction * 100.0);
    status = 1;
  }
  // The wall-clock gate is skipped in smoke mode: two folds run too
  // briefly for a stable timer reading under CI load.
  if (!smoke && gate.speedup < 2.0) {
    std::fprintf(stderr,
                 "FAIL: cached speedup %.2fx at n=8 is below the 2x floor\n",
                 gate.speedup);
    status = 1;
  }
  return status;
}

}  // namespace bench
}  // namespace multicast

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  return multicast::bench::Main(smoke);
}
