// Continuous-batching throughput on a latency-bound decode backend.
//
// When each decode step costs real time (a GPU forward pass, a network
// round-trip), run-to-completion decode pays that cost once per *token*,
// while continuous batching pays it once per *step* shared by every
// active session. This bench models the forward pass with a fixed sleep
// in BatchPolicy::on_step, offers 1..8 concurrent MultiCast requests on
// GasRate (each request draws its samples one at a time, every draw
// decoding through one shared scheduler, so load k runs at most k
// lanes at once), and compares run-to-completion (max_batch = 1) against a
// 16-slot continuous batch at every offered load. Forecasts must be
// bit-identical across the two schedules — batching changes when tokens
// decode, never which tokens.
//
// Run from the repo root: ./build/bench/batch_throughput [--smoke]
// Writes BENCH_batch.json, plus BENCH_batch_metrics.json through the
// util::WriteMetricsJson export path the sims share. Exits non-zero
// when any batched forecast diverges from its run-to-completion twin,
// the batched speedup at offered load >= 4 falls below the 2x
// acceptance floor, or publishing scheduler stats through a live
// MetricsRegistry costs 2% or more throughput versus the
// uninstrumented baseline (medians of interleaved repeats).

#include <chrono>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "batch/batch_scheduler.h"
#include "bench/bench_common.h"
#include "util/quantile.h"
#include "util/timer.h"

namespace multicast {
namespace bench {
namespace {

struct LoadResult {
  double wall_seconds = 0.0;
  double throughput_rps = 0.0;
  /// Per-request forecast values, flattened in request order.
  std::vector<std::vector<double>> values;
  batch::BatchStats stats;
};

// Serves `concurrent` requests at once, every sample draw decoding
// through one shared scheduler whose forward pass costs `step_sleep` of
// wall time. Each request runs the Table II MultiCast (VI) pipeline with
// a request-decorrelated seed, exactly the serve-sim wiring.
// When `metrics` is non-null, the scheduler's stats are published into
// it inside the timed region — the full cost of the end-of-run
// publication model, measured where the overhead gate can see it.
LoadResult RunLoad(const ts::Split& split, size_t horizon, size_t concurrent,
                   size_t max_batch, int samples,
                   std::chrono::microseconds step_sleep,
                   util::MetricsRegistry* metrics = nullptr) {
  batch::BatchPolicy policy;
  policy.max_batch = max_batch;
  policy.on_step = [step_sleep](size_t) {
    std::this_thread::sleep_for(step_sleep);
  };
  auto scheduler = std::make_shared<batch::BatchScheduler>(policy);

  LoadResult out;
  out.values.resize(concurrent);
  std::vector<std::thread> workers;
  Timer timer;
  for (size_t r = 0; r < concurrent; ++r) {
    workers.emplace_back([&, r]() {
      forecast::MultiCastOptions opts =
          DefaultMultiCast(multiplex::MuxKind::kValueInterleave);
      opts.num_samples = samples;
      opts.seed = 42 + r;
      opts.batch_scheduler = scheduler;
      forecast::MultiCastForecaster forecaster(opts);
      forecast::ForecastResult result =
          OrDie(forecaster.Forecast(split.train, horizon), "forecast");
      std::vector<double>& flat = out.values[r];
      for (size_t d = 0; d < result.forecast.num_dims(); ++d) {
        const std::vector<double>& vals = result.forecast.dim(d).values();
        flat.insert(flat.end(), vals.begin(), vals.end());
      }
    });
  }
  for (std::thread& w : workers) w.join();
  if (metrics != nullptr) scheduler->PublishMetrics(metrics, "batch.");
  out.wall_seconds = timer.Seconds();
  out.throughput_rps =
      static_cast<double>(concurrent) / out.wall_seconds;
  out.stats = scheduler->stats();
  return out;
}

}  // namespace

int Main(bool smoke) {
  const size_t kHorizon = 12;
  const size_t kMaxBatch = 16;
  const int samples = 4;
  const std::chrono::microseconds step_sleep(smoke ? 150 : 250);
  const std::vector<size_t> loads =
      smoke ? std::vector<size_t>{1, 4} : std::vector<size_t>{1, 2, 4, 8};

  ts::Split split = LoadSplit("GasRate");

  std::printf(
      "continuous batching vs run-to-completion: MultiCast (VI) on "
      "GasRate, horizon %zu, %d samples/request, "
      "%lldus/step forward pass, %zu-slot batch\n\n",
      kHorizon, samples,
      static_cast<long long>(step_sleep.count()), kMaxBatch);

  struct Row {
    size_t concurrent = 0;
    double rtc_seconds = 0.0;
    double batched_seconds = 0.0;
    double rtc_rps = 0.0;
    double batched_rps = 0.0;
    double speedup = 0.0;
    double mean_batch = 0.0;
    size_t peak_batch = 0;
    bool identical = false;
  };
  std::vector<Row> rows;
  TextTable table({"Requests", "RTC (s)", "Batched (s)", "RTC req/s",
                   "Batched req/s", "Speedup", "Mean batch", "Peak",
                   "Identical"});
  for (size_t load : loads) {
    LoadResult rtc = RunLoad(split, kHorizon, load, 1, samples, step_sleep);
    LoadResult batched =
        RunLoad(split, kHorizon, load, kMaxBatch, samples, step_sleep);
    Row row;
    row.concurrent = load;
    row.rtc_seconds = rtc.wall_seconds;
    row.batched_seconds = batched.wall_seconds;
    row.rtc_rps = rtc.throughput_rps;
    row.batched_rps = batched.throughput_rps;
    row.speedup = rtc.wall_seconds / batched.wall_seconds;
    row.mean_batch = batched.stats.mean_batch();
    row.peak_batch = batched.stats.peak_batch;
    row.identical = rtc.values == batched.values;
    table.AddRow({StrFormat("%zu", row.concurrent),
                  StrFormat("%.3f", row.rtc_seconds),
                  StrFormat("%.3f", row.batched_seconds),
                  StrFormat("%.2f", row.rtc_rps),
                  StrFormat("%.2f", row.batched_rps),
                  StrFormat("%.2fx", row.speedup),
                  StrFormat("%.2f", row.mean_batch),
                  StrFormat("%zu", row.peak_batch),
                  row.identical ? "yes" : "NO"});
    rows.push_back(row);
  }
  std::printf("%s\n", table.Render().c_str());

  // Instrumentation-overhead gate: run the heaviest batched load with a
  // live MetricsRegistry (scheduler stats published through it inside
  // the timed region) and require throughput within 2% of the
  // uninstrumented runs. Stats publication happens once at end of run —
  // never per step — so this guards against registry work ever creeping
  // into the decode hot path. One run is a burst of a few tens of
  // milliseconds, which host jitter moves by a few percent either way,
  // so the gate interleaves kOverheadRepeats runs of each and compares
  // their medians.
  constexpr int kOverheadRepeats = 7;
  std::vector<double> plain_rps;
  std::vector<double> instrumented_rps;
  std::unique_ptr<util::MetricsRegistry> registry;
  for (int r = 0; r < kOverheadRepeats; ++r) {
    plain_rps.push_back(RunLoad(split, kHorizon, loads.back(), kMaxBatch,
                                samples, step_sleep)
                            .throughput_rps);
    auto run_registry = std::make_unique<util::MetricsRegistry>();
    instrumented_rps.push_back(RunLoad(split, kHorizon, loads.back(),
                                       kMaxBatch, samples, step_sleep,
                                       run_registry.get())
                                   .throughput_rps);
    registry = std::move(run_registry);
  }
  const double baseline_rps = util::NearestRankQuantile(plain_rps, 0.5);
  const double instrumented_median =
      util::NearestRankQuantile(instrumented_rps, 0.5);
  const double overhead = 1.0 - instrumented_median / baseline_rps;
  std::printf(
      "registry instrumentation at load %zu: median %.2f req/s vs %.2f "
      "req/s uninstrumented over %d interleaved runs each (%+.2f%% "
      "overhead)\n\n",
      loads.back(), instrumented_median, baseline_rps, kOverheadRepeats,
      overhead * 100.0);
  registry->GetGauge("bench.uninstrumented_rps")->Set(baseline_rps);
  registry->GetGauge("bench.instrumented_rps")->Set(instrumented_median);
  registry->GetGauge("bench.instrumentation_overhead")->Set(overhead);
  WriteBenchMetrics("BENCH_batch_metrics.json", "batch_throughput",
                    *registry);

  double speedup_at_4 = 0.0;
  for (const Row& row : rows) {
    if (row.concurrent >= 4 && speedup_at_4 == 0.0) {
      speedup_at_4 = row.speedup;
    }
  }
  bool all_identical = true;
  for (const Row& row : rows) all_identical = all_identical && row.identical;

  std::FILE* json = std::fopen("BENCH_batch.json", "w");
  if (json == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_batch.json\n");
    return 1;
  }
  std::fprintf(json,
               "{\n"
               "  \"bench\": \"batch_throughput\",\n"
               "  \"dataset\": \"GasRate\",\n"
               "  \"method\": \"MultiCast (VI)\",\n"
               "  \"horizon\": %zu,\n"
               "  \"samples_per_request\": %d,\n"
               "  \"step_micros\": %lld,\n"
               "  \"max_batch\": %zu,\n"
               "  \"smoke\": %s,\n"
               "  \"results\": [\n",
               kHorizon, samples,
               static_cast<long long>(step_sleep.count()), kMaxBatch,
               smoke ? "true" : "false");
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& row = rows[i];
    std::fprintf(
        json,
        "    {\"concurrent_requests\": %zu, "
        "\"run_to_completion_seconds\": %.4f, \"batched_seconds\": %.4f, "
        "\"run_to_completion_rps\": %.3f, \"batched_rps\": %.3f, "
        "\"speedup\": %.3f, \"mean_batch\": %.3f, \"peak_batch\": %zu, "
        "\"identical_to_run_to_completion\": %s}%s\n",
        row.concurrent, row.rtc_seconds, row.batched_seconds, row.rtc_rps,
        row.batched_rps, row.speedup, row.mean_batch, row.peak_batch,
        row.identical ? "true" : "false", i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(json,
               "  ],\n"
               "  \"speedup_at_load_4\": %.3f,\n"
               "  \"all_identical\": %s,\n"
               "  \"instrumented_rps_at_top_load\": %.3f,\n"
               "  \"instrumentation_overhead\": %.4f\n"
               "}\n",
               speedup_at_4, all_identical ? "true" : "false",
               instrumented_median, overhead);
  std::fclose(json);
  std::printf("wrote BENCH_batch.json\n");

  int status = 0;
  if (!all_identical) {
    std::fprintf(stderr,
                 "FAIL: batched forecasts diverged from run-to-completion\n");
    status = 1;
  }
  // Unlike wall-clock-sensitive benches, this gate holds in smoke mode
  // too: the sleeps dominate both schedules, so the step-count ratio —
  // not CPU contention — decides the outcome.
  if (speedup_at_4 < 2.0) {
    std::fprintf(stderr,
                 "FAIL: batched speedup %.2fx at offered load >= 4 is "
                 "below the 2x floor\n",
                 speedup_at_4);
    status = 1;
  }
  if (overhead >= 0.02) {
    std::fprintf(stderr,
                 "FAIL: registry instrumentation costs %.2f%% "
                 "throughput (floor: < 2%%)\n",
                 overhead * 100.0);
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
