// Ablation: serving-layer behaviour under offered load and chaos.
//
// The serving executor (src/serve/) replays a seeded Poisson-burst
// arrival trace against the VI pipeline in virtual time. Section 1
// sweeps the offered load from 0.5x to 4x of the sustainable service
// rate and reports what admission control does to it: shed rate, p50 /
// p99 latency of the requests that were served, and — the number a
// latency table never shows — the RMSE of what clients actually
// received. Section 2 holds the load at 2x and turns on hedged
// requests under increasing fault rates, showing hedges converting
// slow/failed primaries into served (possibly degraded) answers.
//
// Run from the repo root:
//   ./build/bench/ablation_serving [--metrics-json [path]]
// --metrics-json exports one registry section per cell (queue/overload
// counters plus the "serve." summary rollup, default
// BENCH_serving_metrics.json) through the util::WriteMetricsJson path
// the sims share.

#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "baselines/naive.h"
#include "bench/bench_common.h"
#include "forecast/fallback.h"
#include "metrics/metrics.h"
#include "serve/executor.h"
#include "serve/trace.h"

namespace multicast {
namespace bench {
namespace {

forecast::ResilienceConfig RetriesOn() {
  forecast::ResilienceConfig r;
  r.retries_enabled = true;
  r.retry.max_attempts = 4;
  r.max_redraws = 6;
  return r;
}

// Per-request VI pipeline: seeds decorrelate across request ids so a
// hedge or retry is never a token-for-token replay of its sibling.
serve::ForecasterFactory ViFactory(double chaos_rate, uint64_t salt) {
  return [chaos_rate, salt](const serve::ForecastRequest& req) {
    forecast::MultiCastOptions opts =
        DefaultMultiCast(multiplex::MuxKind::kValueInterleave);
    opts.faults = lm::FaultProfile::Chaos(chaos_rate,
                                          0xC0FFEE + salt + req.id);
    opts.resilience = RetriesOn();
    opts.seed = 42 + req.id * 1000003ULL + salt;
    return std::make_unique<forecast::MultiCastForecaster>(opts);
  };
}

// Hedge pipeline: the VI -> LLMTime -> naive demotion chain, same
// chaos, different seed stream.
serve::ForecasterFactory HedgeFactory(double chaos_rate) {
  return [chaos_rate](const serve::ForecastRequest& req) {
    forecast::MultiCastOptions vi =
        DefaultMultiCast(multiplex::MuxKind::kValueInterleave);
    vi.faults = lm::FaultProfile::Chaos(chaos_rate, 0xBACC00 + req.id);
    vi.resilience = RetriesOn();
    vi.seed = 7000 + req.id * 1000003ULL;
    forecast::LlmTimeOptions lt = DefaultLlmTime();
    lt.faults = vi.faults;
    lt.resilience = vi.resilience;
    lt.seed = vi.seed + 1;
    std::vector<std::unique_ptr<forecast::Forecaster>> chain;
    chain.push_back(std::make_unique<forecast::MultiCastForecaster>(vi));
    chain.push_back(std::make_unique<forecast::LlmTimeForecaster>(lt));
    chain.push_back(std::make_unique<baselines::NaiveLastForecaster>());
    return std::make_unique<forecast::FallbackForecaster>(std::move(chain));
  };
}

std::vector<serve::ForecastRequest> BuildRequests(
    const ts::Split& split, const serve::TraceOptions& trace) {
  std::vector<serve::Arrival> arrivals = serve::GenerateTrace(trace);
  std::vector<serve::ForecastRequest> requests;
  requests.reserve(arrivals.size());
  for (size_t i = 0; i < arrivals.size(); ++i) {
    serve::ForecastRequest req;
    req.id = i;
    req.arrival_seconds = arrivals[i].arrival_seconds;
    req.deadline_seconds = arrivals[i].deadline_seconds;
    req.history = &split.train;
    req.horizon = split.test.length();
    requests.push_back(req);
  }
  return requests;
}

// Mean-over-dims RMSE of one served forecast against the held-out test.
double ServedRmse(const ts::Split& split,
                  const forecast::ForecastResult& result) {
  double sum = 0.0;
  for (size_t d = 0; d < split.test.num_dims(); ++d) {
    sum += OrDie(metrics::Rmse(split.test.dim(d).values(),
                               result.forecast.dim(d).values()),
                 "rmse");
  }
  return sum / static_cast<double>(split.test.num_dims());
}

double MeanServedRmse(const ts::Split& split,
                      const std::vector<serve::ServeStats>& stats) {
  double sum = 0.0;
  size_t n = 0;
  for (const serve::ServeStats& s : stats) {
    if (s.result == nullptr) continue;
    sum += ServedRmse(split, *s.result);
    ++n;
  }
  return n > 0 ? sum / static_cast<double>(n) : 0.0;
}

// `sections` (optional) collects one labelled registry snapshot per
// cell for the --metrics-json export.
using MetricsSections =
    std::vector<std::pair<std::string, util::MetricsSnapshot>>;

void LoadSweepSection(const ts::Split& split, MetricsSections* sections) {
  Banner(
      "Offered-load sweep: VI pipeline, 5% faults, deadline 2s, queue 8");
  // At 5% faults the VI pipeline serves one request in roughly half a
  // virtual second, so ~2 req/s saturates the single worker; the sweep
  // brackets that from comfortable to 4x overloaded.
  const double kBaseRate = 1.0;
  TextTable table({"offered load", "req/s", "served", "degraded",
                   "shed(full)", "shed(expired)", "shed %", "p50 s",
                   "p99 s", "wait s", "RMSE (served)"});
  for (double multiplier : {0.5, 1.0, 2.0, 4.0}) {
    serve::TraceOptions trace;
    trace.num_requests = 48;
    trace.arrival_rate = kBaseRate * multiplier;
    trace.deadline_seconds = 2.0;
    trace.seed = 7;
    serve::ServeOptions options;
    options.queue.capacity = 8;
    util::MetricsRegistry registry;
    if (sections != nullptr) options.metrics = &registry;

    serve::ServeExecutor executor(ViFactory(0.05, /*salt=*/0),
                                  serve::ForecasterFactory(), options);
    std::vector<serve::ServeStats> stats =
        OrDie(executor.Run(BuildRequests(split, trace)), "serve run");
    serve::ServeSummary summary = serve::Summarize(stats, options.metrics);
    if (sections != nullptr) {
      sections->emplace_back(StrFormat("load_%.1fx", multiplier),
                             registry.Snapshot());
    }
    double shed_pct = 100.0 * static_cast<double>(summary.shed()) /
                      static_cast<double>(summary.total);
    table.AddRow({StrFormat("%.1fx", multiplier),
                  StrFormat("%.2f", trace.arrival_rate),
                  StrFormat("%zu", summary.served + summary.served_degraded),
                  StrFormat("%zu", summary.served_degraded),
                  StrFormat("%zu", summary.shed_queue_full),
                  StrFormat("%zu", summary.shed_expired),
                  StrFormat("%.1f%%", shed_pct),
                  StrFormat("%.3f", summary.p50_latency_seconds),
                  StrFormat("%.3f", summary.p99_latency_seconds),
                  StrFormat("%.3f", summary.mean_queue_wait_seconds),
                  StrFormat("%.3f", MeanServedRmse(split, stats))});
  }
  table.Print();
  std::printf(
      "\nShape check: shed %% must rise monotonically with offered load "
      "while the RMSE of *served* requests stays flat — admission control "
      "trades availability, never quality, and served p99 stays inside "
      "the 2s deadline.\n");
}

void ChaosHedgeSection(const ts::Split& split, MetricsSections* sections) {
  Banner("Chaos at 2x load: hedged requests vs no hedging");
  TextTable table({"fault rate", "hedging", "served", "degraded", "failed",
                   "shed", "hedges", "hedge wins", "p99 s",
                   "RMSE (served)"});
  for (double rate : {0.05, 0.20}) {
    for (bool hedging : {false, true}) {
      serve::TraceOptions trace;
      trace.num_requests = 48;
      trace.arrival_rate = 2.0;
      trace.deadline_seconds = 2.0;
      trace.seed = 7;
      serve::ServeOptions options;
      options.queue.capacity = 8;
      options.hedge.enabled = hedging;
      options.hedge.delay_seconds = 0.75;
      util::MetricsRegistry registry;
      if (sections != nullptr) options.metrics = &registry;

      serve::ServeExecutor executor(
          ViFactory(rate, /*salt=*/99),
          hedging ? HedgeFactory(rate) : serve::ForecasterFactory(),
          options);
      std::vector<serve::ServeStats> stats =
          OrDie(executor.Run(BuildRequests(split, trace)), "serve run");
      serve::ServeSummary summary =
          serve::Summarize(stats, options.metrics);
      if (sections != nullptr) {
        sections->emplace_back(
            StrFormat("chaos_%.0fpct_hedge_%s", rate * 100.0,
                      hedging ? "on" : "off"),
            registry.Snapshot());
      }
      table.AddRow(
          {StrFormat("%.0f%%", rate * 100.0), hedging ? "on" : "off",
           StrFormat("%zu", summary.served + summary.served_degraded),
           StrFormat("%zu", summary.served_degraded),
           StrFormat("%zu", summary.failed),
           StrFormat("%zu", summary.shed()),
           StrFormat("%zu", summary.hedges_fired),
           StrFormat("%zu", summary.hedge_wins),
           StrFormat("%.3f", summary.p99_latency_seconds),
           StrFormat("%.3f", MeanServedRmse(split, stats))});
    }
  }
  table.Print();
  std::printf(
      "\nShape check: with hedging on, failed counts must not rise and "
      "served counts must be >= the unhedged row at the same fault rate "
      "— the backup chain can only add ways for a request to succeed.\n");
}

void Run(const std::string& metrics_path) {
  ts::Split split = LoadSplit("GasRate");
  MetricsSections sections;
  MetricsSections* collect = metrics_path.empty() ? nullptr : &sections;
  LoadSweepSection(split, collect);
  ChaosHedgeSection(split, collect);
  if (collect != nullptr) {
    Status status = util::WriteMetricsJson(metrics_path, sections);
    if (!status.ok()) {
      std::fprintf(stderr, "cannot write %s: %s\n", metrics_path.c_str(),
                   status.ToString().c_str());
      std::exit(1);
    }
    std::printf("wrote %s\n", metrics_path.c_str());
  }
}

}  // namespace
}  // namespace bench
}  // namespace multicast

int main(int argc, char** argv) {
  std::string metrics_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--metrics-json") == 0) {
      metrics_path = "BENCH_serving_metrics.json";
      if (i + 1 < argc && argv[i + 1][0] != '-') metrics_path = argv[++i];
    }
  }
  multicast::bench::Run(metrics_path);
  return 0;
}
