// Overload ablation: goodput under 1x-16x offered load, with and
// without the degradation ladder.
//
// One fixed open-loop trace of MultiCast (VI) requests on GasRate is
// replayed at increasing arrival rates against a single ServeExecutor
// node. The baseline knows only "serve" and "reject": past saturation
// its queue fills, deadlines expire in line, and goodput collapses.
// The ladder run enables the OverloadController (SLO classes, brownout
// ladder, AIMD admission): under pressure it clamps draw counts,
// demotes to the classical tier (microseconds, no token stream), and
// sheds only as a last resort — trading answer quality for answers.
//
// Requests rotate through the three SLO classes (interactive /
// standard / batch) with per-class deadline budgets, so the table also
// reports the on-SLO fraction per class: the ladder is supposed to
// protect interactive traffic at the expense of batch.
//
// Everything is virtual time: arrivals are deterministic, pipeline
// durations come from the seeded latency-fault stream, ladder
// decisions are pure arithmetic on virtual-time observables. The 8x
// ladder cell is run twice and must reproduce bit-for-bit.
//
// Run from the repo root:
//   ./build/bench/ablation_overload [--smoke] [--metrics-json [path]]
// Writes BENCH_overload.json; --metrics-json additionally exports the
// 8x-ladder gate cell's queue/overload/serve registry snapshot (default
// BENCH_overload_metrics.json) through the util::WriteMetricsJson path
// the sims share. Exits non-zero when the ladder's goodput
// at 8x overload falls below 90%, when the baseline fails to collapse
// there (the scenario must actually overload), or when the rerun is
// not bit-identical.

#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "forecast/classical.h"
#include "serve/executor.h"
#include "serve/overload.h"
#include "serve/request.h"

namespace multicast {
namespace bench {
namespace {

serve::SloClass ClassFor(size_t id) {
  switch (id % 3) {
    case 0:
      return serve::SloClass::kInteractive;
    case 1:
      return serve::SloClass::kStandard;
    default:
      return serve::SloClass::kBatch;
  }
}

// Per-class deadline budgets: interactive is the traffic the ladder
// protects, batch the traffic it sacrifices first.
double BudgetFor(serve::SloClass slo) {
  switch (slo) {
    case serve::SloClass::kInteractive:
      return 2.0;
    case serve::SloClass::kStandard:
      return 4.0;
    case serve::SloClass::kBatch:
      return 8.0;
  }
  return 4.0;
}

// Tier-aware pipeline factory, mirroring the serve-sim CLI: the rung
// the ladder stamped in req.tier picks the pipeline. Latency faults
// (never errors) give each LLM pipeline a nonzero, request-seeded
// virtual duration; the classical tier costs zero virtual seconds.
serve::ForecasterFactory MakeFactory(uint64_t base_seed) {
  return [base_seed](const serve::ForecastRequest& req)
             -> std::unique_ptr<forecast::Forecaster> {
    if (req.tier == serve::ServiceTier::kClassical) {
      forecast::ClassicalOptions copts;
      copts.demotion_note =
          "overload ladder demoted request to the classical tier";
      return std::make_unique<forecast::ClassicalForecaster>(copts);
    }
    forecast::MultiCastOptions opts =
        DefaultMultiCast(multiplex::MuxKind::kValueInterleave);
    opts.num_samples =
        req.tier == serve::ServiceTier::kLlmReduced ? 1 : 2;
    opts.seed = base_seed + req.id;
    opts.faults.latency_spike_rate = 0.25;
    opts.faults.base_latency_seconds = 0.02;
    opts.faults.spike_latency_seconds = 0.5;
    opts.faults.seed = base_seed + req.id * 7919;
    return std::make_unique<forecast::MultiCastForecaster>(opts);
  };
}

std::vector<serve::ForecastRequest> MakeTrace(const ts::Frame* history,
                                              size_t horizon,
                                              size_t requests,
                                              double arrival_rate) {
  std::vector<serve::ForecastRequest> trace;
  trace.reserve(requests);
  for (size_t i = 0; i < requests; ++i) {
    serve::ForecastRequest r;
    r.id = i;
    r.arrival_seconds = static_cast<double>(i) / arrival_rate;
    r.slo = ClassFor(i);
    r.deadline_seconds = r.arrival_seconds + BudgetFor(r.slo);
    r.history = history;
    r.horizon = horizon;
    trace.push_back(r);
  }
  return trace;
}

serve::OverloadPolicy LadderOn() {
  serve::OverloadPolicy p;
  p.ladder.enabled = true;
  p.aimd.enabled = true;
  p.ladder.reduced_samples = 1;
  // Waits approaching the tightest class deadline (interactive, 2s)
  // are the saturation signal.
  p.ladder.wait_budget_seconds = 2.0;
  // The trace spans seconds, not minutes: a short observable window
  // and dwell let the ladder recover within the run instead of
  // remembering the initial congestion forever.
  p.ladder.window_seconds = 2.0;
  p.ladder.recovery_seconds = 0.5;
  p.ladder.hysteresis_gap = 0.1;
  // Demote early: at 8x the queue fills in under a second of full-LLM
  // service, so the cheap rungs must engage before it does.
  p.ladder.enter_reduced = 0.25;
  p.ladder.enter_classical = 0.5;
  p.aimd.initial_limit = 32.0;
  return p;
}

struct ClassTally {
  size_t offered = 0;
  size_t on_slo = 0;
  double fraction() const {
    return offered == 0
               ? 0.0
               : static_cast<double>(on_slo) / static_cast<double>(offered);
  }
};

struct Cell {
  double load = 1.0;
  bool ladder = false;
  size_t offered = 0;
  size_t served = 0;   ///< on-deadline completions (goodput numerator)
  double goodput = 0.0;
  double p99_seconds = 0.0;
  ClassTally interactive, standard, batch;
  size_t tier_full = 0, tier_reduced = 0, tier_classical = 0,
         tier_shed = 0;
  serve::OverloadStats overload;
  /// Output signature for the bit-identity rerun: per-request outcome,
  /// tier, finish time and every forecast value.
  std::vector<double> signature;
};

// `metrics` (optional) receives the executor's queue/overload counters
// and the "serve." summary rollup — the same registry wiring serve-sim
// uses for its --metrics-json export.
Cell RunCell(const ts::Frame* history, size_t horizon, size_t requests,
             double base_rate, double load, bool ladder,
             util::MetricsRegistry* metrics = nullptr) {
  std::vector<serve::ForecastRequest> trace =
      MakeTrace(history, horizon, requests, base_rate * load);

  serve::ServeOptions options;
  options.queue.capacity = 32;
  if (ladder) options.overload = LadderOn();
  options.metrics = metrics;
  serve::ServeExecutor executor(MakeFactory(1234),
                                serve::ForecasterFactory(), options);
  std::vector<serve::ServeStats> stats =
      OrDie(executor.Run(std::move(trace)), "overload run");
  serve::ServeSummary summary = serve::Summarize(stats, metrics);

  Cell cell;
  cell.load = load;
  cell.ladder = ladder;
  cell.offered = stats.size();
  cell.p99_seconds = summary.p99_latency_seconds;
  cell.tier_full = summary.tier_llm_full;
  cell.tier_reduced = summary.tier_llm_reduced;
  cell.tier_classical = summary.tier_classical;
  cell.tier_shed = summary.tier_shed;
  cell.overload = executor.overload_stats();
  for (const serve::ServeStats& st : stats) {
    const bool served = st.outcome == serve::RequestOutcome::kServed ||
                        st.outcome == serve::RequestOutcome::kServedDegraded;
    const bool on_slo = served && st.finish_seconds <=
                                      st.arrival_seconds + BudgetFor(st.slo);
    ClassTally* tally = st.slo == serve::SloClass::kInteractive
                            ? &cell.interactive
                            : st.slo == serve::SloClass::kStandard
                                  ? &cell.standard
                                  : &cell.batch;
    ++tally->offered;
    if (on_slo) {
      ++tally->on_slo;
      ++cell.served;
    }
    cell.signature.push_back(static_cast<double>(st.outcome));
    cell.signature.push_back(static_cast<double>(st.tier));
    cell.signature.push_back(st.finish_seconds);
    if (st.result != nullptr) {
      const ts::Frame& f = st.result->forecast;
      for (size_t d = 0; d < f.num_dims(); ++d) {
        const std::vector<double>& vals = f.dim(d).values();
        cell.signature.insert(cell.signature.end(), vals.begin(),
                              vals.end());
      }
    }
  }
  cell.goodput = static_cast<double>(cell.served) /
                 static_cast<double>(cell.offered);
  return cell;
}

}  // namespace

int Main(bool smoke, const std::string& metrics_path) {
  const size_t kHorizon = 12;
  const size_t kRequests = smoke ? 48 : 96;
  const double kBaseRate = 2.0;
  const std::vector<double> loads =
      smoke ? std::vector<double>{1.0, 8.0}
            : std::vector<double>{1.0, 2.0, 4.0, 8.0, 16.0};

  ts::Split split = LoadSplit("GasRate");

  std::printf(
      "overload ablation: MultiCast (VI) on GasRate, %zu requests, base "
      "rate %.1f req/s scaled 1x-16x, horizon %zu, queue 32, mixed SLO "
      "classes (deadlines 2/4/8s)\n\n",
      kRequests, kBaseRate, kHorizon);

  TextTable table({"Load", "Ladder", "Goodput", "OnSLO int/std/batch",
                   "Tier F/R/C/S", "Shed aimd/ladder", "PeakLvl",
                   "p99(s)"});
  std::vector<Cell> cells;
  std::map<std::pair<double, bool>, double> goodput_by_cell;
  for (double load : loads) {
    for (bool ladder : {false, true}) {
      Cell cell = RunCell(&split.train, kHorizon, kRequests, kBaseRate,
                          load, ladder);
      table.AddRow(
          {StrFormat("%.0fx", cell.load), cell.ladder ? "on" : "off",
           StrFormat("%.3f", cell.goodput),
           StrFormat("%.2f/%.2f/%.2f", cell.interactive.fraction(),
                     cell.standard.fraction(), cell.batch.fraction()),
           StrFormat("%zu/%zu/%zu/%zu", cell.tier_full, cell.tier_reduced,
                     cell.tier_classical, cell.tier_shed),
           StrFormat("%zu/%zu", cell.overload.aimd_rejected,
                     cell.overload.ladder_rejected),
           StrFormat("%d", cell.overload.peak_level),
           StrFormat("%.3f", cell.p99_seconds)});
      goodput_by_cell[{load, ladder}] = cell.goodput;
      cells.push_back(std::move(cell));
    }
  }
  std::printf("%s\n", table.Render().c_str());

  // Determinism: the 8x ladder cell, rerun, must reproduce every
  // outcome, tier, finish time and forecast value bit-for-bit.
  const double kGateLoad = 8.0;
  // --metrics-json: the first gate run doubles as the exported cell, so
  // the artifact carries the queue/overload/serve counters of the
  // headline 8x ladder configuration through the single export path.
  util::MetricsRegistry registry;
  Cell first =
      RunCell(&split.train, kHorizon, kRequests, kBaseRate, kGateLoad,
              /*ladder=*/true,
              metrics_path.empty() ? nullptr : &registry);
  Cell rerun = RunCell(&split.train, kHorizon, kRequests, kBaseRate,
                       kGateLoad, /*ladder=*/true);
  const bool identical = first.signature == rerun.signature;
  if (!metrics_path.empty()) {
    WriteBenchMetrics(metrics_path, "overload_8x_ladder", registry);
  }

  const double ladder_8x = goodput_by_cell[{kGateLoad, true}];
  const double baseline_8x = goodput_by_cell[{kGateLoad, false}];
  const double kFloor = 0.90;

  std::FILE* json = std::fopen("BENCH_overload.json", "w");
  if (json == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_overload.json\n");
    return 1;
  }
  std::fprintf(json,
               "{\n"
               "  \"bench\": \"ablation_overload\",\n"
               "  \"dataset\": \"GasRate\",\n"
               "  \"method\": \"MultiCast (VI)\",\n"
               "  \"requests\": %zu,\n"
               "  \"base_rate_rps\": %.1f,\n"
               "  \"horizon\": %zu,\n"
               "  \"queue_capacity\": 16,\n"
               "  \"deadline_budgets_seconds\": "
               "{\"interactive\": 2.0, \"standard\": 4.0, \"batch\": 8.0},\n"
               "  \"smoke\": %s,\n"
               "  \"results\": [\n",
               kRequests, kBaseRate, kHorizon, smoke ? "true" : "false");
  for (size_t i = 0; i < cells.size(); ++i) {
    const Cell& c = cells[i];
    std::fprintf(
        json,
        "    {\"load\": %.0f, \"ladder\": %s, \"offered\": %zu, "
        "\"served_on_slo\": %zu, \"goodput\": %.4f, "
        "\"on_slo_interactive\": %.4f, \"on_slo_standard\": %.4f, "
        "\"on_slo_batch\": %.4f, \"tier_llm_full\": %zu, "
        "\"tier_llm_reduced\": %zu, \"tier_classical\": %zu, "
        "\"tier_shed\": %zu, \"aimd_rejected\": %zu, "
        "\"ladder_rejected\": %zu, \"escalations\": %zu, "
        "\"recoveries\": %zu, \"peak_level\": %d, \"final_limit\": %.1f, "
        "\"p99_seconds\": %.4f}%s\n",
        c.load, c.ladder ? "true" : "false", c.offered, c.served,
        c.goodput, c.interactive.fraction(), c.standard.fraction(),
        c.batch.fraction(), c.tier_full, c.tier_reduced, c.tier_classical,
        c.tier_shed, c.overload.aimd_rejected, c.overload.ladder_rejected,
        c.overload.escalations, c.overload.recoveries,
        c.overload.peak_level, c.overload.final_limit, c.p99_seconds,
        i + 1 < cells.size() ? "," : "");
  }
  std::fprintf(json,
               "  ],\n"
               "  \"goodput_ladder_8x\": %.4f,\n"
               "  \"goodput_baseline_8x\": %.4f,\n"
               "  \"goodput_floor\": %.4f,\n"
               "  \"rerun_identical\": %s\n"
               "}\n",
               ladder_8x, baseline_8x, kFloor,
               identical ? "true" : "false");
  std::fclose(json);
  std::printf("wrote BENCH_overload.json\n");

  int status = 0;
  // These gates hold in smoke mode too: everything is virtual time, so
  // the table is schedule-exact regardless of host speed.
  if (ladder_8x < kFloor) {
    std::fprintf(stderr,
                 "FAIL: ladder goodput %.3f at 8x overload is below the "
                 "%.0f%% floor\n",
                 ladder_8x, kFloor * 100.0);
    status = 1;
  }
  if (baseline_8x >= ladder_8x) {
    std::fprintf(stderr,
                 "FAIL: baseline goodput %.3f at 8x overload did not "
                 "collapse below the ladder's %.3f — the scenario is not "
                 "overloaded\n",
                 baseline_8x, ladder_8x);
    status = 1;
  }
  if (!identical) {
    std::fprintf(stderr,
                 "FAIL: rerunning the 8x ladder cell changed outcomes, "
                 "tiers or forecasts — the ladder must be deterministic\n");
    status = 1;
  }
  return status;
}

}  // namespace bench
}  // namespace multicast

int main(int argc, char** argv) {
  bool smoke = false;
  std::string metrics_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--metrics-json") == 0) {
      metrics_path = "BENCH_overload_metrics.json";
      if (i + 1 < argc && argv[i + 1][0] != '-') metrics_path = argv[++i];
    }
  }
  return multicast::bench::Main(smoke, metrics_path);
}
