// Paged session memory: bytes/session reduction and the bit-identity
// contract, measured end to end.
//
// The paged store (lm/paged_store.h) replaces per-entry map nodes with
// fixed-span refcounted blocks so concurrent draws share frozen prompt
// state at block granularity. Its contract has three legs, and this
// bench gates all of them:
//
//  1. Bit-identity: the same MultiCast (VI) forecast on GasRate, n = 8
//     draws, is run unbatched and through batch schedulers of 4 and 16
//     slots. Forecast values, quantile bands and token ledgers must
//     agree bitwise in every cell with the unbatched run.
//  2. Memory: the paged run must spend at most half the private overlay
//     bytes per draw session that the retired map storage would spend
//     on the same entries. The pool counts each session's distinct
//     overlay keys; the map column is that count times one map entry's
//     malloc-model bytes (MapEntryBytes, tests/reference_models.h).
//  3. Pressure: a pool whose block budget is far below the workload's
//     working set must degrade, never fail — once with a forecaster
//     that allocates past the budget (identical output, every block
//     over it counted as an exhaustion event), and once through a
//     ServeExecutor whose overload ladder reads the pool's fullness and
//     demotes/sheds requests while the run still completes every
//     request.
//
// Run from the repo root: ./build/bench/paged_memory [--smoke]
// Writes BENCH_paged.json plus BENCH_paged_metrics.json (the headline
// paged pool's lm.mem.* counters through the util::WriteMetricsJson
// path the sims share). Exits non-zero when any cell diverges, the
// bytes/session reduction is below 2x, the over-budget run diverges or
// never goes over its budget, or the pressure scenario fails to demote.

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "batch/batch_scheduler.h"
#include "bench/bench_common.h"
#include "forecast/classical.h"
#include "lm/paged_store.h"
#include "serve/executor.h"
#include "serve/overload.h"
#include "serve/request.h"
#include "tests/reference_models.h"

namespace multicast {
namespace bench {
namespace {

struct RunResult {
  /// Forecast values, then every quantile band's values — the bitwise
  /// identity signature.
  std::vector<double> values;
  lm::TokenLedger ledger;
  lm::BlockPoolStats pool;
};

// One forecast under the given schedule, on a pool of span 32 whose
// block budget is `pool_blocks` (0 = unbounded) for the exhaustion
// scenario.
RunResult RunForecast(const ts::Frame& train, size_t horizon, size_t batch,
                      size_t pool_blocks = 0) {
  forecast::MultiCastOptions opts =
      DefaultMultiCast(multiplex::MuxKind::kValueInterleave);
  opts.num_samples = 8;
  opts.seed = 42;
  opts.quantiles = {0.1, 0.9};
  std::shared_ptr<batch::BatchScheduler> scheduler;
  if (batch > 1) {
    batch::BatchPolicy policy;
    policy.max_batch = batch;
    scheduler = std::make_shared<batch::BatchScheduler>(policy);
    opts.batch_scheduler = scheduler;
  }
  opts.block_span = 32;
  opts.pool_blocks = pool_blocks;
  forecast::MultiCastForecaster forecaster(opts);
  forecast::ForecastResult result =
      OrDie(forecaster.Forecast(train, horizon), "forecast");

  RunResult out;
  for (size_t d = 0; d < result.forecast.num_dims(); ++d) {
    const std::vector<double>& vals = result.forecast.dim(d).values();
    out.values.insert(out.values.end(), vals.begin(), vals.end());
  }
  for (const auto& band : result.quantile_bands) {
    out.values.push_back(band.first);
    for (size_t d = 0; d < band.second.num_dims(); ++d) {
      const std::vector<double>& vals = band.second.dim(d).values();
      out.values.insert(out.values.end(), vals.begin(), vals.end());
    }
  }
  out.ledger = result.ledger;
  out.pool = forecaster.block_pool()->stats();
  return out;
}

bool Identical(const RunResult& a, const RunResult& b) {
  return a.values == b.values &&
         a.ledger.prompt_tokens == b.ledger.prompt_tokens &&
         a.ledger.generated_tokens == b.ledger.generated_tokens;
}

struct ShedResult {
  size_t requests = 0;
  size_t completed = 0;      ///< stats rows returned (must equal requests)
  size_t tier_full = 0;
  size_t tier_classical = 0;
  size_t tier_shed = 0;
  size_t exhaustion_events = 0;
  double final_fullness = 0.0;
};

// Memory-pressure scenario: one tiny shared pool (16 blocks) behind a
// shared prefix cache, so the first request's cached prompt state pins
// the pool at its cap. The executor's default memory probe feeds that
// fullness to the ladder, which must demote later requests to the
// classical tier (interactive/standard) or shed them (batch) — the run
// completes every request either way.
ShedResult RunShedScenario(const ts::Frame* history, size_t horizon,
                           size_t requests) {
  lm::PagedMemoryOptions popts;
  popts.block_span = 8;
  popts.max_blocks = 16;
  auto pool = std::make_shared<lm::BlockPool>(popts);
  auto cache = std::make_shared<lm::PrefixCache>(8);

  serve::ForecasterFactory factory =
      [pool, cache](const serve::ForecastRequest& req)
      -> std::unique_ptr<forecast::Forecaster> {
    if (req.tier == serve::ServiceTier::kClassical) {
      return std::make_unique<forecast::ClassicalForecaster>(
          forecast::ClassicalOptions{});
    }
    forecast::MultiCastOptions opts =
        DefaultMultiCast(multiplex::MuxKind::kValueInterleave);
    opts.num_samples = req.tier == serve::ServiceTier::kLlmReduced ? 1 : 2;
    opts.seed = 42 + req.id;
    opts.block_pool = pool;
    opts.shared_prefix_cache = cache;
    return std::make_unique<forecast::MultiCastForecaster>(opts);
  };

  serve::ServeOptions options;
  options.queue.capacity = 32;
  options.overload.ladder.enabled = true;
  options.overload.ladder.wait_budget_seconds = 2.0;
  options.overload.ladder.window_seconds = 2.0;
  options.overload.ladder.recovery_seconds = 0.5;
  options.block_pool = pool;  // default memory probe = pool fullness

  std::vector<serve::ForecastRequest> trace;
  for (size_t i = 0; i < requests; ++i) {
    serve::ForecastRequest r;
    r.id = i;
    r.arrival_seconds = static_cast<double>(i) * 0.5;
    r.slo = i % 3 == 0 ? serve::SloClass::kInteractive
                       : i % 3 == 1 ? serve::SloClass::kStandard
                                    : serve::SloClass::kBatch;
    r.deadline_seconds = r.arrival_seconds + 30.0;
    r.history = history;
    r.horizon = horizon;
    trace.push_back(r);
  }

  serve::ServeExecutor executor(factory, serve::ForecasterFactory(),
                                options);
  std::vector<serve::ServeStats> stats =
      OrDie(executor.Run(std::move(trace)), "shed run");
  serve::ServeSummary summary = serve::Summarize(stats);

  ShedResult out;
  out.requests = requests;
  out.completed = stats.size();
  out.tier_full = summary.tier_llm_full;
  out.tier_classical = summary.tier_classical;
  out.tier_shed = summary.tier_shed;
  out.exhaustion_events = pool->stats().exhaustion_events;
  out.final_fullness = pool->Fullness();
  return out;
}

}  // namespace

int Main(bool smoke) {
  const size_t kHorizon = 12;
  const std::vector<size_t> batch_sizes = {1, 4, 16};

  ts::Split split = LoadSplit("GasRate");

  std::printf(
      "paged session memory: MultiCast (VI) on GasRate, n = 8 draws, "
      "horizon %zu, block span 32, paged vs map bytes across batch "
      "sizes\n\n",
      kHorizon);

  // The unbatched run anchors every identity check.
  RunResult baseline = RunForecast(split.train, kHorizon, /*batch=*/1);
  const double map_entry_bytes = static_cast<double>(
      lm::MapEntryBytes(token::Vocabulary::Digits().size()));

  struct Cell {
    size_t batch = 0;
    bool identical = false;
    double plain_bytes = 0.0;
    double paged_bytes = 0.0;
    double reduction = 0.0;
    double sharing = 0.0;
  };
  std::vector<Cell> cells;
  lm::BlockPoolStats headline_pool;
  TextTable table({"Batch", "Plain B/sess", "Paged B/sess", "Reduction",
                   "Sharing", "Identical"});
  for (size_t batch : batch_sizes) {
    RunResult paged = RunForecast(split.train, kHorizon, batch);
    Cell cell;
    cell.batch = batch;
    // The schedule must not change the output.
    cell.identical = Identical(paged, baseline);
    // What the retired map storage would hold for the same entries.
    cell.plain_bytes =
        paged.pool.sessions == 0
            ? 0.0
            : static_cast<double>(paged.pool.session_overlay_entries) *
                  map_entry_bytes / static_cast<double>(paged.pool.sessions);
    cell.paged_bytes = paged.pool.bytes_per_session();
    cell.reduction =
        cell.paged_bytes > 0.0 ? cell.plain_bytes / cell.paged_bytes : 0.0;
    cell.sharing = paged.pool.sharing_ratio();
    table.AddRow({StrFormat("%zu", cell.batch),
                  StrFormat("%.0f", cell.plain_bytes),
                  StrFormat("%.0f", cell.paged_bytes),
                  StrFormat("%.2fx", cell.reduction),
                  StrFormat("%.1fx", cell.sharing),
                  cell.identical ? "yes" : "NO"});
    if (batch == 1) headline_pool = paged.pool;
    cells.push_back(cell);
  }
  std::printf("%s\n", table.Render().c_str());

  // Exhaustion: a pool budgeted at 8 blocks holds most of the working
  // set over budget — output must not move, events must count.
  RunResult exhausted = RunForecast(split.train, kHorizon, /*batch=*/1,
                                    /*pool_blocks=*/8);
  const bool exhausted_identical = Identical(exhausted, baseline);
  std::printf("exhaustion: pool budget of 8 blocks -> %zu events, "
              "identical %s\n",
              exhausted.pool.exhaustion_events,
              exhausted_identical ? "yes" : "NO");

  // Pressure -> overload: the ladder must degrade on pool fullness.
  const size_t kShedRequests = smoke ? 6 : 9;
  ShedResult shed = RunShedScenario(&split.train, kHorizon, kShedRequests);
  std::printf("pressure: %zu/%zu requests completed, tiers full/classical/"
              "shed %zu/%zu/%zu, %zu exhaustion events, fullness %.2f\n\n",
              shed.completed, shed.requests, shed.tier_full,
              shed.tier_classical, shed.tier_shed, shed.exhaustion_events,
              shed.final_fullness);

  // The headline (unbatched) paged pool's counters, through the same
  // registry path serve-sim uses for its lm.mem.* section.
  util::MetricsRegistry registry;
  lm::PublishBlockPoolStats(headline_pool, &registry, "lm.mem.");
  WriteBenchMetrics("BENCH_paged_metrics.json", "paged n=8", registry);

  std::FILE* json = std::fopen("BENCH_paged.json", "w");
  if (json == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_paged.json\n");
    return 1;
  }
  std::fprintf(json,
               "{\n"
               "  \"bench\": \"paged_memory\",\n"
               "  \"dataset\": \"GasRate\",\n"
               "  \"method\": \"MultiCast (VI)\",\n"
               "  \"num_samples\": 8,\n"
               "  \"horizon\": %zu,\n"
               "  \"block_span\": 32,\n"
               "  \"smoke\": %s,\n"
               "  \"grid\": [\n",
               kHorizon, smoke ? "true" : "false");
  for (size_t i = 0; i < cells.size(); ++i) {
    const Cell& c = cells[i];
    std::fprintf(json,
                 "    {\"batch\": %zu, "
                 "\"plain_bytes_per_session\": %.1f, "
                 "\"paged_bytes_per_session\": %.1f, \"reduction\": %.3f, "
                 "\"sharing_ratio\": %.2f, \"identical\": %s}%s\n",
                 c.batch, c.plain_bytes, c.paged_bytes,
                 c.reduction, c.sharing, c.identical ? "true" : "false",
                 i + 1 < cells.size() ? "," : "");
  }
  const double gate_reduction = cells.front().reduction;
  std::fprintf(
      json,
      "  ],\n"
      "  \"exhaustion\": {\"pool_blocks\": 8, \"events\": %zu, "
      "\"identical\": %s},\n"
      "  \"pressure\": {\"requests\": %zu, \"completed\": %zu, "
      "\"tier_llm_full\": %zu, \"tier_classical\": %zu, "
      "\"tier_shed\": %zu, \"exhaustion_events\": %zu, "
      "\"final_fullness\": %.3f},\n"
      "  \"reduction_at_batch_1\": %.3f,\n"
      "  \"all_identical\": %s\n"
      "}\n",
      exhausted.pool.exhaustion_events,
      exhausted_identical ? "true" : "false", shed.requests, shed.completed,
      shed.tier_full, shed.tier_classical, shed.tier_shed,
      shed.exhaustion_events, shed.final_fullness, gate_reduction,
      [&] {
        for (const Cell& c : cells) {
          if (!c.identical) return false;
        }
        return exhausted_identical;
      }()
          ? "true"
          : "false");
  std::fclose(json);
  std::printf("wrote BENCH_paged.json\n");

  // All gates hold in smoke mode: byte accounting and virtual time are
  // deterministic, so nothing here depends on host speed.
  int status = 0;
  for (const Cell& c : cells) {
    if (!c.identical) {
      std::fprintf(stderr,
                   "FAIL: paged forecast diverged from the unbatched "
                   "run at batch=%zu\n",
                   c.batch);
      status = 1;
    }
    if (c.reduction < 2.0) {
      std::fprintf(stderr,
                   "FAIL: bytes/session reduction %.2fx at batch=%zu "
                   "is below the 2x floor\n",
                   c.reduction, c.batch);
      status = 1;
    }
  }
  if (!exhausted_identical) {
    std::fprintf(stderr,
                 "FAIL: going over the pool budget changed the forecast "
                 "— it must be bit-identical\n");
    status = 1;
  }
  if (exhausted.pool.exhaustion_events == 0) {
    std::fprintf(stderr,
                 "FAIL: the 8-block pool saw no exhaustion events — the "
                 "scenario never went over its budget\n");
    status = 1;
  }
  if (shed.completed != shed.requests) {
    std::fprintf(stderr,
                 "FAIL: pressure run completed %zu of %zu requests\n",
                 shed.completed, shed.requests);
    status = 1;
  }
  if (shed.tier_classical + shed.tier_shed == 0) {
    std::fprintf(stderr,
                 "FAIL: the ladder never demoted or shed under a full "
                 "pool — memory pressure did not reach admission\n");
    status = 1;
  }
  if (shed.exhaustion_events == 0) {
    std::fprintf(stderr,
                 "FAIL: the pressure pool saw no exhaustion events\n");
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
