#include "cli/cli.h"

#include <algorithm>
#include <limits>
#include <set>

#include "baselines/arima.h"
#include "cluster/fault_plan.h"
#include "cluster/replica_set.h"
#include "cluster/router.h"
#include "baselines/ets.h"
#include "baselines/sarima.h"
#include "baselines/lstm.h"
#include "baselines/naive.h"
#include "data/datasets.h"
#include "eval/report.h"
#include "eval/rolling.h"
#include "extensions/anomaly.h"
#include "extensions/imputation.h"
#include "forecast/classical.h"
#include "forecast/fallback.h"
#include "forecast/llmtime_forecaster.h"
#include "forecast/multicast_forecaster.h"
#include "lm/paged_store.h"
#include "serve/executor.h"
#include "serve/trace.h"
#include "ts/split.h"
#include "util/flags.h"
#include "util/metrics.h"
#include "util/strings.h"
#include "util/table.h"

namespace multicast {
namespace cli {

namespace {

// Flags shared by the method-constructing commands.
const std::set<std::string> kMethodFlags = {
    "input",  "output",      "horizon",  "method",   "samples",
    "digits", "seed",        "sax",      "sax-segment",
    "sax-alphabet",          "profile",  "plot",     "folds",
    "stride", "quantile",    "dataset",  "name",     "quantiles",
    "chaos",  "chaos-seed",  "retries",  "redraws",  "fallback",
    "prefix-cache", "prefix-cache-capacity",
    "batch",  "batch-size",  "batch-backfill",
    "paged-memory", "block-span", "pool-blocks",
    // serve-sim trace and serving-policy flags.
    "requests",   "arrival-rate", "deadline",  "queue-capacity",
    "queue-order", "hedge-delay", "burst-factor", "burst-every",
    "burst-duration", "drain",    "drain-mode", "metrics-json",
    // overload-ladder flags.
    "slo-class", "overload-ladder", "classical-fallback",
    // cluster-sim fleet flags.
    "replicas", "replica-slots", "router", "replica-chaos",
    "replica-chaos-seed"};
const std::set<std::string> kBoolFlags = {
    "plot", "fallback", "batch", "overload-ladder", "classical-fallback",
    "paged-memory"};

Result<lm::ModelProfile> ProfileByName(const std::string& name) {
  if (name == "llama2") return lm::ModelProfile::Llama2_7B();
  if (name == "phi2") return lm::ModelProfile::Phi2();
  return Status::InvalidArgument("unknown profile '" + name +
                                 "' (expected llama2 or phi2)");
}

// Reads an int-valued flag, range-checked as int64 against [lo, hi]
// before it is narrowed, so an out-of-range value is an error rather
// than a wrapped one.
Result<int> IntFlag(const FlagSet& flags, const std::string& name,
                    int fallback, int lo,
                    int hi = std::numeric_limits<int>::max()) {
  MC_ASSIGN_OR_RETURN(int64_t value, flags.GetInt(name, fallback));
  if (value < lo || value > hi) {
    return Status::InvalidArgument(
        StrFormat("--%s must be in [%d, %d]", name.c_str(), lo, hi));
  }
  return static_cast<int>(value);
}

// The decode scheduler `spec` asks for: one per call under --batch,
// null otherwise.
std::shared_ptr<batch::BatchScheduler> MakeScheduler(const MethodSpec& spec) {
  if (!spec.batch) return nullptr;
  batch::BatchPolicy policy;
  policy.max_batch = static_cast<size_t>(spec.batch_size);
  policy.backfill = spec.batch_backfill;
  return std::make_shared<batch::BatchScheduler>(policy);
}

// A block pool with `spec`'s geometry (--block-span, --pool-blocks).
std::shared_ptr<lm::BlockPool> MakeBlockPool(const MethodSpec& spec) {
  lm::PagedMemoryOptions paged;
  paged.block_span = static_cast<size_t>(spec.block_span);
  paged.max_blocks = static_cast<size_t>(spec.pool_blocks);
  return std::make_shared<lm::BlockPool>(paged);
}

Result<MethodSpec> SpecFromFlags(const FlagSet& flags) {
  MethodSpec spec;
  spec.name = flags.GetString("method", "VI");
  MC_ASSIGN_OR_RETURN(spec.samples, IntFlag(flags, "samples", 5, 1));
  MC_ASSIGN_OR_RETURN(spec.digits, IntFlag(flags, "digits", 2, 1));
  MC_ASSIGN_OR_RETURN(int64_t seed, flags.GetInt("seed", 42));
  spec.seed = static_cast<uint64_t>(seed);
  spec.sax = flags.GetString("sax", "");
  MC_ASSIGN_OR_RETURN(spec.sax_segment, IntFlag(flags, "sax-segment", 6, 1));
  MC_ASSIGN_OR_RETURN(spec.sax_alphabet,
                      IntFlag(flags, "sax-alphabet", 5, 2));
  spec.profile = flags.GetString("profile", "llama2");
  MC_ASSIGN_OR_RETURN(spec.chaos, flags.GetDouble("chaos", 0.0));
  if (spec.chaos < 0.0 || spec.chaos > 1.0) {
    return Status::InvalidArgument("--chaos expects a rate in [0, 1]");
  }
  MC_ASSIGN_OR_RETURN(int64_t chaos_seed,
                      flags.GetInt("chaos-seed", 0xC0FFEE));
  spec.chaos_seed = static_cast<uint64_t>(chaos_seed);
  MC_ASSIGN_OR_RETURN(spec.retries, IntFlag(flags, "retries", 3, 0));
  MC_ASSIGN_OR_RETURN(spec.redraws, IntFlag(flags, "redraws", 4, 0));
  spec.fallback = flags.GetBool("fallback");
  spec.classical_fallback = flags.GetBool("classical-fallback");
  MC_ASSIGN_OR_RETURN(int64_t prefix_cache, flags.GetInt("prefix-cache", 1));
  MC_ASSIGN_OR_RETURN(spec.prefix_cache_capacity,
                      IntFlag(flags, "prefix-cache-capacity", 64, 1));
  if (prefix_cache == 0) spec.prefix_cache_capacity = 0;
  spec.batch = flags.GetBool("batch");
  MC_ASSIGN_OR_RETURN(spec.batch_size, IntFlag(flags, "batch-size", 8, 1));
  MC_ASSIGN_OR_RETURN(int64_t backfill, flags.GetInt("batch-backfill", 1));
  spec.batch_backfill = backfill != 0;
  spec.paged_memory = flags.GetBool("paged-memory");
  MC_ASSIGN_OR_RETURN(spec.block_span,
                      IntFlag(flags, "block-span", 32,
                              static_cast<int>(lm::kMinBlockSpan),
                              static_cast<int>(lm::kMaxBlockSpan)));
  MC_ASSIGN_OR_RETURN(spec.pool_blocks, IntFlag(flags, "pool-blocks", 0, 0));
  return spec;
}

Result<ts::Frame> LoadInput(const FlagSet& flags) {
  std::string path = flags.GetString("input", "");
  if (path.empty()) {
    return Status::InvalidArgument("--input <csv> is required");
  }
  Result<ts::Frame> frame =
      data::LoadCsvDataset(path, flags.GetString("name", path));
  if (!frame.ok() &&
      frame.status().message().find("not finite") != std::string::npos) {
    return Status(frame.status().code(),
                  frame.status().message() +
                      " — repair the gap first (see the imputation "
                      "extension: `multicast impute`)");
  }
  return frame;
}

Status SaveIfRequested(const FlagSet& flags, const ts::Frame& frame,
                       std::ostream& out) {
  std::string path = flags.GetString("output", "");
  if (path.empty()) return Status::OK();
  MC_RETURN_IF_ERROR(WriteCsvFile(frame.ToCsv(), path));
  out << "wrote " << path << "\n";
  return Status::OK();
}

// Parses a comma-separated list of quantile levels ("0.1,0.9").
Result<std::vector<double>> ParseQuantiles(const std::string& text) {
  std::vector<double> levels;
  for (const std::string& field : Split(text, ',')) {
    char* end = nullptr;
    double level = std::strtod(field.c_str(), &end);
    if (end != field.c_str() + field.size() || field.empty()) {
      return Status::InvalidArgument("bad quantile level '" + field + "'");
    }
    levels.push_back(level);
  }
  return levels;
}

Result<int> CmdForecast(const FlagSet& flags, std::ostream& out) {
  MC_ASSIGN_OR_RETURN(ts::Frame frame, LoadInput(flags));
  MC_ASSIGN_OR_RETURN(int64_t horizon, flags.GetInt("horizon", 12));
  if (horizon < 1) return Status::InvalidArgument("--horizon must be >= 1");
  MC_ASSIGN_OR_RETURN(MethodSpec spec, SpecFromFlags(flags));
  MC_ASSIGN_OR_RETURN(std::unique_ptr<forecast::Forecaster> forecaster,
                      MakeForecaster(spec));

  // Quantile bands are a MultiCast feature; rebuild with them when
  // requested on a MultiCast variant.
  if (flags.Has("quantiles")) {
    auto* mc = dynamic_cast<forecast::MultiCastForecaster*>(
        forecaster.get());
    if (mc == nullptr) {
      return Status::InvalidArgument(
          "--quantiles requires a MultiCast method (DI, VI or VC)");
    }
    MC_ASSIGN_OR_RETURN(std::vector<double> levels,
                        ParseQuantiles(flags.GetString("quantiles", "")));
    forecast::MultiCastOptions opts = mc->options();
    opts.quantiles = std::move(levels);
    forecaster = std::make_unique<forecast::MultiCastForecaster>(opts);
  }

  MC_ASSIGN_OR_RETURN(
      forecast::ForecastResult result,
      forecaster->Forecast(frame, static_cast<size_t>(horizon)));
  out << forecaster->name() << " forecast, " << horizon << " steps, "
      << StrFormat("%.3fs", result.seconds);
  if (result.ledger.total() > 0) {
    out << ", tokens " << eval::FormatLedger(result.ledger);
  }
  out << "\n";
  if (result.retry_stats.attempts > 0) {
    out << StrFormat(
        "resilience: %zu calls, %zu attempts (%zu retries), "
        "%zu circuit rejections, %.3fs virtual backoff\n",
        result.retry_stats.calls, result.retry_stats.attempts,
        result.retry_stats.retries, result.retry_stats.circuit_rejections,
        result.retry_stats.backoff_seconds);
  }
  if (result.degraded) {
    out << StrFormat("DEGRADED result (%zu/%zu samples)",
                     result.samples_used, result.samples_requested);
    if (auto* fb =
            dynamic_cast<forecast::FallbackForecaster*>(forecaster.get())) {
      out << ", served by " << fb->last_used();
    }
    out << "\n";
    for (const std::string& warning : result.warnings) {
      out << "  warning: " << warning << "\n";
    }
  }

  // Print the forecast as CSV rows on stdout.
  out << WriteCsv(result.forecast.ToCsv());
  for (const auto& [level, band] : result.quantile_bands) {
    out << StrFormat("p%g band:\n", level * 100.0);
    out << WriteCsv(band.ToCsv());
  }

  if (flags.GetBool("plot")) {
    ts::Split pseudo;
    pseudo.train = frame;
    pseudo.test = result.forecast;
    eval::MethodRun run;
    run.method = forecaster->name();
    run.forecast = result.forecast;
    for (size_t d = 0; d < frame.num_dims(); ++d) {
      out << eval::RenderForecastFigure(frame.dim(d).name(), pseudo, d,
                                        run);
    }
  }
  MC_RETURN_IF_ERROR(SaveIfRequested(flags, result.forecast, out));
  return 0;
}

Result<int> CmdEvaluate(const FlagSet& flags, std::ostream& out) {
  MC_ASSIGN_OR_RETURN(ts::Frame frame, LoadInput(flags));
  MC_ASSIGN_OR_RETURN(int64_t horizon, flags.GetInt("horizon", 12));
  MC_ASSIGN_OR_RETURN(int64_t folds, flags.GetInt("folds", 3));
  MC_ASSIGN_OR_RETURN(int64_t stride, flags.GetInt("stride", horizon));
  MC_ASSIGN_OR_RETURN(MethodSpec base, SpecFromFlags(flags));

  eval::RollingOptions ro;
  ro.horizon = static_cast<size_t>(horizon);
  ro.folds = static_cast<size_t>(folds);
  ro.stride = static_cast<size_t>(stride);

  std::vector<std::string> header = {"Method"};
  for (size_t d = 0; d < frame.num_dims(); ++d) {
    header.push_back(frame.dim(d).name() + " (mean +/- sd)");
  }
  TextTable table(header);
  for (const char* name : {"DI", "VI", "VC", "LLMTIME", "ARIMA", "SARIMA",
                           "HW", "LSTM", "NAIVE"}) {
    MethodSpec spec = base;
    spec.name = name;
    MC_ASSIGN_OR_RETURN(std::unique_ptr<forecast::Forecaster> forecaster,
                        MakeForecaster(spec));
    MC_ASSIGN_OR_RETURN(
        eval::RollingResult result,
        eval::RollingOriginEvaluate(forecaster.get(), frame, ro));
    std::vector<std::string> row = {result.method};
    for (size_t d = 0; d < frame.num_dims(); ++d) {
      row.push_back(StrFormat("%.3f +/- %.3f", result.mean_rmse[d],
                              result.stddev_rmse[d]));
    }
    table.AddRow(std::move(row));
  }
  out << table.Render();
  return 0;
}

Result<int> CmdImpute(const FlagSet& flags, std::ostream& out) {
  MC_ASSIGN_OR_RETURN(ts::Frame frame, LoadInput(flags));
  MC_ASSIGN_OR_RETURN(MethodSpec spec, SpecFromFlags(flags));
  extensions::ImputeOptions opts;
  opts.multicast.num_samples = spec.samples;
  opts.multicast.digits = spec.digits;
  opts.multicast.seed = spec.seed;
  MC_ASSIGN_OR_RETURN(opts.multicast.profile, ProfileByName(spec.profile));

  auto gaps = extensions::FindGaps(frame);
  out << "gaps: " << gaps.size();
  for (const auto& gap : gaps) {
    out << StrFormat(" [%zu, %zu)", gap.begin, gap.end);
  }
  out << "\n";
  MC_ASSIGN_OR_RETURN(ts::Frame filled, extensions::Impute(frame, opts));
  out << WriteCsv(filled.ToCsv());
  MC_RETURN_IF_ERROR(SaveIfRequested(flags, filled, out));
  return 0;
}

Result<int> CmdAnomaly(const FlagSet& flags, std::ostream& out) {
  MC_ASSIGN_OR_RETURN(ts::Frame frame, LoadInput(flags));
  MC_ASSIGN_OR_RETURN(double quantile, flags.GetDouble("quantile", 0.98));
  extensions::AnomalyOptions opts;
  opts.threshold_quantile = quantile;
  MC_ASSIGN_OR_RETURN(opts.profile,
                      ProfileByName(flags.GetString("profile", "llama2")));
  MC_ASSIGN_OR_RETURN(extensions::AnomalyReport report,
                      extensions::DetectAnomalies(frame, opts));
  out << StrFormat("threshold (q%.3g of surprisal): %.4f\n", quantile,
                   report.threshold);
  out << "anomalies:";
  for (size_t t : report.anomalies) {
    size_t d = report.ArgMaxDimension(t);
    out << " " << t << "(" << frame.dim(d).name() << ")";
  }
  out << "\n";

  extensions::ChangePointOptions cp;
  cp.scoring = opts;
  MC_ASSIGN_OR_RETURN(std::vector<size_t> cps,
                      extensions::DetectChangePoints(frame, cp));
  out << "change points:";
  for (size_t t : cps) out << " " << t;
  out << "\n";
  return 0;
}

// Trace + serving-policy options shared by serve-sim and cluster-sim.
struct SimConfig {
  serve::TraceOptions trace;
  serve::QueuePolicy queue;
  std::string queue_order = "fifo";
  serve::HedgePolicy hedge;
  double hedge_delay = 0.0;
  double drain_at = 0.0;  // 0 = never
  serve::DrainMode drain_mode = serve::DrainMode::kFinishQueued;
  std::string drain_mode_name = "finish";
  /// SLO class of every trace request: interactive | standard | batch,
  /// or "mixed" — rotate the three classes by request id.
  std::string slo_class = "standard";
  /// Brownout ladder + AIMD admission (--overload-ladder).
  serve::OverloadPolicy overload;
};

serve::SloClass SloForRequest(const std::string& mode, size_t id) {
  if (mode == "interactive") return serve::SloClass::kInteractive;
  if (mode == "batch") return serve::SloClass::kBatch;
  if (mode == "standard") return serve::SloClass::kStandard;
  switch (id % 3) {  // mixed
    case 0:
      return serve::SloClass::kInteractive;
    case 1:
      return serve::SloClass::kStandard;
    default:
      return serve::SloClass::kBatch;
  }
}

Result<SimConfig> ParseSimFlags(const FlagSet& flags, uint64_t seed) {
  SimConfig cfg;
  MC_ASSIGN_OR_RETURN(int64_t requests, flags.GetInt("requests", 32));
  if (requests < 1) {
    return Status::InvalidArgument("--requests must be >= 1");
  }
  cfg.trace.num_requests = static_cast<size_t>(requests);
  MC_ASSIGN_OR_RETURN(cfg.trace.arrival_rate,
                      flags.GetDouble("arrival-rate", 4.0));
  if (cfg.trace.arrival_rate <= 0.0) {
    return Status::InvalidArgument("--arrival-rate must be > 0");
  }
  MC_ASSIGN_OR_RETURN(cfg.trace.burst_factor,
                      flags.GetDouble("burst-factor", 4.0));
  MC_ASSIGN_OR_RETURN(cfg.trace.burst_every_seconds,
                      flags.GetDouble("burst-every", 10.0));
  MC_ASSIGN_OR_RETURN(cfg.trace.burst_duration_seconds,
                      flags.GetDouble("burst-duration", 2.0));
  MC_ASSIGN_OR_RETURN(cfg.trace.deadline_seconds,
                      flags.GetDouble("deadline", 2.0));
  cfg.trace.seed = seed;

  MC_ASSIGN_OR_RETURN(int64_t capacity, flags.GetInt("queue-capacity", 8));
  if (capacity < 1) {
    return Status::InvalidArgument("--queue-capacity must be >= 1");
  }
  cfg.queue.capacity = static_cast<size_t>(capacity);
  cfg.queue_order = flags.GetString("queue-order", "fifo");
  if (cfg.queue_order == "edf") {
    cfg.queue.order = serve::QueueOrder::kEarliestDeadlineFirst;
  } else if (cfg.queue_order != "fifo") {
    return Status::InvalidArgument(
        "--queue-order expects 'fifo' or 'edf'");
  }
  MC_ASSIGN_OR_RETURN(cfg.hedge_delay, flags.GetDouble("hedge-delay", 0.0));
  cfg.hedge.enabled = cfg.hedge_delay > 0.0;
  cfg.hedge.delay_seconds = cfg.hedge_delay;
  MC_ASSIGN_OR_RETURN(cfg.drain_at, flags.GetDouble("drain", 0.0));
  cfg.drain_mode_name = flags.GetString("drain-mode", "finish");
  if (cfg.drain_mode_name == "cancel") {
    cfg.drain_mode = serve::DrainMode::kCancelQueued;
  } else if (cfg.drain_mode_name != "finish") {
    return Status::InvalidArgument(
        "--drain-mode expects 'finish' or 'cancel'");
  }
  cfg.slo_class = flags.GetString("slo-class", "standard");
  if (cfg.slo_class != "interactive" && cfg.slo_class != "standard" &&
      cfg.slo_class != "batch" && cfg.slo_class != "mixed") {
    return Status::InvalidArgument(
        "--slo-class expects 'interactive', 'standard', 'batch' or "
        "'mixed'");
  }
  if (flags.GetBool("overload-ladder")) {
    cfg.overload.ladder.enabled = true;
    cfg.overload.aimd.enabled = true;
    // Budget the ladder against the trace's own deadline: waits near
    // the deadline are a saturation signal regardless of its scale.
    cfg.overload.ladder.wait_budget_seconds =
        0.5 * cfg.trace.deadline_seconds;
    cfg.overload.aimd.initial_limit =
        static_cast<double>(cfg.queue.capacity);
  }
  return cfg;
}

// The rejection-reason column group: why the non-served requests were
// turned away, as queue-full/deadline/unavailable/cancelled counts,
// plus the mean retry-after hint handed to the shed callers.
std::string FormatRejections(const serve::RejectionBreakdown& r) {
  std::string text =
      StrFormat("%zu/%zu/%zu/%zu", r.queue_full, r.deadline_expired,
                r.backend_unavailable, r.cancelled + r.other);
  if (r.mean_retry_after_seconds() > 0.0) {
    text += StrFormat(" ra=%.2fs", r.mean_retry_after_seconds());
  }
  return text;
}

// The service-tier column group: how many requests landed on each rung
// of the degradation ladder (full LLM / reduced draws / classical /
// shed).
std::string FormatTiers(const serve::ServeSummary& s) {
  return StrFormat("%zu/%zu/%zu/%zu", s.tier_llm_full, s.tier_llm_reduced,
                   s.tier_classical, s.tier_shed);
}

// One-line rollup of the ladder/limiter decisions in a run.
std::string FormatOverload(const std::string& name,
                           const serve::OverloadStats& o) {
  return StrFormat(
      "overload %s: %zu aimd-shed, %zu ladder-shed, demoted %zu reduced "
      "+ %zu classical, %zu escalations, %zu recoveries, peak level %d, "
      "final limit %.1f",
      name.c_str(), o.aimd_rejected, o.ladder_rejected, o.demoted_reduced,
      o.demoted_classical, o.escalations, o.recoveries, o.peak_level,
      o.final_limit);
}

// Replays a seeded Poisson-burst arrival trace against the serving
// executor, one run per LLM method, and prints the fleet summary.
Result<int> CmdServeSim(const FlagSet& flags, std::ostream& out) {
  MC_ASSIGN_OR_RETURN(ts::Frame frame, LoadInput(flags));
  MC_ASSIGN_OR_RETURN(int64_t horizon, flags.GetInt("horizon", 12));
  if (horizon < 1) return Status::InvalidArgument("--horizon must be >= 1");
  MC_ASSIGN_OR_RETURN(MethodSpec base, SpecFromFlags(flags));
  MC_ASSIGN_OR_RETURN(SimConfig cfg, ParseSimFlags(flags, base.seed));
  serve::TraceOptions& trace = cfg.trace;
  std::vector<serve::Arrival> arrivals = serve::GenerateTrace(trace);

  serve::ServeOptions serve_options;
  serve_options.queue = cfg.queue;
  const std::string& order = cfg.queue_order;
  const double hedge_delay = cfg.hedge_delay;
  serve_options.hedge = cfg.hedge;
  const double drain_at = cfg.drain_at;
  if (drain_at > 0.0) serve_options.drain_at_seconds = drain_at;
  serve_options.drain_mode = cfg.drain_mode;
  const std::string& drain_mode = cfg.drain_mode_name;

  serve_options.batch.enabled = base.batch;
  serve_options.batch.size = static_cast<size_t>(base.batch_size);
  if (serve_options.batch.enabled && serve_options.hedge.enabled) {
    return Status::InvalidArgument(
        "--batch does not compose with --hedge-delay (a batched slot "
        "cannot race a second pipeline for the same request)");
  }
  serve_options.overload = cfg.overload;

  std::vector<std::string> methods = {"DI", "VI", "VC", "LLMTIME"};
  if (flags.Has("method")) methods = {base.name};

  out << StrFormat(
      "serve-sim: %zu requests at %.3g req/s (burst x%.3g every %.3gs "
      "for %.3gs), deadline %.3gs, queue %zu (%s), hedge %s, batch %s, "
      "seed %llu\n",
      trace.num_requests, trace.arrival_rate, trace.burst_factor,
      trace.burst_every_seconds, trace.burst_duration_seconds,
      trace.deadline_seconds, serve_options.queue.capacity, order.c_str(),
      serve_options.hedge.enabled
          ? StrFormat("after %.3gs", hedge_delay).c_str()
          : "off",
      serve_options.batch.enabled
          ? StrFormat("%zu (%s)", serve_options.batch.size,
                      base.batch_backfill ? "backfill" : "gang")
                .c_str()
          : "off",
      static_cast<unsigned long long>(base.seed));
  if (drain_at > 0.0) {
    out << StrFormat("drain at %.3gs (%s)\n", drain_at,
                     drain_mode.c_str());
  }
  if (serve_options.overload.any_enabled()) {
    out << StrFormat(
        "overload ladder: on (reduced %d draws, wait budget %.3gs, aimd "
        "%.3g..%.3g), slo %s\n",
        serve_options.overload.ladder.reduced_samples,
        serve_options.overload.ladder.wait_budget_seconds,
        serve_options.overload.aimd.initial_limit,
        serve_options.overload.aimd.max_limit, cfg.slo_class.c_str());
  }

  TextTable table({"Method", "Served", "Degraded", "Shed(full)",
                   "Shed(expired)", "Drained", "Failed",
                   "Rej full/ddl/unav/cxl", "Tier F/R/C/S", "Hedged",
                   "HedgeWins", "p50(s)", "p99(s)",
                   "Wait p50/p95/p99", "Svc p50/p95/p99", "Attempts",
                   "Retries", "Cancelled", "Preempted"});
  // Optional-subsystem stats, one line per method each, printed after
  // the table. Disabled subsystems still get an explicit "off" line so
  // two runs compare line-by-line.
  std::vector<std::string> cache_lines;
  std::vector<std::string> batch_lines;
  std::vector<std::string> mem_lines;
  std::vector<std::string> overload_lines;
  // One registry per method, holding every subsystem's counters for
  // that run; --metrics-json writes them as one section per method
  // through the single export path (util::WriteMetricsJson).
  const std::string metrics_path = flags.GetString("metrics-json", "");
  std::vector<std::pair<std::string, util::MetricsSnapshot>> sections;
  for (const std::string& name : methods) {
    MethodSpec spec = base;
    spec.name = name;
    util::MetricsRegistry registry;
    serve_options.metrics = &registry;
    // One prefix cache per method, shared by every request (and hedge)
    // of that method: requests over the same feed present the same
    // prompt, so later requests fork the cached state instead of
    // re-observing it. The executor only snapshots its counters.
    std::shared_ptr<lm::PrefixCache> method_cache;
    if (spec.prefix_cache_capacity > 0) {
      method_cache = std::make_shared<lm::PrefixCache>(
          static_cast<size_t>(spec.prefix_cache_capacity));
      spec.shared_prefix_cache = method_cache;
    }
    serve_options.prefix_cache = method_cache;
    // One decode scheduler per method, shared the same way: every
    // in-flight request's sample draws join one step-level batch.
    std::shared_ptr<batch::BatchScheduler> method_scheduler =
        MakeScheduler(spec);
    spec.batch_scheduler = method_scheduler;
    serve_options.batch.scheduler = method_scheduler;
    // --paged-memory: one block pool per method, shared the same way:
    // every request's pipelines (and the shared prefix cache's frozen
    // states) draw blocks from it, it is reported, and its fullness
    // feeds the overload ladder. Without it each request's forecaster
    // pages on a private pool of its own.
    std::shared_ptr<lm::BlockPool> method_pool;
    if (spec.paged_memory) {
      method_pool = MakeBlockPool(spec);
      spec.block_pool = method_pool;
    }
    serve_options.block_pool = method_pool;
    // Validate the spec once so the per-request factories cannot fail.
    MC_RETURN_IF_ERROR(MakeForecaster(spec).status());
    MethodSpec hedge_spec = spec;
    hedge_spec.fallback = true;  // hedge runs the demotion chain
    MC_RETURN_IF_ERROR(MakeForecaster(hedge_spec).status());

    // Per-request construction decorrelates sampling across requests:
    // request i forecasts with seed base+i, so a retried or hedged run
    // is not a token-for-token replay of its sibling. The ladder's rung
    // (stamped in req.tier at dispatch) picks the pipeline: the reduced
    // rung clamps the draw count, the classical rung swaps in the
    // statistical tier.
    const int reduced_samples = cfg.overload.ladder.reduced_samples;
    auto factory_for = [reduced_samples](MethodSpec s) {
      return [s, reduced_samples](const serve::ForecastRequest& req)
               -> std::unique_ptr<forecast::Forecaster> {
        if (req.tier == serve::ServiceTier::kClassical) {
          forecast::ClassicalOptions copts;
          copts.demotion_note =
              "overload ladder demoted request to the classical tier";
          return std::make_unique<forecast::ClassicalForecaster>(copts);
        }
        MethodSpec per = s;
        per.seed = s.seed + req.id;
        if (req.tier == serve::ServiceTier::kLlmReduced) {
          per.samples = std::min(per.samples, reduced_samples);
        }
        return MakeForecaster(per).ValueOrDie();
      };
    };
    serve::ForecasterFactory hedge_factory;
    if (serve_options.hedge.enabled) {
      if (spec.classical_fallback) {
        // --classical-fallback races the hedge against the classical
        // tier: a deterministic, token-free backup for a slow LLM run.
        hedge_factory = [](const serve::ForecastRequest&) {
          forecast::ClassicalOptions copts;
          copts.demotion_note = "hedge backup served by the classical tier";
          return std::make_unique<forecast::ClassicalForecaster>(copts);
        };
      } else {
        hedge_factory = factory_for(hedge_spec);
      }
    }
    serve::ServeExecutor executor(factory_for(spec), hedge_factory,
                                  serve_options);

    std::vector<serve::ForecastRequest> reqs;
    reqs.reserve(arrivals.size());
    for (size_t i = 0; i < arrivals.size(); ++i) {
      serve::ForecastRequest req;
      req.id = i;
      req.arrival_seconds = arrivals[i].arrival_seconds;
      req.deadline_seconds = arrivals[i].deadline_seconds;
      req.history = &frame;
      req.horizon = static_cast<size_t>(horizon);
      req.slo = SloForRequest(cfg.slo_class, i);
      reqs.push_back(req);
    }
    MC_ASSIGN_OR_RETURN(std::vector<serve::ServeStats> stats,
                        executor.Run(std::move(reqs)));
    serve::ServeSummary summary = serve::Summarize(stats, &registry);
    // Lifetime counters of the shared per-method subsystems (the
    // "serve.*" rollup carries the per-request attribution).
    if (method_cache != nullptr) method_cache->PublishMetrics(&registry);
    if (method_scheduler != nullptr) {
      method_scheduler->PublishMetrics(&registry);
    }
    if (method_pool != nullptr) method_pool->PublishMetrics(&registry);
    sections.emplace_back(name, registry.Snapshot());
    table.AddRow(
        {name, StrFormat("%zu", summary.served),
         StrFormat("%zu", summary.served_degraded),
         StrFormat("%zu", summary.shed_queue_full),
         StrFormat("%zu", summary.shed_expired),
         StrFormat("%zu", summary.cancelled_drain),
         StrFormat("%zu", summary.failed),
         FormatRejections(summary.rejections), FormatTiers(summary),
         StrFormat("%zu", summary.hedges_fired),
         StrFormat("%zu", summary.hedge_wins),
         StrFormat("%.3f", summary.p50_latency_seconds),
         StrFormat("%.3f", summary.p99_latency_seconds),
         StrFormat("%.3f/%.3f/%.3f", summary.p50_queue_wait_seconds,
                   summary.p95_queue_wait_seconds,
                   summary.p99_queue_wait_seconds),
         StrFormat("%.3f/%.3f/%.3f", summary.p50_service_seconds,
                   summary.p95_service_seconds,
                   summary.p99_service_seconds),
         StrFormat("%zu", summary.retry.attempts),
         StrFormat("%zu", summary.retry.retries),
         StrFormat("%zu", summary.retry.cancelled_calls),
         StrFormat("%zu", summary.retry.deadline_preempted)});
    if (method_cache != nullptr) {
      const lm::PrefixCacheStats& pc = summary.prefix_cache;
      const lm::PrefixCache::DrawTrieTotals tries =
          method_cache->draw_tries();
      cache_lines.push_back(StrFormat(
          "prefix-cache %s: %zu/%zu hits, "
          "%zu/%zu prompt tokens reused, %zu evictions, "
          "draw tries %zu nodes / %zu model steps reused",
          name.c_str(), pc.hits(), pc.lookups, pc.prompt_tokens_reused,
          pc.prompt_tokens_seen, pc.evictions, tries.nodes, tries.steps));
    } else {
      cache_lines.push_back(StrFormat("prefix-cache %s: off", name.c_str()));
    }
    if (method_scheduler != nullptr) {
      const batch::BatchStats& bs = summary.batch;
      batch_lines.push_back(StrFormat(
          "batch %s: %zu steps, %zu decode jobs, mean occupancy %.2f "
          "(peak %zu), %zu backfills, %zu preemptions",
          name.c_str(), bs.steps, bs.admitted, bs.mean_batch(),
          bs.peak_batch, bs.backfills, bs.preemptions));
    } else {
      batch_lines.push_back(StrFormat("batch %s: off", name.c_str()));
    }
    if (method_pool != nullptr) {
      const lm::BlockPoolStats ms = method_pool->stats();
      mem_lines.push_back(StrFormat(
          "paged-mem %s: %zu blocks live (peak %zu), %zu sessions at "
          "%.0f bytes each, sharing %.1fx, %zu recycled, %zu exhaustions",
          name.c_str(), ms.blocks_live, ms.blocks_peak, ms.sessions,
          ms.bytes_per_session(), ms.sharing_ratio(), ms.blocks_recycled,
          ms.exhaustion_events));
    } else {
      mem_lines.push_back(StrFormat(
          "paged-mem %s: a private pool per request (--paged-memory "
          "shares one)",
          name.c_str()));
    }
    if (serve_options.overload.any_enabled()) {
      overload_lines.push_back(
          FormatOverload(name, executor.overload_stats()));
    } else {
      overload_lines.push_back(
          StrFormat("overload %s: off", name.c_str()));
    }
  }
  out << table.Render();
  for (const std::string& line : cache_lines) out << line << "\n";
  for (const std::string& line : batch_lines) out << line << "\n";
  for (const std::string& line : mem_lines) out << line << "\n";
  for (const std::string& line : overload_lines) out << line << "\n";
  if (!metrics_path.empty()) {
    MC_RETURN_IF_ERROR(util::WriteMetricsJson(metrics_path, sections));
    out << "wrote metrics to " << metrics_path << "\n";
  }
  return 0;
}

// Replays the serve-sim trace against a multi-replica fleet with
// health-checked routing, scripted replica chaos and in-flight
// failover.
Result<int> CmdClusterSim(const FlagSet& flags, std::ostream& out) {
  MC_ASSIGN_OR_RETURN(ts::Frame frame, LoadInput(flags));
  MC_ASSIGN_OR_RETURN(int64_t horizon, flags.GetInt("horizon", 12));
  if (horizon < 1) return Status::InvalidArgument("--horizon must be >= 1");
  MC_ASSIGN_OR_RETURN(MethodSpec base, SpecFromFlags(flags));
  MC_ASSIGN_OR_RETURN(SimConfig cfg, ParseSimFlags(flags, base.seed));
  std::vector<serve::Arrival> arrivals = serve::GenerateTrace(cfg.trace);

  MC_ASSIGN_OR_RETURN(int64_t replicas, flags.GetInt("replicas", 3));
  if (replicas < 1) {
    return Status::InvalidArgument("--replicas must be >= 1");
  }
  MC_ASSIGN_OR_RETURN(int64_t slots, flags.GetInt("replica-slots", 1));
  if (slots < 1) {
    return Status::InvalidArgument("--replica-slots must be >= 1");
  }
  MC_ASSIGN_OR_RETURN(
      cluster::RouterPolicy router_policy,
      cluster::RouterPolicyFromName(flags.GetString("router", "least")));
  MC_ASSIGN_OR_RETURN(double replica_chaos,
                      flags.GetDouble("replica-chaos", 0.0));
  if (replica_chaos < 0.0) {
    return Status::InvalidArgument("--replica-chaos must be >= 0");
  }
  MC_ASSIGN_OR_RETURN(int64_t chaos_seed,
                      flags.GetInt("replica-chaos-seed", 0xF1EE7));

  // Script the fleet chaos over the span the trace actually covers.
  cluster::FleetChaosOptions chaos;
  chaos.replicas = static_cast<size_t>(replicas);
  chaos.horizon_seconds =
      arrivals.empty() ? 60.0
                       : arrivals.back().arrival_seconds +
                             cfg.trace.deadline_seconds;
  chaos.crash_rate = replica_chaos;
  chaos.seed = static_cast<uint64_t>(chaos_seed);
  std::vector<cluster::ReplicaFaultPlan> plans =
      cluster::GenerateFleetChaos(chaos);

  cluster::ClusterOptions options;
  options.queue = cfg.queue;
  options.router = router_policy;
  options.router_seed = base.seed;
  options.hedge = cfg.hedge;
  if (cfg.drain_at > 0.0) options.drain_at_seconds = cfg.drain_at;
  options.drain_mode = cfg.drain_mode;
  options.overload = cfg.overload;
  // One registry for the whole fleet run; --metrics-json writes it as
  // one section through the single export path (util::WriteMetricsJson).
  util::MetricsRegistry registry;
  options.metrics = &registry;

  const std::string name = base.name;
  MethodSpec spec = base;
  // Every replica gets its own prompt cache and decode scheduler —
  // node-local state the chaos harness can crash away.
  std::vector<cluster::Replica> fleet;
  for (int64_t r = 0; r < replicas; ++r) {
    cluster::Replica rep;
    rep.id = static_cast<int>(r);
    rep.slots = static_cast<size_t>(slots);
    if (spec.prefix_cache_capacity > 0) {
      rep.prefix_cache = std::make_shared<lm::PrefixCache>(
          static_cast<size_t>(spec.prefix_cache_capacity));
    }
    rep.scheduler = MakeScheduler(spec);
    if (spec.paged_memory) rep.block_pool = MakeBlockPool(spec);
    rep.plan = plans[static_cast<size_t>(r)];
    fleet.push_back(std::move(rep));
  }

  // Validate the spec once so the per-request factories cannot fail.
  MC_RETURN_IF_ERROR(MakeForecaster(spec).status());
  MethodSpec hedge_spec = spec;
  hedge_spec.fallback = true;  // hedge runs the demotion chain
  MC_RETURN_IF_ERROR(MakeForecaster(hedge_spec).status());

  // Per-request seeds decorrelate sampling; per-replica wiring keeps
  // cache/scheduler state node-local. Seeds never depend on the
  // replica, which is what makes failover output-identical — and the
  // ladder rung rides in req.tier, assigned once per request, so a
  // failed-over re-run rebuilds the identical pipeline.
  const int reduced_samples = cfg.overload.ladder.reduced_samples;
  auto factory_for = [reduced_samples](MethodSpec s) {
    return [s, reduced_samples](const serve::ForecastRequest& req,
                                const cluster::Replica& rep)
             -> std::unique_ptr<forecast::Forecaster> {
      if (req.tier == serve::ServiceTier::kClassical) {
        forecast::ClassicalOptions copts;
        copts.demotion_note =
            "overload ladder demoted request to the classical tier";
        return std::make_unique<forecast::ClassicalForecaster>(copts);
      }
      MethodSpec per = s;
      per.seed = s.seed + req.id;
      if (req.tier == serve::ServiceTier::kLlmReduced) {
        per.samples = std::min(per.samples, reduced_samples);
      }
      per.shared_prefix_cache = rep.prefix_cache;
      per.batch_scheduler = rep.scheduler;
      per.block_pool = rep.block_pool;
      return MakeForecaster(per).ValueOrDie();
    };
  };
  cluster::ReplicaForecasterFactory hedge_factory;
  if (options.hedge.enabled) {
    if (spec.classical_fallback) {
      // --classical-fallback hedges against the classical tier: the
      // backup replica answers instantly with a statistical forecast
      // instead of re-running the LLM chain.
      hedge_factory = [](const serve::ForecastRequest&,
                         const cluster::Replica&) {
        forecast::ClassicalOptions copts;
        copts.demotion_note = "hedge backup served by the classical tier";
        return std::make_unique<forecast::ClassicalForecaster>(copts);
      };
    } else {
      hedge_factory = factory_for(hedge_spec);
    }
  }
  cluster::ClusterExecutor executor(factory_for(spec), hedge_factory,
                                    std::move(fleet), options);

  std::vector<serve::ForecastRequest> reqs;
  reqs.reserve(arrivals.size());
  for (size_t i = 0; i < arrivals.size(); ++i) {
    serve::ForecastRequest req;
    req.id = i;
    req.arrival_seconds = arrivals[i].arrival_seconds;
    req.deadline_seconds = arrivals[i].deadline_seconds;
    req.history = &frame;
    req.horizon = static_cast<size_t>(horizon);
    req.slo = SloForRequest(cfg.slo_class, i);
    reqs.push_back(req);
  }

  out << StrFormat(
      "cluster-sim: %zu requests at %.3g req/s, deadline %.3gs, "
      "%lld replicas x %lld slots, router %s, chaos %.3g crashes/replica "
      "(seed %lld), queue %zu (%s), hedge %s, seed %llu\n",
      cfg.trace.num_requests, cfg.trace.arrival_rate,
      cfg.trace.deadline_seconds, static_cast<long long>(replicas),
      static_cast<long long>(slots),
      cluster::RouterPolicyName(router_policy), replica_chaos,
      static_cast<long long>(chaos_seed), options.queue.capacity,
      cfg.queue_order.c_str(),
      options.hedge.enabled
          ? StrFormat("after %.3gs", cfg.hedge_delay).c_str()
          : "off",
      static_cast<unsigned long long>(base.seed));
  if (cfg.drain_at > 0.0) {
    out << StrFormat("drain at %.3gs (%s)\n", cfg.drain_at,
                     cfg.drain_mode_name.c_str());
  }
  if (options.overload.any_enabled()) {
    out << StrFormat(
        "overload ladder: on (reduced %d draws, wait budget %.3gs, aimd "
        "%.3g..%.3g), slo %s\n",
        options.overload.ladder.reduced_samples,
        options.overload.ladder.wait_budget_seconds,
        options.overload.aimd.initial_limit,
        options.overload.aimd.max_limit, cfg.slo_class.c_str());
  }

  MC_ASSIGN_OR_RETURN(std::vector<serve::ServeStats> stats,
                      executor.Run(std::move(reqs)));
  serve::ServeSummary summary = serve::Summarize(stats, &registry);
  // Lifetime counters of each replica's node-local subsystems.
  for (size_t r = 0; r < executor.num_replicas(); ++r) {
    const cluster::Replica& rep = executor.replica(r);
    if (rep.prefix_cache != nullptr) {
      rep.prefix_cache->PublishMetrics(
          &registry, StrFormat("replica%d.prefix_cache.", rep.id));
    }
    if (rep.scheduler != nullptr) {
      rep.scheduler->PublishMetrics(
          &registry, StrFormat("replica%d.batch.", rep.id));
    }
    if (rep.block_pool != nullptr) {
      rep.block_pool->PublishMetrics(
          &registry, StrFormat("replica%d.lm.mem.", rep.id));
    }
  }
  const cluster::ClusterReport& report = executor.report();

  TextTable table({"Method", "Served", "Degraded", "Shed(full)",
                   "Shed(expired)", "Drained", "Failed",
                   "Rej full/ddl/unav/cxl", "Tier F/R/C/S", "Failovers",
                   "Redisp.draws", "Wasted(s)", "Hedged", "HedgeWins",
                   "p50(s)", "p99(s)"});
  table.AddRow({name, StrFormat("%zu", summary.served),
                StrFormat("%zu", summary.served_degraded),
                StrFormat("%zu", summary.shed_queue_full),
                StrFormat("%zu", summary.shed_expired),
                StrFormat("%zu", summary.cancelled_drain),
                StrFormat("%zu", summary.failed),
                FormatRejections(summary.rejections), FormatTiers(summary),
                StrFormat("%zu", summary.cluster.failovers),
                StrFormat("%zu", summary.cluster.redispatched_draws),
                StrFormat("%.3f", summary.cluster.wasted_seconds),
                StrFormat("%zu", summary.hedges_fired),
                StrFormat("%zu", summary.hedge_wins),
                StrFormat("%.3f", summary.p50_latency_seconds),
                StrFormat("%.3f", summary.p99_latency_seconds)});
  out << table.Render();

  out << StrFormat(
      "health: %zu probes (%zu failed), %zu ejections, %zu readmissions, "
      "%zu misroutes; fleet-unavailable %zu\n",
      report.health.probes, report.health.failed_probes,
      report.health.ejections, report.health.readmissions,
      report.health.misroutes, report.fleet_unavailable);
  if (options.overload.any_enabled()) {
    out << FormatOverload(name, report.overload) << "\n";
  }
  for (const cluster::ReplicaReport& rep : report.replicas) {
    const size_t served_here =
        static_cast<size_t>(rep.id) < summary.served_per_replica.size()
            ? summary.served_per_replica[static_cast<size_t>(rep.id)]
            : 0;
    out << StrFormat(
        "replica %d: %zu dispatched, %zu completed, %zu served, "
        "%zu failovers, %zu misroutes, occupancy %.2f\n",
        rep.id, rep.dispatched, rep.completed, served_here, rep.failovers,
        rep.misroutes, rep.occupancy);
    const std::shared_ptr<lm::BlockPool>& pool =
        executor.replica(static_cast<size_t>(rep.id)).block_pool;
    if (pool != nullptr) {
      const lm::BlockPoolStats ms = pool->stats();
      out << StrFormat(
          "replica %d paged-mem: %zu blocks live (peak %zu), %zu sessions "
          "at %.0f bytes each, sharing %.1fx, %zu exhaustions\n",
          rep.id, ms.blocks_live, ms.blocks_peak, ms.sessions,
          ms.bytes_per_session(), ms.sharing_ratio(), ms.exhaustion_events);
    }
  }
  const std::string metrics_path = flags.GetString("metrics-json", "");
  if (!metrics_path.empty()) {
    std::vector<std::pair<std::string, util::MetricsSnapshot>> sections;
    sections.emplace_back(name, registry.Snapshot());
    MC_RETURN_IF_ERROR(util::WriteMetricsJson(metrics_path, sections));
    out << "wrote metrics to " << metrics_path << "\n";
  }
  return 0;
}

Result<int> CmdGenerate(const FlagSet& flags, std::ostream& out) {
  std::string dataset = flags.GetString("dataset", "GasRate");
  MC_ASSIGN_OR_RETURN(int64_t seed,
                      flags.GetInt("seed", data::kDefaultSeed));
  MC_ASSIGN_OR_RETURN(
      ts::Frame frame,
      data::LoadDataset(dataset, static_cast<uint64_t>(seed)));
  std::string path = flags.GetString("output", "");
  if (path.empty()) {
    out << WriteCsv(frame.ToCsv());
  } else {
    MC_RETURN_IF_ERROR(WriteCsvFile(frame.ToCsv(), path));
    out << "wrote " << dataset << " (" << frame.num_dims() << " x "
        << frame.length() << ") to " << path << "\n";
  }
  return 0;
}

}  // namespace

Result<std::unique_ptr<forecast::Forecaster>> MakeForecaster(
    const MethodSpec& spec) {
  MC_ASSIGN_OR_RETURN(lm::ModelProfile profile,
                      ProfileByName(spec.profile));

  lm::FaultProfile faults = spec.chaos > 0.0
                                ? lm::FaultProfile::Chaos(spec.chaos,
                                                          spec.chaos_seed)
                                : lm::FaultProfile::None();
  forecast::ResilienceConfig resilience;
  resilience.retries_enabled = spec.retries > 0;
  resilience.retry.max_attempts = spec.retries + 1;
  resilience.max_redraws = spec.redraws;

  // Shared scheduler when the caller wired one (serve-sim), else a
  // private scheduler per forecaster when batching was asked for.
  std::shared_ptr<batch::BatchScheduler> scheduler = spec.batch_scheduler;
  if (scheduler == nullptr) scheduler = MakeScheduler(spec);
  // Shared block pool when the caller wired one (serve-sim), else one
  // pool for this forecaster. Created here — not inside the option
  // structs — so a fallback chain's MultiCast and LLMTime tiers share
  // one pool.
  std::shared_ptr<lm::BlockPool> block_pool = spec.block_pool;
  if (block_pool == nullptr) block_pool = MakeBlockPool(spec);

  auto multicast_with = [&](multiplex::MuxKind mux)
      -> Result<std::unique_ptr<forecast::Forecaster>> {
    forecast::MultiCastOptions opts;
    opts.mux = mux;
    opts.num_samples = spec.samples;
    opts.digits = spec.digits;
    opts.seed = spec.seed;
    opts.profile = profile;
    opts.faults = faults;
    opts.resilience = resilience;
    if (spec.sax == "alpha") {
      opts.quantization = forecast::Quantization::kSaxAlphabetic;
    } else if (spec.sax == "digit") {
      opts.quantization = forecast::Quantization::kSaxDigital;
    } else if (!spec.sax.empty()) {
      return Status::InvalidArgument("--sax expects 'alpha' or 'digit'");
    }
    opts.sax_segment_length = spec.sax_segment;
    opts.sax_alphabet_size = spec.sax_alphabet;
    opts.prefix_cache_capacity =
        static_cast<size_t>(spec.prefix_cache_capacity);
    opts.shared_prefix_cache = spec.shared_prefix_cache;
    opts.batch_scheduler = scheduler;
    opts.block_pool = block_pool;
    return {std::make_unique<forecast::MultiCastForecaster>(opts)};
  };
  auto llmtime = [&]() -> std::unique_ptr<forecast::Forecaster> {
    forecast::LlmTimeOptions opts;
    opts.num_samples = spec.samples;
    opts.digits = spec.digits;
    opts.seed = spec.seed;
    opts.profile = profile;
    opts.faults = faults;
    opts.resilience = resilience;
    opts.prefix_cache_capacity =
        static_cast<size_t>(spec.prefix_cache_capacity);
    opts.shared_prefix_cache = spec.shared_prefix_cache;
    opts.batch_scheduler = scheduler;
    opts.block_pool = block_pool;
    return std::make_unique<forecast::LlmTimeForecaster>(opts);
  };
  // Wraps an LLM-path forecaster in the MultiCast -> LLMTime -> naive
  // demotion chain; --classical-fallback ends the chain on the
  // classical tier (residual-quantile bands) instead of bare NaiveLast.
  auto with_fallback = [&](std::unique_ptr<forecast::Forecaster> primary,
                           bool add_llmtime)
      -> Result<std::unique_ptr<forecast::Forecaster>> {
    if (!spec.fallback && !spec.classical_fallback) {
      return {std::move(primary)};
    }
    std::vector<std::unique_ptr<forecast::Forecaster>> chain;
    chain.push_back(std::move(primary));
    if (add_llmtime) chain.push_back(llmtime());
    if (spec.classical_fallback) {
      forecast::ClassicalOptions copts;
      copts.demotion_note =
          "fallback chain demoted request to the classical tier";
      chain.push_back(
          std::make_unique<forecast::ClassicalForecaster>(copts));
    } else {
      chain.push_back(std::make_unique<baselines::NaiveLastForecaster>());
    }
    return {std::make_unique<forecast::FallbackForecaster>(
        std::move(chain))};
  };

  if (spec.name == "DI") {
    MC_ASSIGN_OR_RETURN(
        auto primary, multicast_with(multiplex::MuxKind::kDigitInterleave));
    return with_fallback(std::move(primary), /*add_llmtime=*/true);
  }
  if (spec.name == "VI") {
    MC_ASSIGN_OR_RETURN(
        auto primary, multicast_with(multiplex::MuxKind::kValueInterleave));
    return with_fallback(std::move(primary), /*add_llmtime=*/true);
  }
  if (spec.name == "VC") {
    MC_ASSIGN_OR_RETURN(
        auto primary, multicast_with(multiplex::MuxKind::kValueConcat));
    return with_fallback(std::move(primary), /*add_llmtime=*/true);
  }
  if (spec.name == "LLMTIME") {
    return with_fallback(llmtime(), /*add_llmtime=*/false);
  }
  if (spec.fallback || spec.classical_fallback) {
    return Status::InvalidArgument(
        "--fallback/--classical-fallback apply to the LLM methods "
        "(DI, VI, VC, LLMTIME)");
  }
  if (spec.name == "CLASSICAL") {
    return {std::make_unique<forecast::ClassicalForecaster>()};
  }
  if (spec.name == "ARIMA") {
    baselines::ArimaOptions opts;
    opts.auto_select = true;
    return {std::make_unique<baselines::ArimaForecaster>(opts)};
  }
  if (spec.name == "SARIMA") {
    baselines::SarimaOptions opts;
    opts.auto_period = true;
    return {std::make_unique<baselines::SarimaForecaster>(opts)};
  }
  if (spec.name == "LSTM") {
    baselines::LstmOptions opts;
    opts.seed = spec.seed;
    return {std::make_unique<baselines::LstmForecaster>(opts)};
  }
  if (spec.name == "HW") {
    baselines::EtsOptions opts;
    opts.auto_season = true;
    return {std::make_unique<baselines::EtsForecaster>(opts)};
  }
  if (spec.name == "NAIVE") {
    return {std::make_unique<baselines::NaiveLastForecaster>()};
  }
  if (spec.name == "DRIFT") {
    return {std::make_unique<baselines::DriftForecaster>()};
  }
  return Status::InvalidArgument(
      "unknown method '" + spec.name +
      "' (expected DI, VI, VC, LLMTIME, ARIMA, SARIMA, LSTM, HW, NAIVE, "
      "DRIFT or CLASSICAL)");
}

std::string UsageText() {
  return
      "multicast <command> [flags]\n"
      "\n"
      "commands:\n"
      "  forecast  --input feed.csv --horizon 12 [--method VI] [--samples 5]\n"
      "            [--digits 2] [--sax alpha|digit] [--sax-segment 6]\n"
      "            [--sax-alphabet 5] [--profile llama2|phi2]\n"
      "            [--quantiles 0.1,0.9] [--seed 42] [--output out.csv]\n"
      "            [--plot] [--prefix-cache 0|1]\n"
      "            [--prefix-cache-capacity 64] [--batch]\n"
      "            [--batch-size 8] [--batch-backfill 0|1 (decode\n"
      "            refill: 1 continuous, 0 gang)]\n"
      "            [--block-span 32 (4..65536; session state pages in\n"
      "            pooled blocks, output is bit-identical)]\n"
      "            [--pool-blocks N (0 = unbounded; a block budget:\n"
      "            blocks past it are still served and counted)]\n"
      "            chaos/resilience: [--chaos 0.2] [--chaos-seed N]\n"
      "            [--retries 3] [--redraws 4] [--fallback]\n"
      "            [--classical-fallback (end the chain on the classical\n"
      "            tier; --method CLASSICAL serves it directly)]\n"
      "  evaluate  --input feed.csv --horizon 12 [--folds 3] [--stride 12]\n"
      "  impute    --input feed.csv [--output out.csv]\n"
      "  anomaly   --input feed.csv [--quantile 0.98]\n"
      "  generate  [--dataset GasRate|Electricity|Weather] [--seed N]\n"
      "            [--output out.csv]\n"
      "  serve-sim --input feed.csv [--horizon 12] [--method VI]\n"
      "            trace: [--requests 32] [--arrival-rate 4]\n"
      "            [--deadline 2.0] [--burst-factor 4] [--burst-every 10]\n"
      "            [--burst-duration 2] [--seed 42]\n"
      "            serving: [--queue-capacity 8] [--queue-order fifo|edf]\n"
      "            [--hedge-delay 0.5] [--drain T] [--drain-mode\n"
      "            finish|cancel] [--prefix-cache 0|1]\n"
      "            [--prefix-cache-capacity 64] [--batch] [--batch-size 8]\n"
      "            [--batch-backfill 0|1]\n"
      "            [--paged-memory (one reported block pool per method,\n"
      "            not one per request)] [--block-span 32]\n"
      "            [--pool-blocks N] plus the chaos/resilience flags\n"
      "            above (one cache and one decode scheduler are shared\n"
      "            per method, across requests; --batch\n"
      "            also serves up to batch-size requests concurrently,\n"
      "            refilling a freed slot from the queue at once, while\n"
      "            --batch-backfill sets only the decode refill policy;\n"
      "            with --paged-memory --overload-ladder the pool's\n"
      "            fullness sheds load on memory pressure)\n"
      "            overload: [--overload-ladder (brownout ladder + AIMD\n"
      "            admission)] [--slo-class interactive|standard|batch|\n"
      "            mixed] [--classical-fallback (classical-tier hedge\n"
      "            backup and fallback terminal)]\n"
      "            export: [--metrics-json out.json (every queue/overload/\n"
      "            cache/batch/serve counter, one section per method)]\n"
      "  cluster-sim --input feed.csv [--horizon 12] [--method VI]\n"
      "            fleet: [--replicas 3] [--replica-slots 1]\n"
      "            [--router rr|least|p2c|affinity]\n"
      "            chaos: [--replica-chaos 1.0 (expected crashes per\n"
      "            replica over the trace)] [--replica-chaos-seed N]\n"
      "            plus every serve-sim trace/queue/drain/hedge/overload/\n"
      "            paged-memory/metrics-json flag; each replica gets its\n"
      "            own prefix cache and decode scheduler (and block pool\n"
      "            under --paged-memory),\n"
      "            crashes fail running work over to surviving replicas,\n"
      "            and health probes eject/readmit replicas from routing\n"
      "  help\n";
}

Result<int> RunCommand(const std::vector<std::string>& args,
                       std::ostream& out) {
  if (args.empty() || args[0] == "help" || args[0] == "--help") {
    out << UsageText();
    return 0;
  }
  std::string command = args[0];
  std::vector<std::string> rest(args.begin() + 1, args.end());
  MC_ASSIGN_OR_RETURN(FlagSet flags,
                      FlagSet::Parse(rest, kMethodFlags, kBoolFlags));
  if (command == "forecast") return CmdForecast(flags, out);
  if (command == "evaluate") return CmdEvaluate(flags, out);
  if (command == "impute") return CmdImpute(flags, out);
  if (command == "anomaly") return CmdAnomaly(flags, out);
  if (command == "generate") return CmdGenerate(flags, out);
  if (command == "serve-sim" || command == "--serve-sim") {
    return CmdServeSim(flags, out);
  }
  if (command == "cluster-sim" || command == "--cluster-sim") {
    return CmdClusterSim(flags, out);
  }
  return Status::InvalidArgument("unknown command '" + command +
                                 "'; run 'multicast help'");
}

}  // namespace cli
}  // namespace multicast
