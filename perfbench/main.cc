// Real-CPU benchmark of the MultiCast pipeline: no injected sleep or
// latency anywhere, threads = 1, four workloads (see README.md).
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--commit <id>] [--out <dir>]
//
// Every run builds its workload three times (the median is setup_s); each
// build ends with a reference pass whose output digest every later pass
// must reproduce. --trace 0 then times passes for --seconds and prints the
// end-to-end metrics, with the times scaled to the reference host's speed
// by a calibration kernel run in short chunks between the Forecast() calls
// of every set-up and pass. --trace 1
// instead rebuilds the workload with timing probes, checks the traced
// reference pass against the untraced digest, replays one pass stage by
// stage, times traced passes for --seconds and prints the per-layer
// metrics; its spans go to <out>/trace-*.json in Chrome trace-event
// format. The last stdout line is the result object;
// the exit code is nonzero when any output check failed.

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "harness.h"
#include "probes.h"
#include "util/quantile.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace util = multicast::util;

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string commit = "unknown";
  std::string out = ".bench_out";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, &end, 10);
      have_seed = *end == '\0';
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value, &end);
      have_seconds = *end == '\0' && args->seconds > 0.0;
    } else if (flag == "--trace") {
      args->trace = std::strcmp(value, "1") == 0;
      have_trace = args->trace || std::strcmp(value, "0") == 0;
    } else if (flag == "--commit") {
      args->commit = value;
    } else if (flag == "--out") {
      args->out = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && have_workload && have_seed && have_seconds &&
         have_trace;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
  /// The measured value before host-speed scaling; NaN when not scaled.
  double raw = std::nan("");
};

// Passes after the reference pass: at least --seconds of them, several
// for the medians, and enough latency windows. Every workload's pass is a
// fixed, bounded amount of work, so the minimums always end; a run
// measures for --seconds plus at most one pass unless the minimums need
// longer.
//
// The latency samples of the timed passes are cut at pass boundaries
// into windows of at least kMinLatencySamples, so that each window's p99
// has at least ten samples beyond it, and a latency metric is the median
// of its per-window values. A slow spell of the host that covers one
// window then moves it little, where it would shift a percentile of the
// pooled samples.
constexpr size_t kSetups = 3;
constexpr size_t kMinLatencySamples = 1000;
constexpr size_t kMinLatencyWindows = 3;
constexpr size_t kMinPasses = 3;
// A latency sample is scaled by the chunks of the calls within this many
// calls of it (see LatencyWindows).
constexpr size_t kLocalChunks = 4;

class Runner {
 public:
  explicit Runner(const Args& args) : args_(args) {}

  int Run();

 private:
  void Problem(const std::string& what) {
    std::fprintf(stderr, "check failed: %s\n", what.c_str());
    problems_.push_back(what);
  }
  void CheckDigest(const PassResult& pass, const char* what) {
    if (pass.digest != reference_digest_) {
      Problem(std::string(what) + ": output digest differs from the "
                                  "reference pass");
    }
    if (pass.failed > 0) {
      Problem(std::string(what) + ": " + std::to_string(pass.failed) +
              " operations failed");
    }
  }
  // What the calibration chunks after the Forecast() calls [begin, end)
  // measured: how much slower than the reference the host ran (1 when
  // none ran), and the seconds they took, which the caller takes out of
  // its own timings.
  struct Calibration {
    double slow = 1.0;
    double seconds = 0.0;
  };
  Calibration CalibrationOver(size_t begin, size_t end) const;
  void Setup();
  std::vector<PassResult> TimedPasses(Workload* w, const char* what);
  std::vector<std::vector<double>> LatencyWindows(bool scaled) const;
  double WindowMedian(double q, bool scaled) const;
  std::vector<Metric> EndToEnd(const std::vector<PassResult>& passes);
  std::vector<Metric> PerLayer(Workload* traced,
                               const std::vector<PassResult>& passes,
                               const StageTimes& stages,
                               double untraced_pass_s);
  void PrintHeader(const std::vector<PassResult>& passes);
  void PrintResult(const std::vector<Metric>& metrics,
                   const std::vector<PassResult>& passes);

  Args args_;
  Recorder recorder_;
  Tracer tracer_;
  std::unique_ptr<Workload> workload_;
  uint64_t reference_digest_ = 0;
  std::vector<double> setup_seconds_;  // calibration chunks taken out
  std::vector<double> setup_slow_;
  std::vector<size_t> pass_ends_;  // latency sample count after each pass
  std::vector<double> pass_slow_;
  std::vector<std::string> problems_;
};

Runner::Calibration Runner::CalibrationOver(size_t begin, size_t end) const {
  Calibration c;
  end = std::min(end, recorder_.chunk_ns.size());
  if (begin >= end) return c;
  double ns = 0.0;
  for (size_t i = begin; i < end; ++i) ns += recorder_.chunk_ns[i];
  c.slow = ns / static_cast<double>(end - begin) / kReferenceChunkNs;
  c.seconds = ns / 1e9;
  return c;
}

void Runner::Setup() {
  CalibrationChunkNs();  // builds the kernel's table before any timing
  recorder_.calibrate = true;
  for (size_t i = 0; i < kSetups; ++i) {
    workload_.reset();
    recorder_.Clear();
    const int64_t t0 = NowNs();
    workload_ = MakeWorkload(args_.workload, args_.seed, &recorder_);
    workload_->Build(/*traced=*/false);
    PassResult reference = workload_->RunPass();
    const double seconds = static_cast<double>(NowNs() - t0) / 1e9;
    const Calibration c = CalibrationOver(0, recorder_.chunk_ns.size());
    setup_seconds_.push_back(seconds - c.seconds);
    setup_slow_.push_back(c.slow);
    if (i == 0) reference_digest_ = reference.digest;
    CheckDigest(reference, "setup reference pass");
  }
  recorder_.Clear();
}

std::vector<PassResult> Runner::TimedPasses(Workload* w, const char* what) {
  std::vector<PassResult> passes;
  recorder_.Clear();
  pass_ends_.clear();
  pass_slow_.clear();
  const int64_t start = NowNs();
  while (true) {
    const size_t begin = recorder_.latency_ms.size();
    PassResult pass = w->RunPass();
    const Calibration c = CalibrationOver(begin, recorder_.latency_ms.size());
    pass.wall_s -= c.seconds;
    pass.cpu_s -= c.seconds;  // the chunks are pure CPU work
    passes.push_back(pass);
    pass_ends_.push_back(recorder_.latency_ms.size());
    pass_slow_.push_back(c.slow);
    std::fprintf(stderr, "%s %zu: wall %.4f s, host slowness %.4f\n", what,
                 passes.size(), pass.wall_s, c.slow);
    CheckDigest(passes.back(), what);
    const double elapsed = static_cast<double>(NowNs() - start) / 1e9;
    if (elapsed >= args_.seconds && passes.size() >= kMinPasses &&
        LatencyWindows(false).size() >= kMinLatencyWindows) {
      break;
    }
  }
  return passes;
}

std::vector<std::vector<double>> Runner::LatencyWindows(bool scaled) const {
  const std::vector<double>& lat = recorder_.latency_ms;
  const std::vector<double>& chunks = recorder_.chunk_ns;
  std::vector<std::vector<double>> windows;
  std::vector<double> window;
  size_t begin = 0;
  for (size_t end : pass_ends_) {
    for (size_t i = begin; i < end; ++i) {
      // The host's speed around this call: the median of the chunks run
      // after it and its kLocalChunks neighbours on either side within
      // the pass. The median drops chunks the host interrupted.
      double slow = 1.0;
      if (scaled && chunks.size() == lat.size()) {
        const size_t lo = std::max(begin + kLocalChunks, i) - kLocalChunks;
        const size_t hi = std::min(end, i + kLocalChunks + 1);
        slow = Median(std::vector<double>(chunks.begin() + lo,
                                          chunks.begin() + hi)) /
               kReferenceChunkNs;
      }
      window.push_back(lat[i] / slow);
    }
    begin = end;
    if (window.size() >= kMinLatencySamples) {
      windows.push_back(std::move(window));
      window.clear();
    }
  }
  return windows;
}

double Runner::WindowMedian(double q, bool scaled) const {
  std::vector<double> values;
  for (const std::vector<double>& window : LatencyWindows(scaled)) {
    values.push_back(util::NearestRankQuantile(window, q));
  }
  return Median(values);
}

std::vector<Metric> Runner::EndToEnd(const std::vector<PassResult>& passes) {
  // The host runs this code up to 1.7x slower, in spells from a second to
  // minutes long. Each pass's and set-up's times are scaled to the
  // reference host's speed by the calibration chunks run between its own
  // Forecast() calls: `slow` > 1 where the host was slower than the
  // reference. A metric is the median of the scaled per-pass values; the
  // table also shows the median of the values as measured.
  struct Values {
    std::vector<double> scaled, raw;
    void Add(double raw_value, double scale) {
      raw.push_back(raw_value);
      scaled.push_back(raw_value * scale);
    }
    Metric Get(const char* name, const char* unit) const {
      return Metric{name, Median(scaled), unit, Median(raw)};
    }
  };
  Values throughput, tokens, cpu, setup;
  size_t attempted = 0, completed = 0;
  for (size_t i = 0; i < passes.size(); ++i) {
    const PassResult& p = passes[i];
    const double slow = pass_slow_[i];
    throughput.Add(static_cast<double>(p.completed) / p.wall_s, slow);
    tokens.Add(static_cast<double>(p.generated_tokens) / p.wall_s, slow);
    cpu.Add(p.completed > 0
                ? p.cpu_s * 1e3 / static_cast<double>(p.completed)
                : 0.0,
            1.0 / slow);
    attempted += p.attempted;
    completed += p.completed;
  }
  for (size_t i = 0; i < setup_seconds_.size(); ++i) {
    setup.Add(setup_seconds_[i], 1.0 / setup_slow_[i]);
  }
  auto latency = [this](const char* name, double q) {
    return Metric{name, WindowMedian(q, true), "ms", WindowMedian(q, false)};
  };
  return {
      throughput.Get("forecasts_per_s", "1/s"),
      tokens.Get("tokens_per_s", "1/s"),
      latency("latency_p50_ms", 0.50),
      latency("latency_p99_ms", 0.99),
      cpu.Get("cpu_ms_per_forecast", "ms"),
      // The calibration table is resident from the first set-up on.
      {"peak_rss_mb", PeakRssMb() - CalibrationTableMb(), "MB"},
      setup.Get("setup_s", "s"),
      {"mase", workload_->mase(), "ratio"},
      {"success_fraction",
       attempted > 0 ? static_cast<double>(completed) /
                           static_cast<double>(attempted)
                     : 0.0,
       "ratio"},
      {"goodput", workload_->goodput(), "ratio"},
  };
}

std::vector<Metric> Runner::PerLayer(Workload* traced,
                                     const std::vector<PassResult>& passes,
                                     const StageTimes& st,
                                     double untraced_pass_s) {
  auto per = [](double total, size_t n, double scale) {
    return n > 0 ? total / static_cast<double>(n) / scale : 0.0;
  };
  auto mean_us = [this](const char* layer, bool self) {
    const Tracer::LayerTotals* t = tracer_.Find(layer);
    if (t == nullptr || t->count == 0) return 0.0;
    return static_cast<double>(self ? t->self_ns : t->total_ns) / 1e3 /
           static_cast<double>(t->count);
  };
  const Tracer::LayerTotals* pass = tracer_.Find("pass");
  size_t requests = 0;
  std::vector<double> walls;
  for (size_t i = 0; i < passes.size(); ++i) {
    requests += passes[i].attempted;
    if (i > 0) walls.push_back(passes[i].wall_s);  // 0 captured for replay
  }
  const double pass_self_us =
      pass != nullptr ? static_cast<double>(pass->self_ns) / 1e3 : 0.0;
  const double overhead_us = per(pass_self_us, requests, 1.0);
  const bool cluster = args_.workload == "fleet-failover";
  const bool serve = args_.workload == "serve-burst";
  std::map<std::string, double> c = traced->LayerCounters();
  auto counter = [&c](const char* name) {
    auto it = c.find(name);
    return it == c.end() ? 0.0 : it->second;
  };
  return {
      {"lm.decode_ns_per_token",
       per(static_cast<double>(st.loop_ns), st.loop_tokens, 1.0), "ns"},
      {"lm.complete_us", mean_us("lm.complete", false), "us"},
      {"lm.next_distribution_ns",
       per(static_cast<double>(st.next_ns), st.op_tokens, 1.0), "ns"},
      {"lm.sample_ns",
       per(static_cast<double>(st.sample_ns), st.op_tokens, 1.0), "ns"},
      {"lm.observe_ns",
       per(static_cast<double>(st.observe_ns), st.op_tokens, 1.0), "ns"},
      {"lm.ingest_ns_per_token",
       per(static_cast<double>(st.ingest_ns), st.ingest_tokens, 1.0), "ns"},
      {"lm.fork_us", per(static_cast<double>(st.fork_ns), st.forks, 1e3),
       "us"},
      {"prefix_cache.hit_rate", counter("prefix_cache.hit_rate"), "ratio"},
      {"prefix_cache.replayed_tokens", counter("prefix_cache.replayed_tokens"),
       "count"},
      {"prefix_cache.bytes", counter("prefix_cache.bytes"), "bytes"},
      {"prefix_cache.misses", counter("prefix_cache.misses"), "count"},
      {"scale.us_per_forecast",
       per(static_cast<double>(st.scale_ns), st.raw_forecasts, 1e3), "us"},
      {"multiplex.mux_us",
       per(static_cast<double>(st.mux_ns), st.forecasts, 1e3), "us"},
      {"multiplex.demux_us",
       per(static_cast<double>(st.demux_ns), st.forecasts, 1e3), "us"},
      {"sax.us_per_forecast",
       per(static_cast<double>(st.sax_ns), st.sax_forecasts, 1e3), "us"},
      {"token.encode_us",
       per(static_cast<double>(st.encode_ns), st.forecasts, 1e3), "us"},
      {"token.decode_us",
       per(static_cast<double>(st.decode_ns), st.forecasts, 1e3), "us"},
      {"forecast.construct_us", counter("forecast.construct_us"), "us"},
      {"forecast.aggregate_us",
       per(static_cast<double>(st.aggregate_ns), st.forecasts, 1e3), "us"},
      {"forecast.self_us", mean_us("forecast", true), "us"},
      {"forecast.classical_us", mean_us("forecast.classical", false), "us"},
      {"batch.steps", counter("batch.steps"), "count"},
      {"batch.mean_occupancy", counter("batch.mean_occupancy"), "count"},
      {"batch.step_us", mean_us("batch.step", false), "us"},
      {"serve.factory_us", mean_us("serve.factory", false), "us"},
      {"serve.overhead_us_per_request", serve ? overhead_us : 0.0, "us"},
      {"serve.queue_wait_p99_s", counter("serve.queue_wait_p99_s"), "s"},
      {"serve.tier_full", counter("serve.tier_full"), "count"},
      {"serve.tier_reduced", counter("serve.tier_reduced"), "count"},
      {"serve.tier_classical", counter("serve.tier_classical"), "count"},
      {"serve.tier_shed", counter("serve.tier_shed"), "count"},
      {"cluster.overhead_us_per_request", cluster ? overhead_us : 0.0, "us"},
      {"cluster.failovers", counter("cluster.failovers"), "count"},
      {"cluster.redispatched_draws", counter("cluster.redispatched_draws"),
       "count"},
      {"trace.coverage",
       pass != nullptr && pass->total_ns > 0
           ? 1.0 - static_cast<double>(pass->self_ns) /
                       static_cast<double>(pass->total_ns)
           : 0.0,
       "ratio"},
      {"trace.overhead_pct",
       untraced_pass_s > 0.0 && !walls.empty()
           ? 100.0 * (Median(walls) - untraced_pass_s) / untraced_pass_s
           : 0.0,
       "%"},
  };
}

void Runner::PrintHeader(const std::vector<PassResult>& passes) {
  std::map<std::string, std::string> header = MachineHeader();
  header["commit"] = args_.commit;
  header["workload"] = args_.workload;
  header["why"] = WorkloadWhy(args_.workload);
  header["seed"] = std::to_string(args_.seed);
  header["trace"] = args_.trace ? "1" : "0";
  // The percentiles are medians over windows; the smallest window is
  // the sample count behind each of them.
  const std::vector<std::vector<double>> windows = LatencyWindows(false);
  size_t n = windows.empty() ? 0 : windows.front().size();
  for (const std::vector<double>& window : windows) {
    n = std::min(n, window.size());
  }
  header["latency_samples"] = std::to_string(recorder_.latency_ms.size());
  header["latency_windows"] = std::to_string(windows.size());
  header["latency_window_samples_min"] = std::to_string(n);
  header["latency_p99_samples_beyond"] =
      std::to_string(SamplesBeyond(n, 99.0));
  char buf[128];
  std::snprintf(buf, sizeof(buf), "%g", HighestSupportedPercentile(n));
  header["highest_supported_percentile"] = buf;
  header["passes"] = std::to_string(passes.size());
  std::vector<double> slow = pass_slow_;
  slow.insert(slow.end(), setup_slow_.begin(), setup_slow_.end());
  std::snprintf(buf, sizeof(buf),
                "host slowness %.4f median of %zu passes and set-ups, "
                "chunk reference %.1f us",
                Median(slow), slow.size(), kReferenceChunkNs / 1e3);
  header["calibration"] = buf;
  header["setups"] = std::to_string(setup_seconds_.size());
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, reference_digest_);
  header["digest"] = buf;
  std::printf("{\"header\": {");
  bool first = true;
  for (const auto& [key, value] : header) {
    std::printf("%s\"%s\": \"%s\"", first ? "" : ", ", key.c_str(),
                JsonEscape(value).c_str());
    first = false;
  }
  std::printf("}}\n");
}

void Runner::PrintResult(const std::vector<Metric>& metrics,
                         const std::vector<PassResult>& passes) {
  for (const Metric& m : metrics) {
    std::printf("  %-34s %16.6f %s", m.name.c_str(), m.value, m.unit.c_str());
    if (!std::isnan(m.raw)) std::printf("  (measured %.6f)", m.raw);
    std::printf("\n");
  }
  PrintHeader(passes);
  size_t attempted = 0, failed = 0;
  for (const PassResult& p : passes) {
    attempted += p.attempted;
    failed += p.failed;
  }
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              problems_.empty() ? "true" : "false", attempted, failed);
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

int Runner::Run() {
  Setup();
  if (!args_.trace) {
    std::vector<PassResult> passes = TimedPasses(workload_.get(), "timed pass");
    PrintResult(EndToEnd(passes), passes);
    return problems_.empty() ? 0 : 1;
  }

  // Untraced warm passes on the setup instance: the baseline the traced
  // passes are compared against for the tracing overhead. Traced runs
  // scale nothing, so no calibration chunk runs from here on.
  recorder_.calibrate = false;
  std::vector<double> untraced;
  for (int i = 0; i < 3; ++i) {
    PassResult p = workload_->RunPass();
    CheckDigest(p, "untraced warm pass");
    untraced.push_back(p.wall_s);
  }
  workload_.reset();
  recorder_.Clear();

  recorder_.tracer = &tracer_;
  std::unique_ptr<Workload> traced =
      MakeWorkload(args_.workload, args_.seed, &recorder_);
  traced->Build(/*traced=*/true);
  CheckDigest(traced->RunPass(), "traced reference pass");
  tracer_.ResetTotals();
  recorder_.Clear();

  // Pass 0 keeps every backend call and is replayed stage by stage.
  traced->set_capture(true);
  std::vector<PassResult> passes = {traced->RunPass()};
  CheckDigest(passes.back(), "traced capture pass");
  traced->set_capture(false);
  StageTimes stages;
  std::string why;
  if (!traced->Replay(&stages, &why)) Problem("stage replay: " + why);
  for (PassResult& p : TimedPasses(traced.get(), "traced pass")) {
    passes.push_back(p);
  }
  workload_ = std::move(traced);
  std::vector<Metric> metrics =
      PerLayer(workload_.get(), passes, stages, Median(untraced));

  std::printf("per-layer time from spans (mean per span):\n");
  for (const auto& [name, t] : tracer_.AllTotals()) {
    if (t.count == 0) continue;
    std::printf("  %-20s %9zu spans  total %10.3f us  self %10.3f us\n",
                name.c_str(), t.count,
                static_cast<double>(t.total_ns) / 1e3 /
                    static_cast<double>(t.count),
                static_cast<double>(t.self_ns) / 1e3 /
                    static_cast<double>(t.count));
  }
  std::error_code ec;
  std::filesystem::create_directories(args_.out, ec);
  const std::string path = args_.out + "/trace-" + args_.workload + ".json";
  if (ec || !tracer_.WriteChromeTrace(path)) {
    Problem("cannot write " + path);
  } else {
    std::printf("chrome trace: %s (%zu of %zu spans)\n", path.c_str(),
                tracer_.spans_kept(), tracer_.spans_recorded());
  }
  PrintResult(metrics, passes);
  return problems_.empty() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  const std::vector<std::string>& names = perfbench::WorkloadNames();
  if (!perfbench::ParseArgs(argc, argv, &args) ||
      std::find(names.begin(), names.end(), args.workload) == names.end()) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <tables|many-series|"
                 "serve-burst|fleet-failover> --seed <n> --seconds <s> "
                 "--trace <0|1> [--commit <id>] [--out <dir>]\n");
    return 2;
  }
  return perfbench::Runner(args).Run();
}
