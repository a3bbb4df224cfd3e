// The benchmark's four workloads and the seeded generators behind them.
//
// A workload owns its generated inputs and pipelines and runs *passes*:
// one pass forecasts every task once (tables, many-series) or replays the
// whole request trace through a fresh executor (serve-burst,
// fleet-failover). Every pass over the same instance produces the same
// outputs, so each pass's digest is checked against the first one.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "probes.h"

namespace perfbench {

/// What one pass did.
struct PassResult {
  size_t attempted = 0;  ///< forecasts (or requests) issued
  size_t failed = 0;     ///< errored forecasts plus refused requests
  size_t completed = 0;  ///< forecasts delivered
  size_t generated_tokens = 0;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  uint64_t digest = 0;   ///< over outputs, bands, ledgers and fates
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Generates the inputs and builds the pipelines. `traced` interposes
  /// a TimingBackend under every LLM pipeline and the on_step observer
  /// on every scheduler.
  virtual void Build(bool traced) = 0;

  /// One pass (see file comment).
  virtual PassResult RunPass() = 0;

  /// Mean MASE of the forecasts delivered by the first pass against
  /// held-out truth.
  virtual double mase() const = 0;

  /// Share of attempted work delivered within its SLO in virtual time
  /// (serving workloads); the delivered share elsewhere.
  virtual double goodput() const = 0;

  /// Keeps every backend call of the next pass for Replay().
  virtual void set_capture(bool capture) = 0;

  /// Replays the captured pass stage by stage (see probes.h); false with
  /// the reason when a replay does not reproduce what it shadows.
  virtual bool Replay(StageTimes* times, std::string* why) = 0;

  /// Layer counters of the most recent pass that only this workload can
  /// read (prefix cache, scheduler, serve and cluster counters,
  /// construction time).
  virtual std::map<std::string, double> LayerCounters() const = 0;
};

/// The workload names, in BENCHMARK.json order.
const std::vector<std::string>& WorkloadNames();

/// One line on why the workload exists.
std::string WorkloadWhy(const std::string& name);

/// Null for an unknown name.
std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed,
                                       Recorder* recorder);

/// One univariate daily series: `history` then `truth`.
struct DailySeries {
  std::vector<double> history;
  std::vector<double> truth;
};

/// Seeded M4-Daily-shaped corpus: random walks with drift, level-scaled
/// noise and an optional weekly cycle, history lengths uniform in
/// [min_length, max_length], `horizon` held-out values each.
std::vector<DailySeries> GenerateDailyCorpus(uint64_t seed, size_t count,
                                             size_t min_length,
                                             size_t max_length,
                                             size_t horizon);

/// Deterministic 64-bit mix of a seed and a salt (SplitMix64 finalizer).
uint64_t MixSeed(uint64_t seed, uint64_t salt);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
