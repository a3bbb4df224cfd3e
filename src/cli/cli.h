// The `multicast` command-line tool, as a testable library.
//
// Subcommands:
//   forecast  — forecast a CSV feed with any method, print or save
//   evaluate  — rolling-origin comparison of all methods on a CSV feed
//   impute    — fill NaN gaps in a CSV feed
//   anomaly   — score and flag anomalous timestamps
//   generate  — write one of the built-in synthetic datasets to CSV
//   help      — usage
//
// The thin binary in tools/ forwards argv here; every command writes to
// the supplied stream so tests can capture output.

#ifndef MULTICAST_CLI_CLI_H_
#define MULTICAST_CLI_CLI_H_

#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "batch/batch_scheduler.h"
#include "forecast/forecaster.h"
#include "lm/paged_store.h"
#include "lm/prefix_cache.h"
#include "util/status.h"

namespace multicast {
namespace cli {

/// Runs one CLI invocation (args excludes argv[0]). Returns the process
/// exit code on success; an error Status describes a usage problem.
Result<int> RunCommand(const std::vector<std::string>& args,
                       std::ostream& out);

/// Builds a forecaster from its CLI name: DI, VI, VC, LLMTIME, ARIMA,
/// LSTM, HW (Holt–Winters), NAIVE, DRIFT, CLASSICAL. MultiCast
/// variants honor
/// `samples`, `digits`, `seed`, the SAX settings and the chaos /
/// resilience knobs.
struct MethodSpec {
  std::string name = "VI";
  int samples = 5;
  int digits = 2;
  uint64_t seed = 42;
  std::string sax;          // "", "alpha" or "digit"
  int sax_segment = 6;
  int sax_alphabet = 5;
  std::string profile = "llama2";  // llama2 | phi2
  /// Injected backend fault rate in [0, 1]: every failure mode
  /// (outage, latency spike, rate limit, truncation, corruption) fires
  /// at this per-call probability. 0 = clean backend.
  double chaos = 0.0;
  /// Seed of the deterministic fault schedule.
  uint64_t chaos_seed = 0xC0FFEE;
  /// Retries per LLM call after the first attempt (exponential backoff
  /// + circuit breaker). 0 disables the resilient wrapper entirely.
  int retries = 3;
  /// Extra sample redraws allowed when a sample's call fails terminally.
  int redraws = 4;
  /// Wrap the method in a fallback chain that demotes LLM-path failures
  /// (MultiCast -> LLMTime -> NaiveLast).
  bool fallback = false;
  /// End the fallback chain on the classical tier (ClassicalForecaster:
  /// residual-quantile bands, auto engine) instead of bare NaiveLast,
  /// and — in the sims — serve hedge backups from the classical tier.
  /// Implies the chain for LLM methods even without `fallback`.
  bool classical_fallback = false;
  /// Worker threads for the sample loop (MultiCast) or per-dimension
  /// loop (LLMTime). 1 = serial; higher counts change wall-clock time
  /// only — forecasts stay bit-identical.
  int threads = 1;
  /// Prefix-cached decoding (--prefix-cache 0|1): observe each prompt
  /// once, fork per draw. Forecasts stay bit-identical; only redundant
  /// prompt replay work is removed.
  bool prefix_cache = true;
  /// LRU entry capacity of the cache (--prefix-cache-capacity).
  int prefix_cache_capacity = 64;
  /// Externally shared cache (serve-sim wires one across all requests of
  /// a method); overrides per-forecaster cache creation when set.
  std::shared_ptr<lm::PrefixCache> shared_prefix_cache;
  /// Continuous-batching decode (--batch): route every sample draw
  /// through a step-level BatchScheduler so concurrent draws decode one
  /// token per step together. Forecasts stay bit-identical; only the
  /// decode schedule changes.
  bool batch = false;
  /// Decode slots in the batch (--batch-size); in serve-sim this also
  /// bounds concurrently served requests.
  int batch_size = 8;
  /// Decode scheduler refill policy: refill freed decode slots at the
  /// next step (--batch-backfill 1, continuous batching) or only when
  /// the whole decode batch drains (0, gang batches).
  bool batch_backfill = true;
  /// Externally shared scheduler (serve-sim wires one across all
  /// requests of a method); when unset and `batch` is true,
  /// MakeForecaster creates a private per-forecaster scheduler.
  std::shared_ptr<batch::BatchScheduler> batch_scheduler;
  /// One shared block pool per method (serve-sim) or per replica
  /// (cluster-sim) instead of one per forecaster (--paged-memory); the
  /// shared pool is reported under lm.mem.* and its fullness feeds the
  /// overload ladder. Model state pages in pooled blocks either way;
  /// forecasts are bit-identical.
  bool paged_memory = false;
  /// Payload slots per block (--block-span, in [4, 65536]).
  int block_span = 32;
  /// Pool live-block cap (--pool-blocks); 0 = unbounded. At the cap new
  /// entries spill to an overflow map (still bit-identical) and pool
  /// fullness feeds the overload ladder in the sims.
  int pool_blocks = 0;
  /// Externally shared pool (serve-sim wires one across all requests of
  /// a method); when unset, MakeForecaster creates one pool for the
  /// forecaster and its fallback chain.
  std::shared_ptr<lm::BlockPool> block_pool;
};

Result<std::unique_ptr<forecast::Forecaster>> MakeForecaster(
    const MethodSpec& spec);

/// Usage text.
std::string UsageText();

}  // namespace cli
}  // namespace multicast

#endif  // MULTICAST_CLI_CLI_H_
