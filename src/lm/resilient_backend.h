// Retry / backoff / circuit-breaker decorator for an LlmBackend.
//
// Wraps any backend and absorbs its transient failures (IsRetryable
// Status codes) with capped exponential backoff plus jitter, a per-call
// attempt budget, and a circuit breaker that stops hammering a backend
// that is down (closed -> open after N consecutive failures; open ->
// half-open after a cooldown; half-open -> closed on success, back to
// open on failure).
//
// Time is *virtual*: the decorator never sleeps. Backoff waits and call
// latencies advance an internal clock, so tests and benches measure
// retry overhead deterministically and run at full speed while the
// accounting matches what a wall-clock deployment would pay.

#ifndef MULTICAST_LM_RESILIENT_BACKEND_H_
#define MULTICAST_LM_RESILIENT_BACKEND_H_

#include <string>
#include <vector>

#include "lm/backend.h"
#include "util/metrics.h"
#include "util/random.h"
#include "util/status.h"
#include "util/virtual_time.h"

namespace multicast {
namespace lm {

/// Retry loop shape. Defaults follow the usual AIMD-style API-client
/// guidance: a handful of attempts, doubling backoff, +/-20% jitter.
struct RetryPolicy {
  /// Total tries per Complete() call (first attempt included). 1 = no
  /// retries.
  int max_attempts = 4;
  double initial_backoff_seconds = 0.05;
  double backoff_multiplier = 2.0;
  double max_backoff_seconds = 2.0;
  /// Each wait is scaled by a uniform factor in [1-j, 1+j] to decorrelate
  /// concurrent clients. 0 disables jitter (exact backoff assertions).
  double jitter_fraction = 0.2;
  /// Deadline handed to each attempt when the caller did not set one.
  /// Must sit below FaultProfile::spike_latency_seconds for latency
  /// spikes to be converted into retryable kDeadlineExceeded errors.
  double attempt_deadline_seconds = 1.0;
  /// Virtual-time budget for one Complete() call across all attempts and
  /// waits; exceeding it stops retrying with kDeadlineExceeded. 0 = none.
  double total_budget_seconds = 30.0;
  /// Seed of the jitter stream (independent of sampling and faults).
  uint64_t seed = 0xD1CEULL;
};

/// Circuit-breaker shape.
struct CircuitBreakerPolicy {
  bool enabled = true;
  /// Consecutive failures that trip the breaker open.
  int failure_threshold = 5;
  /// Virtual seconds the breaker stays open before probing (half-open).
  double cooldown_seconds = 5.0;
  /// Successful half-open probes required to close again.
  int half_open_successes = 1;
};

enum class CircuitState { kClosed, kOpen, kHalfOpen };

const char* CircuitStateName(CircuitState state);

/// Ledger of what resilience cost: surfaced through ForecastResult the
/// same way TokenLedger accounts tokens.
struct RetryStats {
  size_t calls = 0;             ///< Complete() calls seen
  size_t attempts = 0;          ///< inner attempts issued
  size_t retries = 0;           ///< attempts beyond the first
  size_t successes = 0;         ///< calls that returned a value
  size_t failures = 0;          ///< calls that returned an error
  size_t retryable_errors = 0;  ///< transient inner errors observed
  size_t terminal_errors = 0;   ///< non-retryable inner errors observed
  size_t circuit_rejections = 0;  ///< calls refused by the open breaker
  size_t budget_exhausted = 0;  ///< calls stopped by total_budget_seconds
  size_t cancelled_calls = 0;   ///< calls stopped by request cancellation
  size_t deadline_preempted = 0;  ///< calls stopped by the request deadline
  double backoff_seconds = 0.0;   ///< virtual time spent waiting
  double latency_seconds = 0.0;   ///< virtual time spent inside attempts

  RetryStats& operator+=(const RetryStats& other);
};

/// Registry export of RetryStats: counters under `prefix` (for example
/// "retry.attempts"). The two virtual-time fields publish as counters
/// too — they are monotonic sums.
void PublishRetryStats(const RetryStats& stats,
                       util::MetricsRegistry* registry,
                       const std::string& prefix);

/// Decorator implementing the retry loop. Not thread-safe (breaker and
/// clock state are per-instance; production sharding would hold one per
/// worker).
class ResilientBackend final : public LlmBackend {
 public:
  /// `inner` must outlive this decorator. `clock` (optional, not owned)
  /// makes the decorator account time on a shared virtual clock — the
  /// serving executor passes the request's clock so queue waits, backend
  /// latency and backoff all land on one timeline; when null, the
  /// decorator owns a private clock starting at zero. Deadlines carried
  /// by CallOptions::context are checked against this clock.
  ResilientBackend(LlmBackend* inner, const RetryPolicy& retry,
                   const CircuitBreakerPolicy& breaker = {},
                   VirtualClock* clock = nullptr);

  std::string name() const override { return inner_->name() + "+retry"; }
  size_t vocab_size() const override { return inner_->vocab_size(); }

  using LlmBackend::Complete;

  Result<GenerationResult> Complete(const std::vector<token::TokenId>& prompt,
                                    size_t num_tokens, const GrammarMask& mask,
                                    Rng* rng,
                                    const CallOptions& call) override;

  const RetryStats& stats() const { return stats_; }
  CircuitState circuit_state() const { return state_; }

  /// Publishes the counters into `registry` under `prefix` (the unified
  /// metrics export path; see util/metrics.h). Callers that own a
  /// registry thread it through here once per backend lifetime (the
  /// decorator itself never publishes — its accounting also rides in
  /// ForecastResult::retry_stats).
  void PublishMetrics(util::MetricsRegistry* registry,
                      const std::string& prefix = "retry.") const {
    PublishRetryStats(stats_, registry, prefix);
  }

  /// Current virtual time (of the shared clock, or seconds since
  /// construction on the private one).
  double now_seconds() const { return clock_->now(); }

  /// Advances virtual time, e.g. to let an open breaker cool down.
  void AdvanceClock(double seconds);

 private:
  void OnFailure();
  void OnSuccess();

  LlmBackend* inner_;
  RetryPolicy retry_;
  CircuitBreakerPolicy breaker_;
  Rng jitter_rng_;
  RetryStats stats_;

  VirtualClock own_clock_;
  VirtualClock* clock_;  // own_clock_ or the caller-supplied shared clock

  CircuitState state_ = CircuitState::kClosed;
  int consecutive_failures_ = 0;
  int half_open_successes_ = 0;
  double open_until_seconds_ = 0.0;
};

}  // namespace lm
}  // namespace multicast

#endif  // MULTICAST_LM_RESILIENT_BACKEND_H_
