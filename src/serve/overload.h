// Overload-aware degradation: a brownout ladder plus adaptive admission.
//
// Under sustained overload a server that only knows "serve" and "reject"
// fails loudly: queues fill, deadlines expire, goodput collapses. The
// OverloadController gives the serving layer two gentler dials:
//
//   * A per-SLO-class degradation ladder. A single pressure level
//     (0..3) is derived from virtual-time observables — queue depth,
//     p95 queue wait over a sliding window, and the recent *external*
//     shed rate (queue-full rejections and in-queue expiries; the
//     ladder's own rejections never count, or self-made pressure would
//     hold it escalated forever), plus paged-memory pool fullness when
//     a memory probe is attached — and each request's quality rung is
//     the level biased by its class: interactive traffic degrades one
//     step later than standard, batch one step earlier. The rungs,
//     best to worst: full LLM pipeline → LLM with the draw count
//     clamped → classical statistical engine → reject. The bias never
//     pushes a class into the reject rung by itself: rejection
//     requires the biased rung to land past classical at the top
//     level (batch at level 3); every other class bottoms out on the
//     classical tier, which still answers. Escalation is immediate
//     (pressure is an emergency); recovery is hysteretic — one level
//     at a time, only after the score has stayed below the entry
//     threshold minus a gap for a dwell period — so the ladder does
//     not flap at a boundary.
//
//   * An AIMD concurrency limiter in front of the admission queue. The
//     limit grows additively on every on-deadline completion and
//     shrinks multiplicatively on deadline misses, queue-full
//     rejections and in-queue expiries (with a cooldown so one burst
//     costs one cut), adapting admitted work to measured capacity the
//     way TCP adapts a congestion window.
//
// Determinism: every input is a virtual-time observable of the
// simulated run (times, depths, counts) and every decision is pure
// arithmetic on them — no wall clock, no RNG — so a fixed trace + seed
// reproduces the exact same ladder walk, shed set, and forecasts.

#ifndef MULTICAST_SERVE_OVERLOAD_H_
#define MULTICAST_SERVE_OVERLOAD_H_

#include <cstddef>
#include <deque>
#include <functional>
#include <string>
#include <utility>

#include "serve/request.h"
#include "util/metrics.h"
#include "util/status.h"

namespace multicast {
namespace serve {

/// The brownout ladder (see file comment).
struct LadderPolicy {
  bool enabled = false;
  /// Draw-count clamp applied at the kLlmReduced rung (factories read
  /// it via the policy; the controller only assigns rungs).
  int reduced_samples = 2;
  /// p95 queue wait mapping to pressure score 1.0.
  double wait_budget_seconds = 1.0;
  /// Sliding window for the wait and shed-rate observables.
  double window_seconds = 10.0;
  /// Shed fraction (sheds / offered, windowed) mapping to score 1.0.
  double shed_budget = 0.2;
  /// Pressure scores at which levels 1..3 are entered.
  double enter_reduced = 0.5;
  double enter_classical = 0.75;
  double enter_reject = 0.95;
  /// Recovery hysteresis: a level is left only once the score is below
  /// its entry threshold minus this gap...
  double hysteresis_gap = 0.15;
  /// ...and the level has held for this long (one step per dwell).
  double recovery_seconds = 2.0;
  /// Paged-memory pool fullness (live blocks / budget, clamped to
  /// [0, 1]) mapping to pressure score 1.0, when
  /// OverloadPolicy::memory_probe is set. At the default 0.9 a pool at
  /// 90% of its block budget saturates the score, so the ladder
  /// degrades *before* allocation goes over the budget.
  /// <= 0 disables the memory observable.
  double memory_budget = 0.9;
};

/// The adaptive admission limiter (see file comment).
struct AimdPolicy {
  bool enabled = false;
  double initial_limit = 8.0;
  double min_limit = 1.0;
  double max_limit = 64.0;
  /// Added to the limit per on-deadline completion.
  double additive_increase = 1.0;
  /// Limit multiplier on a miss/rejection/expiry (in (0, 1)).
  double multiplicative_decrease = 0.5;
  /// Minimum spacing between multiplicative cuts, so a burst of
  /// failures from one overload episode costs one cut, not many.
  double decrease_cooldown_seconds = 0.5;
};

struct OverloadPolicy {
  LadderPolicy ladder;
  AimdPolicy aimd;
  /// Memory-pressure observable: returns the paged-memory pool's
  /// fullness in [0, 1] (lm::BlockPool::Fullness; 0 when the pool is
  /// unbounded). When set, the pressure score also tracks
  /// fullness / ladder.memory_budget, so a pool nearing its block cap
  /// walks the same ladder as queue pressure — reduced draws shrink
  /// per-session state, the classical tier allocates none. Memory
  /// pressure sheds only through the ladder: it must be enabled for
  /// the probe to have any effect.
  std::function<double()> memory_probe;
  bool any_enabled() const { return ladder.enabled || aimd.enabled; }
};

/// Monotonic counters of every ladder/limiter decision in one run.
struct OverloadStats {
  size_t aimd_rejected = 0;       ///< shed at admission by the limiter
  size_t ladder_rejected = 0;     ///< shed by the reject rung
  size_t demoted_reduced = 0;     ///< dispatched at kLlmReduced
  size_t demoted_classical = 0;   ///< dispatched at kClassical
  size_t escalations = 0;         ///< upward pressure-level moves
  size_t recoveries = 0;          ///< downward (hysteretic) moves
  int peak_level = 0;             ///< highest pressure level reached
  double final_limit = 0.0;       ///< AIMD limit when the run ended
};

/// Registry export of OverloadStats: counters under `prefix` (for example
/// "overload.aimd_rejected"), peak_level / final_limit as max-gauges.
void PublishOverloadStats(const OverloadStats& stats,
                          util::MetricsRegistry* registry,
                          const std::string& prefix);

/// See file comment. Single-threaded and deterministic, like the rest
/// of the serving simulation; one instance per executor run.
class OverloadController {
 public:
  OverloadController(const OverloadPolicy& policy, size_t queue_capacity);

  /// Admission gate, called before AdmissionQueue::Offer. OK admits;
  /// kResourceExhausted sheds (AIMD limit reached, or the ladder's
  /// reject rung applies to this request's class). `in_flight` is the
  /// number of requests currently in service.
  Status Admit(const ForecastRequest& request, double now,
               size_t queue_depth, size_t in_flight);

  /// Quality rung for a request of class `slo` dispatched now. Returns
  /// kShed when the ladder escalated past this class's classical rung
  /// while the request waited — callers shed it instead of serving.
  ServiceTier Rung(SloClass slo, double now, size_t queue_depth);

  /// A dispatched request waited this long in the queue.
  void OnQueueWait(double now, double wait_seconds);
  /// A dispatched request finished; `on_deadline` = served within its
  /// deadline (AIMD grows), else counts as a miss (AIMD shrinks).
  void OnCompletion(double now, bool on_deadline);
  /// A request was shed outside the controller (queue at capacity,
  /// expired in queue): pressure signal + AIMD shrink.
  void OnShed(double now);

  int level() const { return level_; }
  double limit() const { return limit_; }
  const OverloadStats& stats() const { return stats_; }
  /// Publishes the counters into `registry` under `prefix` (the unified
  /// metrics export path; see util/metrics.h).
  void PublishMetrics(util::MetricsRegistry* registry,
                      const std::string& prefix = "overload.") const {
    PublishOverloadStats(stats_, registry, prefix);
  }

 private:
  /// Pressure score >= 0 (1.0 = saturated) from the three observables.
  double Score(size_t queue_depth) const;
  /// Walks the pressure level: escalates immediately, recovers
  /// hysteretically. Call with a fresh `now` before any decision.
  void UpdateLevel(double now, size_t queue_depth);
  void Prune(double now);
  void RecordShedEvent(double now);
  void AimdShrink(double now);
  double EnterThreshold(int level) const;
  /// The quality rung class `slo` gets at the current pressure level:
  /// level 0 is full quality for everyone; above it the class bias
  /// shifts the rung, capped so only a biased rung landing past
  /// classical at the top level (batch at level 3) is rejected.
  ServiceTier TierFor(SloClass slo) const;
  static ServiceTier TierAtRung(int rung);
  static int ClassBias(SloClass slo);

  OverloadPolicy policy_;
  size_t queue_capacity_;
  OverloadStats stats_;
  int level_ = 0;
  double last_level_change_ = 0.0;
  double limit_ = 0.0;
  double last_shrink_ = -1.0;  ///< virtual time of the last AIMD cut
  /// Sliding-window observables (timestamps in virtual seconds).
  std::deque<std::pair<double, double>> waits_;  ///< (time, queue wait)
  std::deque<double> admits_;
  std::deque<double> sheds_;
};

}  // namespace serve
}  // namespace multicast

#endif  // MULTICAST_SERVE_OVERLOAD_H_
