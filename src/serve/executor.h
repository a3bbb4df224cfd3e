// Deterministic virtual-time executor for forecast serving.
//
// One simulated node drains an AdmissionQueue of ForecastRequests into
// its slots (one, or batch.size when batched):
//
//   arrivals ──▶ AdmissionQueue ──▶ slot ──▶ primary pipeline
//                 (bounded,           │        │ RequestContext
//                  shed on full,      │        ▼ {clock, deadline,
//                  drop expired       │      hedge after delay      cancel}
//                  at dequeue)        │        (first success
//                                     │         cancels the loser)
//                                     ▼
//                               per-request ServeStats
//
// The node runs on the tree's one serving event loop: Run builds a
// one-replica fleet with an empty fault plan and hands it to
// cluster::ClusterExecutor (cluster/replica_set.h), so admission,
// drain, expiry, the overload ladder and completion are the fleet's
// code. What a node keeps for itself is the body of one dispatch
// (ServeOne): the primary/hedge race on the same node.
//
// Every request runs under a RequestContext carrying the request's
// absolute deadline and a CancelToken on a branch VirtualClock, so the
// pipeline itself stops issuing LLM calls the moment the request dies.
// Concurrency (the hedge racing the primary, requests sharing slots) is
// simulated sequentially on branch clocks and reconciled by virtual
// finish times, which keeps every run bit-reproducible: the same trace,
// seeds and options give the same shed counts, latencies and ledgers on
// every machine.

#ifndef MULTICAST_SERVE_EXECUTOR_H_
#define MULTICAST_SERVE_EXECUTOR_H_

#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "batch/batch_scheduler.h"
#include "forecast/forecaster.h"
#include "lm/paged_store.h"
#include "lm/prefix_cache.h"
#include "serve/overload.h"
#include "serve/queue.h"
#include "serve/request.h"
#include "util/metrics.h"

namespace multicast {
namespace serve {

/// Builds the pipeline serving one request. Called per request (and per
/// hedge attempt), which is what lets callers decorrelate seeds per
/// request id and lets tests interpose instrumented backends.
using ForecasterFactory =
    std::function<std::unique_ptr<forecast::Forecaster>(
        const ForecastRequest&)>;

/// Hedged requests: when the primary has not finished `delay_seconds`
/// after its start (or failed outright), a backup pipeline is launched
/// and the first success wins; the loser is cancelled at the winner's
/// finish time via its CancelToken.
struct HedgePolicy {
  bool enabled = false;
  double delay_seconds = 0.5;
};

/// Batched service mode: instead of one slot serving each request to
/// completion before touching the next, up to `size` requests are in
/// service at once, each on its own branch clock from the moment a slot
/// frees — the serving-level face of continuous batching. The
/// caller wires the shared batch::BatchScheduler into its forecaster
/// factories (as it does the prefix cache), so all in-flight requests'
/// sample draws decode through one scheduler; the executor simulates the
/// slot lifecycle and *observes* the scheduler for per-request
/// BatchStats. Each request's forecast stays bit-identical to the
/// sequential path — batching changes when requests start, never what
/// they compute. Does not compose with hedging (Run rejects the combo).
struct BatchServePolicy {
  bool enabled = false;
  /// Concurrent in-service requests (also the decode batch bound the
  /// caller should configure the scheduler with). A freed slot is
  /// refilled from the queue immediately.
  size_t size = 8;
  /// The scheduler shared by the served pipelines, when the caller
  /// wired one into its factories. Observed only — stats are
  /// snapshotted around each request, like the prefix cache. May be
  /// null (no batch accounting); may also be set with `enabled` false
  /// to account per-request decode batching on a one-slot node.
  std::shared_ptr<batch::BatchScheduler> scheduler;
};

/// What happens to work still waiting when the server drains.
enum class DrainMode {
  kFinishQueued,  ///< stop admitting, serve out everything queued
  kCancelQueued,  ///< stop admitting, cancel queued AND in-flight work
};

struct ServeOptions {
  QueuePolicy queue;
  HedgePolicy hedge;
  /// Virtual time at which the server begins draining: admission closes
  /// and `drain_mode` decides the fate of waiting work (+inf = never).
  double drain_at_seconds = std::numeric_limits<double>::infinity();
  DrainMode drain_mode = DrainMode::kFinishQueued;
  /// The prefix cache shared by the served pipelines, when the caller
  /// wired one into its forecaster factories (see lm/prefix_cache.h).
  /// The executor only *observes* it — snapshotting stats around each
  /// request so ServeStats carries that request's cache activity. Null
  /// disables the accounting; serving behaviour is identical either way.
  std::shared_ptr<lm::PrefixCache> prefix_cache;
  /// Batched service mode + scheduler observation (see BatchServePolicy).
  BatchServePolicy batch;
  /// Overload-aware degradation: the brownout ladder and/or the AIMD
  /// admission limiter (see serve/overload.h). Both off by default, so
  /// existing runs are untouched. Factories see the assigned rung in
  /// ForecastRequest::tier and must build the matching pipeline.
  OverloadPolicy overload;
  /// The paged-memory pool shared by the served pipelines, when the
  /// caller wired one into its forecaster factories (see
  /// lm/paged_store.h). When set and `overload.memory_probe` is unset,
  /// the executor probes the pool's fullness as the ladder's memory
  /// observable — a pool nearing its block budget degrades service
  /// before allocation goes over it. The executor never publishes the pool's
  /// lm.mem.* metrics itself (the pool outlives individual runs; the
  /// caller publishes once per registry).
  std::shared_ptr<lm::BlockPool> block_pool;
  /// Unified metrics registry (not owned; may be null). When set, the
  /// executor publishes its queue and overload counters here after each
  /// Run under the "queue." / "overload." prefixes, and callers
  /// typically hand the same registry to Summarize() for the "serve."
  /// rollup — one registry, one export path (see util/metrics.h). Null
  /// publishes nothing. Export only: the accessors below return the
  /// run's own structs whatever the registry already held.
  util::MetricsRegistry* metrics = nullptr;
};

enum class RequestOutcome {
  kServed,          ///< full-quality forecast within deadline
  kServedDegraded,  ///< served, but degraded (fewer samples / fallback)
  kShedQueueFull,   ///< rejected at admission: queue at capacity
  kShedExpired,     ///< dropped at dequeue: deadline passed waiting
  kCancelledDrain,  ///< rejected or cancelled because the server drained
  kFailed,          ///< ran but produced no servable forecast
};

const char* OutcomeName(RequestOutcome outcome);

/// Cluster-layer accounting for one request: which replica served it
/// and what its failovers cost. Filled by cluster::ClusterExecutor;
/// the single-node ServeExecutor leaves it defaulted (replica -1),
/// although it runs on the same event loop.
struct ClusterStats {
  /// Replica that produced the final outcome; -1 when the request
  /// never reached one (or the run was not clustered).
  int replica = -1;
  /// In-flight replica deaths this request survived (each one aborted
  /// a running pipeline attempt).
  size_t failovers = 0;
  /// Sample draws whose work was re-dispatched to a surviving replica
  /// after a mid-service crash.
  size_t redispatched_draws = 0;
  /// Virtual service seconds burnt on attempts that died with their
  /// replica (or lost a hedge race) — the price of failover, kept out
  /// of the ledger so served results stay bit-identical to a
  /// fault-free run.
  double wasted_seconds = 0.0;

  ClusterStats& operator+=(const ClusterStats& other) {
    failovers += other.failovers;
    redispatched_draws += other.redispatched_draws;
    wasted_seconds += other.wasted_seconds;
    return *this;
  }
};

/// Registry export of ClusterStats: counters under `prefix` (for example
/// "cluster.failovers"). The per-request `replica` field is routing
/// state, not a counter, and is not published.
void PublishClusterStats(const ClusterStats& stats,
                         util::MetricsRegistry* registry,
                         const std::string& prefix);

/// Terminal-status breakdown of every request that was not served:
/// *why* the serving layer said no, not just how often. Keyed on the
/// final Status code, so queue shedding, deadline losses (queued or
/// in-service), dead backends/fleets and drain cancellations stay
/// distinguishable in one summary.
struct RejectionBreakdown {
  size_t queue_full = 0;           ///< kResourceExhausted at admission
  size_t deadline_expired = 0;     ///< kDeadlineExceeded (queue or service)
  size_t backend_unavailable = 0;  ///< kUnavailable (backend / fleet down)
  size_t cancelled = 0;            ///< kCancelled (drain, hedge loser)
  size_t other = 0;                ///< any other terminal status
  /// Sum and count of the positive retry-after hints attached to the
  /// queue_full rejections that carried one.
  double retry_after_hint_sum = 0.0;
  size_t retry_after_hints = 0;

  size_t total() const {
    return queue_full + deadline_expired + backend_unavailable +
           cancelled + other;
  }
  /// Mean retry-after hint over the rejections that carried one (0 when
  /// none did) — what a well-behaved client was told to back off by, on
  /// average.
  double mean_retry_after_seconds() const {
    return retry_after_hints > 0
               ? retry_after_hint_sum / static_cast<double>(retry_after_hints)
               : 0.0;
  }
};

/// Registry export of RejectionBreakdown: counters under `prefix` (for
/// example "rejections.queue_full").
void PublishRejectionBreakdown(const RejectionBreakdown& breakdown,
                               util::MetricsRegistry* registry,
                               const std::string& prefix);

/// Everything the serving layer knows about one request's fate.
struct ServeStats {
  size_t id = 0;
  RequestOutcome outcome = RequestOutcome::kFailed;
  /// OK for served outcomes; the shedding/failing status otherwise.
  Status status;
  /// The request's SLO class, copied through for per-class rollups.
  SloClass slo = SloClass::kStandard;
  /// Quality tier the request actually got: the ladder rung it was
  /// served at (kClassical also when a fallback chain demoted it to the
  /// classical engine), kShed for every non-served outcome.
  ServiceTier tier = ServiceTier::kShed;
  /// Back-off hint attached to a queue-full rejection (0 otherwise):
  /// the admission queue's drain-rate estimate of when a slot frees.
  double retry_after_seconds = 0.0;
  double arrival_seconds = 0.0;
  /// Virtual times; zero when the request never reached a worker.
  double start_seconds = 0.0;
  double finish_seconds = 0.0;
  double queue_wait_seconds = 0.0;
  /// Arrival-to-finish, the client-observed number (served only).
  double latency_seconds = 0.0;
  /// Pipelines launched for this request (1, or 2 when hedged).
  int attempts = 0;
  bool hedge_fired = false;
  bool hedge_won = false;
  bool degraded = false;
  /// Accounting summed over this request's successful pipeline runs.
  lm::RetryStats retry;
  lm::TokenLedger ledger;
  /// Prefix-cache activity attributed to this request (delta of the
  /// shared cache's counters across its service; empty without a cache
  /// in ServeOptions).
  lm::PrefixCacheStats prefix_cache;
  /// Batch-scheduler activity attributed to this request (delta of the
  /// shared scheduler's counters; empty without a scheduler in
  /// ServeOptions).
  batch::BatchStats batch;
  /// Cluster routing/failover accounting (defaulted outside cluster
  /// runs; see ClusterStats).
  ClusterStats cluster;
  /// The served forecast (null unless served) — benches score RMSE of
  /// what clients actually received, shed requests included by absence.
  std::shared_ptr<const forecast::ForecastResult> result;
};

/// Fleet-level rollup of one executor run.
struct ServeSummary {
  size_t total = 0;
  size_t served = 0;
  size_t served_degraded = 0;
  size_t shed_queue_full = 0;
  size_t shed_expired = 0;
  size_t cancelled_drain = 0;
  size_t failed = 0;
  size_t hedges_fired = 0;
  size_t hedge_wins = 0;
  /// Per-tier outcome counters: what quality each request actually got
  /// (tier_shed counts every non-served outcome; the four sum to
  /// `total`).
  size_t tier_llm_full = 0;
  size_t tier_llm_reduced = 0;
  size_t tier_classical = 0;
  size_t tier_shed = 0;
  /// Latency quantiles over served requests (0 when none served).
  double p50_latency_seconds = 0.0;
  double p99_latency_seconds = 0.0;
  double mean_queue_wait_seconds = 0.0;
  /// End-to-end latency split over served requests: time spent waiting
  /// for a worker slot (queue wait) vs time in service (start to
  /// finish). Queue wait is where batching/hedging/shedding policies
  /// show up; service time is the pipeline's own cost — comparing the
  /// two tells which one a config actually moved.
  double p50_queue_wait_seconds = 0.0;
  double p95_queue_wait_seconds = 0.0;
  double p99_queue_wait_seconds = 0.0;
  double p50_service_seconds = 0.0;
  double p95_service_seconds = 0.0;
  double p99_service_seconds = 0.0;
  lm::RetryStats retry;
  lm::TokenLedger ledger;
  lm::PrefixCacheStats prefix_cache;
  batch::BatchStats batch;
  /// Why the non-served requests were rejected, by terminal status.
  RejectionBreakdown rejections;
  /// Cluster rollup: failover totals plus served counts per replica
  /// (`served_per_replica[r]` — empty outside cluster runs).
  ClusterStats cluster;
  std::vector<size_t> served_per_replica;
  /// Requests whose *final* outcome (served or not) was produced on
  /// replica r. served_per_replica only counts successes, so a request
  /// that reached a replica and then failed or overran its deadline
  /// used to vanish from per-replica counts while still appearing in
  /// cluster occupancy; this view keeps the two consistent —
  /// finished_per_replica[r] >= served_per_replica[r] element-wise.
  std::vector<size_t> finished_per_replica;

  size_t shed() const { return shed_queue_full + shed_expired; }
};

/// Rolls `stats` up into one ServeSummary, computed from the stats
/// alone (request order, with the structs' own merge operators). When
/// `registry` is set, the summary is then published once under the
/// "serve." prefix — counters add to whatever the registry already
/// held, and every name is published whatever the outcomes, so
/// --metrics-json keeps one column set. The registry never feeds back
/// into the returned summary.
ServeSummary Summarize(const std::vector<ServeStats>& stats,
                       util::MetricsRegistry* registry = nullptr);

/// See file comment.
class ServeExecutor {
 public:
  /// `primary` builds the pipeline of record; `hedge` (may be null,
  /// disabling hedging) builds the cheaper backup raced after the hedge
  /// delay.
  ServeExecutor(ForecasterFactory primary, ForecasterFactory hedge,
                const ServeOptions& options);

  /// Replays `requests` (sorted by arrival internally) through
  /// admission, queueing and service on a one-replica fleet; returns
  /// one ServeStats per request, in request-id order.
  Result<std::vector<ServeStats>> Run(std::vector<ForecastRequest> requests);

  /// Queue counters of the most recent Run().
  const QueueStats& queue_stats() const { return queue_stats_; }
  /// Ladder/limiter counters of the most recent Run() (all zero when
  /// ServeOptions::overload is disabled).
  const OverloadStats& overload_stats() const { return overload_stats_; }
  /// Virtual time at which the most recent Run() went idle.
  double end_seconds() const { return end_seconds_; }

 private:
  /// The body of one dispatch on this node, starting at `start`: the
  /// primary pipeline, raced by the hedge pipeline when hedging is on.
  /// Returns the forecast to serve, or the failure; `*delta` receives
  /// the finish time, the pipelines launched, the hedge flags and the
  /// retry stats and ledger of every pipeline run that happened.
  Result<forecast::ForecastResult> ServeOne(const ForecastRequest& request,
                                            double start, ServeStats* delta);

  ForecasterFactory primary_;
  ForecasterFactory hedge_;
  ServeOptions options_;
  QueueStats queue_stats_;
  OverloadStats overload_stats_;
  double end_seconds_ = 0.0;
};

}  // namespace serve
}  // namespace multicast

#endif  // MULTICAST_SERVE_EXECUTOR_H_
