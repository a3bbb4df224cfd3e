// Multi-replica serving: a ReplicaSet above the admission queue.
//
//                        ┌────────▶ Replica 0 (scheduler + prefix cache)
//   arrivals ─▶ Admission│Router ─▶ Replica 1        │ crash? ──┐
//               Queue    │  ▲  └──▶ Replica 2 ◀──────┘ failover │
//                        │  └─ HealthMonitor (probes, ejection, ◀┘
//                        │      probation readmission)
//
// Each Replica is one simulated accelerator node: its own decode
// BatchScheduler, its own PrefixCache (wiped when the node crashes,
// kept through partitions), and a seeded ReplicaFaultPlan. A Router
// (round-robin / least-loaded / power-of-two / prefix affinity) picks
// among replicas the HealthMonitor believes healthy; dispatches to a
// replica that died before the monitor noticed count as misroutes and
// feed back as passive health failures.
//
// Failover: when a replica dies mid-request, the in-flight attempt is
// aborted at the crash instant and the request's incomplete draws are
// re-dispatched to a surviving replica. Determinism argument: every
// draw's RNG and backend fault/retry stack is indexed by (request
// seed, draw index) — never by replica — and replica state (prefix
// cache, batch schedule) is proven output-invariant by the PR 4/5
// identity suites. A re-run therefore reproduces the no-fault
// forecast, bands, ledger and warnings bit-for-bit at any replica
// count whenever the deadline budget still allows full service; what
// failover costs is time (and wasted work), surfaced per request in
// serve::ClusterStats and fleet-wide in ClusterReport.
//
// ClusterExecutor::Run is the tree's one serving event loop:
// serve::ServeExecutor runs a single node through it as a one-replica
// fleet with an empty fault plan. Everything runs as one deterministic
// event-driven simulation in virtual time: pipelines execute
// sequentially on branch clocks; concurrency across replicas is
// reconciled by virtual event times, so a (trace, seeds, options)
// triple names one exact run on every machine.

#ifndef MULTICAST_CLUSTER_REPLICA_SET_H_
#define MULTICAST_CLUSTER_REPLICA_SET_H_

#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "batch/batch_scheduler.h"
#include "cluster/fault_plan.h"
#include "cluster/health.h"
#include "cluster/router.h"
#include "forecast/forecaster.h"
#include "lm/paged_store.h"
#include "lm/prefix_cache.h"
#include "serve/executor.h"
#include "serve/queue.h"
#include "serve/request.h"
#include "util/metrics.h"

namespace multicast {
namespace cluster {

/// One simulated serving node.
struct Replica {
  int id = 0;
  /// Node-local prompt cache; wiped when the node crashes. May be null
  /// (cacheless replica). Shared pointers let tests share one cache
  /// across replicas — fingerprints must then namespace the entries.
  std::shared_ptr<lm::PrefixCache> prefix_cache;
  /// Node-local decode scheduler; may be null (unbatched decode).
  std::shared_ptr<batch::BatchScheduler> scheduler;
  /// Node-local paged-memory pool (lm/paged_store.h); may be null (each
  /// pipeline then builds its own). Factories attach it to the pipelines
  /// they build here, so a node's sessions share frozen prompt state at
  /// block granularity; a crash that wipes the node's prefix cache
  /// releases the cache's block references, and the blocks return to
  /// this pool's freelist once the last live session drops them.
  std::shared_ptr<lm::BlockPool> block_pool;
  /// Scripted failures (crash / partition / slow); see fault_plan.h.
  ReplicaFaultPlan plan;
  /// Concurrent in-service requests this node accepts.
  size_t slots = 1;
  /// Graceful drain window: inside [start, end) the replica takes no
  /// new work but finishes what it has — a rolling-restart primitive.
  FaultWindow drain{std::numeric_limits<double>::infinity(),
                    std::numeric_limits<double>::infinity()};
};

/// Uniform-fleet convenience constructor inputs.
struct UniformReplicaOptions {
  size_t replicas = 2;
  size_t slots = 1;
  /// Per-replica prefix cache capacity; 0 disables the caches.
  size_t prefix_cache_capacity = 64;
  /// Per-replica decode scheduler policy; nullopt-like: max_batch 0
  /// disables the schedulers.
  size_t batch_slots = 0;
  bool batch_backfill = true;
  /// Per-replica paged-memory pools: false leaves every
  /// Replica::block_pool null (a pool per pipeline).
  bool paged_memory = false;
  /// Pool geometry when paged_memory is set (same semantics as
  /// forecast::MultiCastOptions::block_span / pool_blocks: the cap is a
  /// block budget whose fullness the ladder reads).
  size_t block_span = 32;
  size_t pool_blocks = 0;
};

/// The fleet: plain data handed to ClusterExecutor.
std::vector<Replica> MakeUniformReplicas(
    const UniformReplicaOptions& options);

/// Builds the pipeline serving one request *on one replica* — the
/// replicated face of serve::ForecasterFactory. Implementations wire
/// `replica.prefix_cache` / `replica.scheduler` into the pipeline so
/// node state stays node-local, and derive seeds from the request
/// only, never the replica, to keep failover output-identical.
using ReplicaForecasterFactory =
    std::function<std::unique_ptr<forecast::Forecaster>(
        const serve::ForecastRequest&, const Replica&)>;

struct ClusterOptions {
  serve::QueuePolicy queue;
  RouterPolicy router = RouterPolicy::kLeastLoaded;
  /// Seeds the power-of-two stream and the affinity salts.
  uint64_t router_seed = 1;
  HealthPolicy health;
  /// Cross-replica hedging: a request still in flight `delay_seconds`
  /// after dispatch launches a backup on another replica; the first
  /// success wins and the loser is cancelled at that instant.
  serve::HedgePolicy hedge;
  /// Cluster drain, mirroring ServeOptions: admission closes at
  /// `drain_at_seconds`; kCancelQueued also cancels waiting and
  /// in-flight work.
  double drain_at_seconds = std::numeric_limits<double>::infinity();
  serve::DrainMode drain_mode = serve::DrainMode::kFinishQueued;
  /// Detection + re-dispatch cost charged to each failover before the
  /// re-run may start on a surviving replica.
  double redispatch_delay_seconds = 0.0;
  /// Crashes wipe the dead replica's prefix cache (partitions never
  /// do). Disable to model an external/persistent cache tier.
  bool wipe_cache_on_crash = true;
  /// Overload-aware degradation (brownout ladder + AIMD admission),
  /// identical to ServeOptions::overload: the fleet sheds load the same
  /// way a single node does. Factories see the assigned rung in
  /// ForecastRequest::tier. Off by default. When replicas carry paged
  /// block pools and no memory_probe is set here, the executor probes
  /// the *fullest* replica pool as the ladder's memory observable (the
  /// router cannot move pinned session state, so the tightest node
  /// gates the fleet).
  serve::OverloadPolicy overload;
  /// Unified metrics registry (not owned; may be null). When set, the
  /// executor publishes its queue / overload / fleet-failover counters
  /// here after each Run under the "queue." / "overload." / "cluster."
  /// prefixes — the same single export path ServeOptions::metrics feeds
  /// (see util/metrics.h). Export only: the accessors return the run's
  /// own structs whether or not a registry is set.
  util::MetricsRegistry* metrics = nullptr;
};

/// Fleet-side rollup of one run (per-request fates live in the
/// returned serve::ServeStats).
struct ReplicaReport {
  int id = 0;
  size_t dispatched = 0;  ///< attempts started here (incl. hedges)
  size_t completed = 0;   ///< attempts that ran to completion here
  size_t failovers = 0;   ///< attempts this node killed by dying
  size_t misroutes = 0;   ///< dispatches refused: node already down
  double busy_seconds = 0.0;  ///< summed in-service virtual seconds
  /// busy_seconds / (slots × run length): time-averaged occupancy.
  double occupancy = 0.0;
};

struct ClusterReport {
  std::vector<ReplicaReport> replicas;
  HealthStats health;
  size_t failovers = 0;
  size_t redispatched_draws = 0;
  double wasted_seconds = 0.0;
  /// Requests failed with kUnavailable because no replica could ever
  /// serve them again (fleet permanently down).
  size_t fleet_unavailable = 0;
  /// Ladder/limiter counters (all zero when ClusterOptions::overload is
  /// disabled).
  serve::OverloadStats overload;
};

/// See file comment.
class ClusterExecutor {
 public:
  /// `primary` builds the pipeline of record; `hedge` (null = use
  /// `primary`) builds the backup raced after the hedge delay.
  ClusterExecutor(ReplicaForecasterFactory primary,
                  ReplicaForecasterFactory hedge,
                  std::vector<Replica> replicas,
                  const ClusterOptions& options);

  /// Replays `requests` through admission, routing, per-replica
  /// service, failover and recovery; returns one ServeStats per
  /// request in request-id order.
  Result<std::vector<serve::ServeStats>> Run(
      std::vector<serve::ForecastRequest> requests);

  const serve::QueueStats& queue_stats() const { return queue_stats_; }
  const ClusterReport& report() const { return report_; }
  double end_seconds() const { return end_seconds_; }
  size_t num_replicas() const { return replicas_.size(); }
  const Replica& replica(size_t i) const { return replicas_[i]; }

 private:
  friend class serve::ServeExecutor;
  struct Flight;
  struct LiveRequest;

  /// A single node's dispatch body (see serve::ServeExecutor::ServeOne):
  /// runs the request's pipelines from `start` and returns the forecast
  /// to serve, or the failure; `*delta` receives the finish time, the
  /// pipelines launched, the hedge flags and the work charged.
  using NodeDispatch = std::function<Result<forecast::ForecastResult>(
      const serve::ForecastRequest&, double start, serve::ServeStats* delta)>;

  ReplicaForecasterFactory primary_;
  ReplicaForecasterFactory hedge_;
  std::vector<Replica> replicas_;
  ClusterOptions options_;
  /// Set by ServeExecutor only: the fleet is then one node, every
  /// dispatch runs this body instead of the replica factory, a failed
  /// request is charged its work, and no fleet counters are published.
  NodeDispatch node_dispatch_;
  serve::QueueStats queue_stats_;
  ClusterReport report_;
  double end_seconds_ = 0.0;
};

}  // namespace cluster
}  // namespace multicast

#endif  // MULTICAST_CLUSTER_REPLICA_SET_H_
