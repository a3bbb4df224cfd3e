#include "serve/executor.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "cluster/replica_set.h"
#include "util/quantile.h"
#include "util/strings.h"
#include "util/virtual_time.h"

namespace multicast {
namespace serve {

namespace {

Deadline RequestDeadline(const ForecastRequest& request) {
  return std::isfinite(request.deadline_seconds)
             ? Deadline::At(request.deadline_seconds)
             : Deadline::Never();
}

// TokenLedger is too small to warrant a public export helper; the serve
// rollup is its only registry face.
void PublishTokenLedger(const lm::TokenLedger& ledger,
                        util::MetricsRegistry* registry,
                        const std::string& prefix) {
  registry->GetCounter(prefix + "prompt_tokens")
      ->Add(static_cast<double>(ledger.prompt_tokens));
  registry->GetCounter(prefix + "generated_tokens")
      ->Add(static_cast<double>(ledger.generated_tokens));
}

/// ++(*counts)[index], growing the vector as needed.
void CountAt(std::vector<size_t>* counts, int index) {
  const size_t i = static_cast<size_t>(index);
  if (counts->size() <= i) counts->resize(i + 1, 0);
  ++(*counts)[i];
}

/// Exports a per-replica count vector as an indexed histogram; zero
/// entries still extend it, so the bucket vector keeps its length.
void PublishCounts(const std::vector<size_t>& counts,
                   util::Histogram* histogram) {
  for (size_t i = 0; i < counts.size(); ++i) {
    histogram->ObserveIndex(i, counts[i]);
  }
}

}  // namespace

void PublishClusterStats(const ClusterStats& stats,
                         util::MetricsRegistry* registry,
                         const std::string& prefix) {
  registry->GetCounter(prefix + "failovers")
      ->Add(static_cast<double>(stats.failovers));
  registry->GetCounter(prefix + "redispatched_draws")
      ->Add(static_cast<double>(stats.redispatched_draws));
  registry->GetCounter(prefix + "wasted_seconds")->Add(stats.wasted_seconds);
}

void PublishRejectionBreakdown(const RejectionBreakdown& breakdown,
                               util::MetricsRegistry* registry,
                               const std::string& prefix) {
  registry->GetCounter(prefix + "queue_full")
      ->Add(static_cast<double>(breakdown.queue_full));
  registry->GetCounter(prefix + "deadline_expired")
      ->Add(static_cast<double>(breakdown.deadline_expired));
  registry->GetCounter(prefix + "backend_unavailable")
      ->Add(static_cast<double>(breakdown.backend_unavailable));
  registry->GetCounter(prefix + "cancelled")
      ->Add(static_cast<double>(breakdown.cancelled));
  registry->GetCounter(prefix + "other")
      ->Add(static_cast<double>(breakdown.other));
  registry->GetCounter(prefix + "retry_after_hint_sum")
      ->Add(breakdown.retry_after_hint_sum);
  registry->GetCounter(prefix + "retry_after_hints")
      ->Add(static_cast<double>(breakdown.retry_after_hints));
}

const char* OutcomeName(RequestOutcome outcome) {
  switch (outcome) {
    case RequestOutcome::kServed:
      return "served";
    case RequestOutcome::kServedDegraded:
      return "served-degraded";
    case RequestOutcome::kShedQueueFull:
      return "shed-queue-full";
    case RequestOutcome::kShedExpired:
      return "shed-expired";
    case RequestOutcome::kCancelledDrain:
      return "cancelled-drain";
    case RequestOutcome::kFailed:
      return "failed";
  }
  return "?";
}

ServeSummary Summarize(const std::vector<ServeStats>& stats,
                       util::MetricsRegistry* registry) {
  ServeSummary s;
  s.total = stats.size();
  std::vector<double> latencies;
  std::vector<double> queue_waits;
  std::vector<double> service_times;
  double queue_wait_sum = 0.0;
  size_t started = 0;
  for (const ServeStats& st : stats) {
    switch (st.outcome) {
      case RequestOutcome::kServed:
        ++s.served;
        break;
      case RequestOutcome::kServedDegraded:
        ++s.served_degraded;
        break;
      case RequestOutcome::kShedQueueFull:
        ++s.shed_queue_full;
        break;
      case RequestOutcome::kShedExpired:
        ++s.shed_expired;
        break;
      case RequestOutcome::kCancelledDrain:
        ++s.cancelled_drain;
        break;
      case RequestOutcome::kFailed:
        ++s.failed;
        break;
    }
    if (st.hedge_fired) ++s.hedges_fired;
    if (st.hedge_won) ++s.hedge_wins;
    switch (st.tier) {
      case ServiceTier::kLlmFull:
        ++s.tier_llm_full;
        break;
      case ServiceTier::kLlmReduced:
        ++s.tier_llm_reduced;
        break;
      case ServiceTier::kClassical:
        ++s.tier_classical;
        break;
      case ServiceTier::kShed:
        ++s.tier_shed;
        break;
    }
    const bool served = st.outcome == RequestOutcome::kServed ||
                        st.outcome == RequestOutcome::kServedDegraded;
    if (served) {
      latencies.push_back(st.latency_seconds);
      // The end-to-end split: latency = queue wait + service time.
      queue_waits.push_back(st.queue_wait_seconds);
      service_times.push_back(st.finish_seconds - st.start_seconds);
    }
    if (st.attempts > 0) {
      queue_wait_sum += st.queue_wait_seconds;
      ++started;
    }
    if (!served) {
      // Rejection-reason breakdown keyed on the terminal status code.
      RejectionBreakdown& r = s.rejections;
      switch (st.status.code()) {
        case StatusCode::kResourceExhausted:
          ++r.queue_full;
          if (st.retry_after_seconds > 0.0) {
            r.retry_after_hint_sum += st.retry_after_seconds;
            ++r.retry_after_hints;
          }
          break;
        case StatusCode::kDeadlineExceeded:
          ++r.deadline_expired;
          break;
        case StatusCode::kUnavailable:
          ++r.backend_unavailable;
          break;
        case StatusCode::kCancelled:
          ++r.cancelled;
          break;
        default:
          ++r.other;
          break;
      }
    } else if (st.cluster.replica >= 0) {
      CountAt(&s.served_per_replica, st.cluster.replica);
    }
    // Any outcome that reached a replica lands here — the consistent
    // per-replica view (see ServeSummary::finished_per_replica).
    if (st.cluster.replica >= 0) {
      CountAt(&s.finished_per_replica, st.cluster.replica);
    }
    s.retry += st.retry;
    s.ledger += st.ledger;
    s.prefix_cache += st.prefix_cache;
    s.batch += st.batch;
    s.cluster += st.cluster;
  }
  std::sort(latencies.begin(), latencies.end());
  std::sort(queue_waits.begin(), queue_waits.end());
  std::sort(service_times.begin(), service_times.end());
  s.p50_latency_seconds = util::NearestRankQuantileSorted(latencies, 0.50);
  s.p99_latency_seconds = util::NearestRankQuantileSorted(latencies, 0.99);
  s.mean_queue_wait_seconds =
      started > 0 ? queue_wait_sum / static_cast<double>(started) : 0.0;
  s.p50_queue_wait_seconds = util::NearestRankQuantileSorted(queue_waits, 0.50);
  s.p95_queue_wait_seconds = util::NearestRankQuantileSorted(queue_waits, 0.95);
  s.p99_queue_wait_seconds = util::NearestRankQuantileSorted(queue_waits, 0.99);
  s.p50_service_seconds = util::NearestRankQuantileSorted(service_times, 0.50);
  s.p95_service_seconds = util::NearestRankQuantileSorted(service_times, 0.95);
  s.p99_service_seconds = util::NearestRankQuantileSorted(service_times, 0.99);
  if (registry == nullptr) return s;

  // Export, once. Every name is published whatever the outcomes, in
  // one fixed order: first-touch order is the export order, so this
  // keeps --metrics-json column-stable.
  auto count = [registry](const char* name, double value) {
    registry->GetCounter(std::string("serve.") + name)->Add(value);
  };
  count("total", static_cast<double>(s.total));
  count("served", static_cast<double>(s.served));
  count("served_degraded", static_cast<double>(s.served_degraded));
  count("shed_queue_full", static_cast<double>(s.shed_queue_full));
  count("shed_expired", static_cast<double>(s.shed_expired));
  count("cancelled_drain", static_cast<double>(s.cancelled_drain));
  count("failed", static_cast<double>(s.failed));
  count("hedges_fired", static_cast<double>(s.hedges_fired));
  count("hedge_wins", static_cast<double>(s.hedge_wins));
  count("tier_llm_full", static_cast<double>(s.tier_llm_full));
  count("tier_llm_reduced", static_cast<double>(s.tier_llm_reduced));
  count("tier_classical", static_cast<double>(s.tier_classical));
  count("tier_shed", static_cast<double>(s.tier_shed));
  count("queue_wait_seconds_sum", queue_wait_sum);
  count("requests_started", static_cast<double>(started));
  PublishRetryStats(s.retry, registry, "serve.retry.");
  PublishTokenLedger(s.ledger, registry, "serve.ledger.");
  PublishPrefixCacheStats(s.prefix_cache, registry, "serve.prefix_cache.");
  PublishBatchStats(s.batch, registry, "serve.batch.");
  PublishClusterStats(s.cluster, registry, "serve.cluster.");
  PublishRejectionBreakdown(s.rejections, registry, "serve.rejections.");
  PublishCounts(s.served_per_replica,
                registry->GetHistogram("serve.served_per_replica"));
  PublishCounts(s.finished_per_replica,
                registry->GetHistogram("serve.finished_per_replica"));
  auto gauge = [registry](const char* name, double value) {
    registry->GetGauge(std::string("serve.") + name)->Set(value);
  };
  gauge("p50_latency_seconds", s.p50_latency_seconds);
  gauge("p99_latency_seconds", s.p99_latency_seconds);
  gauge("p50_queue_wait_seconds", s.p50_queue_wait_seconds);
  gauge("p95_queue_wait_seconds", s.p95_queue_wait_seconds);
  gauge("p99_queue_wait_seconds", s.p99_queue_wait_seconds);
  gauge("p50_service_seconds", s.p50_service_seconds);
  gauge("p95_service_seconds", s.p95_service_seconds);
  gauge("p99_service_seconds", s.p99_service_seconds);
  gauge("mean_queue_wait_seconds", s.mean_queue_wait_seconds);
  return s;
}

ServeExecutor::ServeExecutor(ForecasterFactory primary,
                             ForecasterFactory hedge,
                             const ServeOptions& options)
    : primary_(std::move(primary)),
      hedge_(std::move(hedge)),
      options_(options) {
  MC_CHECK(primary_ != nullptr);
}

Result<forecast::ForecastResult> ServeExecutor::ServeOne(
    const ForecastRequest& request, double start, ServeStats* delta) {
  const Deadline deadline = RequestDeadline(request);
  const bool cancel_on_drain =
      options_.drain_mode == DrainMode::kCancelQueued &&
      std::isfinite(options_.drain_at_seconds);

  // Primary branch: its clock starts where the slot picked the request
  // up and is advanced by every cost the pipeline models.
  VirtualClock primary_clock;
  primary_clock.AdvanceTo(start);
  RequestContext primary_ctx;
  primary_ctx.clock = &primary_clock;
  primary_ctx.deadline = deadline;
  if (cancel_on_drain) {
    primary_ctx.cancel.CancelAtTime(&primary_clock,
                                    options_.drain_at_seconds,
                                    "server draining");
  }
  Result<forecast::ForecastResult> primary_result =
      primary_(request)->Forecast(*request.history, request.horizon,
                                  primary_ctx);
  double primary_finish = primary_clock.now();
  delta->attempts = 1;

  // Hedge decision: fire when the primary was still running at
  // start + delay, or failed outright (fail-fast hedging launches the
  // backup at the failure instant instead of waiting out the delay).
  bool fire = options_.hedge.enabled && hedge_ != nullptr;
  double hedge_start = start + options_.hedge.delay_seconds;
  if (fire && primary_result.ok() && primary_finish <= hedge_start) {
    fire = false;  // primary fast enough; hedge never launches
  }
  if (fire && !primary_result.ok() && primary_finish < hedge_start) {
    hedge_start = primary_finish;
  }
  if (fire && deadline.ExpiredAt(hedge_start)) fire = false;
  if (fire && cancel_on_drain &&
      hedge_start >= options_.drain_at_seconds) {
    fire = false;
  }

  Result<forecast::ForecastResult> hedge_result =
      Status::Unavailable("hedge not fired");
  double hedge_finish = 0.0;
  if (fire) {
    delta->hedge_fired = true;
    delta->attempts = 2;
    VirtualClock hedge_clock;
    hedge_clock.AdvanceTo(hedge_start);
    RequestContext hedge_ctx;
    hedge_ctx.clock = &hedge_clock;
    hedge_ctx.deadline = deadline;
    // First success cancels the loser: a hedge still running when the
    // primary finished successfully is cancelled at that instant.
    double cancel_at = std::numeric_limits<double>::infinity();
    std::string cancel_reason;
    if (primary_result.ok()) {
      cancel_at = primary_finish;
      cancel_reason = "hedge lost: primary finished first";
    }
    if (cancel_on_drain && options_.drain_at_seconds < cancel_at) {
      cancel_at = options_.drain_at_seconds;
      cancel_reason = "server draining";
    }
    if (std::isfinite(cancel_at)) {
      hedge_ctx.cancel.CancelAtTime(&hedge_clock, cancel_at,
                                    std::move(cancel_reason));
    }
    hedge_result = hedge_(request)->Forecast(*request.history,
                                             request.horizon, hedge_ctx);
    hedge_finish = hedge_clock.now();
  }

  // Reconcile the race by virtual finish time: earliest success wins.
  const bool primary_ok = primary_result.ok();
  const bool hedge_ok = fire && hedge_result.ok();
  bool winner_is_primary = false;
  delta->finish_seconds = primary_finish;
  if (primary_ok && (!hedge_ok || primary_finish <= hedge_finish)) {
    winner_is_primary = true;
  } else if (hedge_ok) {
    delta->finish_seconds = hedge_finish;
    delta->hedge_won = true;
  } else if (fire) {
    // Both failed: the request's fate is only known once the later
    // branch gave up.
    delta->finish_seconds = std::max(primary_finish, hedge_finish);
  }

  if (delta->hedge_won && primary_ok) {
    // The primary "succeeded" only because the sequential simulation
    // ran it to completion; in the race it was cancelled the moment the
    // hedge won. Replay it with that cancellation — identical seeds
    // reproduce its behaviour up to the cancel point — so the accounting
    // charges what a concurrent server would actually have spent.
    VirtualClock replay_clock;
    replay_clock.AdvanceTo(start);
    RequestContext replay_ctx;
    replay_ctx.clock = &replay_clock;
    replay_ctx.deadline = deadline;
    replay_ctx.cancel.CancelAtTime(&replay_clock, hedge_finish,
                                   "primary lost: hedge finished first");
    primary_result = primary_(request)->Forecast(*request.history,
                                                 request.horizon,
                                                 replay_ctx);
  }

  // Charge accounting from whichever branch runs actually "happened".
  if (primary_result.ok()) {
    delta->retry += primary_result.value().retry_stats;
    delta->ledger += primary_result.value().ledger;
  }
  if (fire && hedge_result.ok()) {
    delta->retry += hedge_result.value().retry_stats;
    delta->ledger += hedge_result.value().ledger;
  }

  if (winner_is_primary) return primary_result;
  if (delta->hedge_won) return hedge_result;
  if (fire) {
    return Status(primary_result.status().code(),
                  StrFormat("primary: %s; hedge: %s",
                            primary_result.status().ToString().c_str(),
                            hedge_result.status().ToString().c_str()));
  }
  return primary_result.status();
}

Result<std::vector<ServeStats>> ServeExecutor::Run(
    std::vector<ForecastRequest> requests) {
  if (options_.batch.enabled && options_.hedge.enabled) {
    return Status::InvalidArgument(
        "batched serving does not compose with hedging: a hedge is a "
        "second in-flight copy of the request, which the slot "
        "accounting cannot attribute; disable one of them");
  }
  // A single node is a one-replica fleet with an empty fault plan (and
  // so no crash to wipe its cache): the fleet's event loop admits,
  // drains, expires, degrades and completes; ServeOne is the body of
  // each dispatch.
  cluster::Replica node;
  node.slots = options_.batch.enabled ? options_.batch.size : 1;
  node.prefix_cache = options_.prefix_cache;
  node.scheduler = options_.batch.scheduler;
  node.block_pool = options_.block_pool;
  cluster::ClusterOptions fleet;
  fleet.queue = options_.queue;
  fleet.drain_at_seconds = options_.drain_at_seconds;
  fleet.drain_mode = options_.drain_mode;
  fleet.wipe_cache_on_crash = false;
  fleet.overload = options_.overload;
  fleet.metrics = options_.metrics;
  // The replica factory is never called: node_dispatch_ runs instead.
  cluster::ClusterExecutor core(
      [this](const ForecastRequest& request, const cluster::Replica&) {
        return primary_(request);
      },
      nullptr, {std::move(node)}, fleet);
  core.node_dispatch_ = [this](const ForecastRequest& request, double start,
                               ServeStats* delta) {
    return ServeOne(request, start, delta);
  };
  MC_ASSIGN_OR_RETURN(std::vector<ServeStats> stats,
                      core.Run(std::move(requests)));
  // A node has no fleet accounting: no replica attribution, no waste.
  for (ServeStats& st : stats) st.cluster = ClusterStats{};
  queue_stats_ = core.queue_stats();
  overload_stats_ = core.report().overload;
  end_seconds_ = core.end_seconds();
  return stats;
}

}  // namespace serve
}  // namespace multicast
