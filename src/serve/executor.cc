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

// TokenLedger is too small to warrant public view helpers; the serve
// rollup is its only registry face.
void PublishTokenLedger(const lm::TokenLedger& ledger,
                        util::MetricsRegistry* registry,
                        const std::string& prefix) {
  registry->GetCounter(prefix + "prompt_tokens")
      ->Add(static_cast<double>(ledger.prompt_tokens));
  registry->GetCounter(prefix + "generated_tokens")
      ->Add(static_cast<double>(ledger.generated_tokens));
}

lm::TokenLedger TokenLedgerFromSnapshot(const util::MetricsSnapshot& snapshot,
                                        const std::string& prefix) {
  lm::TokenLedger ledger;
  ledger.prompt_tokens =
      static_cast<size_t>(snapshot.Value(prefix + "prompt_tokens"));
  ledger.generated_tokens =
      static_cast<size_t>(snapshot.Value(prefix + "generated_tokens"));
  return ledger;
}

std::vector<size_t> BucketsToCounts(const util::MetricPoint* point) {
  std::vector<size_t> counts;
  if (point == nullptr) return counts;
  counts.reserve(point->buckets.size());
  for (uint64_t b : point->buckets) counts.push_back(static_cast<size_t>(b));
  return counts;
}

size_t SaturatingSub(size_t a, size_t b) { return a > b ? a - b : 0; }

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

ClusterStats ClusterStatsFromSnapshot(const util::MetricsSnapshot& snapshot,
                                      const std::string& prefix) {
  ClusterStats stats;
  stats.failovers = static_cast<size_t>(snapshot.Value(prefix + "failovers"));
  stats.redispatched_draws =
      static_cast<size_t>(snapshot.Value(prefix + "redispatched_draws"));
  stats.wasted_seconds = snapshot.Value(prefix + "wasted_seconds");
  return stats;
}

RejectionBreakdown& RejectionBreakdown::operator+=(
    const RejectionBreakdown& rhs) {
  queue_full += rhs.queue_full;
  deadline_expired += rhs.deadline_expired;
  backend_unavailable += rhs.backend_unavailable;
  cancelled += rhs.cancelled;
  other += rhs.other;
  retry_after_hint_sum += rhs.retry_after_hint_sum;
  retry_after_hints += rhs.retry_after_hints;
  mean_retry_after_seconds =
      retry_after_hints > 0
          ? retry_after_hint_sum / static_cast<double>(retry_after_hints)
          : 0.0;
  return *this;
}

RejectionBreakdown RejectionBreakdown::operator-(
    const RejectionBreakdown& before) const {
  RejectionBreakdown d;
  d.queue_full = SaturatingSub(queue_full, before.queue_full);
  d.deadline_expired = SaturatingSub(deadline_expired, before.deadline_expired);
  d.backend_unavailable =
      SaturatingSub(backend_unavailable, before.backend_unavailable);
  d.cancelled = SaturatingSub(cancelled, before.cancelled);
  d.other = SaturatingSub(other, before.other);
  d.retry_after_hint_sum =
      retry_after_hint_sum > before.retry_after_hint_sum
          ? retry_after_hint_sum - before.retry_after_hint_sum
          : 0.0;
  d.retry_after_hints =
      SaturatingSub(retry_after_hints, before.retry_after_hints);
  d.mean_retry_after_seconds =
      d.retry_after_hints > 0
          ? d.retry_after_hint_sum / static_cast<double>(d.retry_after_hints)
          : 0.0;
  return d;
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

RejectionBreakdown RejectionBreakdownFromSnapshot(
    const util::MetricsSnapshot& snapshot, const std::string& prefix) {
  RejectionBreakdown b;
  b.queue_full = static_cast<size_t>(snapshot.Value(prefix + "queue_full"));
  b.deadline_expired =
      static_cast<size_t>(snapshot.Value(prefix + "deadline_expired"));
  b.backend_unavailable =
      static_cast<size_t>(snapshot.Value(prefix + "backend_unavailable"));
  b.cancelled = static_cast<size_t>(snapshot.Value(prefix + "cancelled"));
  b.other = static_cast<size_t>(snapshot.Value(prefix + "other"));
  b.retry_after_hint_sum = snapshot.Value(prefix + "retry_after_hint_sum");
  b.retry_after_hints =
      static_cast<size_t>(snapshot.Value(prefix + "retry_after_hints"));
  b.mean_retry_after_seconds =
      b.retry_after_hints > 0
          ? b.retry_after_hint_sum / static_cast<double>(b.retry_after_hints)
          : 0.0;
  return b;
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

ServeSummary Summarize(const std::vector<ServeStats>& stats) {
  return Summarize(stats, nullptr);
}

ServeSummary Summarize(const std::vector<ServeStats>& stats,
                       util::MetricsRegistry* registry) {
  util::MetricsRegistry own;
  util::MetricsRegistry* reg = registry != nullptr ? registry : &own;
  const util::MetricsSnapshot before = reg->Snapshot();

  // Register every rollup metric up front, in one fixed order: which
  // outcomes occur varies per run but first-touch order is the export
  // order, so pre-registering keeps --metrics-json column-stable.
  util::Counter* c_total = reg->GetCounter("serve.total");
  util::Counter* c_served = reg->GetCounter("serve.served");
  util::Counter* c_served_degraded = reg->GetCounter("serve.served_degraded");
  util::Counter* c_shed_queue_full = reg->GetCounter("serve.shed_queue_full");
  util::Counter* c_shed_expired = reg->GetCounter("serve.shed_expired");
  util::Counter* c_cancelled_drain = reg->GetCounter("serve.cancelled_drain");
  util::Counter* c_failed = reg->GetCounter("serve.failed");
  util::Counter* c_hedges_fired = reg->GetCounter("serve.hedges_fired");
  util::Counter* c_hedge_wins = reg->GetCounter("serve.hedge_wins");
  util::Counter* c_tier_full = reg->GetCounter("serve.tier_llm_full");
  util::Counter* c_tier_reduced = reg->GetCounter("serve.tier_llm_reduced");
  util::Counter* c_tier_classical = reg->GetCounter("serve.tier_classical");
  util::Counter* c_tier_shed = reg->GetCounter("serve.tier_shed");
  util::Counter* c_queue_wait_sum =
      reg->GetCounter("serve.queue_wait_seconds_sum");
  util::Counter* c_started = reg->GetCounter("serve.requests_started");
  PublishRetryStats(lm::RetryStats{}, reg, "serve.retry.");
  PublishTokenLedger(lm::TokenLedger{}, reg, "serve.ledger.");
  PublishPrefixCacheStats(lm::PrefixCacheStats{}, reg, "serve.prefix_cache.");
  PublishBatchStats(batch::BatchStats{}, reg, "serve.batch.");
  PublishClusterStats(ClusterStats{}, reg, "serve.cluster.");
  PublishRejectionBreakdown(RejectionBreakdown{}, reg, "serve.rejections.");
  util::Counter* c_rej_queue_full =
      reg->GetCounter("serve.rejections.queue_full");
  util::Counter* c_rej_deadline =
      reg->GetCounter("serve.rejections.deadline_expired");
  util::Counter* c_rej_unavailable =
      reg->GetCounter("serve.rejections.backend_unavailable");
  util::Counter* c_rej_cancelled =
      reg->GetCounter("serve.rejections.cancelled");
  util::Counter* c_rej_other = reg->GetCounter("serve.rejections.other");
  util::Counter* c_rej_hint_sum =
      reg->GetCounter("serve.rejections.retry_after_hint_sum");
  util::Counter* c_rej_hints =
      reg->GetCounter("serve.rejections.retry_after_hints");
  util::Histogram* h_served = reg->GetHistogram("serve.served_per_replica");
  util::Histogram* h_finished =
      reg->GetHistogram("serve.finished_per_replica");

  c_total->Add(static_cast<double>(stats.size()));
  std::vector<double> latencies;
  std::vector<double> queue_waits;
  std::vector<double> service_times;
  for (const ServeStats& st : stats) {
    switch (st.outcome) {
      case RequestOutcome::kServed:
        c_served->Increment();
        break;
      case RequestOutcome::kServedDegraded:
        c_served_degraded->Increment();
        break;
      case RequestOutcome::kShedQueueFull:
        c_shed_queue_full->Increment();
        break;
      case RequestOutcome::kShedExpired:
        c_shed_expired->Increment();
        break;
      case RequestOutcome::kCancelledDrain:
        c_cancelled_drain->Increment();
        break;
      case RequestOutcome::kFailed:
        c_failed->Increment();
        break;
    }
    if (st.hedge_fired) c_hedges_fired->Increment();
    if (st.hedge_won) c_hedge_wins->Increment();
    switch (st.tier) {
      case ServiceTier::kLlmFull:
        c_tier_full->Increment();
        break;
      case ServiceTier::kLlmReduced:
        c_tier_reduced->Increment();
        break;
      case ServiceTier::kClassical:
        c_tier_classical->Increment();
        break;
      case ServiceTier::kShed:
        c_tier_shed->Increment();
        break;
    }
    if (st.outcome == RequestOutcome::kServed ||
        st.outcome == RequestOutcome::kServedDegraded) {
      latencies.push_back(st.latency_seconds);
      // The end-to-end split: latency = queue wait + service time.
      queue_waits.push_back(st.queue_wait_seconds);
      service_times.push_back(st.finish_seconds - st.start_seconds);
    }
    if (st.attempts > 0) {
      c_queue_wait_sum->Add(st.queue_wait_seconds);
      c_started->Increment();
    }
    if (st.outcome != RequestOutcome::kServed &&
        st.outcome != RequestOutcome::kServedDegraded) {
      // Rejection-reason breakdown keyed on the terminal status code.
      switch (st.status.code()) {
        case StatusCode::kResourceExhausted:
          c_rej_queue_full->Increment();
          if (st.retry_after_seconds > 0.0) {
            c_rej_hint_sum->Add(st.retry_after_seconds);
            c_rej_hints->Increment();
          }
          break;
        case StatusCode::kDeadlineExceeded:
          c_rej_deadline->Increment();
          break;
        case StatusCode::kUnavailable:
          c_rej_unavailable->Increment();
          break;
        case StatusCode::kCancelled:
          c_rej_cancelled->Increment();
          break;
        default:
          c_rej_other->Increment();
          break;
      }
    } else if (st.cluster.replica >= 0) {
      h_served->ObserveIndex(static_cast<size_t>(st.cluster.replica));
    }
    // Any outcome that reached a replica lands here — the consistent
    // per-replica view (see ServeSummary::finished_per_replica).
    if (st.cluster.replica >= 0) {
      h_finished->ObserveIndex(static_cast<size_t>(st.cluster.replica));
    }
    PublishRetryStats(st.retry, reg, "serve.retry.");
    PublishTokenLedger(st.ledger, reg, "serve.ledger.");
    PublishPrefixCacheStats(st.prefix_cache, reg, "serve.prefix_cache.");
    PublishBatchStats(st.batch, reg, "serve.batch.");
    PublishClusterStats(st.cluster, reg, "serve.cluster.");
  }
  std::sort(latencies.begin(), latencies.end());
  std::sort(queue_waits.begin(), queue_waits.end());
  std::sort(service_times.begin(), service_times.end());
  reg->GetGauge("serve.p50_latency_seconds")
      ->Set(util::NearestRankQuantileSorted(latencies, 0.50));
  reg->GetGauge("serve.p99_latency_seconds")
      ->Set(util::NearestRankQuantileSorted(latencies, 0.99));
  reg->GetGauge("serve.p50_queue_wait_seconds")
      ->Set(util::NearestRankQuantileSorted(queue_waits, 0.50));
  reg->GetGauge("serve.p95_queue_wait_seconds")
      ->Set(util::NearestRankQuantileSorted(queue_waits, 0.95));
  reg->GetGauge("serve.p99_queue_wait_seconds")
      ->Set(util::NearestRankQuantileSorted(queue_waits, 0.99));
  reg->GetGauge("serve.p50_service_seconds")
      ->Set(util::NearestRankQuantileSorted(service_times, 0.50));
  reg->GetGauge("serve.p95_service_seconds")
      ->Set(util::NearestRankQuantileSorted(service_times, 0.95));
  reg->GetGauge("serve.p99_service_seconds")
      ->Set(util::NearestRankQuantileSorted(service_times, 0.99));
  {
    // Mean over this call's requests only: subtract what the shared
    // registry already held (exact when it held nothing).
    const double started =
        c_started->value() - before.Value("serve.requests_started");
    const double wait_sum = c_queue_wait_sum->value() -
                            before.Value("serve.queue_wait_seconds_sum");
    reg->GetGauge("serve.mean_queue_wait_seconds")
        ->Set(started > 0.0 ? wait_sum / started : 0.0);
  }

  // The summary is a view over what was just published: every field
  // below reads the snapshot delta, not a side accumulator.
  const util::MetricsSnapshot delta = reg->Snapshot().Delta(before);
  ServeSummary s;
  s.total = static_cast<size_t>(delta.Value("serve.total"));
  s.served = static_cast<size_t>(delta.Value("serve.served"));
  s.served_degraded =
      static_cast<size_t>(delta.Value("serve.served_degraded"));
  s.shed_queue_full =
      static_cast<size_t>(delta.Value("serve.shed_queue_full"));
  s.shed_expired = static_cast<size_t>(delta.Value("serve.shed_expired"));
  s.cancelled_drain =
      static_cast<size_t>(delta.Value("serve.cancelled_drain"));
  s.failed = static_cast<size_t>(delta.Value("serve.failed"));
  s.hedges_fired = static_cast<size_t>(delta.Value("serve.hedges_fired"));
  s.hedge_wins = static_cast<size_t>(delta.Value("serve.hedge_wins"));
  s.tier_llm_full = static_cast<size_t>(delta.Value("serve.tier_llm_full"));
  s.tier_llm_reduced =
      static_cast<size_t>(delta.Value("serve.tier_llm_reduced"));
  s.tier_classical =
      static_cast<size_t>(delta.Value("serve.tier_classical"));
  s.tier_shed = static_cast<size_t>(delta.Value("serve.tier_shed"));
  s.p50_latency_seconds = delta.Value("serve.p50_latency_seconds");
  s.p99_latency_seconds = delta.Value("serve.p99_latency_seconds");
  s.mean_queue_wait_seconds = delta.Value("serve.mean_queue_wait_seconds");
  s.p50_queue_wait_seconds = delta.Value("serve.p50_queue_wait_seconds");
  s.p95_queue_wait_seconds = delta.Value("serve.p95_queue_wait_seconds");
  s.p99_queue_wait_seconds = delta.Value("serve.p99_queue_wait_seconds");
  s.p50_service_seconds = delta.Value("serve.p50_service_seconds");
  s.p95_service_seconds = delta.Value("serve.p95_service_seconds");
  s.p99_service_seconds = delta.Value("serve.p99_service_seconds");
  s.retry = lm::RetryStatsFromSnapshot(delta, "serve.retry.");
  s.ledger = TokenLedgerFromSnapshot(delta, "serve.ledger.");
  s.prefix_cache =
      lm::PrefixCacheStatsFromSnapshot(delta, "serve.prefix_cache.");
  s.batch = batch::BatchStatsFromSnapshot(delta, "serve.batch.");
  s.cluster = ClusterStatsFromSnapshot(delta, "serve.cluster.");
  s.rejections = RejectionBreakdownFromSnapshot(delta, "serve.rejections.");
  s.served_per_replica =
      BucketsToCounts(delta.Find("serve.served_per_replica"));
  s.finished_per_replica =
      BucketsToCounts(delta.Find("serve.finished_per_replica"));
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
