#include "cluster/replica_set.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "util/strings.h"
#include "util/virtual_time.h"

namespace multicast {
namespace cluster {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

Deadline RequestDeadline(const serve::ForecastRequest& request) {
  return std::isfinite(request.deadline_seconds)
             ? Deadline::At(request.deadline_seconds)
             : Deadline::Never();
}

enum class DispatchOutcome {
  kLaunched,      ///< a flight started
  kNoCandidates,  ///< nothing routable at all right now — wait for events
  kAllMisrouted,  ///< every believed-healthy replica was actually down
};

}  // namespace

std::vector<Replica> MakeUniformReplicas(
    const UniformReplicaOptions& options) {
  const size_t n = std::max<size_t>(1, options.replicas);
  std::vector<Replica> fleet;
  fleet.reserve(n);
  for (size_t r = 0; r < n; ++r) {
    Replica rep;
    rep.id = static_cast<int>(r);
    rep.slots = std::max<size_t>(1, options.slots);
    if (options.prefix_cache_capacity > 0) {
      rep.prefix_cache =
          std::make_shared<lm::PrefixCache>(options.prefix_cache_capacity);
    }
    if (options.batch_slots > 0) {
      batch::BatchPolicy policy;
      policy.max_batch = options.batch_slots;
      policy.backfill = options.batch_backfill;
      rep.scheduler = std::make_shared<batch::BatchScheduler>(policy);
    }
    if (options.paged_memory) {
      lm::PagedMemoryOptions paged;
      paged.block_span = options.block_span;
      paged.max_blocks = options.pool_blocks;
      rep.block_pool = std::make_shared<lm::BlockPool>(paged);
    }
    fleet.push_back(std::move(rep));
  }
  return fleet;
}

/// One pipeline attempt in service on one replica. The pipeline ran to
/// (virtual) completion at dispatch time on a branch clock — its result
/// is a pure function of (request, start time) — and the event loop
/// decides what of that actually "happened": the flight lands at
/// `finish`, unless its replica dies first at `interrupt`.
struct ClusterExecutor::Flight {
  bool active = false;
  uint64_t seq = 0;  ///< dispatch order: breaks event-time ties
  size_t unit = 0;   ///< index into the live-request array
  int replica = 0;
  bool is_hedge = false;
  double start = 0.0;
  double finish = 0.0;      ///< slow-window-stretched completion time
  double interrupt = kInf;  ///< first replica outage inside (start, finish)
  Result<forecast::ForecastResult> result = Status::Internal("unset");
  /// This flight's contribution to its request's ServeStats: pipelines
  /// launched, hedge flags, retry stats, ledger, cache and batch deltas.
  serve::ServeStats delta;
};

/// One admitted request's lifecycle across dispatches and failovers.
struct ClusterExecutor::LiveRequest {
  serve::ForecastRequest req;
  serve::ServeStats* st = nullptr;  ///< this request's entry in the result
  Deadline deadline = Deadline::Never();
  bool done = false;
  /// Waiting for (re-)dispatch: popped from the queue or failed over,
  /// no replica available yet. Bypasses queue capacity — admitted work
  /// is never shed as queue-full.
  bool waiting = false;
  bool ever_started = false;
  double ready_at = 0.0;  ///< earliest (re-)dispatch time
  uint64_t wait_seq = 0;  ///< FIFO order among waiting units
  int primary_flight = -1;
  int hedge_flight = -1;
  double hedge_at = kInf;  ///< pending hedge fire time (kInf = none)
  /// Failure of a flight that lost the race while its twin kept going.
  Status spare_failure;
  bool spare_failed = false;
};

ClusterExecutor::ClusterExecutor(ReplicaForecasterFactory primary,
                                 ReplicaForecasterFactory hedge,
                                 std::vector<Replica> replicas,
                                 const ClusterOptions& options)
    : primary_(std::move(primary)),
      hedge_(std::move(hedge)),
      replicas_(std::move(replicas)),
      options_(options) {
  MC_CHECK(primary_ != nullptr);
  MC_CHECK(!replicas_.empty());
  if (hedge_ == nullptr) hedge_ = primary_;
  for (size_t r = 0; r < replicas_.size(); ++r) {
    replicas_[r].id = static_cast<int>(r);
    if (replicas_[r].slots == 0) replicas_[r].slots = 1;
    replicas_[r].plan.Normalize();
  }
}

Result<std::vector<serve::ServeStats>> ClusterExecutor::Run(
    std::vector<serve::ForecastRequest> requests) {
  for (const serve::ForecastRequest& r : requests) {
    if (r.history == nullptr) {
      return Status::InvalidArgument(
          StrFormat("request %zu has no history frame", r.id));
    }
    if (r.horizon == 0) {
      return Status::InvalidArgument(
          StrFormat("request %zu has horizon 0", r.id));
    }
  }
  std::stable_sort(
      requests.begin(), requests.end(),
      [](const serve::ForecastRequest& a, const serve::ForecastRequest& b) {
        return a.arrival_seconds < b.arrival_seconds;
      });

  report_ = ClusterReport{};
  report_.replicas.assign(replicas_.size(), ReplicaReport{});
  for (size_t r = 0; r < replicas_.size(); ++r) {
    report_.replicas[r].id = static_cast<int>(r);
  }

  serve::AdmissionQueue queue(options_.queue);
  serve::OverloadPolicy overload_policy = options_.overload;
  if (!overload_policy.memory_probe) {
    // Fleet memory observable: the fullest replica pool. Session state
    // is pinned to its node, so the tightest pool gates the ladder —
    // averaging would hide one node at its cap behind idle peers.
    std::vector<std::shared_ptr<lm::BlockPool>> pools;
    for (const Replica& rep : replicas_) {
      if (rep.block_pool != nullptr) pools.push_back(rep.block_pool);
    }
    if (!pools.empty()) {
      overload_policy.memory_probe = [pools = std::move(pools)]() {
        double fullest = 0.0;
        for (const auto& pool : pools) {
          fullest = std::max(fullest, pool->Fullness());
        }
        return fullest;
      };
    }
  }
  serve::OverloadController overload(overload_policy,
                                     options_.queue.capacity);
  Router router(options_.router, replicas_.size(), options_.router_seed);
  HealthMonitor monitor(options_.health, replicas_.size());
  const HealthMonitor::UpFn up_fn = [this](int replica, double at) {
    const Replica& rep = replicas_[static_cast<size_t>(replica)];
    return rep.plan.UpAt(at) && !rep.drain.Contains(at);
  };

  const bool node = node_dispatch_ != nullptr;
  // The result, one entry per request, in the order fates were decided.
  // Reserved up front, so the entries admitted units point at stay put.
  std::vector<serve::ServeStats> stats;
  stats.reserve(requests.size());
  std::vector<LiveRequest> units;
  units.reserve(requests.size());
  // Indices of the units not yet done, in admission order, and their
  // count: the per-event sweeps walk these, so their cost follows the
  // work in flight and waiting, not every request ever admitted.
  std::vector<size_t> open;
  size_t live = 0;
  std::vector<Flight> flights;
  std::vector<size_t> loads(replicas_.size(), 0);
  std::vector<size_t> next_wipe(replicas_.size(), 0);
  uint64_t wait_seq = 0;
  uint64_t flight_seq = 0;
  const bool cancel_on_drain =
      options_.drain_mode == serve::DrainMode::kCancelQueued &&
      std::isfinite(options_.drain_at_seconds);
  const bool hedging = options_.hedge.enabled;

  auto record_rejection = [&stats](const serve::ForecastRequest& r,
                                   serve::RequestOutcome outcome,
                                   Status status, double retry_after = 0.0) {
    serve::ServeStats st;
    st.id = r.id;
    st.arrival_seconds = r.arrival_seconds;
    st.slo = r.slo;
    st.outcome = outcome;
    st.status = std::move(status);
    st.retry_after_seconds = retry_after;
    stats.push_back(std::move(st));
  };

  auto admit = [&](const serve::ForecastRequest& r) {
    if (r.arrival_seconds >= options_.drain_at_seconds) queue.Close();
    if (!queue.closed()) {
      // The in-flight count the AIMD limiter bounds: admitted requests
      // not yet finished (queued work is counted separately).
      Status shed =
          overload.Admit(r, r.arrival_seconds, queue.depth(), live);
      if (!shed.ok()) {
        record_rejection(r, serve::RequestOutcome::kShedQueueFull,
                         std::move(shed), queue.RetryAfterSeconds());
        return;
      }
    }
    Status s = queue.Offer(r);
    if (s.ok()) return;
    if (s.code() == StatusCode::kResourceExhausted) {
      overload.OnShed(r.arrival_seconds);
      record_rejection(r, serve::RequestOutcome::kShedQueueFull,
                       std::move(s), queue.RetryAfterSeconds());
    } else {
      record_rejection(r, serve::RequestOutcome::kCancelledDrain,
                       std::move(s));
    }
  };

  // Can `r` take one more dispatch at `now`, as far as the *router*
  // knows? The fault plan is deliberately not consulted — finding out
  // the hard way is what misroutes are.
  auto routable = [&](size_t r, double now) {
    const Replica& rep = replicas_[r];
    return monitor.Routable(static_cast<int>(r)) &&
           !rep.drain.Contains(now) && loads[r] < rep.slots;
  };

  // Could `r` ever take work again at or after `t`? Probes the plan at
  // the instants where routability can change: now, the recovery after
  // now, the drain end, and the recovery after the drain end.
  auto can_ever_serve = [&](size_t r, double t) {
    const Replica& rep = replicas_[r];
    const double cands[4] = {t, rep.plan.NextUpAt(t), rep.drain.end_seconds,
                             rep.plan.NextUpAt(rep.drain.end_seconds)};
    for (double c : cands) {
      if (!std::isfinite(c) || c < t) continue;
      if (rep.plan.UpAt(c) && !rep.drain.Contains(c)) return true;
    }
    return false;
  };

  // Lazily wipe crashed replicas' prefix caches: every crash window
  // whose start has been reached costs that node its warm state.
  auto process_crash_wipes = [&](double now) {
    if (!options_.wipe_cache_on_crash) return;
    for (size_t r = 0; r < replicas_.size(); ++r) {
      const auto& crashes = replicas_[r].plan.crashes;
      while (next_wipe[r] < crashes.size() &&
             crashes[next_wipe[r]].start_seconds <= now) {
        if (replicas_[r].prefix_cache != nullptr) {
          replicas_[r].prefix_cache->Clear();
        }
        ++next_wipe[r];
      }
    }
  };

  // Runs the pipeline for `unit_idx` on replica `r` at `now` on a
  // branch clock and schedules the flight: stretched finish,
  // first-outage interrupt, per-flight cache/scheduler deltas. A single
  // node runs its own dispatch body instead (its same-node hedge race).
  auto dispatch = [&](size_t unit_idx, size_t r, double now,
                      bool is_hedge) {
    LiveRequest& unit = units[unit_idx];
    const Replica& rep = replicas_[r];
    Flight f;
    f.active = true;
    f.seq = flight_seq++;
    f.unit = unit_idx;
    f.replica = static_cast<int>(r);
    f.is_hedge = is_hedge;
    f.start = now;

    lm::PrefixCacheStats cache_before;
    if (rep.prefix_cache != nullptr) {
      cache_before = rep.prefix_cache->stats();
    }
    batch::BatchStats batch_before;
    if (rep.scheduler != nullptr) batch_before = rep.scheduler->stats();
    if (node) {
      f.result = node_dispatch_(unit.req, now, &f.delta);
      f.finish = f.delta.finish_seconds;
    } else {
      VirtualClock clock;
      clock.AdvanceTo(now);
      RequestContext ctx;
      ctx.clock = &clock;
      ctx.deadline = unit.deadline;
      if (cancel_on_drain) {
        ctx.cancel.CancelAtTime(&clock, options_.drain_at_seconds,
                                "server draining");
      }
      const ReplicaForecasterFactory& factory =
          is_hedge ? hedge_ : primary_;
      f.result = factory(unit.req, rep)
                     ->Forecast(*unit.req.history, unit.req.horizon, ctx);
      f.finish = rep.plan.StretchedFinish(now, clock.now() - now);
      f.delta.attempts = 1;
      if (f.result.ok()) {
        f.delta.retry = f.result.value().retry_stats;
        f.delta.ledger = f.result.value().ledger;
      }
    }
    if (rep.prefix_cache != nullptr) {
      f.delta.prefix_cache = rep.prefix_cache->stats() - cache_before;
    }
    if (rep.scheduler != nullptr) {
      f.delta.batch = rep.scheduler->stats() - batch_before;
    }
    f.interrupt = rep.plan.NextOutageIn(now, f.finish);

    if (!unit.ever_started) {
      unit.ever_started = true;
      unit.st->start_seconds = now;
      unit.st->queue_wait_seconds = now - unit.req.arrival_seconds;
      overload.OnQueueWait(now, unit.st->queue_wait_seconds);
    }
    unit.st->attempts += f.delta.attempts;
    if (f.delta.hedge_fired) unit.st->hedge_fired = true;
    if (f.delta.hedge_won) unit.st->hedge_won = true;
    ++loads[r];
    ++report_.replicas[r].dispatched;

    size_t slot = flights.size();
    for (size_t i = 0; i < flights.size(); ++i) {
      if (!flights[i].active) {
        slot = i;
        break;
      }
    }
    if (slot == flights.size()) {
      flights.push_back(std::move(f));
    } else {
      flights[slot] = std::move(f);
    }
    if (is_hedge) {
      unit.hedge_flight = static_cast<int>(slot);
      unit.st->hedge_fired = true;
    } else {
      unit.primary_flight = static_cast<int>(slot);
      if (hedging) unit.hedge_at = now + options_.hedge.delay_seconds;
    }
  };

  // Routes one waiting unit; `exclude` bars the hedge from its
  // primary's replica (-1 = no exclusion). Misroutes feed the health
  // monitor and retry the remaining candidates.
  auto try_dispatch = [&](size_t unit_idx, double now, int exclude,
                          bool is_hedge) {
    LiveRequest& unit = units[unit_idx];
    std::vector<int> candidates;
    for (size_t r = 0; r < replicas_.size(); ++r) {
      if (static_cast<int>(r) != exclude && routable(r, now)) {
        candidates.push_back(static_cast<int>(r));
      }
    }
    if (candidates.empty()) return DispatchOutcome::kNoCandidates;
    while (!candidates.empty()) {
      const int pick = router.Pick(candidates, loads, unit.req.session_key);
      if (up_fn(pick, now)) {
        dispatch(unit_idx, static_cast<size_t>(pick), now, is_hedge);
        if (!is_hedge) unit.waiting = false;
        return DispatchOutcome::kLaunched;
      }
      // Misroute: the monitor believed this replica healthy but the
      // dispatch found it dead. Feed that back and try the rest.
      monitor.RecordMisroute(pick);
      ++report_.replicas[static_cast<size_t>(pick)].misroutes;
      candidates.erase(
          std::find(candidates.begin(), candidates.end(), pick));
    }
    return DispatchOutcome::kAllMisrouted;
  };

  auto fail_unit = [&](size_t unit_idx, double now, Status status) {
    LiveRequest& unit = units[unit_idx];
    unit.st->finish_seconds = now;
    unit.st->status = std::move(status);
    unit.st->outcome = unit.st->status.code() == StatusCode::kCancelled
                          ? serve::RequestOutcome::kCancelledDrain
                          : serve::RequestOutcome::kFailed;
    unit.done = true;
    --live;
    unit.waiting = false;
    overload.OnCompletion(now, /*on_deadline=*/false);
  };

  // Folds a landed flight's work into its request's stats.
  auto charge = [](LiveRequest& unit, const Flight& f) {
    unit.st->retry += f.delta.retry;
    unit.st->ledger += f.delta.ledger;
    unit.st->prefix_cache += f.delta.prefix_cache;
    unit.st->batch += f.delta.batch;
  };

  // The losing half of a hedge race is cancelled at the winner's
  // finish: its slot frees now, its burnt service time is waste.
  auto cancel_flight = [&](int flight_idx, double now) {
    Flight& f = flights[static_cast<size_t>(flight_idx)];
    if (!f.active) return;
    const size_t r = static_cast<size_t>(f.replica);
    const double burnt = std::max(0.0, now - f.start);
    report_.replicas[r].busy_seconds += burnt;
    units[f.unit].st->cluster.wasted_seconds += burnt;
    report_.wasted_seconds += burnt;
    --loads[r];
    f.active = false;
  };

  // A replica died under `f`: abort the attempt, charge the waste, and
  // queue the unit for re-dispatch on a surviving replica (or let its
  // still-running hedge twin carry on).
  auto fail_over = [&](size_t flight_idx, double now) {
    Flight& f = flights[flight_idx];
    LiveRequest& unit = units[f.unit];
    const size_t r = static_cast<size_t>(f.replica);
    const double burnt = std::max(0.0, now - f.start);
    f.active = false;
    --loads[r];
    report_.replicas[r].busy_seconds += burnt;
    ++report_.replicas[r].failovers;
    ++report_.failovers;
    ++unit.st->cluster.failovers;
    unit.st->cluster.wasted_seconds += burnt;
    report_.wasted_seconds += burnt;
    if (f.result.ok()) {
      unit.st->cluster.redispatched_draws +=
          f.result.value().samples_requested;
      report_.redispatched_draws += f.result.value().samples_requested;
    }
    if (f.is_hedge) {
      // A dead hedge is not re-dispatched; the primary keeps running
      // (or the unit already finalized).
      unit.hedge_flight = -1;
      return;
    }
    unit.primary_flight = -1;
    unit.hedge_at = kInf;  // re-armed at the next dispatch
    if (unit.hedge_flight >= 0) {
      // The hedge twin is the failover: promote it and keep going.
      unit.primary_flight = unit.hedge_flight;
      unit.hedge_flight = -1;
      flights[static_cast<size_t>(unit.primary_flight)].is_hedge = false;
      return;
    }
    unit.waiting = true;
    unit.ready_at = now + options_.redispatch_delay_seconds;
    unit.wait_seq = wait_seq++;
  };

  // A flight ran to completion on a live replica.
  auto land_flight = [&](size_t flight_idx, double now) {
    Flight& f = flights[flight_idx];
    LiveRequest& unit = units[f.unit];
    const size_t r = static_cast<size_t>(f.replica);
    f.active = false;
    --loads[r];
    report_.replicas[r].busy_seconds += now - f.start;
    ++report_.replicas[r].completed;
    if (f.is_hedge) {
      unit.hedge_flight = -1;
    } else {
      unit.primary_flight = -1;
    }
    if (unit.done) return;  // stale twin of an already-finalized race

    const bool in_time = f.result.ok() && !unit.deadline.ExpiredAt(now);
    const int twin = f.is_hedge ? unit.primary_flight : unit.hedge_flight;
    if (in_time) {
      if (twin >= 0) {
        cancel_flight(twin, now);
        unit.primary_flight = unit.hedge_flight = -1;
      }
      if (f.is_hedge) unit.st->hedge_won = true;
      unit.hedge_at = kInf;
      unit.st->finish_seconds = now;
      unit.st->latency_seconds = now - unit.req.arrival_seconds;
      charge(unit, f);
      unit.st->cluster.replica = f.replica;
      unit.st->result = std::make_shared<forecast::ForecastResult>(
          std::move(f.result).value());
      unit.st->degraded = unit.st->result->degraded;
      unit.st->outcome = unit.st->degraded
                            ? serve::RequestOutcome::kServedDegraded
                            : serve::RequestOutcome::kServed;
      unit.st->tier =
          unit.st->result->tier == forecast::ForecastTier::kClassical
              ? serve::ServiceTier::kClassical
              : unit.req.tier;
      unit.st->status = Status::OK();
      unit.done = true;
      --live;
      overload.OnCompletion(now, /*on_deadline=*/true);
      return;
    }

    Status failure =
        f.result.ok()
            ? Status::DeadlineExceeded(StrFormat(
                  "request %zu finished at %.3fs, past its deadline %.3fs",
                  unit.req.id, now, unit.req.deadline_seconds))
            : f.result.status();
    // A single node charges a failed request the work it did; a fleet
    // books it as waste.
    if (node) charge(unit, f);
    unit.st->cluster.wasted_seconds += now - f.start;
    report_.wasted_seconds += now - f.start;
    if (twin >= 0) {
      // The race is still open: remember this loss, let the twin run.
      unit.spare_failure = std::move(failure);
      unit.spare_failed = true;
      return;
    }
    if (!f.is_hedge && hedging && !unit.st->hedge_fired &&
        unit.hedge_at >= now) {
      // Fail-fast hedging: the primary died before the hedge delay
      // elapsed — launch the backup right now if the fleet can host it.
      unit.spare_failure = std::move(failure);
      unit.spare_failed = true;
      unit.hedge_at = now;
      return;
    }
    if (unit.spare_failed) {
      failure = Status(failure.code(),
                       StrFormat("primary: %s; hedge: %s",
                                 unit.spare_failure.ToString().c_str(),
                                 failure.ToString().c_str()));
    }
    // This flight produced the request's terminal outcome, so it gets
    // the replica attribution exactly like the served path above —
    // without it, a request that ran here and then failed (or overran
    // its deadline) vanished from every per-replica rollup while still
    // counting in cluster occupancy.
    unit.st->cluster.replica = f.replica;
    fail_unit(f.unit, now, std::move(failure));
  };

  // Fires the pending hedge for `unit_idx` at `now` on a replica other
  // than the primary's; silently skipped when the fleet cannot host it.
  auto fire_hedge = [&](size_t unit_idx, double now) {
    LiveRequest& unit = units[unit_idx];
    unit.hedge_at = kInf;
    if (unit.done || unit.st->hedge_fired) return;
    if (unit.deadline.ExpiredAt(now)) return;
    if (cancel_on_drain && now >= options_.drain_at_seconds) return;
    const int primary_replica =
        unit.primary_flight >= 0
            ? flights[static_cast<size_t>(unit.primary_flight)].replica
            : -1;
    const DispatchOutcome o =
        try_dispatch(unit_idx, now, primary_replica, /*is_hedge=*/true);
    if (o == DispatchOutcome::kLaunched) return;
    // No host for the backup. A fail-fast hedge (primary already dead)
    // must finalize with the primary's failure; a latency hedge just
    // never launches.
    if (unit.primary_flight < 0 && unit.spare_failed) {
      Status failure = std::move(unit.spare_failure);
      unit.spare_failed = false;
      fail_unit(unit_idx, now, std::move(failure));
    }
  };

  double now = 0.0;
  size_t next = 0;
  bool drain_cancelled = false;

  auto work_pending = [&]() {
    if (!queue.empty()) return true;
    for (size_t i : open) {
      const LiveRequest& u = units[i];
      if (!u.done && (u.waiting || u.primary_flight >= 0 ||
                      u.hedge_flight >= 0 || std::isfinite(u.hedge_at))) {
        return true;
      }
    }
    return false;
  };

  while (next < requests.size() || work_pending()) {
    // -- Flight events at or before `now`, in event-time order, ties in
    // dispatch order. They come before admission, so an arrival at the
    // instant a flight lands already sees the slot it freed.
    for (;;) {
      double best = kInf;
      size_t best_idx = flights.size();
      bool best_is_interrupt = false;
      for (size_t i = 0; i < flights.size(); ++i) {
        if (!flights[i].active) continue;
        const bool interrupted = flights[i].interrupt < flights[i].finish;
        const double t =
            interrupted ? flights[i].interrupt : flights[i].finish;
        if (best_idx == flights.size() || t < best ||
            (t == best && flights[i].seq < flights[best_idx].seq)) {
          best = t;
          best_idx = i;
          best_is_interrupt = interrupted;
        }
      }
      if (best_idx == flights.size() || best > now) break;
      if (best_is_interrupt) {
        fail_over(best_idx, best);
      } else {
        land_flight(best_idx, best);
      }
    }
    std::erase_if(open, [&units](size_t i) { return units[i].done; });

    // -- Admission: everything that arrived by `now`, in arrival order.
    while (next < requests.size() &&
           requests[next].arrival_seconds <= now) {
      admit(requests[next++]);
    }
    process_crash_wipes(now);
    monitor.AdvanceTo(now, up_fn);

    // -- Cluster drain.
    if (now >= options_.drain_at_seconds) {
      queue.Close();
      if (options_.drain_mode == serve::DrainMode::kCancelQueued &&
          !drain_cancelled) {
        drain_cancelled = true;
        for (const serve::ForecastRequest& r : queue.Flush()) {
          record_rejection(
              r, serve::RequestOutcome::kCancelledDrain,
              Status::Cancelled(StrFormat(
                  "request %zu cancelled in queue: server drained at "
                  "%.3fs",
                  r.id, options_.drain_at_seconds)));
        }
        for (size_t i : open) {
          if (!units[i].done && units[i].waiting) {
            fail_unit(i, now,
                      Status::Cancelled(StrFormat(
                          "request %zu cancelled awaiting re-dispatch: "
                          "server drained at %.3fs",
                          units[i].req.id, options_.drain_at_seconds)));
          }
        }
      }
    }

    // -- Hedge timers due.
    for (size_t i : open) {
      if (!units[i].done && units[i].hedge_at <= now) fire_hedge(i, now);
    }

    // -- Expire waiting work whose deadline passed while parked.
    for (size_t i : open) {
      LiveRequest& u = units[i];
      if (!u.done && u.waiting && u.deadline.ExpiredAt(now)) {
        fail_unit(i, now,
                  Status::DeadlineExceeded(StrFormat(
                      "request %zu expired awaiting re-dispatch: deadline "
                      "%.3fs passed at %.3fs",
                      u.req.id, u.req.deadline_seconds, now)));
      }
    }

    // -- Fleet death: once no replica can ever take traffic again,
    // waiting work can only be failed, never served.
    bool fleet_dead = true;
    for (size_t r = 0; r < replicas_.size(); ++r) {
      if (can_ever_serve(r, now)) {
        fleet_dead = false;
        break;
      }
    }
    if (fleet_dead) {
      for (size_t i : open) {
        if (!units[i].done && units[i].waiting) {
          ++report_.fleet_unavailable;
          fail_unit(i, now,
                    Status::Unavailable(StrFormat(
                        "request %zu cannot be re-dispatched: every "
                        "replica is permanently down",
                        units[i].req.id)));
        }
      }
      for (const serve::ForecastRequest& r : queue.Flush()) {
        ++report_.fleet_unavailable;
        record_rejection(r, serve::RequestOutcome::kFailed,
                         Status::Unavailable(StrFormat(
                             "request %zu cannot be served: every replica "
                             "is permanently down",
                             r.id)));
      }
    }

    // -- Dispatch: failed-over units first (FIFO by failover order),
    // then fresh pops from the admission queue.
    for (;;) {
      size_t pick = units.size();
      for (size_t i : open) {
        const LiveRequest& u = units[i];
        if (u.done || !u.waiting || u.ready_at > now) continue;
        if (pick == units.size() || u.wait_seq < units[pick].wait_seq) {
          pick = i;
        }
      }
      if (pick < units.size()) {
        const DispatchOutcome o =
            try_dispatch(pick, now, /*exclude=*/-1, /*is_hedge=*/false);
        if (o == DispatchOutcome::kNoCandidates) break;
        if (o == DispatchOutcome::kAllMisrouted) {
          // Park until the probes that will eject the dead replicas
          // (or see them recover) have run.
          units[pick].ready_at = monitor.NextProbeAfter(now);
        }
        continue;
      }
      // Fresh work: pop only when some replica looks routable, so queue
      // order (FIFO/EDF) is preserved while the fleet is busy.
      bool any_routable = false;
      for (size_t r = 0; r < replicas_.size(); ++r) {
        if (routable(r, now)) {
          any_routable = true;
          break;
        }
      }
      if (!any_routable || queue.empty()) break;
      std::vector<serve::ForecastRequest> expired;
      serve::ForecastRequest job;
      const bool popped = queue.Pop(now, &job, &expired);
      for (const serve::ForecastRequest& r : expired) {
        overload.OnShed(now);
        record_rejection(
            r, serve::RequestOutcome::kShedExpired,
            Status::DeadlineExceeded(StrFormat(
                "request %zu expired in queue: deadline %.3fs passed "
                "after %.3fs waiting",
                r.id, r.deadline_seconds, now - r.arrival_seconds)));
      }
      if (!popped) continue;
      // Dispatch-time rung: decided once per request, at its first pop,
      // and kept through failover re-dispatches so a crashed-and-retried
      // request re-runs the exact same pipeline.
      job.tier = overload.Rung(job.slo, now, queue.depth());
      if (job.tier == serve::ServiceTier::kShed) {
        record_rejection(
            job, serve::RequestOutcome::kShedQueueFull,
            Status::ResourceExhausted(StrFormat(
                "request %zu shed at dispatch: overload ladder escalated "
                "past class %s while it waited",
                job.id, serve::SloClassName(job.slo))),
            queue.RetryAfterSeconds());
        continue;
      }
      LiveRequest unit;
      unit.req = job;
      unit.st = &stats.emplace_back();
      unit.st->id = job.id;
      unit.st->arrival_seconds = job.arrival_seconds;
      unit.st->slo = job.slo;
      unit.deadline = RequestDeadline(job);
      unit.waiting = true;
      unit.ready_at = now;
      unit.wait_seq = wait_seq++;
      open.push_back(units.size());
      ++live;
      units.push_back(std::move(unit));
      const DispatchOutcome o = try_dispatch(
          units.size() - 1, now, /*exclude=*/-1, /*is_hedge=*/false);
      if (o == DispatchOutcome::kAllMisrouted) {
        units.back().ready_at = monitor.NextProbeAfter(now);
      }
    }

    // -- Advance to the next event (every candidate below is > now, so
    // virtual time strictly progresses).
    double event = kInf;
    if (next < requests.size()) {
      event = std::min(event, requests[next].arrival_seconds);
    }
    for (const Flight& f : flights) {
      if (!f.active) continue;
      event = std::min(event, std::min(f.finish, f.interrupt));
    }
    bool waiting_work = !queue.empty();
    for (size_t i : open) {
      const LiveRequest& u = units[i];
      if (u.done) continue;
      if (std::isfinite(u.hedge_at)) event = std::min(event, u.hedge_at);
      if (u.waiting) {
        waiting_work = true;
        if (u.ready_at > now) event = std::min(event, u.ready_at);
        if (std::isfinite(u.req.deadline_seconds) &&
            u.req.deadline_seconds > now) {
          event = std::min(event, u.req.deadline_seconds);
        }
      }
    }
    if (waiting_work) {
      // Routability can change without any flight landing: probes
      // readmit, crashes heal, drains end. Those instants are events
      // only while something actually waits for a slot.
      bool changeable = false;
      for (size_t r = 0; r < replicas_.size(); ++r) {
        if (routable(r, now) || !can_ever_serve(r, now)) continue;
        changeable = true;
        const Replica& rep = replicas_[r];
        const double back = rep.plan.NextUpAt(now);
        if (back > now) event = std::min(event, back);
        if (rep.drain.Contains(now)) {
          event = std::min(event, rep.drain.end_seconds);
        }
      }
      if (changeable) {
        event = std::min(event, monitor.NextProbeAfter(now));
      }
    }
    if (std::isfinite(options_.drain_at_seconds) &&
        now < options_.drain_at_seconds &&
        (waiting_work || next < requests.size())) {
      event = std::min(event, options_.drain_at_seconds);
    }
    if (event == kInf) {
      // Nothing can ever happen again; sweep whatever is still open as
      // unavailable (defensive — fleet death above normally catches it).
      for (size_t i : open) {
        if (!units[i].done) {
          ++report_.fleet_unavailable;
          fail_unit(i, now,
                    Status::Unavailable(StrFormat(
                        "request %zu stranded: no further cluster events",
                        units[i].req.id)));
        }
      }
      break;
    }
    now = std::max(now, event);
  }

  end_seconds_ = now;
  report_.health = monitor.stats();
  queue_stats_ = queue.stats();
  report_.overload = overload.stats();
  if (util::MetricsRegistry* reg = options_.metrics) {
    // Export this run's queue/overload/failover counters.
    queue.PublishMetrics(reg);
    overload.PublishMetrics(reg);
    if (!node) {
      serve::ClusterStats fleet;
      fleet.failovers = report_.failovers;
      fleet.redispatched_draws = report_.redispatched_draws;
      fleet.wasted_seconds = report_.wasted_seconds;
      serve::PublishClusterStats(fleet, reg, "cluster.");
      reg->GetCounter("cluster.fleet_unavailable")
          ->Add(static_cast<double>(report_.fleet_unavailable));
    }
  }
  for (size_t r = 0; r < replicas_.size(); ++r) {
    const double span =
        end_seconds_ * static_cast<double>(replicas_[r].slots);
    report_.replicas[r].occupancy =
        span > 0.0 ? report_.replicas[r].busy_seconds / span : 0.0;
  }

  std::sort(stats.begin(), stats.end(),
            [](const serve::ServeStats& a, const serve::ServeStats& b) {
              return a.id < b.id;
            });
  return stats;
}

}  // namespace cluster
}  // namespace multicast
