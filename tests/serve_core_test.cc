// Single-node serving against the fleet core: a ServeExecutor and a
// one-replica ClusterExecutor given the same trace, policies and
// pipeline must agree on every request's fate — outcome, status text,
// tier, every virtual time, attempts, accounting and the forecast
// values — and on the run's queue counters, overload counters and end
// time. The seeded grid below sweeps the dimensions the serving loop
// branches on: slots, the brownout ladder with AIMD admission, drain
// mode, backend failures, and simultaneous arrivals.
//
// Two fields are deliberately left out of the comparison:
//   - ServeStats::cluster: a fleet attributes each request to a replica
//     and books failed work as waste; a single node leaves it defaulted.
//   - Work charged by a request that failed *after* its pipeline
//     returned a value (an answer that arrived past the deadline): a
//     single node charges it to the request, a fleet books it as waste.
//     The grid's pipeline fails instead of answering late, like every
//     metered pipeline.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cluster/replica_set.h"
#include "serve/executor.h"
#include "ts/frame.h"
#include "util/metrics.h"
#include "util/strings.h"

namespace multicast {
namespace {

using serve::ForecastRequest;
using serve::RequestOutcome;
using serve::ServeStats;

constexpr double kInf = std::numeric_limits<double>::infinity();

ts::Frame History(size_t n) {
  std::vector<double> a, b;
  for (size_t i = 0; i < n; ++i) {
    a.push_back(10.0 + static_cast<double>(i % 7));
    b.push_back(50.0 - static_cast<double>(i % 5));
  }
  return ts::Frame::FromSeries({ts::Series(a, "a"), ts::Series(b, "b")},
                               "hist")
      .ValueOrDie();
}

/// Scripted pipeline whose cost and fate are pure functions of the
/// request: full-quality service takes 1/2 to 7/8 s, the reduced rung
/// half of that, the classical rung answers at once. Work proceeds in
/// four slices, checking the context before each and once more at the
/// end, so a request that runs past its deadline fails instead of
/// returning late. A request-seeded `unavailable_rate` share of
/// requests fails after doing its work. All times are dyadic, so every
/// virtual-time sum is exact.
class GridWork final : public forecast::Forecaster {
 public:
  GridWork(const ForecastRequest& req, double unavailable_rate)
      : id_(req.id), tier_(req.tier), unavailable_rate_(unavailable_rate) {}

  std::string name() const override { return "grid"; }

  using Forecaster::Forecast;
  Result<forecast::ForecastResult> Forecast(
      const ts::Frame& history, size_t horizon,
      const RequestContext& ctx) override {
    double cost = static_cast<double>(4 + id_ % 4) / 8.0;
    if (tier_ == serve::ServiceTier::kLlmReduced) cost /= 2.0;
    if (tier_ == serve::ServiceTier::kClassical) cost = 0.0;
    forecast::ForecastResult result;
    for (int slice = 0; slice < 4; ++slice) {
      MC_RETURN_IF_ERROR(ctx.Check("grid"));
      if (ctx.clock != nullptr) ctx.clock->Advance(cost / 4.0);
      ++result.retry_stats.calls;
      result.ledger.generated_tokens += horizon;
    }
    MC_RETURN_IF_ERROR(ctx.Check("grid"));
    const uint64_t h = (id_ + 1) * 0x9E3779B97F4A7C15ull;
    if (static_cast<double>(h >> 11) * 0x1.0p-53 < unavailable_rate_) {
      return Status::Unavailable(StrFormat("grid: request %zu failed", id_));
    }
    std::vector<ts::Series> dims;
    for (size_t d = 0; d < history.num_dims(); ++d) {
      std::vector<double> values(horizon);
      for (size_t t = 0; t < horizon; ++t) {
        values[t] = static_cast<double>(id_) * 100.0 +
                    static_cast<double>(d) * 10.0 + static_cast<double>(t);
      }
      dims.emplace_back(values, history.dim(d).name());
    }
    result.forecast = ts::Frame::FromSeries(dims, "f").ValueOrDie();
    result.ledger.prompt_tokens = 10 + id_;
    if (tier_ == serve::ServiceTier::kClassical) {
      result.tier = forecast::ForecastTier::kClassical;
      result.degraded = true;
    }
    return result;
  }

 private:
  size_t id_;
  serve::ServiceTier tier_;
  double unavailable_rate_;
};

std::string Hex(double v) { return StrFormat("%a", v); }

std::string MetricsFingerprint(const util::MetricsRegistry& reg) {
  std::string out;
  const util::MetricsSnapshot snapshot = reg.Snapshot();
  for (const util::MetricPoint& p : snapshot.points()) {
    out += " " + p.name + "=" + Hex(p.value);
    for (uint64_t b : p.buckets) {
      out += StrFormat(",%llu", static_cast<unsigned long long>(b));
    }
  }
  return out;
}

/// Every ServeStats field except `cluster` (see file comment), with
/// exact (hex) doubles and the forecast values.
std::string Fingerprint(const ServeStats& st) {
  std::string out = StrFormat(
      "id=%zu outcome=%s status=[%s] slo=%d tier=%d retry_after=%s "
      "arrival=%s start=%s finish=%s wait=%s latency=%s attempts=%d "
      "hedge=%d/%d degraded=%d ledger=%zu/%zu",
      st.id, serve::OutcomeName(st.outcome), st.status.ToString().c_str(),
      static_cast<int>(st.slo), static_cast<int>(st.tier),
      Hex(st.retry_after_seconds).c_str(), Hex(st.arrival_seconds).c_str(),
      Hex(st.start_seconds).c_str(), Hex(st.finish_seconds).c_str(),
      Hex(st.queue_wait_seconds).c_str(), Hex(st.latency_seconds).c_str(),
      st.attempts, st.hedge_fired, st.hedge_won, st.degraded,
      st.ledger.prompt_tokens, st.ledger.generated_tokens);
  util::MetricsRegistry reg;
  lm::PublishRetryStats(st.retry, &reg, "retry.");
  lm::PublishPrefixCacheStats(st.prefix_cache, &reg, "cache.");
  batch::PublishBatchStats(st.batch, &reg, "batch.");
  out += MetricsFingerprint(reg);
  if (st.result != nullptr) {
    const ts::Frame& f = st.result->forecast;
    out += " forecast=";
    for (size_t d = 0; d < f.num_dims(); ++d) {
      for (size_t t = 0; t < f.length(); ++t) out += Hex(f.at(d, t)) + ",";
    }
  }
  return out;
}

std::string RunFingerprint(const std::vector<ServeStats>& stats,
                           const serve::QueueStats& queue,
                           const serve::OverloadStats& overload,
                           double end_seconds) {
  std::string out;
  for (const ServeStats& st : stats) out += Fingerprint(st) + "\n";
  util::MetricsRegistry reg;
  serve::PublishQueueStats(queue, &reg, "queue.");
  serve::PublishOverloadStats(overload, &reg, "overload.");
  out += MetricsFingerprint(reg);
  out += " end=" + Hex(end_seconds);
  return out;
}

struct Cell {
  size_t slots = 1;
  bool overload = false;
  int drain = 0;  ///< 0 none, 1 finish queued, 2 cancel queued
  double unavailable_rate = 0.0;
  bool bunched = false;  ///< arrivals four at a time
  double rate = 2.0;     ///< requests per second

  std::string Name() const {
    return StrFormat("slots=%zu overload=%d drain=%d unavailable=%.1f "
                     "bunched=%d rate=%.0f",
                     slots, overload, drain, unavailable_rate, bunched, rate);
  }
};

std::vector<ForecastRequest> GridRequests(const Cell& cell,
                                          const ts::Frame* history) {
  std::vector<ForecastRequest> requests;
  for (size_t i = 0; i < 60; ++i) {
    ForecastRequest r;
    r.id = i;
    const size_t tick = cell.bunched ? i / 4 * 4 : i;
    r.arrival_seconds = static_cast<double>(tick) / cell.rate;
    r.deadline_seconds = r.arrival_seconds + 2.0;
    r.history = history;
    r.horizon = 4;
    r.slo = static_cast<serve::SloClass>(i % 3);
    requests.push_back(r);
  }
  return requests;
}

serve::OverloadPolicy GridOverload() {
  serve::OverloadPolicy policy;
  policy.ladder.enabled = true;
  policy.ladder.wait_budget_seconds = 1.0;
  policy.ladder.window_seconds = 4.0;
  policy.ladder.recovery_seconds = 0.5;
  policy.ladder.enter_reduced = 0.25;
  policy.ladder.enter_classical = 0.5;
  policy.aimd.enabled = true;
  policy.aimd.initial_limit = 6.0;
  return policy;
}

struct CellRuns {
  std::string single;  ///< ServeExecutor's fingerprint
  std::string fleet;   ///< the one-replica ClusterExecutor's fingerprint
  serve::ServeSummary summary;  ///< of the ServeExecutor run
  serve::OverloadStats overload;
};

CellRuns RunCell(const Cell& cell, const ts::Frame* history) {
  const double drain_at =
      cell.drain == 0 ? kInf : 30.0 / cell.rate;  // half-way through
  const serve::DrainMode drain_mode = cell.drain == 2
                                          ? serve::DrainMode::kCancelQueued
                                          : serve::DrainMode::kFinishQueued;
  const double rate = cell.unavailable_rate;

  serve::ServeOptions node;
  node.queue.capacity = 8;
  node.drain_at_seconds = drain_at;
  node.drain_mode = drain_mode;
  node.batch.enabled = cell.slots > 1;
  node.batch.size = cell.slots;
  if (cell.overload) node.overload = GridOverload();
  serve::ServeExecutor single(
      [rate](const ForecastRequest& req) {
        return std::make_unique<GridWork>(req, rate);
      },
      nullptr, node);
  auto single_run = single.Run(GridRequests(cell, history));
  EXPECT_TRUE(single_run.ok()) << single_run.status().ToString();
  if (!single_run.ok()) return {};

  cluster::ClusterOptions fleet;
  fleet.queue = node.queue;
  fleet.drain_at_seconds = drain_at;
  fleet.drain_mode = drain_mode;
  fleet.overload = node.overload;
  cluster::Replica replica;
  replica.slots = cell.slots;
  cluster::ClusterExecutor one(
      [rate](const ForecastRequest& req, const cluster::Replica&) {
        return std::make_unique<GridWork>(req, rate);
      },
      nullptr, {replica}, fleet);
  auto fleet_run = one.Run(GridRequests(cell, history));
  EXPECT_TRUE(fleet_run.ok()) << fleet_run.status().ToString();
  if (!fleet_run.ok()) return {};

  return {RunFingerprint(single_run.value(), single.queue_stats(),
                         single.overload_stats(), single.end_seconds()),
          RunFingerprint(fleet_run.value(), one.queue_stats(),
                         one.report().overload, one.end_seconds()),
          serve::Summarize(single_run.value()), single.overload_stats()};
}

TEST(ServeCoreDifferentialTest, SingleNodeMatchesOneReplicaFleetOnGrid) {
  const ts::Frame history = History(24);
  std::vector<std::string> differing;
  size_t cells = 0;
  serve::ServeSummary total;
  size_t overload_sheds = 0;
  for (size_t slots : {1, 4}) {
    for (bool overload : {false, true}) {
      for (int drain : {0, 1, 2}) {
        for (double unavailable : {0.0, 0.3}) {
          for (bool bunched : {false, true}) {
            for (double rate : {2.0, 4.0, 16.0, 32.0}) {
              const Cell cell{slots, overload, drain, unavailable, bunched,
                              rate};
              ++cells;
              const CellRuns runs = RunCell(cell, &history);
              if (runs.single != runs.fleet) differing.push_back(cell.Name());
              total.served += runs.summary.served;
              total.shed_queue_full += runs.summary.shed_queue_full;
              total.shed_expired += runs.summary.shed_expired;
              total.cancelled_drain += runs.summary.cancelled_drain;
              total.failed += runs.summary.failed;
              total.tier_llm_reduced += runs.summary.tier_llm_reduced;
              total.tier_classical += runs.summary.tier_classical;
              overload_sheds +=
                  runs.overload.aimd_rejected + runs.overload.ladder_rejected;
            }
          }
        }
      }
    }
  }
  ASSERT_EQ(cells, 192u);
  std::string list;
  for (const std::string& name : differing) list += "\n  " + name;
  EXPECT_TRUE(differing.empty())
      << differing.size() << " of " << cells << " cells differ:" << list;
  // The grid reaches every fate the loop decides.
  EXPECT_GT(total.served, 0u);
  EXPECT_GT(total.shed_queue_full, 0u);
  EXPECT_GT(total.shed_expired, 0u);
  EXPECT_GT(total.cancelled_drain, 0u);
  EXPECT_GT(total.failed, 0u);
  EXPECT_GT(total.tier_llm_reduced, 0u);
  EXPECT_GT(total.tier_classical, 0u);
  EXPECT_GT(overload_sheds, 0u);
}

// ---------------------------------------------------------------------
// The ordering rules of the one serving loop.
// ---------------------------------------------------------------------

/// Fixed-cost pipeline: every request takes `seconds` of virtual time,
/// then fails when `fail` is set.
class FixedWork final : public forecast::Forecaster {
 public:
  explicit FixedWork(double seconds, bool fail = false)
      : seconds_(seconds), fail_(fail) {}
  std::string name() const override { return "fixed"; }
  using Forecaster::Forecast;
  Result<forecast::ForecastResult> Forecast(
      const ts::Frame& history, size_t horizon,
      const RequestContext& ctx) override {
    if (ctx.clock != nullptr) ctx.clock->Advance(seconds_);
    if (fail_) return Status::Unavailable("fixed: failed");
    forecast::ForecastResult result;
    std::vector<ts::Series> dims;
    for (size_t d = 0; d < history.num_dims(); ++d) {
      dims.emplace_back(std::vector<double>(horizon, 1.0),
                        history.dim(d).name());
    }
    result.forecast = ts::Frame::FromSeries(dims, "f").ValueOrDie();
    return result;
  }

 private:
  double seconds_;
  bool fail_;
};

ForecastRequest At(size_t id, double arrival, const ts::Frame* history) {
  ForecastRequest r;
  r.id = id;
  r.arrival_seconds = arrival;
  r.history = history;
  r.horizon = 4;
  return r;
}

serve::ServeOptions AimdLimitOne() {
  serve::ServeOptions options;
  options.overload.aimd.enabled = true;
  options.overload.aimd.initial_limit = 1.0;
  return options;
}

// A request in service counts against the AIMD limit for arrivals during
// its service, also on a one-slot node: with a limit of one, the second
// arrival is refused and told why.
TEST(ServeCoreOrderingTest, OneSlotArrivalDuringServiceSeesOneInFlight) {
  const ts::Frame history = History(24);
  serve::ServeExecutor executor(
      [](const ForecastRequest&) { return std::make_unique<FixedWork>(1.0); },
      nullptr, AimdLimitOne());
  auto run = executor.Run({At(0, 0.0, &history), At(1, 0.5, &history)});
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  ASSERT_EQ(run.value().size(), 2u);
  EXPECT_EQ(run.value()[0].outcome, RequestOutcome::kServed);
  const ServeStats& refused = run.value()[1];
  EXPECT_EQ(refused.outcome, RequestOutcome::kShedQueueFull);
  EXPECT_NE(refused.status.message().find("0 queued + 1 in flight"),
            std::string::npos)
      << refused.status.ToString();
  EXPECT_EQ(executor.overload_stats().aimd_rejected, 1u);
}

// A completion and an arrival at the same virtual instant: the
// completion lands first, so the arrival sees a free slot (and the
// limit the completion just raised) — on a single node and on a fleet.
TEST(ServeCoreOrderingTest, CompletionLandsBeforeSimultaneousArrival) {
  const ts::Frame history = History(24);
  const std::vector<ForecastRequest> requests = {At(0, 0.0, &history),
                                                 At(1, 1.0, &history)};
  serve::ServeExecutor single(
      [](const ForecastRequest&) { return std::make_unique<FixedWork>(1.0); },
      nullptr, AimdLimitOne());
  auto single_run = single.Run(requests);
  ASSERT_TRUE(single_run.ok()) << single_run.status().ToString();

  cluster::ClusterOptions options;
  options.overload = AimdLimitOne().overload;
  cluster::ClusterExecutor fleet(
      [](const ForecastRequest&, const cluster::Replica&) {
        return std::make_unique<FixedWork>(1.0);
      },
      nullptr, {cluster::Replica{}}, options);
  auto fleet_run = fleet.Run(requests);
  ASSERT_TRUE(fleet_run.ok()) << fleet_run.status().ToString();

  for (const auto* run : {&single_run.value(), &fleet_run.value()}) {
    ASSERT_EQ(run->size(), 2u);
    EXPECT_EQ((*run)[0].outcome, RequestOutcome::kServed);
    EXPECT_DOUBLE_EQ((*run)[0].finish_seconds, 1.0);
    EXPECT_EQ((*run)[1].outcome, RequestOutcome::kServed)
        << (*run)[1].status.ToString();
    EXPECT_DOUBLE_EQ((*run)[1].start_seconds, 1.0);
    EXPECT_DOUBLE_EQ((*run)[1].finish_seconds, 2.0);
  }
  EXPECT_EQ(single.overload_stats().aimd_rejected, 0u);
  EXPECT_EQ(fleet.report().overload.aimd_rejected, 0u);
}

// Completions at one instant land in dispatch order, whichever slot
// each flight holds. Two slots: request 0 (3 s) and request 1 (5 s)
// start at 0; request 2 (2 s, failing) takes request 0's slot at 3, so
// requests 1 and 2 land together at 5. Request 1 was dispatched first:
// the AIMD limit grows 5 -> 6, then the failure halves it to 3 (in slot
// order it would read 5 * 0.5 + 1 = 3.5).
TEST(ServeCoreOrderingTest, SimultaneousCompletionsLandInDispatchOrder) {
  const ts::Frame history = History(24);
  const std::vector<ForecastRequest> requests = {
      At(0, 0.0, &history), At(1, 0.0, &history), At(2, 1.0, &history)};
  auto work = [](const ForecastRequest& req) {
    static constexpr double kSeconds[] = {3.0, 5.0, 2.0};
    return std::make_unique<FixedWork>(kSeconds[req.id], req.id == 2);
  };
  serve::OverloadPolicy aimd;
  aimd.aimd.enabled = true;
  aimd.aimd.initial_limit = 4.0;

  serve::ServeOptions node;
  node.batch.enabled = true;
  node.batch.size = 2;
  node.overload = aimd;
  serve::ServeExecutor single(work, nullptr, node);
  auto single_run = single.Run(requests);
  ASSERT_TRUE(single_run.ok()) << single_run.status().ToString();

  cluster::ClusterOptions options;
  options.overload = aimd;
  cluster::Replica replica;
  replica.slots = 2;
  cluster::ClusterExecutor fleet(
      [work](const ForecastRequest& req, const cluster::Replica&) {
        return work(req);
      },
      nullptr, {replica}, options);
  auto fleet_run = fleet.Run(requests);
  ASSERT_TRUE(fleet_run.ok()) << fleet_run.status().ToString();

  for (const auto* run : {&single_run.value(), &fleet_run.value()}) {
    ASSERT_EQ(run->size(), 3u);
    EXPECT_DOUBLE_EQ((*run)[1].finish_seconds, 5.0);
    EXPECT_DOUBLE_EQ((*run)[2].start_seconds, 3.0);
    EXPECT_DOUBLE_EQ((*run)[2].finish_seconds, 5.0);
    EXPECT_EQ((*run)[2].outcome, RequestOutcome::kFailed);
  }
  EXPECT_DOUBLE_EQ(single.overload_stats().final_limit, 3.0);
  EXPECT_DOUBLE_EQ(fleet.report().overload.final_limit, 3.0);
}

}  // namespace
}  // namespace multicast
