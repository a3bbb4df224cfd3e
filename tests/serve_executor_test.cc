#include "serve/executor.h"

#include <deque>

#include <gtest/gtest.h>

#include "forecast/multicast_forecaster.h"
#include "lm/generator.h"
#include "serve/trace.h"
#include "token/vocabulary.h"

namespace multicast {
namespace serve {
namespace {

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

/// A scripted pipeline: issues `calls` simulated LLM calls of
/// `call_seconds` virtual time each, observing the request context
/// exactly like the real sample loop (check before issuing, never run
/// past the deadline). Each *issued* call is appended to `*issue_log`
/// — the per-run call ledger the cancellation assertions read.
struct FakeSpec {
  std::string name = "fake";
  int calls = 1;
  double call_seconds = 0.1;
  bool fail = false;  ///< fail (kUnavailable) after issuing every call
};

class FakeWork final : public forecast::Forecaster {
 public:
  FakeWork(const FakeSpec& spec, size_t* issued)
      : spec_(spec), issued_(issued) {}

  std::string name() const override { return spec_.name; }

  using Forecaster::Forecast;
  Result<forecast::ForecastResult> Forecast(
      const ts::Frame& history, size_t horizon,
      const RequestContext& ctx) override {
    for (int i = 0; i < spec_.calls; ++i) {
      MC_RETURN_IF_ERROR(ctx.Check(spec_.name.c_str()));
      if (ctx.clock != nullptr && !ctx.deadline.never()) {
        double remaining = ctx.deadline.RemainingAt(ctx.clock->now());
        if (remaining < spec_.call_seconds) {
          ctx.clock->Advance(remaining);
          return Status::DeadlineExceeded(spec_.name +
                                          ": call preempted by deadline");
        }
      }
      if (issued_ != nullptr) ++*issued_;
      if (ctx.clock != nullptr) ctx.clock->Advance(spec_.call_seconds);
    }
    if (spec_.fail) return Status::Unavailable(spec_.name + " failed");
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
  FakeSpec spec_;
  size_t* issued_;
};

/// Factory recording how many calls each created instance issued:
/// run_calls()[k] is the issue count of the k-th pipeline built.
class FakeFactory {
 public:
  explicit FakeFactory(const FakeSpec& spec) : spec_(spec) {}

  ForecasterFactory factory() {
    return [this](const ForecastRequest&) {
      counts_->push_back(0);
      return std::make_unique<FakeWork>(spec_, &counts_->back());
    };
  }

  const std::deque<size_t>& run_calls() const { return *counts_; }

 private:
  FakeSpec spec_;
  // deque: FakeWork holds a pointer to its slot, and deque append never
  // moves existing elements.
  std::shared_ptr<std::deque<size_t>> counts_ =
      std::make_shared<std::deque<size_t>>();
};

ForecastRequest Req(size_t id, double arrival, double deadline,
                    const ts::Frame* history) {
  ForecastRequest r;
  r.id = id;
  r.arrival_seconds = arrival;
  r.deadline_seconds = deadline;
  r.history = history;
  r.horizon = 4;
  return r;
}

// ---------------------------------------------------------------------
// Deterministic overload: exact shed counts at queue capacity k.
// ---------------------------------------------------------------------

TEST(ServeExecutorTest, OverloadShedsExactlyBeyondCapacity) {
  ts::Frame history = History(24);
  FakeSpec spec;
  spec.calls = 1;
  spec.call_seconds = 1.0;  // each request takes exactly 1 virtual second
  FakeFactory primary(spec);
  ServeOptions options;
  options.queue.capacity = 2;
  ServeExecutor executor(primary.factory(), nullptr, options);

  // Six requests in a 0.5 s burst against a 1 s/request worker with two
  // queue slots: 0 serves immediately, 1 and 2 queue, 3-5 are shed.
  std::vector<ForecastRequest> requests;
  for (size_t i = 0; i < 6; ++i) {
    requests.push_back(
        Req(i, 0.1 * static_cast<double>(i), 100.0, &history));
  }
  auto stats_or = executor.Run(requests);
  ASSERT_TRUE(stats_or.ok()) << stats_or.status().ToString();
  const std::vector<ServeStats>& stats = stats_or.value();
  ASSERT_EQ(stats.size(), 6u);

  EXPECT_EQ(stats[0].outcome, RequestOutcome::kServed);
  EXPECT_EQ(stats[1].outcome, RequestOutcome::kServed);
  EXPECT_EQ(stats[2].outcome, RequestOutcome::kServed);
  EXPECT_EQ(stats[3].outcome, RequestOutcome::kShedQueueFull);
  EXPECT_EQ(stats[4].outcome, RequestOutcome::kShedQueueFull);
  EXPECT_EQ(stats[5].outcome, RequestOutcome::kShedQueueFull);
  EXPECT_EQ(stats[3].status.code(), StatusCode::kResourceExhausted);

  // Exact virtual schedule: serves at 0, 1, 2; finishes at 1, 2, 3.
  EXPECT_DOUBLE_EQ(stats[0].finish_seconds, 1.0);
  EXPECT_DOUBLE_EQ(stats[1].finish_seconds, 2.0);
  EXPECT_DOUBLE_EQ(stats[2].finish_seconds, 3.0);
  EXPECT_DOUBLE_EQ(stats[1].queue_wait_seconds, 0.9);
  EXPECT_DOUBLE_EQ(stats[2].latency_seconds, 2.8);

  EXPECT_EQ(executor.queue_stats().offered, 6u);
  EXPECT_EQ(executor.queue_stats().admitted, 3u);
  EXPECT_EQ(executor.queue_stats().rejected_full, 3u);

  ServeSummary summary = Summarize(stats);
  EXPECT_EQ(summary.served, 3u);
  EXPECT_EQ(summary.shed_queue_full, 3u);
  EXPECT_EQ(summary.shed(), 3u);
  EXPECT_DOUBLE_EQ(summary.p50_latency_seconds, 1.9);
  EXPECT_DOUBLE_EQ(summary.p99_latency_seconds, 2.8);
}

TEST(ServeExecutorTest, ServedRequestsMeetDeadlinesExpiredAreDropped) {
  ts::Frame history = History(24);
  FakeSpec spec;
  spec.calls = 1;
  spec.call_seconds = 1.0;
  FakeFactory primary(spec);
  ServeOptions options;
  options.queue.capacity = 10;
  ServeExecutor executor(primary.factory(), nullptr, options);

  std::vector<ForecastRequest> requests;
  requests.push_back(Req(0, 0.0, 10.0, &history));
  // Expires at 0.9 but the worker frees up at 1.0: dropped at dequeue,
  // never served dead.
  requests.push_back(Req(1, 0.1, 0.9, &history));
  requests.push_back(Req(2, 0.2, 10.0, &history));
  auto stats_or = executor.Run(requests);
  ASSERT_TRUE(stats_or.ok()) << stats_or.status().ToString();
  const std::vector<ServeStats>& stats = stats_or.value();

  EXPECT_EQ(stats[0].outcome, RequestOutcome::kServed);
  EXPECT_EQ(stats[1].outcome, RequestOutcome::kShedExpired);
  EXPECT_EQ(stats[1].status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(stats[2].outcome, RequestOutcome::kServed);
  EXPECT_DOUBLE_EQ(stats[2].finish_seconds, 2.0);

  // Every served request finished within its deadline in virtual time.
  for (const ServeStats& st : stats) {
    if (st.outcome == RequestOutcome::kServed ||
        st.outcome == RequestOutcome::kServedDegraded) {
      EXPECT_LE(st.finish_seconds, /*deadline=*/10.0);
    }
  }
  // The expired request consumed zero pipeline work.
  ASSERT_EQ(primary.run_calls().size(), 2u);
}

TEST(ServeExecutorTest, EdfServesUrgentBeforePatient) {
  ts::Frame history = History(24);
  FakeSpec spec;
  spec.calls = 1;
  spec.call_seconds = 1.0;
  FakeFactory primary(spec);
  ServeOptions options;
  options.queue.order = QueueOrder::kEarliestDeadlineFirst;
  ServeExecutor executor(primary.factory(), nullptr, options);

  std::vector<ForecastRequest> requests;
  requests.push_back(Req(0, 0.0, 100.0, &history));
  requests.push_back(Req(1, 0.1, 100.0, &history));  // patient
  requests.push_back(Req(2, 0.2, 2.2, &history));    // urgent
  auto stats_or = executor.Run(requests);
  ASSERT_TRUE(stats_or.ok());
  const std::vector<ServeStats>& stats = stats_or.value();
  // Under FIFO request 2 would start at 2.0 and finish at 3.0, blowing
  // its 2.2 deadline; EDF serves it ahead of request 1.
  EXPECT_EQ(stats[2].outcome, RequestOutcome::kServed);
  EXPECT_DOUBLE_EQ(stats[2].finish_seconds, 2.0);
  EXPECT_EQ(stats[1].outcome, RequestOutcome::kServed);
  EXPECT_DOUBLE_EQ(stats[1].finish_seconds, 3.0);
}

// ---------------------------------------------------------------------
// Hedged requests.
// ---------------------------------------------------------------------

TEST(ServeExecutorTest, HedgeFiresAndWinsCancellingThePrimary) {
  ts::Frame history = History(24);
  FakeSpec slow;
  slow.name = "slow-primary";
  slow.calls = 4;
  slow.call_seconds = 0.5;  // 2.0 s total
  FakeSpec fast;
  fast.name = "fast-hedge";
  fast.calls = 1;
  fast.call_seconds = 0.3;
  FakeFactory primary(slow);
  FakeFactory hedge(fast);
  ServeOptions options;
  options.hedge.enabled = true;
  options.hedge.delay_seconds = 0.5;
  ServeExecutor executor(primary.factory(), hedge.factory(), options);

  auto stats_or = executor.Run({Req(0, 0.0, 100.0, &history)});
  ASSERT_TRUE(stats_or.ok());
  const ServeStats& st = stats_or.value()[0];
  EXPECT_EQ(st.outcome, RequestOutcome::kServed);
  EXPECT_TRUE(st.hedge_fired);
  EXPECT_TRUE(st.hedge_won);
  EXPECT_EQ(st.attempts, 2);
  // Hedge launched at 0.5, finished at 0.8 — the client sees 0.8 s, not
  // the primary's 2.0 s.
  EXPECT_DOUBLE_EQ(st.finish_seconds, 0.8);
  EXPECT_DOUBLE_EQ(st.latency_seconds, 0.8);

  // The losing primary was re-run with cancellation at the winner's
  // finish: it issued only the call started before t=0.8 — the call
  // ledger proves cancellation stopped it mid-pipeline (4 calls when
  // unconstrained).
  ASSERT_EQ(primary.run_calls().size(), 2u);  // race run + cancelled replay
  EXPECT_EQ(primary.run_calls()[0], 4u);
  EXPECT_EQ(primary.run_calls()[1], 2u);
  ASSERT_EQ(hedge.run_calls().size(), 1u);
  EXPECT_EQ(hedge.run_calls()[0], 1u);
}

TEST(ServeExecutorTest, HedgeLosesAndIsCancelledMidPipeline) {
  ts::Frame history = History(24);
  FakeSpec prim;
  prim.name = "primary";
  prim.calls = 2;
  prim.call_seconds = 0.5;  // finishes at 1.0
  FakeSpec backup;
  backup.name = "hedge";
  backup.calls = 5;
  backup.call_seconds = 0.5;  // would take 2.5 s
  FakeFactory primary(prim);
  FakeFactory hedge(backup);
  ServeOptions options;
  options.hedge.enabled = true;
  options.hedge.delay_seconds = 0.3;
  ServeExecutor executor(primary.factory(), hedge.factory(), options);

  auto stats_or = executor.Run({Req(0, 0.0, 100.0, &history)});
  ASSERT_TRUE(stats_or.ok());
  const ServeStats& st = stats_or.value()[0];
  EXPECT_EQ(st.outcome, RequestOutcome::kServed);
  EXPECT_TRUE(st.hedge_fired);
  EXPECT_FALSE(st.hedge_won);
  EXPECT_DOUBLE_EQ(st.finish_seconds, 1.0);

  // Hedge started at 0.3 and was cancelled when the primary finished at
  // 1.0: it issued calls at 0.3 and 0.8 only — 2 of its 5.
  ASSERT_EQ(hedge.run_calls().size(), 1u);
  EXPECT_EQ(hedge.run_calls()[0], 2u);
  ASSERT_EQ(primary.run_calls().size(), 1u);
  EXPECT_EQ(primary.run_calls()[0], 2u);
}

TEST(ServeExecutorTest, FailFastPrimaryLaunchesHedgeImmediately) {
  ts::Frame history = History(24);
  FakeSpec broken;
  broken.name = "broken";
  broken.calls = 1;
  broken.call_seconds = 0.2;
  broken.fail = true;
  FakeSpec backup;
  backup.name = "hedge";
  backup.calls = 1;
  backup.call_seconds = 0.3;
  FakeFactory primary(broken);
  FakeFactory hedge(backup);
  ServeOptions options;
  options.hedge.enabled = true;
  options.hedge.delay_seconds = 1.0;  // primary fails long before this
  ServeExecutor executor(primary.factory(), hedge.factory(), options);

  auto stats_or = executor.Run({Req(0, 0.0, 100.0, &history)});
  ASSERT_TRUE(stats_or.ok());
  const ServeStats& st = stats_or.value()[0];
  EXPECT_EQ(st.outcome, RequestOutcome::kServed);
  EXPECT_TRUE(st.hedge_won);
  // Hedge launched at the failure instant (0.2), not the 1.0 s delay.
  EXPECT_DOUBLE_EQ(st.finish_seconds, 0.5);
}

TEST(ServeExecutorTest, FastPrimaryNeverHedges) {
  ts::Frame history = History(24);
  FakeSpec quick;
  quick.calls = 1;
  quick.call_seconds = 0.2;
  FakeFactory primary(quick);
  FakeFactory hedge(quick);
  ServeOptions options;
  options.hedge.enabled = true;
  options.hedge.delay_seconds = 0.5;
  ServeExecutor executor(primary.factory(), hedge.factory(), options);

  auto stats_or = executor.Run({Req(0, 0.0, 100.0, &history)});
  ASSERT_TRUE(stats_or.ok());
  EXPECT_FALSE(stats_or.value()[0].hedge_fired);
  EXPECT_TRUE(hedge.run_calls().empty());
}

// ---------------------------------------------------------------------
// Graceful drain.
// ---------------------------------------------------------------------

TEST(ServeExecutorTest, DrainFinishQueuedServesWaitingWork) {
  ts::Frame history = History(24);
  FakeSpec spec;
  spec.calls = 1;
  spec.call_seconds = 1.0;
  FakeFactory primary(spec);
  ServeOptions options;
  options.drain_at_seconds = 0.5;
  options.drain_mode = DrainMode::kFinishQueued;
  ServeExecutor executor(primary.factory(), nullptr, options);

  std::vector<ForecastRequest> requests;
  requests.push_back(Req(0, 0.0, 100.0, &history));
  requests.push_back(Req(1, 0.2, 100.0, &history));  // queued pre-drain
  requests.push_back(Req(2, 0.7, 100.0, &history));  // arrives draining
  auto stats_or = executor.Run(requests);
  ASSERT_TRUE(stats_or.ok());
  const std::vector<ServeStats>& stats = stats_or.value();
  EXPECT_EQ(stats[0].outcome, RequestOutcome::kServed);
  EXPECT_EQ(stats[1].outcome, RequestOutcome::kServed);  // finished out
  EXPECT_DOUBLE_EQ(stats[1].finish_seconds, 2.0);
  EXPECT_EQ(stats[2].outcome, RequestOutcome::kCancelledDrain);
  EXPECT_EQ(stats[2].status.code(), StatusCode::kUnavailable);
}

TEST(ServeExecutorTest, DrainCancelQueuedCancelsQueueAndInFlight) {
  ts::Frame history = History(24);
  FakeSpec spec;
  spec.calls = 2;
  spec.call_seconds = 0.5;
  FakeFactory primary(spec);
  ServeOptions options;
  options.drain_at_seconds = 1.5;
  options.drain_mode = DrainMode::kCancelQueued;
  ServeExecutor executor(primary.factory(), nullptr, options);

  std::vector<ForecastRequest> requests;
  requests.push_back(Req(0, 0.0, 100.0, &history));  // served pre-drain
  requests.push_back(Req(1, 0.1, 100.0, &history));  // cancelled in flight
  requests.push_back(Req(2, 0.2, 100.0, &history));  // cancelled in queue
  auto stats_or = executor.Run(requests);
  ASSERT_TRUE(stats_or.ok());
  const std::vector<ServeStats>& stats = stats_or.value();

  EXPECT_EQ(stats[0].outcome, RequestOutcome::kServed);
  EXPECT_DOUBLE_EQ(stats[0].finish_seconds, 1.0);

  // Request 1 started at 1.0, issued one call (1.0 -> 1.5), then hit
  // the drain cancellation exactly at 1.5: one call of two issued.
  EXPECT_EQ(stats[1].outcome, RequestOutcome::kCancelledDrain);
  EXPECT_EQ(stats[1].status.code(), StatusCode::kCancelled);
  ASSERT_EQ(primary.run_calls().size(), 2u);
  EXPECT_EQ(primary.run_calls()[1], 1u);

  // Request 2 never reached a worker.
  EXPECT_EQ(stats[2].outcome, RequestOutcome::kCancelledDrain);
  EXPECT_EQ(stats[2].status.code(), StatusCode::kCancelled);
  EXPECT_EQ(stats[2].attempts, 0);
}

// ---------------------------------------------------------------------
// Accessors report the most recent Run(), even through a shared
// registry.
// ---------------------------------------------------------------------

TEST(ServeExecutorTest, SecondRunReportsItsOwnCounters) {
  ts::Frame history = History(24);
  FakeSpec spec;
  spec.calls = 1;
  spec.call_seconds = 1.0;
  FakeFactory primary(spec);
  util::MetricsRegistry registry;
  ServeOptions options;
  options.queue.capacity = 16;
  options.overload.ladder.enabled = true;
  options.overload.aimd.enabled = true;
  options.metrics = &registry;

  // A burst that builds a deep queue and escalates the ladder...
  std::vector<ForecastRequest> burst;
  for (size_t i = 0; i < 10; ++i) {
    burst.push_back(Req(i, 0.0, 100.0, &history));
  }
  // ...then a trickle that never queues behind anything.
  std::vector<ForecastRequest> trickle;
  for (size_t i = 0; i < 3; ++i) {
    trickle.push_back(Req(i, 5.0 * static_cast<double>(i), 100.0, &history));
  }

  ServeExecutor shared(primary.factory(), nullptr, options);
  ASSERT_TRUE(shared.Run(burst).ok());
  const QueueStats burst_queue = shared.queue_stats();
  const OverloadStats burst_overload = shared.overload_stats();
  ASSERT_TRUE(shared.Run(trickle).ok());

  ServeOptions unshared = options;
  unshared.metrics = nullptr;
  ServeExecutor fresh(primary.factory(), nullptr, unshared);
  ASSERT_TRUE(fresh.Run(trickle).ok());

  EXPECT_GT(burst_queue.max_depth, 1u);
  EXPECT_EQ(fresh.queue_stats().max_depth, 1u);
  EXPECT_EQ(shared.queue_stats().max_depth, fresh.queue_stats().max_depth);
  EXPECT_EQ(shared.queue_stats().offered, 3u);
  EXPECT_GT(burst_overload.peak_level, fresh.overload_stats().peak_level);
  EXPECT_EQ(shared.overload_stats().peak_level,
            fresh.overload_stats().peak_level);
  EXPECT_NE(burst_overload.final_limit, fresh.overload_stats().final_limit);
  EXPECT_EQ(shared.overload_stats().final_limit,
            fresh.overload_stats().final_limit);
  // The registry itself holds both runs: counters add, gauges keep the
  // high-water mark.
  const util::MetricsSnapshot snapshot = registry.Snapshot();
  EXPECT_EQ(snapshot.Value("queue.offered"),
            static_cast<double>(burst_queue.offered + 3));
  EXPECT_EQ(snapshot.Value("queue.max_depth"),
            static_cast<double>(burst_queue.max_depth));
}

// ---------------------------------------------------------------------
// Trace generation.
// ---------------------------------------------------------------------

TEST(TraceTest, DeterministicAndMonotone) {
  TraceOptions options;
  options.num_requests = 50;
  options.seed = 7;
  std::vector<Arrival> a = GenerateTrace(options);
  std::vector<Arrival> b = GenerateTrace(options);
  ASSERT_EQ(a.size(), 50u);
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i].arrival_seconds, b[i].arrival_seconds);
    if (i > 0) {
      EXPECT_GT(a[i].arrival_seconds, a[i - 1].arrival_seconds);
    }
    EXPECT_DOUBLE_EQ(a[i].deadline_seconds,
                     a[i].arrival_seconds + options.deadline_seconds);
  }
  options.seed = 8;
  std::vector<Arrival> c = GenerateTrace(options);
  EXPECT_NE(a[5].arrival_seconds, c[5].arrival_seconds);
}

TEST(TraceTest, BurstsCompressInterArrivals) {
  TraceOptions calm;
  calm.num_requests = 200;
  calm.arrival_rate = 10.0;
  calm.burst_factor = 1.0;  // no bursts
  calm.deadline_seconds = 0.0;
  TraceOptions bursty = calm;
  bursty.burst_factor = 8.0;
  bursty.burst_every_seconds = 5.0;
  bursty.burst_duration_seconds = 2.0;
  double calm_span = GenerateTrace(calm).back().arrival_seconds;
  double bursty_span = GenerateTrace(bursty).back().arrival_seconds;
  EXPECT_LT(bursty_span, calm_span);  // same count arrives sooner
  EXPECT_EQ(GenerateTrace(calm)[0].deadline_seconds,
            std::numeric_limits<double>::infinity());
}

// ---------------------------------------------------------------------
// End to end with the real MultiCast pipeline: cancellation and
// deadline expiry provably stop LLM calls, asserted via a backend call
// ledger under the whole serving stack.
// ---------------------------------------------------------------------

/// Counts Complete() calls into an owned SimulatedLlm and reports a
/// fixed per-call latency (by value on the result, per the backend
/// contract) so virtual time advances under the pipeline.
class CountingBackend final : public lm::LlmBackend {
 public:
  CountingBackend(size_t vocab_size, double call_seconds)
      : inner_(lm::ModelProfile::Llama2_7B(), vocab_size),
        call_seconds_(call_seconds) {}

  std::string name() const override { return "counting"; }
  size_t vocab_size() const override { return inner_.vocab_size(); }
  double last_latency_seconds() const override { return call_seconds_; }

  using LlmBackend::Complete;
  Result<lm::GenerationResult> Complete(
      const std::vector<token::TokenId>& prompt, size_t num_tokens,
      const lm::GrammarMask& mask, Rng* rng,
      const lm::CallOptions& call) override {
    ++calls;
    MC_ASSIGN_OR_RETURN(lm::GenerationResult result,
                        inner_.Complete(prompt, num_tokens, mask, rng, call));
    result.latency_seconds = call_seconds_;
    return result;
  }

  size_t calls = 0;

 private:
  lm::SimulatedLlm inner_;
  double call_seconds_;
};

TEST(ServePipelineTest, CancelledRequestIssuesNoLlmCalls) {
  ts::Frame history = History(24);
  CountingBackend backend(token::Vocabulary::Digits().size(), 0.05);
  forecast::MultiCastOptions options;
  options.num_samples = 5;
  options.backend = &backend;
  forecast::MultiCastForecaster forecaster(options);

  VirtualClock clock;
  RequestContext ctx;
  ctx.clock = &clock;
  ctx.cancel.Cancel("client disconnected");
  auto result = forecaster.Forecast(history, 4, ctx);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
  EXPECT_EQ(backend.calls, 0u);  // the ledger proof: zero calls issued
}

TEST(ServePipelineTest, DeadlineStopsLlmCallsMidSampleLoopAndDegrades) {
  ts::Frame history = History(24);
  CountingBackend backend(token::Vocabulary::Digits().size(), 0.05);
  forecast::MultiCastOptions options;
  options.num_samples = 5;
  options.backend = &backend;
  forecast::MultiCastForecaster forecaster(options);

  // 0.12 s of budget at 0.05 s/call: calls at t=0, 0.05 and 0.10 fit;
  // the clock sits at 0.15 (> deadline) before draw 4 — the loop stops.
  VirtualClock clock;
  RequestContext ctx;
  ctx.clock = &clock;
  ctx.deadline = Deadline::At(0.12);
  auto result = forecaster.Forecast(history, 4, ctx);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(backend.calls, 3u);  // exactly 3 of 5 draws issued
  EXPECT_TRUE(result.value().degraded);
  EXPECT_EQ(result.value().samples_used, 3u);
  EXPECT_EQ(result.value().samples_requested, 5u);
  EXPECT_GT(result.value().virtual_seconds, 0.0);
}

TEST(ServePipelineTest, CancelMidLoopStopsFurtherCalls) {
  ts::Frame history = History(24);
  CountingBackend backend(token::Vocabulary::Digits().size(), 0.05);
  forecast::MultiCastOptions options;
  options.num_samples = 5;
  options.backend = &backend;
  forecast::MultiCastForecaster forecaster(options);

  // Auto-cancel at 0.08: two calls (t=0, 0.05) are issued, then the
  // token fires at 0.10 before the third.
  VirtualClock clock;
  RequestContext ctx;
  ctx.clock = &clock;
  ctx.cancel.CancelAtTime(&clock, 0.08, "drain");
  auto result = forecaster.Forecast(history, 4, ctx);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(backend.calls, 2u);
  EXPECT_TRUE(result.value().degraded);
  EXPECT_EQ(result.value().samples_used, 2u);
}

TEST(ServePipelineTest, EndToEndServeSimIsDeterministic) {
  ts::Frame history = History(32);
  TraceOptions trace_options;
  trace_options.num_requests = 12;
  trace_options.arrival_rate = 8.0;
  trace_options.deadline_seconds = 0.6;
  trace_options.seed = 3;
  std::vector<Arrival> trace = GenerateTrace(trace_options);

  auto run_once = [&](ServeSummary* summary) {
    auto primary = [&history](const ForecastRequest& request) {
      forecast::MultiCastOptions options;
      options.num_samples = 3;
      options.seed = 42 + request.id;
      options.faults = lm::FaultProfile::Chaos(0.10, 99 + request.id);
      options.resilience.retries_enabled = true;
      return std::make_unique<forecast::MultiCastForecaster>(options);
    };
    ServeOptions options;
    options.queue.capacity = 4;
    ServeExecutor executor(primary, nullptr, options);
    std::vector<ForecastRequest> requests;
    for (size_t i = 0; i < trace.size(); ++i) {
      ForecastRequest r;
      r.id = i;
      r.arrival_seconds = trace[i].arrival_seconds;
      r.deadline_seconds = trace[i].deadline_seconds;
      r.history = &history;
      r.horizon = 4;
      requests.push_back(r);
    }
    auto stats_or = executor.Run(requests);
    ASSERT_TRUE(stats_or.ok()) << stats_or.status().ToString();
    *summary = Summarize(stats_or.value());
    for (const ServeStats& st : stats_or.value()) {
      if (st.outcome == RequestOutcome::kServed ||
          st.outcome == RequestOutcome::kServedDegraded) {
        // Virtual-time guarantee: nothing is served past its deadline.
        EXPECT_LE(st.finish_seconds, st.id < trace.size()
                                         ? trace[st.id].deadline_seconds
                                         : 0.0);
      }
    }
  };
  ServeSummary first, second;
  run_once(&first);
  run_once(&second);
  EXPECT_EQ(first.total, 12u);
  EXPECT_EQ(first.served + first.served_degraded + first.shed() +
                first.cancelled_drain + first.failed,
            first.total);
  // Bit-reproducible: identical summaries on every run.
  EXPECT_EQ(first.served, second.served);
  EXPECT_EQ(first.served_degraded, second.served_degraded);
  EXPECT_EQ(first.shed_queue_full, second.shed_queue_full);
  EXPECT_EQ(first.shed_expired, second.shed_expired);
  EXPECT_EQ(first.failed, second.failed);
  EXPECT_DOUBLE_EQ(first.p99_latency_seconds, second.p99_latency_seconds);
  EXPECT_EQ(first.ledger.total(), second.ledger.total());
  EXPECT_EQ(first.retry.calls, second.retry.calls);
}

TEST(ServeSummaryTest, RejectionBreakdownBucketsByTerminalStatus) {
  ts::Frame history = History(24);
  FakeSpec spec;
  spec.calls = 1;
  spec.call_seconds = 1.0;
  FakeFactory primary(spec);
  ServeOptions options;
  options.queue.capacity = 1;
  ServeExecutor executor(primary.factory(), nullptr, options);

  // A burst against capacity 1: request 0 serves (0 -> 1), request 1
  // takes the only queue slot but expires waiting (deadline 0.5 < 1),
  // and requests 2 and 3 find the queue full and shed at admission.
  std::vector<ForecastRequest> requests;
  requests.push_back(Req(0, 0.0, 100.0, &history));
  requests.push_back(Req(1, 0.1, 0.5, &history));
  requests.push_back(Req(2, 0.2, 100.0, &history));
  requests.push_back(Req(3, 0.3, 100.0, &history));
  auto stats_or = executor.Run(requests);
  ASSERT_TRUE(stats_or.ok());
  ServeSummary summary = Summarize(stats_or.value());
  EXPECT_EQ(summary.served, 1u);
  EXPECT_EQ(summary.rejections.queue_full, 2u);
  EXPECT_EQ(summary.rejections.deadline_expired, 1u);
  EXPECT_EQ(summary.rejections.backend_unavailable, 0u);
  EXPECT_EQ(summary.rejections.cancelled, 0u);
  EXPECT_EQ(summary.rejections.other, 0u);
  EXPECT_EQ(summary.rejections.total(),
            summary.total - summary.served - summary.served_degraded);
}

TEST(ServeSummaryTest, RejectionBreakdownSeesUnavailableBackends) {
  ts::Frame history = History(24);
  FakeSpec spec;
  spec.calls = 1;
  spec.call_seconds = 0.1;
  spec.fail = true;  // every pipeline run dies kUnavailable
  FakeFactory primary(spec);
  ServeExecutor executor(primary.factory(), nullptr, ServeOptions{});
  auto stats_or = executor.Run({Req(0, 0.0, 100.0, &history),
                                Req(1, 0.5, 100.0, &history)});
  ASSERT_TRUE(stats_or.ok());
  ServeSummary summary = Summarize(stats_or.value());
  EXPECT_EQ(summary.failed, 2u);
  EXPECT_EQ(summary.rejections.backend_unavailable, 2u);
  EXPECT_EQ(summary.rejections.total(), 2u);
}

}  // namespace
}  // namespace serve
}  // namespace multicast
