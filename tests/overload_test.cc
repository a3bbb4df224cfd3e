#include "serve/overload.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "forecast/forecaster.h"
#include "serve/executor.h"
#include "serve/request.h"
#include "ts/frame.h"

namespace multicast {
namespace serve {
namespace {

ForecastRequest Req(size_t id, SloClass slo = SloClass::kStandard) {
  ForecastRequest r;
  r.id = id;
  r.slo = slo;
  return r;
}

LadderPolicy DefaultLadder() {
  LadderPolicy l;
  l.enabled = true;
  return l;
}

// ---------------------------------------------------------------------
// Controller mechanics.
// ---------------------------------------------------------------------

TEST(OverloadControllerTest, DisabledControllerIsTransparent) {
  OverloadController controller(OverloadPolicy{}, /*queue_capacity=*/8);
  EXPECT_TRUE(controller.Admit(Req(0), 0.0, 8, 8).ok());
  EXPECT_EQ(controller.Rung(SloClass::kBatch, 0.0, 8),
            ServiceTier::kLlmFull);
  EXPECT_EQ(controller.level(), 0);
  EXPECT_EQ(controller.stats().aimd_rejected, 0u);
  EXPECT_EQ(controller.stats().ladder_rejected, 0u);
}

TEST(OverloadControllerTest, ZeroPressureServesEveryClassAtFullQuality) {
  OverloadPolicy policy;
  policy.ladder = DefaultLadder();
  OverloadController controller(policy, 8);
  // Batch carries a +1 bias, but bias only orders degradation once
  // pressure exists; an idle server degrades nobody.
  EXPECT_EQ(controller.Rung(SloClass::kInteractive, 0.0, 0),
            ServiceTier::kLlmFull);
  EXPECT_EQ(controller.Rung(SloClass::kStandard, 0.1, 0),
            ServiceTier::kLlmFull);
  EXPECT_EQ(controller.Rung(SloClass::kBatch, 0.2, 0),
            ServiceTier::kLlmFull);
  EXPECT_EQ(controller.stats().demoted_reduced, 0u);
  EXPECT_EQ(controller.stats().demoted_classical, 0u);
}

TEST(OverloadControllerTest, QueueDepthEscalatesImmediately) {
  OverloadPolicy policy;
  policy.ladder = DefaultLadder();
  OverloadController controller(policy, /*queue_capacity=*/10);
  // Depth 10/10 = score 1.0 >= enter_reject (0.95): straight to the top
  // level in one observation — escalation is not rate-limited.
  EXPECT_EQ(controller.Rung(SloClass::kStandard, 0.0, 10),
            ServiceTier::kClassical);
  EXPECT_EQ(controller.level(), 3);
  EXPECT_EQ(controller.stats().peak_level, 3);
  EXPECT_EQ(controller.stats().escalations, 1u);
}

TEST(OverloadControllerTest, ClassBiasOrdersDegradationAtMidPressure) {
  OverloadPolicy policy;
  policy.ladder = DefaultLadder();
  OverloadController controller(policy, 10);
  // Depth 6/10 = 0.6 >= enter_reduced (0.5), < enter_classical (0.75):
  // level 1. Interactive bias -1 keeps full quality; standard takes the
  // level as-is; batch bias +1 lands on classical a level early.
  EXPECT_EQ(controller.Rung(SloClass::kInteractive, 0.0, 6),
            ServiceTier::kLlmFull);
  EXPECT_EQ(controller.Rung(SloClass::kStandard, 0.0, 6),
            ServiceTier::kLlmReduced);
  EXPECT_EQ(controller.Rung(SloClass::kBatch, 0.0, 6),
            ServiceTier::kClassical);
  EXPECT_EQ(controller.level(), 1);
}

TEST(OverloadControllerTest, OnlyBatchAtTopLevelIsRejected) {
  OverloadPolicy policy;
  policy.ladder = DefaultLadder();
  OverloadController controller(policy, 10);
  // Level 3: interactive (rung 2) and standard (rung 3, capped) still
  // get the classical tier — the bias never rejects a non-batch class.
  EXPECT_EQ(controller.Rung(SloClass::kInteractive, 0.0, 10),
            ServiceTier::kClassical);
  EXPECT_EQ(controller.Rung(SloClass::kStandard, 0.0, 10),
            ServiceTier::kClassical);
  EXPECT_EQ(controller.Rung(SloClass::kBatch, 0.0, 10),
            ServiceTier::kShed);
  EXPECT_EQ(controller.stats().ladder_rejected, 1u);
  // Admission agrees with dispatch: the same class is refused up front.
  Status admit = controller.Admit(Req(7, SloClass::kBatch), 0.1, 10, 0);
  EXPECT_EQ(admit.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(admit.message().find("level 3"), std::string::npos);
  EXPECT_TRUE(
      controller.Admit(Req(8, SloClass::kInteractive), 0.1, 10, 0).ok());
}

TEST(OverloadControllerTest, MemoryProbeWalksTheLadder) {
  // A pool nearing its cap escalates the ladder even with an empty
  // queue: fullness / memory_budget is one more pressure observable.
  OverloadPolicy policy;
  policy.ladder = DefaultLadder();
  double fullness = 0.0;
  policy.memory_probe = [&fullness]() { return fullness; };
  OverloadController controller(policy, /*queue_capacity=*/10);

  EXPECT_EQ(controller.Rung(SloClass::kStandard, 0.0, 0),
            ServiceTier::kLlmFull);
  // budget 0.9: fullness 0.5 -> score ~0.56 -> level 1 (reduced).
  fullness = 0.5;
  EXPECT_EQ(controller.Rung(SloClass::kStandard, 0.1, 0),
            ServiceTier::kLlmReduced);
  // Saturated pool -> score >= enter_reject -> top level; batch traffic
  // sheds, interactive bottoms out on the classical tier.
  fullness = 1.0;
  EXPECT_EQ(controller.Rung(SloClass::kBatch, 0.2, 0),
            ServiceTier::kShed);
  EXPECT_EQ(controller.Rung(SloClass::kInteractive, 0.3, 0),
            ServiceTier::kClassical);
  Status admit = controller.Admit(Req(1, SloClass::kBatch), 0.4, 0, 0);
  EXPECT_EQ(admit.code(), StatusCode::kResourceExhausted);
}

TEST(OverloadControllerTest, MemoryProbeIgnoredWithoutBudgetOrLadder) {
  // memory_budget <= 0 disables the observable outright.
  OverloadPolicy no_budget;
  no_budget.ladder = DefaultLadder();
  no_budget.ladder.memory_budget = 0.0;
  no_budget.memory_probe = []() { return 1.0; };
  OverloadController a(no_budget, 10);
  EXPECT_EQ(a.Rung(SloClass::kBatch, 0.0, 0), ServiceTier::kLlmFull);

  // And memory pressure sheds only through the ladder: a probe on a
  // ladder-disabled policy never degrades anything.
  OverloadPolicy no_ladder;
  no_ladder.memory_probe = []() { return 1.0; };
  OverloadController b(no_ladder, 10);
  EXPECT_TRUE(b.Admit(Req(2, SloClass::kBatch), 0.0, 0, 0).ok());
  EXPECT_EQ(b.Rung(SloClass::kBatch, 0.0, 0), ServiceTier::kLlmFull);
}

TEST(OverloadControllerTest, RecoveryIsHystereticAndOneStepPerDwell) {
  OverloadPolicy policy;
  policy.ladder = DefaultLadder();
  policy.ladder.recovery_seconds = 2.0;
  OverloadController controller(policy, 10);
  ASSERT_EQ(controller.Rung(SloClass::kStandard, 0.0, 10),
            ServiceTier::kClassical);
  ASSERT_EQ(controller.level(), 3);
  // Pressure vanished, but the dwell has not elapsed: hold the level.
  controller.Rung(SloClass::kStandard, 1.0, 0);
  EXPECT_EQ(controller.level(), 3);
  // After the dwell, recovery is one level per step, not a free fall.
  controller.Rung(SloClass::kStandard, 2.5, 0);
  EXPECT_EQ(controller.level(), 2);
  controller.Rung(SloClass::kStandard, 3.0, 0);
  EXPECT_EQ(controller.level(), 2);  // next dwell not yet served
  controller.Rung(SloClass::kStandard, 4.5, 0);
  EXPECT_EQ(controller.level(), 1);
  controller.Rung(SloClass::kStandard, 6.5, 0);
  EXPECT_EQ(controller.level(), 0);
  EXPECT_EQ(controller.stats().recoveries, 3u);
}

TEST(OverloadControllerTest, SlowQueueWaitsRaiseThePressureScore) {
  OverloadPolicy policy;
  policy.ladder = DefaultLadder();
  policy.ladder.wait_budget_seconds = 1.0;
  OverloadController controller(policy, 100);
  // Depth stays negligible; the p95 queue wait alone carries the score.
  for (int i = 0; i < 20; ++i) {
    controller.OnQueueWait(0.1 * i, /*wait_seconds=*/0.9);
  }
  EXPECT_EQ(controller.Rung(SloClass::kStandard, 2.0, 0),
            ServiceTier::kClassical);  // 0.9/1.0 >= enter_classical
  EXPECT_EQ(controller.level(), 2);
  // The protected class keeps the LLM (one rung up) at the same level.
  EXPECT_EQ(controller.Rung(SloClass::kInteractive, 2.0, 0),
            ServiceTier::kLlmReduced);
}

TEST(OverloadControllerTest, ExternalShedsRaisePressureButOwnRejectsDoNot) {
  OverloadPolicy policy;
  policy.ladder = DefaultLadder();
  policy.aimd.enabled = true;
  policy.aimd.initial_limit = 1.0;
  OverloadController controller(policy, 10);
  // The AIMD limiter refuses plenty of its own admissions...
  for (int i = 0; i < 50; ++i) {
    Status s = controller.Admit(Req(i), 0.01 * i, /*queue_depth=*/1,
                                /*in_flight=*/1);
    EXPECT_EQ(s.code(), StatusCode::kResourceExhausted);
  }
  EXPECT_EQ(controller.stats().aimd_rejected, 50u);
  // ...yet self-made rejections are not pressure: the ladder stays calm.
  EXPECT_EQ(controller.Rung(SloClass::kStandard, 0.6, 0),
            ServiceTier::kLlmFull);
  EXPECT_EQ(controller.level(), 0);
  // External sheds (queue full, in-queue expiry) are the real signal.
  ASSERT_TRUE(controller.Admit(Req(100), 0.7, 0, 0).ok());
  for (int i = 0; i < 10; ++i) controller.OnShed(0.7 + 0.01 * i);
  EXPECT_EQ(controller.Rung(SloClass::kStandard, 0.9, 0),
            ServiceTier::kClassical);
  EXPECT_GE(controller.level(), 2);
}

TEST(OverloadControllerTest, WindowPruningForgetsOldPressure) {
  OverloadPolicy policy;
  policy.ladder = DefaultLadder();
  policy.ladder.window_seconds = 1.0;
  policy.ladder.recovery_seconds = 0.5;
  OverloadController controller(policy, 10);
  ASSERT_TRUE(controller.Admit(Req(0), 0.0, 0, 0).ok());
  for (int i = 0; i < 5; ++i) controller.OnShed(0.1);
  controller.Rung(SloClass::kStandard, 0.2, 0);
  ASSERT_GT(controller.level(), 0);
  const int peak = controller.level();
  // Two windows later the shed burst has aged out; each observation
  // past the dwell peels one level.
  for (int step = 0; step <= 2 * peak; ++step) {
    controller.Rung(SloClass::kStandard, 3.0 + 0.6 * step, 0);
  }
  EXPECT_EQ(controller.level(), 0);
  EXPECT_EQ(controller.stats().recoveries, static_cast<size_t>(peak));
}

TEST(OverloadControllerTest, AimdGrowsOnDeadlineAndHalvesOnMiss) {
  OverloadPolicy policy;
  policy.aimd.enabled = true;
  policy.aimd.initial_limit = 8.0;
  policy.aimd.decrease_cooldown_seconds = 0.5;
  OverloadController controller(policy, 8);
  EXPECT_DOUBLE_EQ(controller.limit(), 8.0);
  controller.OnCompletion(1.0, /*on_deadline=*/true);
  controller.OnCompletion(1.1, true);
  EXPECT_DOUBLE_EQ(controller.limit(), 10.0);  // +1 per good completion
  controller.OnCompletion(1.2, /*on_deadline=*/false);
  EXPECT_DOUBLE_EQ(controller.limit(), 5.0);  // one multiplicative cut
  // A burst of misses inside the cooldown costs one cut, not many.
  controller.OnCompletion(1.3, false);
  controller.OnShed(1.4);
  EXPECT_DOUBLE_EQ(controller.limit(), 5.0);
  controller.OnCompletion(2.0, false);  // cooldown elapsed
  EXPECT_DOUBLE_EQ(controller.limit(), 2.5);
  EXPECT_DOUBLE_EQ(controller.stats().final_limit, 2.5);
}

TEST(OverloadControllerTest, AimdLimitGatesAdmission) {
  OverloadPolicy policy;
  policy.aimd.enabled = true;
  policy.aimd.initial_limit = 2.0;
  OverloadController controller(policy, 8);
  EXPECT_TRUE(controller.Admit(Req(0), 0.0, 0, 1).ok());
  Status s = controller.Admit(Req(1), 0.1, /*queue_depth=*/1,
                              /*in_flight=*/1);
  EXPECT_EQ(s.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(s.message().find("concurrency limit"), std::string::npos);
  EXPECT_EQ(controller.stats().aimd_rejected, 1u);
  // Capacity opens back up once the limit grows.
  controller.OnCompletion(0.2, true);
  EXPECT_TRUE(controller.Admit(Req(2), 0.3, 1, 1).ok());
}

// ---------------------------------------------------------------------
// Executor integration: the ladder driving real dispatch decisions.
// ---------------------------------------------------------------------

ts::Frame History(size_t n) {
  std::vector<double> a;
  for (size_t i = 0; i < n; ++i) {
    a.push_back(10.0 + static_cast<double>(i % 7));
  }
  return ts::Frame::FromSeries({ts::Series(a, "a")}, "hist").ValueOrDie();
}

/// Tier-aware scripted pipeline: "LLM" rungs burn virtual seconds,
/// the classical rung answers instantly — the economics the ladder is
/// built around.
class TierWork final : public forecast::Forecaster {
 public:
  explicit TierWork(ServiceTier tier) : tier_(tier) {}

  std::string name() const override { return "tier-work"; }

  using Forecaster::Forecast;
  Result<forecast::ForecastResult> Forecast(
      const ts::Frame& /*history*/, size_t horizon,
      const RequestContext& ctx) override {
    MC_RETURN_IF_ERROR(ctx.Check(name().c_str()));
    double cost = 0.0;
    if (tier_ == ServiceTier::kLlmFull) cost = 0.5;
    if (tier_ == ServiceTier::kLlmReduced) cost = 0.25;
    if (ctx.clock != nullptr && cost > 0.0) ctx.clock->Advance(cost);
    forecast::ForecastResult result;
    result.forecast =
        ts::Frame::FromSeries(
            {ts::Series(std::vector<double>(horizon, 1.0), "a")}, "f")
            .ValueOrDie();
    if (tier_ == ServiceTier::kClassical) {
      result.tier = forecast::ForecastTier::kClassical;
      result.degraded = true;
      result.warnings.push_back("demoted to the classical tier");
    }
    return result;
  }

 private:
  ServiceTier tier_;
};

ServeOptions LadderedOptions() {
  ServeOptions options;
  options.queue.capacity = 32;
  options.overload.ladder.enabled = true;
  options.overload.ladder.wait_budget_seconds = 1.0;
  options.overload.ladder.window_seconds = 4.0;
  options.overload.ladder.recovery_seconds = 0.5;
  options.overload.ladder.enter_reduced = 0.25;
  options.overload.ladder.enter_classical = 0.5;
  options.overload.aimd.enabled = true;
  options.overload.aimd.initial_limit = 32.0;
  return options;
}

std::vector<ForecastRequest> Burst(size_t n, const ts::Frame* history) {
  std::vector<ForecastRequest> requests;
  for (size_t i = 0; i < n; ++i) {
    ForecastRequest r;
    r.id = i;
    r.arrival_seconds = 0.05 * static_cast<double>(i);
    r.deadline_seconds = r.arrival_seconds + 4.0;
    r.history = history;
    r.horizon = 4;
    r.slo = (i % 3 == 0)   ? SloClass::kInteractive
            : (i % 3 == 1) ? SloClass::kStandard
                           : SloClass::kBatch;
    requests.push_back(r);
  }
  return requests;
}

Result<std::vector<ServeStats>> RunLaddered(
    size_t n, const ts::Frame* history, OverloadStats* overload) {
  auto factory = [](const ForecastRequest& req) {
    return std::make_unique<TierWork>(req.tier);
  };
  ServeExecutor executor(factory, nullptr, LadderedOptions());
  auto result = executor.Run(Burst(n, history));
  if (overload != nullptr) *overload = executor.overload_stats();
  return result;
}

TEST(OverloadIntegrationTest, LadderDemotesUnderSustainedLoad) {
  ts::Frame history = History(24);
  OverloadStats overload;
  auto result = RunLaddered(30, &history, &overload);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ServeSummary summary = Summarize(result.value());
  // One worker at 0.5 s per full-quality request against 20 req/s is
  // 10x overload: the ladder must have demoted work to keep serving.
  EXPECT_GT(overload.demoted_reduced + overload.demoted_classical, 0u);
  EXPECT_GT(overload.escalations, 0u);
  EXPECT_GT(summary.tier_classical + summary.tier_llm_reduced, 0u);
  // The per-tier counters partition the run.
  EXPECT_EQ(summary.tier_llm_full + summary.tier_llm_reduced +
                summary.tier_classical + summary.tier_shed,
            summary.total);
  // Every served classical-tier request is flagged degraded, and the
  // stamped tier matches what the pipeline reports.
  for (const ServeStats& st : result.value()) {
    if (st.tier == ServiceTier::kClassical &&
        st.outcome == RequestOutcome::kServedDegraded) {
      ASSERT_NE(st.result, nullptr);
      EXPECT_EQ(st.result->tier, forecast::ForecastTier::kClassical);
    }
    if (st.outcome == RequestOutcome::kServed ||
        st.outcome == RequestOutcome::kServedDegraded) {
      EXPECT_NE(st.tier, ServiceTier::kShed);
    } else {
      EXPECT_EQ(st.tier, ServiceTier::kShed);
    }
  }
}

TEST(OverloadIntegrationTest, LadderedRunsAreBitDeterministic) {
  ts::Frame history = History(24);
  OverloadStats first_overload;
  OverloadStats second_overload;
  auto first = RunLaddered(30, &history, &first_overload);
  auto second = RunLaddered(30, &history, &second_overload);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  ASSERT_EQ(first.value().size(), second.value().size());
  for (size_t i = 0; i < first.value().size(); ++i) {
    const ServeStats& a = first.value()[i];
    const ServeStats& b = second.value()[i];
    EXPECT_EQ(a.outcome, b.outcome) << "request " << i;
    EXPECT_EQ(a.tier, b.tier) << "request " << i;
    EXPECT_DOUBLE_EQ(a.finish_seconds, b.finish_seconds) << "request " << i;
    EXPECT_DOUBLE_EQ(a.latency_seconds, b.latency_seconds) << "request " << i;
  }
  EXPECT_EQ(first_overload.escalations, second_overload.escalations);
  EXPECT_EQ(first_overload.demoted_reduced, second_overload.demoted_reduced);
  EXPECT_EQ(first_overload.demoted_classical,
            second_overload.demoted_classical);
  EXPECT_DOUBLE_EQ(first_overload.final_limit, second_overload.final_limit);
}

TEST(OverloadIntegrationTest, RetryAfterSurfacesOnQueueFullRejections) {
  ts::Frame history = History(24);
  ServeOptions options;
  options.queue.capacity = 1;  // tiny queue: force queue-full sheds
  auto factory = [](const ForecastRequest&) {
    return std::make_unique<TierWork>(ServiceTier::kLlmFull);
  };
  ServeExecutor executor(factory, nullptr, options);
  auto result = executor.Run(Burst(12, &history));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ServeSummary summary = Summarize(result.value());
  ASSERT_GT(summary.shed_queue_full, 0u);
  size_t with_hint = 0;
  for (const ServeStats& st : result.value()) {
    if (st.outcome == RequestOutcome::kShedQueueFull) {
      EXPECT_GT(st.retry_after_seconds, 0.0) << "request " << st.id;
      ++with_hint;
    } else {
      EXPECT_DOUBLE_EQ(st.retry_after_seconds, 0.0);
    }
  }
  EXPECT_EQ(with_hint, summary.shed_queue_full);
  EXPECT_GT(summary.rejections.mean_retry_after_seconds(), 0.0);
}

}  // namespace
}  // namespace serve
}  // namespace multicast
