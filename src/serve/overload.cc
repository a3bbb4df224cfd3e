#include "serve/overload.h"

#include <algorithm>
#include <vector>

#include "util/quantile.h"
#include "util/strings.h"

namespace multicast {
namespace serve {

void PublishOverloadStats(const OverloadStats& stats,
                          util::MetricsRegistry* registry,
                          const std::string& prefix) {
  registry->GetCounter(prefix + "aimd_rejected")
      ->Add(static_cast<double>(stats.aimd_rejected));
  registry->GetCounter(prefix + "ladder_rejected")
      ->Add(static_cast<double>(stats.ladder_rejected));
  registry->GetCounter(prefix + "demoted_reduced")
      ->Add(static_cast<double>(stats.demoted_reduced));
  registry->GetCounter(prefix + "demoted_classical")
      ->Add(static_cast<double>(stats.demoted_classical));
  registry->GetCounter(prefix + "escalations")
      ->Add(static_cast<double>(stats.escalations));
  registry->GetCounter(prefix + "recoveries")
      ->Add(static_cast<double>(stats.recoveries));
  registry->GetGauge(prefix + "peak_level")
      ->SetMax(static_cast<double>(stats.peak_level));
  registry->GetGauge(prefix + "final_limit")->SetMax(stats.final_limit);
}

OverloadController::OverloadController(const OverloadPolicy& policy,
                                       size_t queue_capacity)
    : policy_(policy),
      queue_capacity_(std::max<size_t>(1, queue_capacity)),
      limit_(policy.aimd.initial_limit) {
  stats_.final_limit = limit_;
}

double OverloadController::Score(size_t queue_depth) const {
  const LadderPolicy& l = policy_.ladder;
  double score = static_cast<double>(queue_depth) /
                 static_cast<double>(queue_capacity_);
  if (!waits_.empty() && l.wait_budget_seconds > 0.0) {
    std::vector<double> waits;
    waits.reserve(waits_.size());
    for (const auto& w : waits_) waits.push_back(w.second);
    std::sort(waits.begin(), waits.end());
    // Shared nearest-rank estimator — the same p95 the serve summary
    // reports, so the ladder and the report can never disagree on one
    // window (they used to: this file computed the exact integer rank
    // while the summary's floating-point ceil overshot at n = 20, 40...).
    const double p95 = util::NearestRankQuantileSorted(waits, 0.95);
    score = std::max(score, p95 / l.wait_budget_seconds);
  }
  const size_t offered = admits_.size() + sheds_.size();
  if (offered > 0 && l.shed_budget > 0.0) {
    const double shed_fraction =
        static_cast<double>(sheds_.size()) / static_cast<double>(offered);
    score = std::max(score, shed_fraction / l.shed_budget);
  }
  if (policy_.memory_probe && l.memory_budget > 0.0) {
    score = std::max(score, policy_.memory_probe() / l.memory_budget);
  }
  return score;
}

double OverloadController::EnterThreshold(int level) const {
  switch (level) {
    case 1:
      return policy_.ladder.enter_reduced;
    case 2:
      return policy_.ladder.enter_classical;
    default:
      return policy_.ladder.enter_reject;
  }
}

void OverloadController::Prune(double now) {
  const double horizon = now - policy_.ladder.window_seconds;
  while (!waits_.empty() && waits_.front().first < horizon) {
    waits_.pop_front();
  }
  while (!admits_.empty() && admits_.front() < horizon) {
    admits_.pop_front();
  }
  while (!sheds_.empty() && sheds_.front() < horizon) sheds_.pop_front();
}

void OverloadController::UpdateLevel(double now, size_t queue_depth) {
  Prune(now);
  const double score = Score(queue_depth);
  int target = 0;
  for (int l = 1; l <= 3; ++l) {
    if (score >= EnterThreshold(l)) target = l;
  }
  if (target > level_) {
    // Escalation is immediate: overload is an emergency.
    level_ = target;
    last_level_change_ = now;
    ++stats_.escalations;
    stats_.peak_level = std::max(stats_.peak_level, level_);
  } else if (level_ > 0 &&
             score < EnterThreshold(level_) - policy_.ladder.hysteresis_gap &&
             now - last_level_change_ >= policy_.ladder.recovery_seconds) {
    // Recovery is gradual: one rung per dwell period, and only once the
    // score has dropped clear of the boundary.
    --level_;
    last_level_change_ = now;
    ++stats_.recoveries;
  }
}

ServiceTier OverloadController::TierAtRung(int rung) {
  switch (std::clamp(rung, 0, 3)) {
    case 0:
      return ServiceTier::kLlmFull;
    case 1:
      return ServiceTier::kLlmReduced;
    case 2:
      return ServiceTier::kClassical;
    default:
      return ServiceTier::kShed;
  }
}

ServiceTier OverloadController::TierFor(SloClass slo) const {
  // Zero pressure serves every class at full quality; the bias only
  // orders who degrades first (and recovers last) once pressure exists.
  if (level_ == 0) return ServiceTier::kLlmFull;
  const int rung = level_ + ClassBias(slo);
  // The bias accelerates demotion but never pushes a class into the
  // reject rung: rejection requires the biased rung to land *past*
  // classical at the ladder's top level — in practice, batch traffic at
  // level 3. Everyone else bottoms out on the classical tier, which
  // still answers; insolvency beyond that is the queue's and the AIMD
  // limiter's to refuse.
  if (rung >= 4) return ServiceTier::kShed;
  return TierAtRung(std::min(rung, 2));
}

int OverloadController::ClassBias(SloClass slo) {
  switch (slo) {
    case SloClass::kInteractive:
      return -1;  // protected: degrades one level late
    case SloClass::kStandard:
      return 0;
    case SloClass::kBatch:
      return 1;  // expendable: degrades one level early
  }
  return 0;
}

void OverloadController::RecordShedEvent(double now) {
  sheds_.push_back(now);
}

void OverloadController::AimdShrink(double now) {
  if (!policy_.aimd.enabled) return;
  if (last_shrink_ >= 0.0 &&
      now - last_shrink_ < policy_.aimd.decrease_cooldown_seconds) {
    return;
  }
  limit_ = std::max(policy_.aimd.min_limit,
                    limit_ * policy_.aimd.multiplicative_decrease);
  last_shrink_ = now;
  stats_.final_limit = limit_;
}

Status OverloadController::Admit(const ForecastRequest& request, double now,
                                 size_t queue_depth, size_t in_flight) {
  if (!policy_.any_enabled()) return Status::OK();
  UpdateLevel(now, queue_depth);
  // The controller's own rejections never feed the shed observable —
  // pressure it manufactures itself would hold the ladder escalated
  // forever (the same feedback trap AIMD avoids by not shrinking on its
  // own rejects). Only external sheds (queue full, in-queue expiry)
  // count as pressure.
  if (policy_.aimd.enabled &&
      static_cast<double>(queue_depth + in_flight) >= limit_) {
    ++stats_.aimd_rejected;
    return Status::ResourceExhausted(StrFormat(
        "request %zu shed: adaptive concurrency limit %.1f reached "
        "(%zu queued + %zu in flight)",
        request.id, limit_, queue_depth, in_flight));
  }
  if (policy_.ladder.enabled &&
      TierFor(request.slo) == ServiceTier::kShed) {
    ++stats_.ladder_rejected;
    return Status::ResourceExhausted(StrFormat(
        "request %zu shed: overload ladder at level %d rejects class %s",
        request.id, level_, SloClassName(request.slo)));
  }
  admits_.push_back(now);
  return Status::OK();
}

ServiceTier OverloadController::Rung(SloClass slo, double now,
                                    size_t queue_depth) {
  if (!policy_.ladder.enabled) return ServiceTier::kLlmFull;
  UpdateLevel(now, queue_depth);
  const ServiceTier tier = TierFor(slo);
  switch (tier) {
    case ServiceTier::kLlmReduced:
      ++stats_.demoted_reduced;
      break;
    case ServiceTier::kClassical:
      ++stats_.demoted_classical;
      break;
    case ServiceTier::kShed:
      // The ladder escalated past this class's last serving rung while
      // the request waited; the caller sheds it at dispatch. Not a shed
      // *event* for the pressure window — see Admit.
      ++stats_.ladder_rejected;
      break;
    case ServiceTier::kLlmFull:
      break;
  }
  return tier;
}

void OverloadController::OnQueueWait(double now, double wait_seconds) {
  if (!policy_.any_enabled()) return;
  Prune(now);
  waits_.emplace_back(now, wait_seconds);
}

void OverloadController::OnCompletion(double now, bool on_deadline) {
  if (!policy_.aimd.enabled) return;
  if (on_deadline) {
    limit_ = std::min(policy_.aimd.max_limit,
                      limit_ + policy_.aimd.additive_increase);
    stats_.final_limit = limit_;
  } else {
    AimdShrink(now);
  }
}

void OverloadController::OnShed(double now) {
  if (!policy_.any_enabled()) return;
  Prune(now);
  RecordShedEvent(now);
  AimdShrink(now);
}

}  // namespace serve
}  // namespace multicast
