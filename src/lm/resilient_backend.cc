#include "lm/resilient_backend.h"

#include <algorithm>

#include "util/strings.h"

namespace multicast {
namespace lm {

const char* CircuitStateName(CircuitState state) {
  switch (state) {
    case CircuitState::kClosed:
      return "closed";
    case CircuitState::kOpen:
      return "open";
    case CircuitState::kHalfOpen:
      return "half-open";
  }
  return "?";
}

void PublishRetryStats(const RetryStats& stats,
                       util::MetricsRegistry* registry,
                       const std::string& prefix) {
  registry->GetCounter(prefix + "calls")
      ->Add(static_cast<double>(stats.calls));
  registry->GetCounter(prefix + "attempts")
      ->Add(static_cast<double>(stats.attempts));
  registry->GetCounter(prefix + "retries")
      ->Add(static_cast<double>(stats.retries));
  registry->GetCounter(prefix + "successes")
      ->Add(static_cast<double>(stats.successes));
  registry->GetCounter(prefix + "failures")
      ->Add(static_cast<double>(stats.failures));
  registry->GetCounter(prefix + "retryable_errors")
      ->Add(static_cast<double>(stats.retryable_errors));
  registry->GetCounter(prefix + "terminal_errors")
      ->Add(static_cast<double>(stats.terminal_errors));
  registry->GetCounter(prefix + "circuit_rejections")
      ->Add(static_cast<double>(stats.circuit_rejections));
  registry->GetCounter(prefix + "budget_exhausted")
      ->Add(static_cast<double>(stats.budget_exhausted));
  registry->GetCounter(prefix + "cancelled_calls")
      ->Add(static_cast<double>(stats.cancelled_calls));
  registry->GetCounter(prefix + "deadline_preempted")
      ->Add(static_cast<double>(stats.deadline_preempted));
  registry->GetCounter(prefix + "backoff_seconds")->Add(stats.backoff_seconds);
  registry->GetCounter(prefix + "latency_seconds")->Add(stats.latency_seconds);
}

RetryStats& RetryStats::operator+=(const RetryStats& other) {
  calls += other.calls;
  attempts += other.attempts;
  retries += other.retries;
  successes += other.successes;
  failures += other.failures;
  retryable_errors += other.retryable_errors;
  terminal_errors += other.terminal_errors;
  circuit_rejections += other.circuit_rejections;
  budget_exhausted += other.budget_exhausted;
  cancelled_calls += other.cancelled_calls;
  deadline_preempted += other.deadline_preempted;
  backoff_seconds += other.backoff_seconds;
  latency_seconds += other.latency_seconds;
  return *this;
}

ResilientBackend::ResilientBackend(LlmBackend* inner,
                                   const RetryPolicy& retry,
                                   const CircuitBreakerPolicy& breaker,
                                   VirtualClock* clock)
    : inner_(inner),
      retry_(retry),
      breaker_(breaker),
      jitter_rng_(retry.seed, /*stream=*/0xBAC0FF),
      clock_(clock != nullptr ? clock : &own_clock_) {}

void ResilientBackend::AdvanceClock(double seconds) {
  clock_->Advance(seconds);
}

void ResilientBackend::OnFailure() {
  ++consecutive_failures_;
  if (!breaker_.enabled) return;
  if (state_ == CircuitState::kHalfOpen) {
    // A failed probe re-opens the breaker for another cooldown.
    state_ = CircuitState::kOpen;
    open_until_seconds_ = clock_->now() + breaker_.cooldown_seconds;
  } else if (state_ == CircuitState::kClosed &&
             consecutive_failures_ >= breaker_.failure_threshold) {
    state_ = CircuitState::kOpen;
    open_until_seconds_ = clock_->now() + breaker_.cooldown_seconds;
  }
}

void ResilientBackend::OnSuccess() {
  consecutive_failures_ = 0;
  if (state_ == CircuitState::kHalfOpen) {
    if (++half_open_successes_ >= breaker_.half_open_successes) {
      state_ = CircuitState::kClosed;
    }
  }
}

Result<GenerationResult> ResilientBackend::Complete(
    const std::vector<token::TokenId>& prompt, size_t num_tokens,
    const GrammarMask& mask, Rng* rng, const CallOptions& call) {
  ++stats_.calls;
  const RequestContext& ctx = call.context;
  const double call_start = clock_->now();
  const int max_attempts = std::max(1, retry_.max_attempts);
  double next_backoff = retry_.initial_backoff_seconds;
  Status last = Status::Unavailable("no attempt was made");

  // A request that is already cancelled or past its deadline fails
  // without contacting the backend (and without touching the breaker —
  // the backend did nothing wrong).
  if (ctx.cancelled()) {
    ++stats_.cancelled_calls;
    ++stats_.failures;
    return Status::Cancelled(
        "request cancelled before the first attempt (" + ctx.cancel.reason() +
        ")");
  }
  if (ctx.deadline.ExpiredAt(clock_->now())) {
    ++stats_.deadline_preempted;
    ++stats_.failures;
    return Status::DeadlineExceeded(StrFormat(
        "request deadline %.3fs already passed at call entry (now %.3fs)",
        ctx.deadline.at_seconds, clock_->now()));
  }

  for (int attempt = 1; attempt <= max_attempts; ++attempt) {
    // Cancellation can race the half-open probe: it is checked before
    // any breaker transition, so an open breaker stays open and the
    // probe is never issued on behalf of a dead request.
    if (ctx.cancelled()) {
      ++stats_.cancelled_calls;
      ++stats_.failures;
      return Status::Cancelled(StrFormat(
          "request cancelled before attempt %d (%s)", attempt,
          ctx.cancel.reason().c_str()));
    }
    if (breaker_.enabled && state_ == CircuitState::kOpen) {
      if (clock_->now() < open_until_seconds_) {
        ++stats_.circuit_rejections;
        ++stats_.failures;
        return Status::Unavailable(StrFormat(
            "circuit breaker open for another %.3fs (after %d consecutive "
            "failures); call rejected without contacting backend",
            open_until_seconds_ - clock_->now(), consecutive_failures_));
      }
      // Cooldown elapsed: let a probe attempt through.
      state_ = CircuitState::kHalfOpen;
      half_open_successes_ = 0;
    }

    ++stats_.attempts;
    CallOptions attempt_call = call;
    if (attempt_call.deadline_seconds <= 0.0) {
      attempt_call.deadline_seconds = retry_.attempt_deadline_seconds;
    }
    // The attempt never gets more budget than the request has left, so a
    // latency spike near the deadline surfaces as kDeadlineExceeded
    // instead of silently overshooting it.
    if (!ctx.deadline.never()) {
      double remaining = ctx.deadline.RemainingAt(clock_->now());
      if (remaining <= 0.0) {
        ++stats_.deadline_preempted;
        ++stats_.failures;
        return Status::DeadlineExceeded(StrFormat(
            "request deadline %.3fs passed before attempt %d",
            ctx.deadline.at_seconds, attempt));
      }
      attempt_call.deadline_seconds =
          std::min(attempt_call.deadline_seconds, remaining);
    }
    Result<GenerationResult> result =
        inner_->Complete(prompt, num_tokens, mask, rng, attempt_call);
    double latency = inner_->last_latency_seconds();
    if (latency > 0.0 && attempt_call.deadline_seconds > 0.0) {
      // A deadline miss only costs the deadline, not the full spike.
      latency = std::min(latency, attempt_call.deadline_seconds);
    }
    clock_->Advance(latency);
    stats_.latency_seconds += latency;

    if (result.ok()) {
      OnSuccess();
      ++stats_.successes;
      return result;
    }

    last = result.status();
    if (last.code() == StatusCode::kCancelled) {
      // The inner layer observed the cancellation first; terminal, and
      // not the backend's fault, so the breaker is left alone.
      ++stats_.cancelled_calls;
      ++stats_.failures;
      return last;
    }
    if (!IsRetryable(last.code())) {
      ++stats_.terminal_errors;
      OnFailure();
      ++stats_.failures;
      return last;
    }
    ++stats_.retryable_errors;
    OnFailure();
    if (attempt == max_attempts) break;
    if (breaker_.enabled && state_ == CircuitState::kOpen) continue;

    double wait = std::min(next_backoff, retry_.max_backoff_seconds);
    if (retry_.jitter_fraction > 0.0) {
      wait *= jitter_rng_.NextUniform(1.0 - retry_.jitter_fraction,
                                      1.0 + retry_.jitter_fraction);
    }
    if (retry_.total_budget_seconds > 0.0 &&
        (clock_->now() - call_start) + wait > retry_.total_budget_seconds) {
      ++stats_.budget_exhausted;
      ++stats_.failures;
      return Status::DeadlineExceeded(StrFormat(
          "retry budget %.3fs exhausted after %d attempts; last error: %s",
          retry_.total_budget_seconds, attempt, last.ToString().c_str()));
    }
    // Never sleep past the request deadline: a wait that would overshoot
    // it fails now, with the clock still on the near side.
    if (!ctx.deadline.never() &&
        clock_->now() + wait > ctx.deadline.at_seconds) {
      ++stats_.deadline_preempted;
      ++stats_.failures;
      return Status::DeadlineExceeded(StrFormat(
          "request deadline %.3fs would pass during the %.3fs backoff "
          "after attempt %d; last error: %s",
          ctx.deadline.at_seconds, wait, attempt, last.ToString().c_str()));
    }
    clock_->Advance(wait);
    stats_.backoff_seconds += wait;
    ++stats_.retries;
    next_backoff *= retry_.backoff_multiplier;
  }

  ++stats_.failures;
  return Status(last.code(),
                StrFormat("all %d attempts failed; last error: %s",
                          max_attempts, last.ToString().c_str()));
}

}  // namespace lm
}  // namespace multicast
