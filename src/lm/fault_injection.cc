#include "lm/fault_injection.h"

#include <algorithm>

#include "util/strings.h"

namespace multicast {
namespace lm {

FaultProfile FaultProfile::Chaos(double rate, uint64_t seed) {
  FaultProfile p = Transient(rate, seed);
  p.truncation_rate = rate;
  p.corruption_rate = rate;
  return p;
}

FaultProfile FaultProfile::Transient(double rate, uint64_t seed) {
  FaultProfile p;
  p.unavailable_rate = rate;
  p.latency_spike_rate = rate;
  p.rate_limit_rate = rate;
  p.seed = seed;
  return p;
}

FaultInjectingBackend::FaultInjectingBackend(LlmBackend* inner,
                                             const FaultProfile& profile)
    : inner_(inner),
      profile_(profile),
      fault_rng_(profile.seed, /*stream=*/0xFA01) {}

void FaultInjectingBackend::RewindSchedule() {
  fault_rng_ = Rng(profile_.seed, /*stream=*/0xFA01);
  rate_limit_remaining_ = 0;
}

Result<GenerationResult> FaultInjectingBackend::Complete(
    const std::vector<token::TokenId>& prompt, size_t num_tokens,
    const GrammarMask& mask, Rng* rng, const CallOptions& call) {
  ++counts_.calls;

  // All per-call fault decisions are drawn up front in a fixed order so
  // the schedule depends only on the profile seed and the call count,
  // never on which branch an earlier call took.
  const double u_unavailable = fault_rng_.NextDouble();
  const double u_spike = fault_rng_.NextDouble();
  const double u_rate = fault_rng_.NextDouble();
  const double u_truncate = fault_rng_.NextDouble();
  const double u_corrupt = fault_rng_.NextDouble();

  const bool spike = u_spike < profile_.latency_spike_rate;
  last_latency_seconds_ =
      spike ? profile_.spike_latency_seconds : profile_.base_latency_seconds;

  // An in-progress rate-limit burst rejects regardless of the new draws.
  if (rate_limit_remaining_ > 0) {
    --rate_limit_remaining_;
    ++counts_.rate_limited;
    return Status::ResourceExhausted(
        "injected: rate limit burst in progress");
  }

  if (u_unavailable < profile_.unavailable_rate) {
    ++counts_.unavailable;
    return Status::Unavailable("injected: transient backend outage");
  }

  if (call.deadline_seconds > 0.0 &&
      last_latency_seconds_ > call.deadline_seconds) {
    ++counts_.deadline_exceeded;
    return Status::DeadlineExceeded(
        StrFormat("injected: latency %.3fs exceeded deadline %.3fs",
                  last_latency_seconds_, call.deadline_seconds));
  }

  if (u_rate < profile_.rate_limit_rate) {
    rate_limit_remaining_ = std::max(0, profile_.rate_limit_burst - 1);
    ++counts_.rate_limited;
    return Status::ResourceExhausted("injected: rate limit exceeded");
  }

  MC_ASSIGN_OR_RETURN(GenerationResult result,
                      inner_->Complete(prompt, num_tokens, mask, rng, call));

  if (num_tokens > 0 && u_truncate < profile_.truncation_rate) {
    // Keep a uniform fraction in [keep_min, 1) of the reply, >= 1 token.
    double keep_fraction = fault_rng_.NextUniform(
        std::clamp(profile_.truncation_keep_min, 0.0, 1.0), 1.0);
    size_t keep = std::max<size_t>(
        1, static_cast<size_t>(keep_fraction *
                               static_cast<double>(result.tokens.size())));
    if (keep < result.tokens.size()) {
      result.tokens.resize(keep);
      result.ledger.generated_tokens = keep;
      ++counts_.truncated;
    }
  }

  if (num_tokens > 0 && u_corrupt < profile_.corruption_rate) {
    bool flipped = false;
    const uint32_t vocab = static_cast<uint32_t>(inner_->vocab_size());
    for (token::TokenId& id : result.tokens) {
      if (fault_rng_.NextDouble() < profile_.corruption_density) {
        id = static_cast<token::TokenId>(fault_rng_.NextBounded(vocab));
        flipped = true;
      }
    }
    if (flipped) ++counts_.corrupted;
  }

  ++counts_.clean;
  return result;
}

}  // namespace lm
}  // namespace multicast
