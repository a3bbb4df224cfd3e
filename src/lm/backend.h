// The LLM-call boundary: one stateless completion per call.
//
// Everything above this interface (forecasters, imputation, anomaly
// scoring) treats the language model as a remote service that may fail:
// a Complete() call can time out, get rate-limited, return a truncated
// generation, or corrupt tokens in flight. `LlmBackend` is the seam the
// resilience decorators compose over:
//
//   SimulatedLlm            the clean simulated decoder (lm/generator.h)
//   FaultInjectingBackend   deterministic chaos (lm/fault_injection.h)
//   ResilientBackend        retry/backoff + circuit breaker
//                           (lm/resilient_backend.h)
//
// Decorators hold a pointer to the wrapped backend and own no model
// state, so any stack order type-checks; the forecasters build
// SimulatedLlm -> faults -> resilience.

#ifndef MULTICAST_LM_BACKEND_H_
#define MULTICAST_LM_BACKEND_H_

#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "token/vocabulary.h"
#include "util/random.h"
#include "util/status.h"
#include "util/virtual_time.h"

namespace multicast {
namespace lm {

/// Running count of tokens consumed and produced, the unit the paper's
/// cost argument (Sec. II) and the execution-time tables are driven by.
struct TokenLedger {
  size_t prompt_tokens = 0;
  size_t generated_tokens = 0;

  size_t total() const { return prompt_tokens + generated_tokens; }

  TokenLedger& operator+=(const TokenLedger& other) {
    prompt_tokens += other.prompt_tokens;
    generated_tokens += other.generated_tokens;
    return *this;
  }
};

/// Per-position output constraint: yields the allowed-token mask for
/// generation step `step` (0-based). This generalizes LLMTime's "only
/// [0-9,]" restriction to the multiplexers' position grammars.
///
/// Masks are returned as shared immutable vectors so producers can hand
/// out one precomputed mask per grammar position instead of copying a
/// `vector<bool>` on every decode step. A `period()` of p > 0 declares
/// the grammar cyclic — mask(step) == mask(step % p) — which lets
/// decode loops evaluate one cycle up front and never call the mask
/// functor again. period() == 0 means "unknown; query every step"
/// (the behaviour of every pre-existing callable).
class GrammarMask {
 public:
  using Mask = std::vector<bool>;
  using Shared = std::shared_ptr<const Mask>;

  GrammarMask() = default;

  /// From a callable returning a Shared mask; `period` as documented
  /// above (0 = unknown).
  template <typename F,
            std::enable_if_t<
                std::is_invocable_r_v<Shared, F&, size_t> &&
                    !std::is_same_v<std::decay_t<F>, GrammarMask>,
                int> = 0>
  GrammarMask(F fn, size_t period = 0)  // NOLINT(google-explicit-constructor)
      : fn_(std::move(fn)), period_(period) {}

  /// Legacy adapter: a callable returning the mask by value (the old
  /// `std::function<std::vector<bool>(size_t)>` shape). Wrapped into a
  /// per-call shared copy; period is unknown.
  template <typename F,
            std::enable_if_t<
                !std::is_invocable_r_v<Shared, F&, size_t> &&
                    std::is_invocable_r_v<Mask, F&, size_t> &&
                    !std::is_same_v<std::decay_t<F>, GrammarMask>,
                int> = 0>
  GrammarMask(F fn)  // NOLINT(google-explicit-constructor)
      : fn_([f = std::move(fn)](size_t step) mutable {
          return std::make_shared<const Mask>(f(step));
        }) {}

  Shared operator()(size_t step) const { return fn_(step); }
  explicit operator bool() const { return static_cast<bool>(fn_); }
  size_t period() const { return period_; }

 private:
  std::function<Shared(size_t)> fn_;
  size_t period_ = 0;
};

/// A mask allowing every token of a `vocab_size` vocabulary.
GrammarMask AllowAll(size_t vocab_size);

struct GenerationResult {
  std::vector<token::TokenId> tokens;
  TokenLedger ledger;
};

/// Caller-side options for one Complete() call.
struct CallOptions {
  /// Simulated-time budget for this call; a backend whose (simulated)
  /// latency exceeds it answers kDeadlineExceeded. 0 disables the
  /// deadline. The ResilientBackend fills this in per attempt.
  double deadline_seconds = 0.0;
  /// Request-scoped context (absolute deadline + cancellation) threaded
  /// down from the serving layer. A default context never expires, so
  /// standalone pipelines behave exactly as before. The deadline is
  /// interpreted against the resilient layer's clock, which the serving
  /// executor shares with the context.
  RequestContext context;
};

/// One stateless LLM completion service.
///
/// Each Complete() behaves like one API call to a hosted model: no state
/// leaks between calls (zero-shot discipline), and the call can fail
/// with a retryable Status (see IsRetryable) that upper layers handle.
class LlmBackend {
 public:
  virtual ~LlmBackend() = default;

  /// Human-readable backend identity, decorators append their own tag
  /// ("llama2-7b-sim+faults+retry").
  virtual std::string name() const = 0;

  virtual size_t vocab_size() const = 0;

  /// Generates `num_tokens` continuation tokens for `prompt` under the
  /// grammar `mask`, drawing randomness from `rng`.
  virtual Result<GenerationResult> Complete(
      const std::vector<token::TokenId>& prompt, size_t num_tokens,
      const GrammarMask& mask, Rng* rng, const CallOptions& call) = 0;

  /// Simulated latency of the most recent Complete() call, for virtual-
  /// time accounting in decorators. Backends without a latency model
  /// report 0.
  virtual double last_latency_seconds() const { return 0.0; }

  /// Convenience overload: no deadline.
  Result<GenerationResult> Complete(const std::vector<token::TokenId>& prompt,
                                    size_t num_tokens, const GrammarMask& mask,
                                    Rng* rng) {
    return Complete(prompt, num_tokens, mask, rng, CallOptions{});
  }
};

}  // namespace lm
}  // namespace multicast

#endif  // MULTICAST_LM_BACKEND_H_
