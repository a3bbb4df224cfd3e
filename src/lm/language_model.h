// Autoregressive language-model interface.
//
// This is the substrate that stands in for the paper's LLaMA2 / Phi-2
// back-ends (see DESIGN.md, "Reproduction gates"). The interface mirrors
// how a decoder-only LLM is actually driven: feed the prompt token ids
// (ObserveAll, the prefill), then alternate NextDistribution -> sample
// -> Observe for each generated token. Implementations are *zero-shot* in
// the paper's sense: they carry no weights trained on the evaluation
// horizon; all conditioning comes from the observed context.
//
// Freeze()/Fork() are the simulated analogue of KV/prefix caching: a
// model that has observed a prompt can be frozen into an immutable,
// shareable base state, and each decode session forks a cheap
// copy-on-write overlay on top of it. A fork fed the same tokens as a
// fresh model produces bit-identical distributions — caching removes
// redundant prompt replay, never changes output (see lm/prefix_cache.h).

#ifndef MULTICAST_LM_LANGUAGE_MODEL_H_
#define MULTICAST_LM_LANGUAGE_MODEL_H_

#include <memory>
#include <span>
#include <unordered_set>
#include <vector>

#include "token/vocabulary.h"

namespace multicast {
namespace lm {

/// Estimated resident bytes of one model, split the way the paged
/// memory accounting needs it: `overlay_bytes` is state private to this
/// session; `base_bytes` is the frozen base it conditions on, which may
/// be shared with any number of other sessions by refcount.
struct MemoryFootprint {
  size_t overlay_bytes = 0;
  size_t base_bytes = 0;
  size_t total() const { return overlay_bytes + base_bytes; }
};

/// Deduplicating byte tally: shared frozen layers/stores are counted
/// once no matter how many models (e.g. PrefixCache entries and their
/// forks) reference them. `seen` holds the identity of each shared
/// object already counted.
struct MemoryTally {
  size_t bytes = 0;
  std::unordered_set<const void*> seen;
};

/// A stateful decoding session over a fixed vocabulary.
class LanguageModel {
 public:
  virtual ~LanguageModel() = default;

  /// Clears all context (start of a fresh prompt). On a frozen model
  /// this also drops the frozen base: the model becomes empty & mutable.
  virtual void Reset() = 0;

  /// Consumes one token of context (prompt or previously sampled
  /// output). Calling Observe on a frozen model is a programming error.
  virtual void Observe(token::TokenId id) = 0;

  /// Consumes a whole token sequence: the same state, and so the same
  /// output, as calling Observe on each token in order. Implementations
  /// may build it in bulk; the default loops Observe.
  virtual void ObserveAll(std::span<const token::TokenId> ids) {
    for (token::TokenId id : ids) Observe(id);
  }

  /// Probability of each vocabulary token following the observed context.
  /// The returned vector has vocab_size() entries summing to 1.
  virtual std::vector<double> NextDistribution() const = 0;

  /// In-place variant: writes the distribution into `*out` (resized to
  /// vocab_size()), letting decode loops reuse one buffer across steps
  /// instead of allocating per token. Bit-identical to the allocating
  /// overload. The default adapter funnels through it.
  virtual void NextDistribution(std::vector<double>* out) const {
    *out = NextDistribution();
  }

  /// Tells a mutable session, once, as it opens for generation, that it
  /// will sample and observe `num_tokens` more tokens, so that it can
  /// size its private state for them up front instead of growing it
  /// step by step. A sizing hint only: output never depends on it, and
  /// a session that outgrows the hint still grows. Default: no-op.
  virtual void ReserveDecode(size_t num_tokens) { (void)num_tokens; }

  virtual size_t vocab_size() const = 0;

  /// Number of tokens observed since the last Reset().
  virtual size_t context_length() const = 0;

  /// True when this implementation supports Freeze()/Fork(). Models
  /// that do not are simply never cached by a PrefixCache.
  virtual bool SupportsFork() const { return false; }

  /// Makes the current state immutable and shareable: all accumulated
  /// context becomes a frozen base that any number of Fork() sessions
  /// (and threads) may read concurrently. Idempotent. Observe() after
  /// Freeze() is a checked error; Reset() un-freezes into an empty
  /// model.
  virtual void Freeze() {}

  virtual bool frozen() const { return false; }

  /// Returns a new mutable decode session layered copy-on-write over
  /// this model's frozen state: the fork starts with exactly this
  /// model's context and records only what it observes itself. Requires
  /// Freeze() first. Null when SupportsFork() is false.
  virtual std::unique_ptr<LanguageModel> Fork() const { return nullptr; }

  /// Estimated resident bytes (see MemoryFootprint). Models that do not
  /// track memory report zeroes.
  virtual MemoryFootprint ApproxMemoryBytes() const { return {}; }

  /// Adds this model's resident bytes into `tally`, counting shared
  /// frozen state only once across all models tallied into the same
  /// MemoryTally (the PrefixCache's true-resident-bytes accounting).
  virtual void TallyMemory(MemoryTally* tally) const { (void)tally; }
};

}  // namespace lm
}  // namespace multicast

#endif  // MULTICAST_LM_LANGUAGE_MODEL_H_
