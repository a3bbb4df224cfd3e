// Autoregressive constrained generation + token accounting.

#ifndef MULTICAST_LM_GENERATOR_H_
#define MULTICAST_LM_GENERATOR_H_

#include <memory>
#include <string>
#include <vector>

#include "lm/backend.h"
#include "lm/language_model.h"
#include "lm/prefix_cache.h"
#include "lm/profiles.h"
#include "util/random.h"
#include "util/status.h"

namespace multicast {
namespace lm {

/// Rejects an empty prompt or one containing token ids outside the
/// vocabulary. Shared by every decode front-end so the error strings a
/// caller observes are identical whichever path served the call.
Status ValidatePromptTokens(const std::vector<token::TokenId>& prompt,
                            size_t vocab_size);

/// Evaluates the grammar masks a `num_tokens`-step decode will consult:
/// one full cycle for a periodic mask, all `num_tokens` positions for an
/// aperiodic one. Each mask is size-validated against `vocab_size`.
/// Decode loops index the result as `cycle[step % cycle.size()]` (exact
/// for every case: full cycle, cycle truncated by num_tokens, aperiodic).
/// Returns an empty vector when num_tokens is 0.
Result<std::vector<GrammarMask::Shared>> HoistGrammarCycle(
    const GrammarMask& mask, size_t num_tokens, size_t vocab_size);

/// ForcedToken (lm/sampler.h) of every position of a hoisted cycle.
std::vector<token::TokenId> ForcedTokens(
    const std::vector<GrammarMask::Shared>& cycle);

/// A decode session opened for a generation of known length.
struct DecodeSession {
  /// Conditioned on the whole prompt and sized for the generation.
  std::unique_ptr<LanguageModel> model;
  /// The hoisted grammar (HoistGrammarCycle).
  std::vector<GrammarMask::Shared> cycle;
};

/// Opens the session a `num_tokens`-token generation decodes on, as
/// every plain decode front-end does: validates the prompt, hoists the
/// grammar, takes the session from `cache` (a fork of its state for the
/// prompt) or, when `cache` is null, feeds the prompt to a fresh
/// `profile` model, and tells the session how many tokens it will
/// generate (LanguageModel::ReserveDecode). `fingerprint` is
/// ModelFingerprint(profile, vocab_size).
Result<DecodeSession> OpenDecodeSession(
    const ModelProfile& profile, size_t vocab_size, uint64_t fingerprint,
    PrefixCache* cache, const std::vector<token::TokenId>& prompt,
    size_t num_tokens, const GrammarMask& mask);

/// One simulated LLM back-end: a profile plus the decoding loop.
///
/// Each Complete() call behaves like one stateless API call to a hosted
/// model: the prompt is fed to a fresh decoding session (zero-shot — no
/// state leaks between calls) and `num_tokens` constrained tokens are
/// sampled autoregressively. This is the always-healthy leaf of the
/// backend stack; failure modes are layered on by FaultInjectingBackend.
///
/// With a PrefixCache attached, "fresh decoding session" is implemented
/// as a copy-on-write fork of a cached frozen prompt state instead of a
/// full prompt replay — bit-identical output (the zero-shot contract is
/// preserved: forks never see each other's tokens), minus the redundant
/// ingestion work. The cache may be shared across SimulatedLlm instances
/// and threads.
class SimulatedLlm final : public LlmBackend {
 public:
  /// `vocab_size` must match the vocabulary the prompt was encoded with.
  /// `prefix_cache` may be null (every call then replays its prompt) and
  /// is not owned exclusively: any number of backends can share one.
  SimulatedLlm(const ModelProfile& profile, size_t vocab_size,
               std::shared_ptr<PrefixCache> prefix_cache = nullptr);

  std::string name() const override { return profile_.name; }
  size_t vocab_size() const override { return vocab_size_; }

  using LlmBackend::Complete;

  /// Generates `num_tokens` continuation tokens for `prompt`. Never
  /// fails transiently; `call` (the deadline) is ignored here.
  Result<GenerationResult> Complete(const std::vector<token::TokenId>& prompt,
                                    size_t num_tokens, const GrammarMask& mask,
                                    Rng* rng,
                                    const CallOptions& call) override;

  /// Builds the cache entry for `prompt` ahead of time, so subsequent
  /// Complete() calls (from any thread) fork it instead of racing to
  /// build it. No-op without a cache.
  Status WarmPrefix(const std::vector<token::TokenId>& prompt);

  const ModelProfile& profile() const { return profile_; }
  const std::shared_ptr<PrefixCache>& prefix_cache() const { return cache_; }

 private:
  ModelProfile profile_;
  size_t vocab_size_;
  std::shared_ptr<PrefixCache> cache_;
  /// Cache-key namespace; see ModelFingerprint in lm/profiles.h.
  uint64_t fingerprint_ = 0;
};

}  // namespace lm
}  // namespace multicast

#endif  // MULTICAST_LM_GENERATOR_H_
