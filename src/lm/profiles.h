// Simulated back-end model profiles.
//
// The paper evaluates MultiCast over two frozen back-ends: LLaMA2-7B and
// Phi-2 (2.7B), finding LLaMA2 roughly 2x more accurate (Table III).
// With real weights unavailable, a profile bundles the knobs that make
// one simulated decoder a stronger or weaker pattern model than another:
// context order, backoff flatness, noise floor, and decode temperature.

#ifndef MULTICAST_LM_PROFILES_H_
#define MULTICAST_LM_PROFILES_H_

#include <cstdint>
#include <memory>
#include <string>

#include "lm/ngram_model.h"
#include "lm/paged_store.h"
#include "lm/sampler.h"

namespace multicast {
namespace lm {

/// Everything needed to instantiate one simulated LLM back-end.
struct ModelProfile {
  std::string name;
  NGramOptions ngram;
  SamplerOptions sampler;

  /// Optional block pool shared by every model this profile constructs
  /// (see lm/paged_store.h): their layers draw blocks from it and their
  /// sessions' bytes are accounted in it. Null gives each model a
  /// private unbounded pool. Storage-only — model output is
  /// bit-identical with or without it, so it is excluded from
  /// ModelFingerprint (like the sampler).
  std::shared_ptr<BlockPool> memory_pool;

  /// Stand-in for LLaMA2-7B: long context order, sharp backoff, low
  /// noise, moderate temperature — a strong pattern completer.
  static ModelProfile Llama2_7B();

  /// Stand-in for Phi-2 (2.7B): short order, flattened backoff, higher
  /// noise and temperature — reproduces the ~2x RMSE gap of Table III.
  static ModelProfile Phi2();
};

/// Stable 64-bit fingerprint of the *decode-state semantics* of a
/// profile over a vocabulary: two (profile, vocab_size) pairs with equal
/// fingerprints build interchangeable model states for the same prompt.
/// Sampler settings are deliberately excluded — they shape token
/// *selection*, not the conditioning state a PrefixCache shares. Used as
/// the cache-key namespace so caches shared across forecasters (serving,
/// LLMTime dimensions) never mix states from different profiles.
uint64_t ModelFingerprint(const ModelProfile& profile, size_t vocab_size);

/// Fresh empty decode session for `profile` over a `vocab_size`
/// vocabulary. The single construction point every decode front-end
/// (SimulatedLlm, the batch scheduler's session intake) goes through.
std::unique_ptr<NGramLanguageModel> NewDecoderModel(
    const ModelProfile& profile, size_t vocab_size);

}  // namespace lm
}  // namespace multicast

#endif  // MULTICAST_LM_PROFILES_H_
