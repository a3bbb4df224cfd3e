#include "lm/profiles.h"

#include <cstring>
#include <memory>

namespace multicast {
namespace lm {

namespace {
constexpr uint64_t kFnvPrime = 1099511628211ULL;

uint64_t Fold(uint64_t hash, uint64_t value) {
  return (hash ^ value) * kFnvPrime;
}

uint64_t FoldDouble(uint64_t hash, double value) {
  uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(value), "double must be 64-bit");
  std::memcpy(&bits, &value, sizeof(bits));
  return Fold(hash, bits);
}
}  // namespace

std::unique_ptr<NGramLanguageModel> NewDecoderModel(
    const ModelProfile& profile, size_t vocab_size) {
  return std::make_unique<NGramLanguageModel>(vocab_size, profile.ngram,
                                              profile.memory_pool);
}

uint64_t ModelFingerprint(const ModelProfile& profile, size_t vocab_size) {
  uint64_t h = 14695981039346656037ULL;
  h = Fold(h, static_cast<uint64_t>(vocab_size));
  h = Fold(h, static_cast<uint64_t>(profile.ngram.max_order));
  h = FoldDouble(h, profile.ngram.backoff_boost);
  h = FoldDouble(h, profile.ngram.uniform_mix);
  return h;
}

ModelProfile ModelProfile::Llama2_7B() {
  ModelProfile p;
  p.name = "llama2-7b-sim";
  // Long context and sharp decoding: an n-gram's conditional is flatter
  // than a 7B transformer's, so a lower temperature calibrates it to
  // the confident digit-by-digit decoding LLMTime reports.
  p.ngram.max_order = 8;
  p.ngram.backoff_boost = 0.0;
  p.ngram.uniform_mix = 1e-4;
  p.sampler.temperature = 0.45;
  p.sampler.top_k = 0;
  return p;
}

ModelProfile ModelProfile::Phi2() {
  ModelProfile p;
  p.name = "phi2-sim";
  // Order 1: the model sees only the immediately preceding token, so it
  // cannot carry the series *level* across a timestamp boundary — "it
  // seems to not properly detect the patterns in the series" (Sec.
  // IV-B). Combined with a mild systematic digit skew (the consistent
  // y-axis shift of Fig. 2b), this reproduces the ~2x RMSE gap of
  // Table III.
  p.ngram.max_order = 1;
  p.ngram.backoff_boost = 1.0;
  p.ngram.uniform_mix = 0.02;
  p.sampler.temperature = 1.1;
  p.sampler.top_k = 0;
  p.sampler.logit_bias_slope = 0.8;
  return p;
}

}  // namespace lm
}  // namespace multicast
