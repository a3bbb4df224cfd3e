// Shared by the decode-loop differential tests (generator_test,
// batch_scheduler_test): the plain decode loop as it reads without any
// shortcut — NextDistribution and SampleToken at every step, grammar-
// forced positions included — plus the grammars, sampler settings and
// back-ends those tests sweep.

#ifndef MULTICAST_TESTS_DECODE_REFERENCE_H_
#define MULTICAST_TESTS_DECODE_REFERENCE_H_

#include <memory>
#include <string>
#include <vector>

#include "lm/backend.h"
#include "lm/paged_store.h"
#include "lm/profiles.h"
#include "lm/sampler.h"
#include "token/vocabulary.h"
#include "util/random.h"

namespace multicast {
namespace decode_reference {

/// Tokens a decode produced and the next output of its RNG afterwards,
/// which pins how many draws the loop took.
struct Decoded {
  std::vector<token::TokenId> tokens;
  uint32_t rng_next = 0;
};

inline Decoded ReferenceDecode(const lm::ModelProfile& profile, size_t vocab,
                               const std::vector<token::TokenId>& prompt,
                               size_t num_tokens, const lm::GrammarMask& mask,
                               uint64_t seed) {
  std::unique_ptr<lm::NGramLanguageModel> model =
      lm::NewDecoderModel(profile, vocab);
  for (token::TokenId id : prompt) model->Observe(id);
  Rng rng(seed);
  Decoded out;
  for (size_t step = 0; step < num_tokens; ++step) {
    const std::vector<double> probs = model->NextDistribution();
    const token::TokenId next =
        lm::SampleToken(probs, *mask(step), profile.sampler, &rng)
            .ValueOrDie();
    out.tokens.push_back(next);
    model->Observe(next);
  }
  out.rng_next = rng.NextUint32();
  return out;
}

/// The digit vocabulary: ids 0-9 are the digits, 10 the comma.
inline constexpr size_t kVocab = 11;
inline constexpr token::TokenId kComma = 10;

struct NamedMask {
  std::string name;
  lm::GrammarMask mask;
};

/// Masks with grammar-forced positions, the way the pipelines build
/// them: MultiCast's digit stream (two dimensions of three digits, then
/// the forced comma), a SAX stream (one symbol of a five-letter
/// alphabet, then the comma: every other token forced), and an
/// aperiodic grammar that also forces a digit.
inline std::vector<NamedMask> ForcedMasks() {
  auto position = [](bool comma, size_t digits) {
    std::vector<bool> allowed(kVocab, false);
    for (size_t d = 0; d < digits && !comma; ++d) allowed[d] = true;
    allowed[kComma] = comma;
    return std::make_shared<const std::vector<bool>>(std::move(allowed));
  };
  std::vector<NamedMask> masks;
  std::vector<lm::GrammarMask::Shared> multicast;
  for (size_t p = 0; p < 7; ++p) multicast.push_back(position(p == 6, 10));
  masks.push_back({"multicast", lm::GrammarMask(
                                    [multicast](size_t step) {
                                      return multicast[step % 7];
                                    },
                                    /*period=*/7)});
  std::vector<lm::GrammarMask::Shared> sax = {position(false, 5),
                                              position(true, 0)};
  masks.push_back({"sax", lm::GrammarMask(
                              [sax](size_t step) { return sax[step % 2]; },
                              /*period=*/2)});
  auto seven = std::make_shared<const std::vector<bool>>([] {
    std::vector<bool> allowed(kVocab, false);
    allowed[7] = true;
    return allowed;
  }());
  auto digits = position(false, 10);
  auto comma = position(true, 0);
  masks.push_back({"aperiodic", lm::GrammarMask([=](size_t step) {
                     if (step % 5 == 0) return seven;
                     return step % 4 == 3 ? comma : digits;
                   })});
  return masks;
}

struct NamedSampler {
  std::string name;
  lm::SamplerOptions options;
};

inline std::vector<NamedSampler> Samplers() {
  std::vector<NamedSampler> out;
  lm::SamplerOptions greedy;
  greedy.temperature = 0.0;
  out.push_back({"greedy", greedy});
  lm::SamplerOptions cool;
  cool.temperature = 0.45;
  out.push_back({"t0.45", cool});
  lm::SamplerOptions hot;
  hot.temperature = 1.1;
  out.push_back({"t1.1", hot});
  lm::SamplerOptions top;
  top.temperature = 0.9;
  top.top_k = 3;
  top.top_p = 0.8;
  out.push_back({"topk3_topp0.8", top});
  lm::SamplerOptions biased;
  biased.temperature = 0.9;
  biased.logit_bias_slope = 0.7;
  out.push_back({"bias0.7", biased});
  return out;
}

struct NamedProfile {
  std::string name;
  lm::ModelProfile profile;
};

/// The n-gram back-end on a private pool and on a caller's pool.
inline std::vector<NamedProfile> Profiles() {
  lm::ModelProfile paged = lm::ModelProfile::Llama2_7B();
  paged.memory_pool =
      std::make_shared<lm::BlockPool>(lm::PagedMemoryOptions{});
  return {{"ngram", lm::ModelProfile::Llama2_7B()}, {"ngram_paged", paged}};
}

/// A serialized-digit prompt: `values` comma-terminated three-digit
/// values of a noisy cycle.
inline std::vector<token::TokenId> DigitPrompt(size_t values) {
  std::vector<token::TokenId> prompt;
  Rng rng(17);
  for (size_t i = 0; i < values; ++i) {
    const uint32_t v = 100 + (i % 9) * 90 + rng.NextBounded(20);
    prompt.push_back(static_cast<token::TokenId>(v / 100 % 10));
    prompt.push_back(static_cast<token::TokenId>(v / 10 % 10));
    prompt.push_back(static_cast<token::TokenId>(v % 10));
    prompt.push_back(kComma);
  }
  return prompt;
}

}  // namespace decode_reference
}  // namespace multicast

#endif  // MULTICAST_TESTS_DECODE_REFERENCE_H_
