#include "lm/generator.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "lm/sampler.h"
#include "util/strings.h"

namespace multicast {
namespace lm {

GrammarMask AllowAll(size_t vocab_size) {
  // One shared immutable mask, handed out by reference on every step —
  // never copied per invocation. Period 1: the grammar is constant.
  auto mask = std::make_shared<const std::vector<bool>>(vocab_size, true);
  return GrammarMask([mask](size_t) { return mask; }, /*period=*/1);
}

Status ValidatePromptTokens(const std::vector<token::TokenId>& prompt,
                            size_t vocab_size) {
  if (prompt.empty()) {
    return Status::InvalidArgument("empty prompt");
  }
  for (token::TokenId id : prompt) {
    if (id < 0 || static_cast<size_t>(id) >= vocab_size) {
      return Status::InvalidArgument(
          StrFormat("prompt token id %d outside vocabulary of size %zu", id,
                    vocab_size));
    }
  }
  return Status::OK();
}

Result<std::vector<GrammarMask::Shared>> HoistGrammarCycle(
    const GrammarMask& mask, size_t num_tokens, size_t vocab_size) {
  const size_t period = mask.period();
  const size_t count =
      period > 0 ? std::min(period, num_tokens) : num_tokens;
  std::vector<GrammarMask::Shared> cycle;
  cycle.reserve(count);
  for (size_t p = 0; p < count; ++p) {
    cycle.push_back(mask(p));
    if (cycle.back()->size() != vocab_size) {
      return Status::InvalidArgument(
          StrFormat("grammar mask has %zu entries for vocabulary of %zu",
                    cycle.back()->size(), vocab_size));
    }
  }
  return cycle;
}

std::vector<token::TokenId> ForcedTokens(
    const std::vector<GrammarMask::Shared>& cycle) {
  std::vector<token::TokenId> forced;
  forced.reserve(cycle.size());
  for (const GrammarMask::Shared& allowed : cycle) {
    forced.push_back(ForcedToken(*allowed));
  }
  return forced;
}

Result<DecodeSession> OpenDecodeSession(
    const ModelProfile& profile, size_t vocab_size, uint64_t fingerprint,
    PrefixCache* cache, const std::vector<token::TokenId>& prompt,
    size_t num_tokens, const GrammarMask& mask) {
  MC_RETURN_IF_ERROR(ValidatePromptTokens(prompt, vocab_size));
  DecodeSession session;
  // Hoist the grammar: a periodic mask is evaluated once per cycle
  // position up front instead of once per generated token; an aperiodic
  // mask is evaluated for every position it will be consulted at. The
  // masks are pure, so eager evaluation is observably identical.
  MC_ASSIGN_OR_RETURN(session.cycle,
                      HoistGrammarCycle(mask, num_tokens, vocab_size));
  if (cache != nullptr) {
    session.model = cache->AcquireSession(fingerprint, prompt, [&] {
      return NewDecoderModel(profile, vocab_size);
    });
  } else {
    session.model = NewDecoderModel(profile, vocab_size);
    session.model->ObserveAll(prompt);
  }
  session.model->ReserveDecode(num_tokens);
  return session;
}

SimulatedLlm::SimulatedLlm(const ModelProfile& profile, size_t vocab_size,
                           std::shared_ptr<PrefixCache> prefix_cache)
    : profile_(profile),
      vocab_size_(vocab_size),
      cache_(std::move(prefix_cache)),
      fingerprint_(ModelFingerprint(profile_, vocab_size_)) {}

Status SimulatedLlm::WarmPrefix(const std::vector<token::TokenId>& prompt) {
  if (cache_ == nullptr) return Status::OK();
  MC_RETURN_IF_ERROR(ValidatePromptTokens(prompt, vocab_size_));
  cache_->Warm(fingerprint_, prompt,
               [this] { return NewDecoderModel(profile_, vocab_size_); });
  return Status::OK();
}

Result<GenerationResult> SimulatedLlm::Complete(
    const std::vector<token::TokenId>& prompt, size_t num_tokens,
    const GrammarMask& mask, Rng* rng, const CallOptions& call) {
  (void)call;  // the clean simulated decoder never misses a deadline
  MC_ASSIGN_OR_RETURN(DecodeSession session,
                      OpenDecodeSession(profile_, vocab_size_, fingerprint_,
                                        cache_.get(), prompt, num_tokens,
                                        mask));
  NGramLanguageModel& model = *session.model;
  const std::vector<token::TokenId> forced = ForcedTokens(session.cycle);

  GenerationResult result;
  // The logical prompt size, cached or not: the ledger counts what the
  // call conditioned on, so resilience/serving accounting is identical
  // with the cache on or off. Replay savings live in PrefixCacheStats.
  result.ledger.prompt_tokens = prompt.size();
  result.tokens.reserve(num_tokens);

  std::vector<double> probs;
  for (size_t step = 0; step < num_tokens; ++step) {
    const size_t pos = step % session.cycle.size();
    MC_ASSIGN_OR_RETURN(token::TokenId next,
                        SampleNextToken(model, *session.cycle[pos], forced[pos],
                                        profile_.sampler, rng, &probs));
    result.tokens.push_back(next);
    // Sampled tokens become context, exactly as in KV-cached decoding.
    model.Observe(next);
    ++result.ledger.generated_tokens;
  }
  return result;
}

}  // namespace lm
}  // namespace multicast
