#include "lm/generator.h"

#include <algorithm>
#include <memory>
#include <span>
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

DrawTrie::DrawTrie(const ModelProfile& profile, size_t vocab_size,
                   std::vector<token::TokenId> prompt, size_t num_tokens,
                   const GrammarMask& mask)
    : fingerprint_(ModelFingerprint(profile, vocab_size)),
      sampler_(profile.sampler),
      vocab_(vocab_size),
      prompt_(std::move(prompt)) {
  Result<std::vector<GrammarMask::Shared>> cycle =
      HoistGrammarCycle(mask, num_tokens, vocab_size);
  if (cycle.ok()) cycle_ = std::move(cycle).value();
}

bool DrawTrie::Matches(uint64_t fingerprint, const SamplerOptions& sampler,
                       const std::vector<token::TokenId>& prompt,
                       const std::vector<GrammarMask::Shared>& cycle) const {
  if (fingerprint != fingerprint_ || !(sampler == sampler_) ||
      cycle.empty() || cycle.size() != cycle_.size() || prompt != prompt_) {
    return false;
  }
  for (size_t p = 0; p < cycle.size(); ++p) {
    if (cycle[p] != cycle_[p] && *cycle[p] != *cycle_[p]) return false;
  }
  return true;
}

void DrawTrie::Publish(Log* log) {
  MC_CHECK(log->trie_ == this);
  // Where each entry landed: on a node the trie already held (a draw of
  // the same wave published the same prefix first) or on a new one.
  std::vector<int32_t> landed(log->entries_.size());
  for (size_t j = 0; j < log->entries_.size(); ++j) {
    const Log::Entry& entry = log->entries_[j];
    const int32_t parent =
        entry.parent < kNone ? landed[static_cast<size_t>(-2 - entry.parent)]
                             : entry.parent;
    int32_t* link = parent == kNone
                        ? nullptr
                        : &children_[static_cast<size_t>(parent) * vocab_ +
                                     static_cast<size_t>(entry.edge)];
    int32_t node = link != nullptr ? *link : (size() > 0 ? 0 : kNone);
    if (node == kNone) {
      node = static_cast<int32_t>(size());
      if (link != nullptr) *link = node;
      weights_.insert(weights_.end(), log->weights_.begin() + j * vocab_,
                      log->weights_.begin() + (j + 1) * vocab_);
      children_.resize(children_.size() + vocab_, kNone);
      greedy_.push_back(entry.greedy);
    }
    landed[j] = node;
  }
  log->entries_.clear();
  log->weights_.clear();
}

DecodeLane::DecodeLane(DecodeSession session, size_t num_tokens,
                       const SamplerOptions& sampler, DrawTrie::Log* draws,
                       uint64_t fingerprint,
                       const std::vector<token::TokenId>& prompt)
    : model_(std::move(session.model)),
      cycle_(std::move(session.cycle)),
      sampler_(sampler),
      num_tokens_(num_tokens) {
  forced_.reserve(cycle_.size());
  for (const GrammarMask::Shared& allowed : cycle_) {
    forced_.push_back(ForcedToken(*allowed));
  }
  if (draws == nullptr || draws->trie_ == nullptr ||
      !draws->trie_->Matches(fingerprint, sampler, prompt, cycle_)) {
    model_->ReserveDecode(num_tokens);
    return;
  }
  log_ = draws;
  trie_ = draws->trie_;
  node_ = trie_->size() > 0 ? 0 : DrawTrie::kNone;
  deferring_ = true;
}

Result<token::TokenId> DecodeLane::Next(Rng* rng,
                                        std::vector<double>* probs) {
  const size_t pos = step_ % cycle_.size();
  token::TokenId next = forced_[pos];
  if (next != kNotForced) {
    // SampleToken's draw over weights with one nonzero entry: a single
    // NextDouble that always lands on it. (Its greedy test, negated.)
    if (!IsGreedy(sampler_)) rng->NextDouble();
  } else if (node_ != DrawTrie::kNone) {
    next = DrawShared(rng);
  } else {
    if (deferring_) {
      // The first fresh model step: size the session for the
      // generation and ingest the tokens kept back, once. Into a
      // prefix-cache fork this is the bulk build, the same counts as an
      // Observe per token.
      model_->ReserveDecode(num_tokens_);
      model_->ObserveAll(deferred_);
      deferring_ = false;
    }
    model_->NextDistribution(probs);
    MC_ASSIGN_OR_RETURN(next, DrawFresh(*probs, *cycle_[pos], rng));
  }
  // Sampled tokens become context, exactly as in KV-cached decoding;
  // while the lane is still on tokens an earlier draw decoded they are
  // kept back.
  if (deferring_) {
    deferred_.push_back(next);
  } else {
    model_->Observe(next);
  }
  ++step_;
  return next;
}

token::TokenId DecodeLane::DrawShared(Rng* rng) {
  const size_t at = static_cast<size_t>(node_) * trie_->vocab_;
  token::TokenId next = trie_->greedy_[static_cast<size_t>(node_)];
  if (next == kNotForced) {
    next = static_cast<token::TokenId>(rng->SampleDiscrete(
        std::span(trie_->weights_).subspan(at, trie_->vocab_)));
  }
  parent_ = node_;
  edge_ = next;
  node_ = trie_->children_[at + static_cast<size_t>(next)];
  return next;
}

Result<token::TokenId> DecodeLane::DrawFresh(const std::vector<double>& probs,
                                             const std::vector<bool>& allowed,
                                             Rng* rng) {
  token::TokenId greedy = kNotForced;
  if (IsGreedy(sampler_)) {
    MC_ASSIGN_OR_RETURN(greedy, GreedyToken(probs, allowed));
    weights_.assign(probs.size(), 0.0);
  } else {
    MC_RETURN_IF_ERROR(SamplerWeights(probs, allowed, sampler_, &weights_));
  }
  const token::TokenId next =
      greedy != kNotForced
          ? greedy
          : static_cast<token::TokenId>(rng->SampleDiscrete(weights_));
  if (log_ != nullptr) {
    log_->entries_.push_back(DrawTrie::Log::Entry{parent_, edge_, greedy});
    log_->weights_.insert(log_->weights_.end(), weights_.begin(),
                          weights_.end());
    parent_ = DrawTrie::Logged(log_->entries_.size() - 1);
    edge_ = next;
  }
  return next;
}

Result<DecodeLane> OpenDecodeLane(const ModelProfile& profile,
                                  size_t vocab_size, uint64_t fingerprint,
                                  PrefixCache* cache,
                                  const std::vector<token::TokenId>& prompt,
                                  size_t num_tokens, const GrammarMask& mask,
                                  DrawTrie::Log* draws) {
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
  return DecodeLane(std::move(session), num_tokens, profile.sampler, draws,
                    fingerprint, prompt);
}

SimulatedLlm::SimulatedLlm(const ModelProfile& profile, size_t vocab_size,
                           std::shared_ptr<PrefixCache> prefix_cache,
                           DrawTrie::Log* draws)
    : profile_(profile),
      vocab_size_(vocab_size),
      cache_(std::move(prefix_cache)),
      draws_(draws),
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
  MC_ASSIGN_OR_RETURN(DecodeLane lane,
                      OpenDecodeLane(profile_, vocab_size_, fingerprint_,
                                     cache_.get(), prompt, num_tokens, mask,
                                     draws_));
  GenerationResult result;
  // The logical prompt size, cached or not: the ledger counts what the
  // call conditioned on, so resilience/serving accounting is identical
  // with the cache on or off. Replay savings live in PrefixCacheStats.
  result.ledger.prompt_tokens = prompt.size();
  result.tokens.reserve(num_tokens);
  std::vector<double> probs;
  for (size_t step = 0; step < num_tokens; ++step) {
    MC_ASSIGN_OR_RETURN(token::TokenId next, lane.Next(rng, &probs));
    result.tokens.push_back(next);
    ++result.ledger.generated_tokens;
  }
  return result;
}

}  // namespace lm
}  // namespace multicast
