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
  return session;
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

// One Complete call's way through a DrawTrie (see the class comment).
// Given no Log, or the Log of a trie made for another call, it is inert:
// every model step is fresh and every token is observed at once, which
// is the plain decode loop. The session learns the generation's length
// (ReserveDecode) at its first fresh model step, so a draw that stays on
// the trie never sizes an overlay it does not write.
class DrawTrie::Walk {
 public:
  Walk(Log* log, uint64_t fingerprint, const SamplerOptions& sampler,
       const std::vector<token::TokenId>& prompt,
       const std::vector<GrammarMask::Shared>& cycle,
       NGramLanguageModel* model, size_t num_tokens)
      : num_tokens_(num_tokens) {
    if (log == nullptr || log->trie_ == nullptr ||
        !log->trie_->Matches(fingerprint, sampler, prompt, cycle)) {
      model->ReserveDecode(num_tokens);
      return;
    }
    log_ = log;
    trie_ = log->trie_;
    node_ = trie_->size() > 0 ? 0 : kNone;
    deferring_ = true;
  }

  /// The next model step's node is published.
  bool shared() const { return node_ != kNone; }

  /// Draws the next model step from its published node and moves to the
  /// node after the drawn token, off the trie when none is published.
  token::TokenId DrawShared(Rng* rng) {
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

  /// Samples a model step the trie does not hold from the model's
  /// distribution `probs`, as SampleToken does, logging the node. An
  /// error logs nothing.
  Result<token::TokenId> DrawFresh(const std::vector<double>& probs,
                                   const std::vector<bool>& allowed,
                                   const SamplerOptions& options, Rng* rng) {
    token::TokenId greedy = kNotForced;
    if (IsGreedy(options)) {
      MC_ASSIGN_OR_RETURN(greedy, GreedyToken(probs, allowed));
      weights_.assign(probs.size(), 0.0);
    } else {
      MC_RETURN_IF_ERROR(SamplerWeights(probs, allowed, options, &weights_));
    }
    const token::TokenId next =
        greedy != kNotForced
            ? greedy
            : static_cast<token::TokenId>(rng->SampleDiscrete(weights_));
    if (log_ != nullptr) {
      log_->entries_.push_back(Log::Entry{parent_, edge_, greedy});
      log_->weights_.insert(log_->weights_.end(), weights_.begin(),
                            weights_.end());
      parent_ = Logged(log_->entries_.size() - 1);
      edge_ = next;
    }
    return next;
  }

  /// Hands `id` to the model, or keeps it back while the draw is still
  /// on tokens an earlier draw decoded.
  void Observe(token::TokenId id, NGramLanguageModel* model) {
    if (deferring_) {
      deferred_.push_back(id);
    } else {
      model->Observe(id);
    }
  }

  /// Sizes the session for the generation and ingests the tokens kept
  /// back, once, before the first fresh model step: into a prefix-cache
  /// fork this is the bulk build, the same counts as an Observe per
  /// token.
  void Resume(NGramLanguageModel* model) {
    if (!deferring_) return;
    model->ReserveDecode(num_tokens_);
    model->ObserveAll(deferred_);
    deferring_ = false;
  }

 private:
  Log* log_ = nullptr;
  const DrawTrie* trie_ = nullptr;
  /// The published node of the next model step, or kNone.
  int32_t node_ = kNone;
  /// Where the next logged node attaches: its parent and the token
  /// drawn there.
  int32_t parent_ = kNone;
  token::TokenId edge_ = 0;
  size_t num_tokens_ = 0;
  bool deferring_ = false;
  std::vector<token::TokenId> deferred_;
  std::vector<double> weights_;
};

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

  // A model step that an earlier draw over the same trie published is
  // one draw from the node's weights; without a trie, every step
  // decodes.
  DrawTrie::Walk walk(draws_, fingerprint_, profile_.sampler, prompt,
                      session.cycle, &model, num_tokens);
  std::vector<double> probs;
  for (size_t step = 0; step < num_tokens; ++step) {
    const size_t pos = step % session.cycle.size();
    const std::vector<bool>& allowed = *session.cycle[pos];
    token::TokenId next;
    if (forced[pos] != kNotForced) {
      MC_ASSIGN_OR_RETURN(next, SampleNextToken(model, allowed, forced[pos],
                                                profile_.sampler, rng, &probs));
    } else if (walk.shared()) {
      next = walk.DrawShared(rng);
    } else {
      walk.Resume(&model);
      model.NextDistribution(&probs);
      MC_ASSIGN_OR_RETURN(
          next, walk.DrawFresh(probs, allowed, profile_.sampler, rng));
    }
    result.tokens.push_back(next);
    // Sampled tokens become context, exactly as in KV-cached decoding.
    walk.Observe(next, &model);
    ++result.ledger.generated_tokens;
  }
  return result;
}

}  // namespace lm
}  // namespace multicast
