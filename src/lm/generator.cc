#include "lm/generator.h"

#include <algorithm>
#include <bit>
#include <limits>
#include <memory>
#include <span>
#include <utility>

#include "lm/paged_store.h"
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
                   std::shared_ptr<const std::vector<token::TokenId>> prompt,
                   size_t num_tokens, const GrammarMask& mask,
                   size_t budget_bytes)
    : fingerprint_(ModelFingerprint(profile, vocab_size)),
      sampler_(profile.sampler),
      vocab_(vocab_size),
      prompt_(std::move(prompt)) {
  Result<std::vector<GrammarMask::Shared>> cycle =
      HoistGrammarCycle(mask, num_tokens, vocab_size);
  if (cycle.ok()) cycle_ = std::move(cycle).value();
  admitted_begin_.push_back(0);
  size_t most = 0;
  for (const GrammarMask::Shared& allowed : cycle_) {
    const size_t begin = admitted_.size();
    if (ForcedToken(*allowed) == kNotForced) {
      for (size_t t = 0; t < vocab_; ++t) {
        if ((*allowed)[t]) {
          admitted_.push_back(static_cast<token::TokenId>(t));
        }
      }
    }
    most = std::max(most, admitted_.size() - begin);
    admitted_begin_.push_back(static_cast<uint32_t>(admitted_.size()));
  }
  sums_per_node_ = IsGreedy(sampler_) ? 0 : most;
  const size_t node_bytes = sizeof(Node) + sums_per_node_ * sizeof(double);
  const auto most_ids =
      static_cast<size_t>(std::numeric_limits<int32_t>::max());
  max_nodes_ = budget_bytes == 0
                   ? most_ids
                   : std::min(most_ids, budget_bytes / node_bytes);
}

DrawTrie::DrawTrie(const ModelProfile& profile, size_t vocab_size,
                   std::vector<token::TokenId> prompt, size_t num_tokens,
                   const GrammarMask& mask, size_t budget_bytes)
    : DrawTrie(profile, vocab_size,
               std::make_shared<const std::vector<token::TokenId>>(
                   std::move(prompt)),
               num_tokens, mask, budget_bytes) {}

bool DrawTrie::Matches(uint64_t fingerprint, const SamplerOptions& sampler,
                       const std::vector<token::TokenId>& prompt,
                       const std::vector<GrammarMask::Shared>& cycle) const {
  if (fingerprint != fingerprint_ || !(sampler == sampler_) ||
      cycle.empty() || cycle.size() != cycle_.size() ||
      (&prompt != prompt_.get() && prompt != *prompt_)) {
    return false;
  }
  for (size_t p = 0; p < cycle.size(); ++p) {
    if (cycle[p] != cycle_[p] && *cycle[p] != *cycle_[p]) return false;
  }
  return true;
}

DrawTrie::Slot DrawTrie::Locate(size_t id) const {
  // Segment s holds nodes [F(2^s - 1), F(2^(s+1) - 1)) for
  // F = kFirstSegment.
  const size_t s =
      static_cast<size_t>(std::bit_width(id / kFirstSegment + 1)) - 1;
  return {s, id - kFirstSegment * ((size_t{1} << s) - 1)};
}

DrawTrie::Node& DrawTrie::At(int32_t id) const {
  const Slot slot = Locate(static_cast<size_t>(id));
  return segments_[slot.segment].nodes[slot.offset];
}

double* DrawTrie::SumsOf(int32_t id) const {
  const Slot slot = Locate(static_cast<size_t>(id));
  return segments_[slot.segment].sums.get() + slot.offset * sums_per_node_;
}

int32_t DrawTrie::Child(int32_t id, token::TokenId token) const {
  for (int32_t c = At(id).first_child.load(std::memory_order_acquire);
       c != kNone; c = At(c).next_sibling.load(std::memory_order_acquire)) {
    if (At(c).edge == token) return c;
  }
  return kNone;
}

int32_t DrawTrie::AddLocked(int32_t parent, const Log::Entry& entry,
                            const double* sums) {
  const size_t i = static_cast<size_t>(size_.load(std::memory_order_relaxed));
  if (i >= max_nodes_) return kNone;
  const Slot slot = Locate(i);
  Segment& segment = segments_[slot.segment];
  if (segment.nodes == nullptr) {
    // Sized to what the budget leaves, so a bounded trie never holds
    // room for nodes it cannot add.
    segment.capacity = std::min(kFirstSegment << slot.segment,
                                max_nodes_ - (i - slot.offset));
    segment.nodes = std::make_unique<Node[]>(segment.capacity);
    if (sums_per_node_ > 0) {
      // Every sum a lane reads is written before its node is linked.
      segment.sums = std::make_unique_for_overwrite<double[]>(
          segment.capacity * sums_per_node_);
    }
  }
  const int32_t id = static_cast<int32_t>(i);
  Node& node = At(id);
  node.edge = entry.edge;
  node.greedy = entry.greedy;
  std::copy(sums, sums + entry.count, SumsOf(id));
  if (parent == kNone) {
    // The root: reachable once the count says so.
    size_.store(id + 1, std::memory_order_release);
    return id;
  }
  // Prepend to the parent's children. The node is complete before the
  // release store that links it, and a reader that sees the old head
  // walks the list without it.
  std::atomic<int32_t>& head = At(parent).first_child;
  node.next_sibling.store(head.load(std::memory_order_relaxed),
                          std::memory_order_relaxed);
  head.store(id, std::memory_order_release);
  size_.store(id + 1, std::memory_order_release);
  return id;
}

void DrawTrie::Publish(Log* log) {
  MC_CHECK(log->trie_ == this);
  std::lock_guard<std::mutex> lock(mu_);
  shared_steps_.fetch_add(log->shared_steps_, std::memory_order_relaxed);
  // Where each entry landed: on a node the trie already held (another
  // draw published the same prefix first), on a new one, or nowhere
  // (kNone, the budget spent), and then its descendants go nowhere too.
  std::vector<int32_t> landed(log->entries_.size(), kNone);
  for (size_t j = 0; j < log->entries_.size(); ++j) {
    const Log::Entry& entry = log->entries_[j];
    const double* sums = log->sums_.data() + entry.sums;
    int32_t node = kNone;
    if (entry.parent == kNone) {
      node = size() > 0 ? 0 : AddLocked(kNone, entry, sums);
    } else {
      const int32_t parent =
          entry.parent < kNone
              ? landed[static_cast<size_t>(-2 - entry.parent)]
              : entry.parent;
      if (parent == kNone) continue;  // under a node the budget dropped
      node = Child(parent, entry.edge);
      if (node == kNone) node = AddLocked(parent, entry, sums);
    }
    landed[j] = node;
  }
  log->entries_.clear();
  log->sums_.clear();
  log->shared_steps_ = 0;
}

size_t DrawTrie::bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t total =
      sizeof(*this) +
      ApproxChunkBytes(admitted_.capacity() * sizeof(token::TokenId)) +
      ApproxChunkBytes(admitted_begin_.capacity() * sizeof(uint32_t)) +
      ApproxChunkBytes(cycle_.capacity() * sizeof(GrammarMask::Shared));
  for (const Segment& segment : segments_) {
    if (segment.nodes == nullptr) break;
    total += ApproxChunkBytes(segment.capacity * sizeof(Node));
    if (segment.sums != nullptr) {
      total += ApproxChunkBytes(segment.capacity * sums_per_node_ *
                                sizeof(double));
    }
  }
  return total;
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
    next = DrawShared(pos, rng);
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
    MC_ASSIGN_OR_RETURN(next, DrawFresh(*probs, pos, rng));
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

token::TokenId DecodeLane::DrawShared(size_t pos, Rng* rng) {
  token::TokenId next = trie_->At(node_).greedy;
  if (next == kNotForced) {
    // The node keeps SampleDiscrete's running sums at the admitted
    // tokens only; its fallback, past the last sum, is the last token
    // of the vocabulary.
    const std::span<const token::TokenId> admitted = trie_->Admitted(pos);
    const size_t i = static_cast<size_t>(rng->SampleCdf(
        std::span(trie_->SumsOf(node_), admitted.size())));
    next = i < admitted.size()
               ? admitted[i]
               : static_cast<token::TokenId>(trie_->vocab_ - 1);
  }
  ++log_->shared_steps_;
  parent_ = node_;
  edge_ = next;
  node_ = trie_->Child(node_, next);
  return next;
}

Result<token::TokenId> DecodeLane::DrawFresh(const std::vector<double>& probs,
                                             size_t pos, Rng* rng) {
  const std::vector<bool>& allowed = *cycle_[pos];
  token::TokenId greedy = kNotForced;
  if (IsGreedy(sampler_)) {
    MC_ASSIGN_OR_RETURN(greedy, GreedyToken(probs, allowed));
  } else {
    MC_RETURN_IF_ERROR(SamplerWeights(probs, allowed, sampler_, &weights_));
  }
  const token::TokenId next =
      greedy != kNotForced
          ? greedy
          : static_cast<token::TokenId>(rng->SampleDiscrete(weights_));
  if (log_ != nullptr && trie_->full()) {
    // The budget is spent, and stays spent: log nothing more.
    log_ = nullptr;
  }
  if (log_ != nullptr) {
    const std::span<const token::TokenId> admitted =
        greedy != kNotForced ? std::span<const token::TokenId>()
                             : trie_->Admitted(pos);
    log_->entries_.push_back(DrawTrie::Log::Entry{
        parent_, edge_, greedy, static_cast<uint32_t>(log_->sums_.size()),
        static_cast<uint32_t>(admitted.size())});
    // SampleDiscrete's running sums: the same additions in the same
    // order, skipping only the zero weights of tokens the grammar bars.
    double acc = 0.0;
    for (token::TokenId t : admitted) {
      acc += weights_[static_cast<size_t>(t)];
      log_->sums_.push_back(acc);
    }
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
