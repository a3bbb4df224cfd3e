// Autoregressive constrained generation + token accounting.

#ifndef MULTICAST_LM_GENERATOR_H_
#define MULTICAST_LM_GENERATOR_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "lm/backend.h"
#include "lm/prefix_cache.h"
#include "lm/profiles.h"
#include "lm/sampler.h"
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

/// A decode session opened for a generation of known length.
struct DecodeSession {
  /// Conditioned on the whole prompt.
  std::unique_ptr<NGramLanguageModel> model;
  /// The hoisted grammar (HoistGrammarCycle).
  std::vector<GrammarMask::Shared> cycle;
};

/// Byte budget of the draw trie a prefix-cache entry keeps for its
/// prompt (DESIGN.md §5m, "Cross-request draw tries"): 213 nodes of a
/// VI forecast, whose model steps each admit the ten digits.
inline constexpr size_t kCacheDrawTrieBytes = 20 * 1024;

/// What the draws over one prompt decoded, keyed by generated prefix
/// (DESIGN.md §5m, "Shared-prefix draw decoding").
///
/// A draw's model state is a function of the prompt and of the tokens
/// it has generated, so two draws that have generated the same prefix
/// compute bit-identical NextDistributions and sampler weights. A node
/// is one model step (a position the grammar does not force) reached by
/// one prefix. It holds the running sums Rng::SampleDiscrete forms over
/// that step's final sampler weights (after temperature, logit bias,
/// top-k and top-p), kept only at the tokens the step's grammar position
/// admits, or its token when the sampler is greedy; its children, keyed
/// by the token drawn there, hang off first-child/next-sibling links.
/// Forced positions need no node: the grammar fixes their tokens, so the
/// tokens drawn at model steps spell the whole prefix.
///
/// A DecodeLane handed the trie walks it: while its prefix is one the
/// trie holds, a model step costs only its own RNG draw and a walk of
/// the node's sums (Rng::SampleCdf: no NextDistribution, no pow, no
/// Observe), and the tokens walked are kept back. At its first unseen
/// node the lane ingests them with one ObserveAll, then decodes as
/// usual, adding each model step it computes to the trie as it goes.
/// The lane is the decode step of both drivers, SimulatedLlm and the
/// batch scheduler, so the draws share the trie on either.
///
/// A forecast owns a trie of its own, or walks the one its prompt's
/// entry in a caller's prefix cache keeps (PrefixCache::DrawTrieFor), so
/// that every request for the prompt shares it. Lanes add nodes under a
/// lock and walk the trie without one: node storage is allocated in
/// segments that never move, a node's sums, edge and token are written
/// before the release store of the link (or, for the root, of the node
/// count) that makes it reachable, and links only ever go from kNone to
/// a node or from one child list head to a longer list. Past its byte
/// budget the trie stops growing; lanes that leave it then decode fresh
/// and add nothing. A lane whose profile, vocabulary, sampler, prompt or
/// grammar differ from the trie's decodes without it.
class DrawTrie {
 public:
  /// A trie for generations of `profile` over a `vocab_size` vocabulary
  /// after `prompt`, constrained by `mask` over their first `num_tokens`
  /// tokens. `budget_bytes` caps its node storage (0: unbounded).
  DrawTrie(const ModelProfile& profile, size_t vocab_size,
           std::shared_ptr<const std::vector<token::TokenId>> prompt,
           size_t num_tokens, const GrammarMask& mask,
           size_t budget_bytes = 0);

  /// Nodes: model steps whose weights the next draw can reuse.
  size_t size() const {
    return static_cast<size_t>(size_.load(std::memory_order_acquire));
  }
  /// Model steps lanes drew from the trie's nodes, each lane's counted
  /// when it lets the trie go (DecodeLane).
  size_t shared_steps() const {
    return shared_steps_.load(std::memory_order_relaxed);
  }
  /// Whether the budget holds no further node.
  bool full() const { return size() >= max_nodes_; }
  /// Bytes the trie holds: node segments plus its own tables. Takes the
  /// trie's lock, so it is safe while lanes add nodes.
  size_t bytes() const;

 private:
  friend class DecodeLane;

  static constexpr int32_t kNone = -1;
  /// Nodes in the first storage segment; segment s holds twice as many
  /// as segment s - 1, and the last one only what the budget leaves.
  static constexpr size_t kFirstSegment = 32;
  static constexpr size_t kSegments = 26;

  struct Node {
    std::atomic<int32_t> first_child{kNone};
    std::atomic<int32_t> next_sibling{kNone};
    /// The token drawn at the parent that leads here.
    token::TokenId edge = 0;
    /// The greedy sampler's token, kNotForced when sampling.
    token::TokenId greedy = kNotForced;
  };
  struct Segment {
    std::unique_ptr<Node[]> nodes;
    /// sums_per_node_ running sums per node.
    std::unique_ptr<double[]> sums;
    size_t capacity = 0;
  };

  /// Whether a lane over `prompt` with session grammar `cycle` on a
  /// back-end of `fingerprint` and `sampler` may use this trie.
  bool Matches(uint64_t fingerprint, const SamplerOptions& sampler,
               const std::vector<token::TokenId>& prompt,
               const std::vector<GrammarMask::Shared>& cycle) const;

  /// The tokens cycle position `pos` admits, in id order; empty where
  /// the grammar forces a token.
  std::span<const token::TokenId> Admitted(size_t pos) const {
    return std::span(admitted_).subspan(
        admitted_begin_[pos], admitted_begin_[pos + 1] - admitted_begin_[pos]);
  }
  struct Slot {
    size_t segment;
    size_t offset;
  };
  Slot Locate(size_t id) const;
  /// Node `id`'s storage and its running sums: lanes read them, and
  /// AddLocked writes a node's before linking it.
  Node& At(int32_t id) const;
  double* SumsOf(int32_t id) const;
  /// The node reached by drawing `token` at node `parent`, or the root
  /// when `parent` is kNone; kNone when the trie holds none.
  int32_t Child(int32_t parent, token::TokenId token) const;
  /// The node of the model step at cycle position `pos` reached by
  /// drawing `edge` at `parent` (kNone: the root): the one the trie
  /// holds, or a new one holding `greedy` or the running sums of
  /// `weights` at the tokens `pos` admits. kNone once the budget is
  /// spent. Safe while lanes walk the trie and while others add.
  int32_t Add(int32_t parent, token::TokenId edge, token::TokenId greedy,
              size_t pos, const std::vector<double>& weights);
  /// Add's append, under mu_: a node that the trie does not hold yet.
  int32_t AddLocked(int32_t parent, token::TokenId edge,
                    token::TokenId greedy, size_t pos,
                    const std::vector<double>& weights);

  uint64_t fingerprint_;
  SamplerOptions sampler_;
  size_t vocab_;
  std::shared_ptr<const std::vector<token::TokenId>> prompt_;
  /// The hoisted grammar; empty when the mask did not hoist (the trie is
  /// then never used).
  std::vector<GrammarMask::Shared> cycle_;
  /// Admitted(pos) is admitted_[admitted_begin_[pos],
  /// admitted_begin_[pos + 1]).
  std::vector<token::TokenId> admitted_;
  std::vector<uint32_t> admitted_begin_;
  /// Running sums each node has room for: the most tokens a model step
  /// admits, 0 for a greedy sampler.
  size_t sums_per_node_ = 0;
  size_t max_nodes_;
  std::array<Segment, kSegments> segments_;
  std::atomic<int32_t> size_{0};
  std::atomic<size_t> shared_steps_{0};
  /// Serializes Add, and bytes() against it.
  mutable std::mutex mu_;
};

/// The per-token body of one generation, the decode step every driver
/// shares: SimulatedLlm::Complete calls Next `num_tokens` times in a
/// row, and batch::BatchScheduler calls it once per scheduler step for
/// each lane in the batch.
///
/// A lane owns its session (the model conditioned on the prompt and the
/// hoisted grammar) and, when it was given a DrawTrie made for its call,
/// its walk of that trie (see DrawTrie): a model step the trie holds is
/// drawn from the node's running sums and its token kept back; at the
/// first unseen node the lane sizes its session for the generation
/// (NGramLanguageModel::ReserveDecode), ingests the tokens kept back
/// with one ObserveAll, and from there decodes as usual and adds each
/// model step to the trie. The node of a model step is looked up when
/// the lane reaches it, so a lane sees nodes that other lanes added
/// since its last step. Without a matching trie it sizes the session at
/// once and every model step decodes: the plain loop.
///
/// At a grammar-forced position (the hoisted mask admits one token) the
/// model is not consulted. The RNG still advances exactly as
/// SampleToken would over any strictly positive distribution (and every
/// back-end's distribution is strictly positive): one NextDouble above
/// temperature 1e-6, none when greedy. So the tokens, and every later
/// draw, are those of a loop that calls NextDistribution and SampleToken
/// at every step.
class DecodeLane {
 public:
  /// A lane of zero tokens.
  DecodeLane() = default;

  /// A lane that generates `num_tokens` tokens over `session` with
  /// `sampler`, walking and growing `trie` when it was made for this
  /// call: a back-end of `fingerprint` whose session is conditioned on
  /// `prompt`, and the session's grammar and `sampler`. `trie` may be
  /// null and must outlive the lane.
  DecodeLane(DecodeSession session, size_t num_tokens,
             const SamplerOptions& sampler, DrawTrie* trie = nullptr,
             uint64_t fingerprint = 0,
             const std::vector<token::TokenId>& prompt = {});

  size_t num_tokens() const { return num_tokens_; }

  /// Generates the next token and makes it context. `probs` is scratch
  /// for the model's distribution; drivers reuse one across steps and
  /// lanes. An error (no allowed token has positive probability) adds no
  /// node. Call at most num_tokens() times.
  Result<token::TokenId> Next(Rng* rng, std::vector<double>* probs);

 private:
  /// Draws the model step at cycle position `pos` from the trie's
  /// `node`.
  token::TokenId DrawShared(int32_t node, size_t pos, Rng* rng);
  /// Samples the model step at cycle position `pos`, which the trie did
  /// not hold, from the model's distribution `probs` as SampleToken
  /// does, adding its node while the trie has room. An error adds
  /// nothing.
  Result<token::TokenId> DrawFresh(const std::vector<double>& probs,
                                   size_t pos, Rng* rng);

  /// Adds the model steps a lane drew from its trie's nodes to the
  /// trie's count when the lane lets the trie go (it is destroyed, or
  /// leaves a full trie); it frees nothing.
  struct AddSharedSteps {
    // Not a default member initializer: those are not usable before the
    // enclosing class is complete, and trie_ needs one here.
    AddSharedSteps() : steps(0) {}
    size_t steps;
    void operator()(DrawTrie* trie) const {
      trie->shared_steps_.fetch_add(steps, std::memory_order_relaxed);
    }
  };

  std::unique_ptr<NGramLanguageModel> model_;
  std::vector<GrammarMask::Shared> cycle_;
  /// ForcedToken of every cycle position.
  std::vector<token::TokenId> forced_;
  SamplerOptions sampler_;
  size_t num_tokens_ = 0;
  size_t step_ = 0;
  /// The trie the lane walks and grows: null off any trie, and once its
  /// budget is spent. Moving the lane moves it with its count.
  std::unique_ptr<DrawTrie, AddSharedSteps> trie_;
  /// The node of the last model step (kNone before the first) and the
  /// token drawn there: the next model step's node is their child.
  int32_t parent_ = DrawTrie::kNone;
  token::TokenId edge_ = 0;
  /// Tokens walked on the trie and not yet observed; the session takes
  /// them, and is sized, at the first fresh model step.
  bool deferring_ = false;
  std::vector<token::TokenId> deferred_;
  std::vector<double> weights_;
};

/// Opens the lane a `num_tokens`-token generation decodes on, as every
/// decode front-end does: validates the prompt, hoists the grammar,
/// takes the session from `cache` (a fork of its state for the prompt)
/// or, when `cache` is null, feeds the prompt to a fresh `profile`
/// model, and decodes with `profile.sampler`, walking and growing `trie`
/// (may be null) when it matches. `fingerprint` is
/// ModelFingerprint(profile, vocab_size).
Result<DecodeLane> OpenDecodeLane(const ModelProfile& profile,
                                  size_t vocab_size, uint64_t fingerprint,
                                  PrefixCache* cache,
                                  const std::vector<token::TokenId>& prompt,
                                  size_t num_tokens, const GrammarMask& mask,
                                  DrawTrie* trie);

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
///
/// With a DrawTrie attached, the model steps that an earlier draw of the
/// trie already decoded are drawn from its nodes instead of recomputed
/// (DecodeLane); the tokens, ledger and RNG state are those of the plain
/// loop.
class SimulatedLlm final : public LlmBackend {
 public:
  /// `vocab_size` must match the vocabulary the prompt was encoded with.
  /// `prefix_cache` may be null (every call then replays its prompt) and
  /// is not owned exclusively: any number of backends can share one.
  /// `trie` (may be null) is the DrawTrie its calls share; it must
  /// outlive the back-end.
  SimulatedLlm(const ModelProfile& profile, size_t vocab_size,
               std::shared_ptr<PrefixCache> prefix_cache = nullptr,
               DrawTrie* trie = nullptr);

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
  DrawTrie* trie_ = nullptr;
  /// Cache-key namespace; see ModelFingerprint in lm/profiles.h.
  uint64_t fingerprint_ = 0;
};

}  // namespace lm
}  // namespace multicast

#endif  // MULTICAST_LM_GENERATOR_H_
