// Adaptive context-depth mixture language model (CTW-style).
//
// A second, architecturally different simulated back-end, used for the
// "larger model" profiles. Where the Witten–Bell n-gram interpolates by
// observed type counts, this model performs *Bayesian model averaging
// over context depths* along the active context path: every depth d
// keeps a Krichevsky–Trofimov estimator for its context node, and a
// per-node posterior weight decides — from that node's own predictive
// history — whether its estimator or the shallower mixture predicts
// better. This is the conditional-probability form of Context Tree
// Weighting (Willems–Shtarkov–Tjalkens) evaluated on the context path,
// and adapts the effective context length per position instead of
// globally.
//
// Nodes are layered for Freeze()/Fork() exactly like the n-gram model
// (see ngram_model.h): frozen layers shared by reference, one private
// overlay per session, copy-on-first-touch per context key. The shared
// per-depth log-odds vector is tiny and copied whole on fork.
//
// Storage is the n-gram model's as well: one PagedContextStore per
// layer (keys encode depth) with u16 counts, and an overflow map of u32
// counts for u16-saturated and pool-spilled nodes. The per-node
// posterior weight stays a full double inside the slot. A model given
// no pool builds itself a private unbounded one, which its forks share.
//
// Prompt ingest stays one Observe per token (the LanguageModel default
// ObserveAll): every token updates the posterior weights along its
// context path, so unlike the n-gram counts the state depends on the
// order tokens arrive in, and there is no order-free bulk build.

#ifndef MULTICAST_LM_MIXTURE_MODEL_H_
#define MULTICAST_LM_MIXTURE_MODEL_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <unordered_map>
#include <vector>

#include "lm/language_model.h"
#include "lm/paged_store.h"

namespace multicast {
namespace lm {

struct MixtureOptions {
  /// Deepest context depth mixed over. Must be in [1, 12].
  int max_depth = 8;
  /// KT estimator pseudo-count per symbol (1/2 is the classical KT
  /// choice; larger is smoother).
  double kt_alpha = 0.5;
  /// Prior weight of "use this node's estimator" vs "defer to the
  /// shallower mixture" at a fresh node. Must be in (0, 1).
  double prior_self_weight = 0.5;
  /// Learning rate of the shared per-depth weight component. Deep
  /// context nodes are individually visited only a handful of times, so
  /// a per-depth factor — updated on *every* token — learns how useful
  /// each depth is globally, while the per-node odds personalize it.
  double depth_learning_rate = 0.05;
  /// Uniform mixing floor, as in NGramOptions.
  double uniform_mix = 1e-4;
  /// Frozen-layer compaction threshold, as in NGramOptions (storage
  /// only, excluded from the fingerprint). Must be >= 1.
  size_t max_base_layers = 4;
};

/// See file comment.
class MixtureLanguageModel final : public LanguageModel {
 public:
  /// `pool` as in NGramLanguageModel: the layers' block source (null: a
  /// private unbounded pool) and the session accounting sink.
  MixtureLanguageModel(size_t vocab_size, const MixtureOptions& options,
                       std::shared_ptr<BlockPool> pool = nullptr);
  ~MixtureLanguageModel() override;

  void Reset() override;
  void Observe(token::TokenId id) override;
  std::vector<double> NextDistribution() const override;
  void NextDistribution(std::vector<double>* out) const override;
  size_t vocab_size() const override { return vocab_size_; }
  size_t context_length() const override { return observed_; }

  bool SupportsFork() const override { return true; }
  void Freeze() override;
  bool frozen() const override { return frozen_; }
  std::unique_ptr<LanguageModel> Fork() const override;

  MemoryFootprint ApproxMemoryBytes() const override;
  void TallyMemory(MemoryTally* tally) const override;

  /// Number of context nodes materialized so far, in the effective
  /// (layer-merged) view.
  size_t num_nodes() const;

  /// Number of frozen base layers under this session (tests only).
  size_t num_base_layers() const { return paged_base_.size(); }

 private:
  struct Node {
    std::vector<uint32_t> counts;
    uint32_t total = 0;
    /// Posterior weight of this node's own KT estimator within the
    /// mixture at its depth (log-domain odds vs the shallower mixture).
    double log_self_odds = 0.0;
  };
  using Table = std::unordered_map<uint64_t, Node>;

  // One frozen layer (see ngram_model.h): one store for all depths
  // plus the overflow map; `store` null in an overflow-only layer.
  struct PagedLayer {
    std::shared_ptr<const PagedContextStore> store;
    std::shared_ptr<const Table> overflow;
  };

  // Read view of one node, narrow or wide (see ngram_model.h).
  struct NodeRef {
    bool found = false;
    const uint32_t* wide = nullptr;
    const uint16_t* narrow = nullptr;
    const std::byte* slot = nullptr;  // narrow slot base, for seeding
    uint32_t total = 0;
    double log_self_odds = 0.0;
    double Count(size_t s) const {
      if (narrow != nullptr) return static_cast<double>(narrow[s]);
      if (wide != nullptr) return static_cast<double>(wide[s]);
      return 0.0;
    }
  };

  // Packs the most recent `depth` tokens into a 64-bit key (5 bits per
  // token, depth tag disambiguates).
  uint64_t PackContext(int depth) const;

  // KT predictive probability of `symbol` at `node`.
  double KtProbRef(const NodeRef& node, size_t symbol) const;

  size_t SlotBytes() const;
  // Topmost frozen-layer node for a key (not found: none).
  NodeRef LookupFrozenPaged(uint64_t key) const;
  // Effective node: overlay first, then frozen.
  NodeRef LookupNodePaged(uint64_t key) const;
  // Phase-2 node update (weight += llr with clamp, count increments),
  // with copy-on-first-touch, u16 promotion and exhaustion spill.
  void UpdateNodePaged(uint64_t key, size_t symbol, double llr,
                  double prior_log_odds);
  void CompactPagedBase();
  // Malloc-model bytes of an overflow map (paged_store.h).
  static size_t OverflowBytes(const Table& table);

  // Walks the context path computing the mixture distribution in-place;
  // also returns the per-depth node keys so Observe can update them.
  void MixturePath(std::vector<double>* mix, std::vector<uint64_t>* keys) const;

  size_t vocab_size_;
  MixtureOptions options_;
  std::shared_ptr<BlockPool> pool_;
  size_t observed_ = 0;
  std::deque<token::TokenId> recent_;
  // Frozen base layers, bottom to top; shared read-only with every fork.
  std::vector<PagedLayer> paged_base_;
  // This session's private overlay: its store and overflow map.
  std::unique_ptr<PagedContextStore> paged_local_;
  Table overflow_local_;
  // Shared log-odds component per depth (see depth_learning_rate).
  // Per-session state: copied, not shared, on fork.
  std::vector<double> depth_log_odds_;
  bool frozen_ = false;
};

}  // namespace lm
}  // namespace multicast

#endif  // MULTICAST_LM_MIXTURE_MODEL_H_
