// Test-only map references for both language-model families, and the
// byte cost of the map entry the models once stored their counts in.
//
// Each reference keeps its whole state in one std::map keyed by the
// context's tokens themselves and takes the same floating-point steps as
// its model. It has no layers, no paging, no packed window and no probe
// record, so a model that matches it bit for bit has all four right.
// Free of gtest, so that benches can include it too.

#ifndef MULTICAST_TESTS_REFERENCE_MODELS_H_
#define MULTICAST_TESTS_REFERENCE_MODELS_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "lm/mixture_model.h"
#include "lm/ngram_model.h"
#include "lm/paged_store.h"
#include "token/vocabulary.h"

namespace multicast {
namespace lm {

/// Interpolated Witten–Bell, as NGramLanguageModel::NextDistribution.
class ReferenceNGram {
 public:
  ReferenceNGram(size_t vocab, const NGramOptions& options)
      : vocab_(vocab), options_(options) {}

  void Observe(token::TokenId id) {
    for (size_t k = 0; k <= Orders(); ++k) {
      Counts& c = counts_[Context(k)];
      if (c.next.empty()) c.next.assign(vocab_, 0);
      if (c.next[static_cast<size_t>(id)] == 0) ++c.types;
      ++c.next[static_cast<size_t>(id)];
      ++c.total;
    }
    history_.push_back(id);
  }

  std::vector<double> NextDistribution() const {
    std::vector<double> probs(vocab_, 1.0 / static_cast<double>(vocab_));
    for (size_t k = 0; k <= Orders(); ++k) {
      auto it = counts_.find(Context(k));
      if (it == counts_.end() || it->second.total == 0) continue;
      const Counts& c = it->second;
      double lambda = static_cast<double>(c.types) + options_.backoff_boost;
      double denom = static_cast<double>(c.total) + lambda;
      for (size_t w = 0; w < vocab_; ++w) {
        probs[w] = (static_cast<double>(c.next[w]) + lambda * probs[w]) / denom;
      }
    }
    if (options_.uniform_mix > 0.0) {
      double u = options_.uniform_mix / static_cast<double>(vocab_);
      for (double& p : probs) p = (1.0 - options_.uniform_mix) * p + u;
    }
    double sum = 0.0;
    for (double p : probs) sum += p;
    for (double& p : probs) p /= sum;
    return probs;
  }

  /// Distinct (context, next) pairs, as NGramLanguageModel::num_entries.
  size_t num_entries() const {
    size_t n = 0;
    for (const auto& [context, c] : counts_) n += c.types;
    return n;
  }

  uint64_t max_count() const {
    uint64_t m = 0;
    for (const auto& [context, c] : counts_) {
      for (uint64_t n : c.next) m = std::max(m, n);
    }
    return m;
  }

  void Reset() {
    counts_.clear();
    history_.clear();
  }

 private:
  struct Counts {
    std::vector<uint64_t> next;
    uint64_t total = 0;
    uint64_t types = 0;
  };
  size_t Orders() const {
    return std::min(history_.size(), static_cast<size_t>(options_.max_order));
  }
  std::vector<token::TokenId> Context(size_t k) const {
    return std::vector<token::TokenId>(history_.end() - k, history_.end());
  }

  size_t vocab_;
  NGramOptions options_;
  std::vector<token::TokenId> history_;
  std::map<std::vector<token::TokenId>, Counts> counts_;
};

/// Context-depth mixture (CTW), as MixtureLanguageModel: a KT estimator
/// and a posterior log-odds weight per context node, a shared log-odds
/// term per depth, and the same ±30 clamps.
class ReferenceMixture {
 public:
  ReferenceMixture(size_t vocab, const MixtureOptions& options)
      : vocab_(vocab),
        options_(options),
        depth_log_odds_(static_cast<size_t>(options.max_depth) + 1, 0.0) {}

  void Observe(token::TokenId id) {
    const size_t symbol = static_cast<size_t>(id);
    const size_t depths = Depths();
    // Predictive probabilities of `symbol` before the update: own[d] at
    // the depth-d node, mix_below[d] of the mixture of depths < d.
    std::vector<double> own(depths + 1);
    std::vector<double> mix_below(depths + 1);
    double running = 1.0 / static_cast<double>(vocab_);
    for (size_t d = 0; d <= depths; ++d) {
      mix_below[d] = running;
      auto it = nodes_.find(Context(d));
      if (it != nodes_.end()) {
        own[d] = Kt(it->second, symbol);
        const double w = SelfWeight(it->second, d);
        running = w * own[d] + (1.0 - w) * running;
      } else {
        own[d] = 1.0 / static_cast<double>(vocab_);
      }
    }
    const double prior_log_odds = std::log(
        options_.prior_self_weight / (1.0 - options_.prior_self_weight));
    for (size_t d = 0; d <= depths; ++d) {
      const double llr = std::log(own[d]) - std::log(mix_below[d]);
      auto [it, fresh] = nodes_.try_emplace(Context(d));
      Node& node = it->second;
      if (fresh) {
        node.counts.assign(vocab_, 0);
        node.log_self_odds = prior_log_odds;
      }
      node.log_self_odds = std::clamp(node.log_self_odds + llr, -30.0, 30.0);
      ++node.counts[symbol];
      ++node.total;
      depth_log_odds_[d] = std::clamp(
          depth_log_odds_[d] + options_.depth_learning_rate * llr, -30.0,
          30.0);
    }
    history_.push_back(id);
  }

  std::vector<double> NextDistribution() const {
    std::vector<double> probs(vocab_, 1.0 / static_cast<double>(vocab_));
    for (size_t d = 0; d <= Depths(); ++d) {
      auto it = nodes_.find(Context(d));
      if (it == nodes_.end()) continue;
      const double w = SelfWeight(it->second, d);
      for (size_t s = 0; s < vocab_; ++s) {
        probs[s] = w * Kt(it->second, s) + (1.0 - w) * probs[s];
      }
    }
    if (options_.uniform_mix > 0.0) {
      double u = options_.uniform_mix / static_cast<double>(vocab_);
      for (double& p : probs) p = (1.0 - options_.uniform_mix) * p + u;
    }
    double sum = 0.0;
    for (double p : probs) sum += p;
    for (double& p : probs) p /= sum;
    return probs;
  }

  /// Context nodes, as MixtureLanguageModel::num_nodes.
  size_t num_nodes() const { return nodes_.size(); }

  uint64_t max_count() const {
    uint64_t m = 0;
    for (const auto& [context, node] : nodes_) {
      for (uint64_t n : node.counts) m = std::max(m, n);
    }
    return m;
  }

  void Reset() {
    nodes_.clear();
    history_.clear();
    depth_log_odds_.assign(depth_log_odds_.size(), 0.0);
  }

 private:
  struct Node {
    std::vector<uint64_t> counts;
    uint64_t total = 0;
    double log_self_odds = 0.0;
  };
  size_t Depths() const {
    return std::min(history_.size(), static_cast<size_t>(options_.max_depth));
  }
  std::vector<token::TokenId> Context(size_t d) const {
    return std::vector<token::TokenId>(history_.end() - d, history_.end());
  }
  double Kt(const Node& node, size_t symbol) const {
    const double num =
        static_cast<double>(node.counts[symbol]) + options_.kt_alpha;
    const double den = static_cast<double>(node.total) +
                       options_.kt_alpha * static_cast<double>(vocab_);
    return num / den;
  }
  // Posterior weight of the node's own estimator against the shallower
  // mixture.
  double SelfWeight(const Node& node, size_t d) const {
    const double odds = std::exp(
        std::clamp(node.log_self_odds + depth_log_odds_[d], -30.0, 30.0));
    return odds / (1.0 + odds);
  }

  size_t vocab_;
  MixtureOptions options_;
  std::vector<token::TokenId> history_;
  std::map<std::vector<token::TokenId>, Node> nodes_;
  std::vector<double> depth_log_odds_;
};

/// Bytes one context entry cost in the n-gram model's retired map
/// storage (an unordered_map node holding a u32 count vector, its total
/// and its type count), under paged_store.h's malloc model: 136 at
/// vocab 11. Entries times this is the map footprint of a state the
/// paged store holds.
inline size_t MapEntryBytes(size_t vocab) {
  struct MapEntry {
    std::vector<uint32_t> next;
    uint32_t total;
    uint32_t types;
  };
  return ApproxMapEntryBytes(
      sizeof(void*) + sizeof(std::pair<const uint64_t, MapEntry>),
      vocab * sizeof(uint32_t));
}

}  // namespace lm
}  // namespace multicast

#endif  // MULTICAST_TESTS_REFERENCE_MODELS_H_
