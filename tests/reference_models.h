// A test-only map reference for the n-gram language model, and the byte
// cost of the map entry the model once stored its counts in.
//
// The reference keeps its whole state in one std::map keyed by the
// context's tokens themselves and takes the same floating-point steps as
// the model. It has no layers, no paging, no packed window and no probe
// record, so a model that matches it bit for bit has all four right.
// Free of gtest, so that benches can include it too.

#ifndef MULTICAST_TESTS_REFERENCE_MODELS_H_
#define MULTICAST_TESTS_REFERENCE_MODELS_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <map>
#include <utility>
#include <vector>

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
