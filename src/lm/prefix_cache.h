// Prefix cache for simulated decode sessions — the KV-cache analogue.
//
// MultiCast draws n samples per forecast (Sec. III-B), and a serving
// fleet sees the same feed's prompt request after request, so the naive
// pipeline ingests each prompt once per draw. This cache stores *frozen*
// model states keyed by (model fingerprint, prompt tokens): the prompt
// is observed once into an immutable base, and every subsequent draw
// forks a cheap copy-on-write session off it (see lm/ngram_model.h).
//
// It matches whole prompts only. Every forecast serializes values
// rescaled by a fit over its own history, so a later window's prompt is
// re-serialized from its first token and does not extend an earlier
// one: a prompt that extends a cached one is a plain miss, built from
// scratch like any other.
//
// Correctness contract: forks are bit-identical to a fresh model fed the
// same tokens, so enabling the cache never changes any output — it only
// removes redundant prompt replay. Matching is byte-exact on the token
// sequence (the hash is an index, not the authority).
//
// Thread safety: all public methods are safe to call concurrently; one
// mutex guards the index, including state construction on a miss, which
// also deduplicates concurrent builds of the same prompt. The sample
// loop pre-warms the full prompt before its first draw, so every draw
// takes the lock only for a fork.

#ifndef MULTICAST_LM_PREFIX_CACHE_H_
#define MULTICAST_LM_PREFIX_CACHE_H_

#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "lm/ngram_model.h"
#include "token/vocabulary.h"
#include "util/metrics.h"

namespace multicast {
namespace lm {

class DrawTrie;

/// Cache effectiveness counters, in the spirit of TokenLedger/RetryStats.
/// Note: TokenLedger::prompt_tokens stays the *logical* prompt size on
/// every call, cached or not (so ledgers are bit-identical either way);
/// the physical replay work saved lives here instead.
struct PrefixCacheStats {
  size_t lookups = 0;
  /// Prompt matched a cached entry exactly; zero tokens replayed.
  size_t full_hits = 0;
  /// No cached entry held the prompt; all its tokens were replayed.
  size_t misses = 0;
  size_t insertions = 0;
  size_t evictions = 0;
  /// Prompt tokens presented across all lookups.
  size_t prompt_tokens_seen = 0;
  /// Of those, tokens whose state came from a cached entry.
  size_t prompt_tokens_reused = 0;
  /// Of those, tokens that had to be observed (replayed) anew.
  size_t prompt_tokens_replayed = 0;

  size_t hits() const { return full_hits; }

  PrefixCacheStats& operator+=(const PrefixCacheStats& other);
  /// Element-wise difference, for before/after snapshots (per-request
  /// accounting in the serving layer). Saturates at zero.
  PrefixCacheStats operator-(const PrefixCacheStats& other) const;
};

/// Registry export of PrefixCacheStats: counters under `prefix` (for
/// example "prefix_cache.lookups").
void PublishPrefixCacheStats(const PrefixCacheStats& stats,
                             util::MetricsRegistry* registry,
                             const std::string& prefix);

/// See file comment.
class PrefixCache {
 public:
  using ModelFactory = std::function<std::unique_ptr<NGramLanguageModel>()>;

  /// `capacity` is the maximum number of cached frozen states (LRU
  /// beyond that); it must be at least 1. A pipeline without a cache
  /// holds no PrefixCache at all.
  explicit PrefixCache(size_t capacity = 64);

  /// Returns a mutable decode session whose state equals a fresh model
  /// from `fresh` fed all of `prompt`: a fork of the entry holding
  /// exactly `prompt` (a hit), or of a state built from scratch and
  /// cached on the way (a miss). `fresh` must produce an empty model
  /// matching `fingerprint`.
  std::unique_ptr<NGramLanguageModel> AcquireSession(
      uint64_t fingerprint, const std::vector<token::TokenId>& prompt,
      const ModelFactory& fresh);

  /// Builds (or refreshes) the cache entry for `prompt` without
  /// returning a session. Called once before a forecast's first draw so
  /// all its draws full-hit.
  void Warm(uint64_t fingerprint, const std::vector<token::TokenId>& prompt,
            const ModelFactory& fresh);

  /// Makes the draw trie of an entry from the entry's own prompt.
  using DrawTrieFactory = std::function<std::shared_ptr<DrawTrie>(
      std::shared_ptr<const std::vector<token::TokenId>> prompt)>;

  /// The draw trie the entry for exactly `prompt` keeps (lm::DrawTrie,
  /// DESIGN.md §5m), made by `make` on first use; null when no entry
  /// holds `prompt`. The trie lives and dies with the entry: eviction and
  /// Clear drop it, and a caller still walking it keeps it alive through
  /// the pointer. Neither a lookup nor an LRU touch, so the counters and
  /// the eviction order are those of a cache without tries.
  std::shared_ptr<DrawTrie> DrawTrieFor(
      uint64_t fingerprint, const std::vector<token::TokenId>& prompt,
      const DrawTrieFactory& make);

  size_t capacity() const { return capacity_; }
  size_t size() const;
  PrefixCacheStats stats() const;

  /// Resident bytes of the cache: per entry, its stored prompt token
  /// vector, its draw trie and its model state (each entry's frozen base
  /// is its own). Thread-safe.
  size_t bytes() const;

  /// What the entries' draw tries hold and saved. Kept out of
  /// PrefixCacheStats, whose per-request deltas the serving layer sums.
  struct DrawTrieTotals {
    /// Nodes the live entries' tries hold.
    size_t nodes = 0;
    /// Model steps drawn from an entry's trie instead of computed;
    /// a dropped entry's count as of its drop.
    size_t steps = 0;
  };
  DrawTrieTotals draw_tries() const;

  /// Publishes the counters into `registry` under `prefix` (the unified
  /// metrics export path; see util/metrics.h), plus gauges of true
  /// resident bytes (`<prefix>bytes`) and of the entries' draw tries
  /// (`<prefix>trie_nodes`, `<prefix>trie_steps`). Thread-safe.
  void PublishMetrics(util::MetricsRegistry* registry,
                      const std::string& prefix = "prefix_cache.") const;

  /// Drops all cached states and their draw tries (counters are kept).
  void Clear();

 private:
  struct Key {
    uint64_t fingerprint = 0;
    uint64_t hash = 0;  // FNV-1a of the whole prompt
    size_t length = 0;
    bool operator==(const Key& other) const {
      return fingerprint == other.fingerprint && hash == other.hash &&
             length == other.length;
    }
  };
  struct KeyHasher {
    size_t operator()(const Key& key) const;
  };
  struct Entry {
    /// Shared with the entry's draw trie, which matches lanes against
    /// it.
    std::shared_ptr<const std::vector<token::TokenId>> prompt;
    std::shared_ptr<const NGramLanguageModel> model;
    /// Made by the first DrawTrieFor; null until then.
    std::shared_ptr<DrawTrie> trie;
    std::list<Key>::iterator lru;
  };

  // The key of `prompt` under `fingerprint`; computed outside the lock.
  static Key KeyOf(uint64_t fingerprint,
                   const std::vector<token::TokenId>& prompt);
  // The entry holding exactly `prompt` (whose key is `key`), or null.
  // Neither counts nor touches the LRU.
  Entry* FindLocked(const Key& key, const std::vector<token::TokenId>& prompt);
  // Shared frozen state for the prompt; the AcquireSession / Warm bodies
  // minus the final fork.
  std::shared_ptr<const NGramLanguageModel> EnsureLocked(
      const Key& key, const std::vector<token::TokenId>& prompt,
      const ModelFactory& fresh);
  void InsertLocked(const Key& key, const std::vector<token::TokenId>& prompt,
                    std::shared_ptr<const NGramLanguageModel> model);
  void EvictLocked();
  // Books a dropped entry's trie steps into retired_trie_steps_.
  void RetireTrieLocked(const Entry& entry);
  void TouchLocked(Entry* entry);

  const size_t capacity_;
  mutable std::mutex mu_;
  std::unordered_map<Key, Entry, KeyHasher> entries_;  // guarded by mu_
  // Most-recently-used at the front.
  std::list<Key> lru_;  // guarded by mu_
  PrefixCacheStats stats_;  // guarded by mu_
  // Trie steps of entries already dropped.
  size_t retired_trie_steps_ = 0;  // guarded by mu_
};

}  // namespace lm
}  // namespace multicast

#endif  // MULTICAST_LM_PREFIX_CACHE_H_
