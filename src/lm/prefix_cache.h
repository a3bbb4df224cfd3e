// Prefix cache for simulated decode sessions — the KV-cache analogue.
//
// MultiCast draws n samples per forecast (Sec. III-B) and rolling-origin
// evaluation re-feeds near-identical prompts window after window, so the
// naive pipeline ingests each prompt O(n × windows) times. This cache
// stores *frozen* model states keyed by (model fingerprint, prompt
// tokens): the prompt is observed once into an immutable base, and
// every subsequent draw forks a cheap copy-on-write session off it
// (see lm/ngram_model.h). A lookup that finds only a shorter cached
// prefix forks that entry, replays just the suffix, and caches the
// extended state — longest-prefix reuse, exactly how paged KV caches
// share common prompt prefixes.
//
// Correctness contract: forks are bit-identical to a fresh model fed the
// same tokens, so enabling the cache never changes any output — it only
// removes redundant prompt replay. Matching is byte-exact on the token
// sequence (hashes are an index, not the authority).
//
// Thread safety: all public methods are safe to call concurrently; one
// mutex guards the index, including state construction on a miss, which
// also deduplicates concurrent builds of the same prompt. Callers that
// fan out (the parallel sample loops) pre-warm the full prompt first so
// every draw takes the lock only for a fork.

#ifndef MULTICAST_LM_PREFIX_CACHE_H_
#define MULTICAST_LM_PREFIX_CACHE_H_

#include <cstdint>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "lm/ngram_model.h"
#include "token/vocabulary.h"
#include "util/metrics.h"

namespace multicast {
namespace lm {

/// Cache effectiveness counters, in the spirit of TokenLedger/RetryStats.
/// Note: TokenLedger::prompt_tokens stays the *logical* prompt size on
/// every call, cached or not (so ledgers are bit-identical either way);
/// the physical replay work saved lives here instead.
struct PrefixCacheStats {
  size_t lookups = 0;
  /// Prompt matched a cached entry exactly; zero tokens replayed.
  size_t full_hits = 0;
  /// A shorter cached prefix was extended by suffix replay.
  size_t prefix_hits = 0;
  /// No cached prefix matched at all.
  size_t misses = 0;
  size_t insertions = 0;
  size_t evictions = 0;
  /// Prompt tokens presented across all lookups.
  size_t prompt_tokens_seen = 0;
  /// Of those, tokens whose state came from a cached prefix.
  size_t prompt_tokens_reused = 0;
  /// Of those, tokens that had to be observed (replayed) anew.
  size_t prompt_tokens_replayed = 0;

  size_t hits() const { return full_hits + prefix_hits; }

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
  /// beyond that). 0 disables the cache entirely: every AcquireSession
  /// is a counted miss served by a fresh full-replay session, Warm is a
  /// no-op, and nothing is ever stored — the off switch for A/B runs
  /// and for cacheless cluster replicas.
  explicit PrefixCache(size_t capacity = 64);

  /// Returns a mutable decode session whose state equals a fresh model
  /// from `fresh` fed all of `prompt`. Reuses the longest cached prefix
  /// (full hit: fork only; partial: fork + suffix replay; miss: build
  /// from scratch), caching the full-prompt state on the way. `fresh`
  /// must produce an empty model matching `fingerprint`.
  std::unique_ptr<NGramLanguageModel> AcquireSession(
      uint64_t fingerprint, const std::vector<token::TokenId>& prompt,
      const ModelFactory& fresh);

  /// Builds (or refreshes) the cache entry for `prompt` without
  /// returning a session. Called once before a parallel fan-out so all
  /// draws full-hit deterministically.
  void Warm(uint64_t fingerprint, const std::vector<token::TokenId>& prompt,
            const ModelFactory& fresh);

  size_t capacity() const { return capacity_; }
  size_t size() const;
  PrefixCacheStats stats() const;

  /// True resident bytes of the cache: stored prompt token vectors PLUS
  /// every cached model state, with frozen layers shared between
  /// entries (longest-prefix extension chains, paged block sharing)
  /// counted once via NGramLanguageModel::TallyMemory. Thread-safe.
  size_t bytes() const;

  /// Publishes the counters into `registry` under `prefix` (the unified
  /// metrics export path; see util/metrics.h), plus a `<prefix>bytes`
  /// gauge of true resident bytes. Thread-safe.
  void PublishMetrics(util::MetricsRegistry* registry,
                      const std::string& prefix = "prefix_cache.") const {
    PublishPrefixCacheStats(stats(), registry, prefix);
    registry->GetGauge(prefix + "bytes")->Set(static_cast<double>(bytes()));
  }

  /// Drops all cached states (counters are kept).
  void Clear();

 private:
  struct Key {
    uint64_t fingerprint = 0;
    uint64_t hash = 0;  // rolling hash of the full stored prompt
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
    std::vector<token::TokenId> prompt;
    std::shared_ptr<const NGramLanguageModel> model;
    std::list<Key>::iterator lru;
  };

  // Rolling hashes of every prompt prefix: hashes[i] covers prompt[0,i).
  static std::vector<uint64_t> PrefixHashes(
      const std::vector<token::TokenId>& prompt);

  // Longest cached byte-exact prefix of `prompt`, or null. Touches LRU.
  Entry* LookupLocked(uint64_t fingerprint,
                      const std::vector<token::TokenId>& prompt,
                      const std::vector<uint64_t>& hashes);
  // The disabled cache's lookup: a counted miss served by a fresh
  // session fed the whole prompt.
  std::unique_ptr<NGramLanguageModel> ReplayLocked(
      const std::vector<token::TokenId>& prompt, const ModelFactory& fresh);
  // Shared frozen state for the full prompt; the AcquireSession / Warm
  // bodies of an enabled cache minus the final fork.
  std::shared_ptr<const NGramLanguageModel> EnsureLocked(
      uint64_t fingerprint, const std::vector<token::TokenId>& prompt,
      const ModelFactory& fresh);
  void InsertLocked(uint64_t fingerprint,
                    const std::vector<token::TokenId>& prompt,
                    uint64_t full_hash,
                    std::shared_ptr<const NGramLanguageModel> model);
  void EvictLocked();
  void TouchLocked(Entry* entry);
  void EraseIndexLocked(const Key& key);

  const size_t capacity_;
  mutable std::mutex mu_;
  std::unordered_map<Key, Entry, KeyHasher> entries_;  // guarded by mu_
  // Most-recently-used at the front.
  std::list<Key> lru_;  // guarded by mu_
  // Per-fingerprint stored prompt lengths (multiset as length -> count),
  // so lookups probe only lengths that exist, longest first.
  std::unordered_map<uint64_t, std::map<size_t, size_t>>
      lengths_;  // guarded by mu_
  PrefixCacheStats stats_;  // guarded by mu_
};

}  // namespace lm
}  // namespace multicast

#endif  // MULTICAST_LM_PREFIX_CACHE_H_
