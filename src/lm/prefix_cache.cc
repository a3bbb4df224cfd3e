#include "lm/prefix_cache.h"

#include "lm/generator.h"
#include "lm/paged_store.h"
#include "util/status.h"

namespace multicast {
namespace lm {

namespace {
// FNV-1a over token ids.
constexpr uint64_t kFnvOffset = 14695981039346656037ULL;
constexpr uint64_t kFnvPrime = 1099511628211ULL;

uint64_t FoldToken(uint64_t hash, token::TokenId id) {
  // +1 so token 0 still perturbs the hash.
  return (hash ^ (static_cast<uint64_t>(id) + 1)) * kFnvPrime;
}

size_t Saturating(size_t a, size_t b) { return a > b ? a - b : 0; }
}  // namespace

void PublishPrefixCacheStats(const PrefixCacheStats& stats,
                             util::MetricsRegistry* registry,
                             const std::string& prefix) {
  registry->GetCounter(prefix + "lookups")
      ->Add(static_cast<double>(stats.lookups));
  registry->GetCounter(prefix + "full_hits")
      ->Add(static_cast<double>(stats.full_hits));
  registry->GetCounter(prefix + "misses")
      ->Add(static_cast<double>(stats.misses));
  registry->GetCounter(prefix + "insertions")
      ->Add(static_cast<double>(stats.insertions));
  registry->GetCounter(prefix + "evictions")
      ->Add(static_cast<double>(stats.evictions));
  registry->GetCounter(prefix + "prompt_tokens_seen")
      ->Add(static_cast<double>(stats.prompt_tokens_seen));
  registry->GetCounter(prefix + "prompt_tokens_reused")
      ->Add(static_cast<double>(stats.prompt_tokens_reused));
  registry->GetCounter(prefix + "prompt_tokens_replayed")
      ->Add(static_cast<double>(stats.prompt_tokens_replayed));
}

PrefixCacheStats& PrefixCacheStats::operator+=(const PrefixCacheStats& other) {
  lookups += other.lookups;
  full_hits += other.full_hits;
  misses += other.misses;
  insertions += other.insertions;
  evictions += other.evictions;
  prompt_tokens_seen += other.prompt_tokens_seen;
  prompt_tokens_reused += other.prompt_tokens_reused;
  prompt_tokens_replayed += other.prompt_tokens_replayed;
  return *this;
}

PrefixCacheStats PrefixCacheStats::operator-(
    const PrefixCacheStats& other) const {
  PrefixCacheStats d;
  d.lookups = Saturating(lookups, other.lookups);
  d.full_hits = Saturating(full_hits, other.full_hits);
  d.misses = Saturating(misses, other.misses);
  d.insertions = Saturating(insertions, other.insertions);
  d.evictions = Saturating(evictions, other.evictions);
  d.prompt_tokens_seen = Saturating(prompt_tokens_seen,
                                    other.prompt_tokens_seen);
  d.prompt_tokens_reused = Saturating(prompt_tokens_reused,
                                      other.prompt_tokens_reused);
  d.prompt_tokens_replayed = Saturating(prompt_tokens_replayed,
                                        other.prompt_tokens_replayed);
  return d;
}

size_t PrefixCache::KeyHasher::operator()(const Key& key) const {
  uint64_t h = key.fingerprint;
  h = (h ^ key.hash) * kFnvPrime;
  h = (h ^ static_cast<uint64_t>(key.length)) * kFnvPrime;
  return static_cast<size_t>(h);
}

PrefixCache::PrefixCache(size_t capacity) : capacity_(capacity) {
  MC_CHECK(capacity_ >= 1);
}

PrefixCache::Key PrefixCache::KeyOf(
    uint64_t fingerprint, const std::vector<token::TokenId>& prompt) {
  uint64_t hash = kFnvOffset;
  for (token::TokenId id : prompt) hash = FoldToken(hash, id);
  return Key{fingerprint, hash, prompt.size()};
}

PrefixCache::Entry* PrefixCache::FindLocked(
    const Key& key, const std::vector<token::TokenId>& prompt) {
  auto it = entries_.find(key);
  // Byte-exact verification: the 64-bit hash indexes, the tokens decide.
  if (it == entries_.end() || *it->second.prompt != prompt) return nullptr;
  return &it->second;
}

std::shared_ptr<const NGramLanguageModel> PrefixCache::EnsureLocked(
    const Key& key, const std::vector<token::TokenId>& prompt,
    const ModelFactory& fresh) {
  ++stats_.lookups;
  stats_.prompt_tokens_seen += prompt.size();
  if (Entry* hit = FindLocked(key, prompt)) {
    TouchLocked(hit);
    ++stats_.full_hits;
    stats_.prompt_tokens_reused += prompt.size();
    return hit->model;
  }
  ++stats_.misses;
  stats_.prompt_tokens_replayed += prompt.size();
  std::unique_ptr<NGramLanguageModel> model = fresh();
  model->ObserveAll(prompt);
  model->Freeze();
  std::shared_ptr<const NGramLanguageModel> shared = std::move(model);
  InsertLocked(key, prompt, shared);
  return shared;
}

std::unique_ptr<NGramLanguageModel> PrefixCache::AcquireSession(
    uint64_t fingerprint, const std::vector<token::TokenId>& prompt,
    const ModelFactory& fresh) {
  const Key key = KeyOf(fingerprint, prompt);
  std::lock_guard<std::mutex> lock(mu_);
  return EnsureLocked(key, prompt, fresh)->Fork();
}

void PrefixCache::Warm(uint64_t fingerprint,
                       const std::vector<token::TokenId>& prompt,
                       const ModelFactory& fresh) {
  const Key key = KeyOf(fingerprint, prompt);
  std::lock_guard<std::mutex> lock(mu_);
  EnsureLocked(key, prompt, fresh);
}

void PrefixCache::InsertLocked(
    const Key& key, const std::vector<token::TokenId>& prompt,
    std::shared_ptr<const NGramLanguageModel> model) {
  auto [it, inserted] = entries_.try_emplace(key);
  if (!inserted) {
    // Same key but the lookup missed: a 64-bit hash collision between
    // different prompts of equal length. Astronomically unlikely;
    // newest wins (byte-exact verify keeps reads correct either way).
    ++stats_.evictions;
    RetireTrieLocked(it->second);
    it->second.prompt =
        std::make_shared<const std::vector<token::TokenId>>(prompt);
    it->second.model = std::move(model);
    it->second.trie = nullptr;
    TouchLocked(&it->second);
    return;
  }
  lru_.push_front(key);
  it->second.prompt =
      std::make_shared<const std::vector<token::TokenId>>(prompt);
  it->second.model = std::move(model);
  it->second.lru = lru_.begin();
  ++stats_.insertions;
  while (entries_.size() > capacity_) EvictLocked();
}

void PrefixCache::EvictLocked() {
  MC_CHECK(!lru_.empty());
  Key victim = lru_.back();
  lru_.pop_back();
  auto it = entries_.find(victim);
  RetireTrieLocked(it->second);
  entries_.erase(it);
  ++stats_.evictions;
}

void PrefixCache::RetireTrieLocked(const Entry& entry) {
  if (entry.trie != nullptr) retired_trie_steps_ += entry.trie->shared_steps();
}

std::shared_ptr<DrawTrie> PrefixCache::DrawTrieFor(
    uint64_t fingerprint, const std::vector<token::TokenId>& prompt,
    const DrawTrieFactory& make) {
  const Key key = KeyOf(fingerprint, prompt);
  std::lock_guard<std::mutex> lock(mu_);
  Entry* entry = FindLocked(key, prompt);
  if (entry == nullptr) return nullptr;
  if (entry->trie == nullptr) entry->trie = make(entry->prompt);
  return entry->trie;
}

void PrefixCache::TouchLocked(Entry* entry) {
  lru_.splice(lru_.begin(), lru_, entry->lru);
}

size_t PrefixCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

PrefixCacheStats PrefixCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

size_t PrefixCache::bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t bytes = 0;
  for (const auto& [key, entry] : entries_) {
    (void)key;
    bytes +=
        ApproxChunkBytes(entry.prompt->capacity() * sizeof(token::TokenId));
    if (entry.trie != nullptr) bytes += entry.trie->bytes();
    bytes += entry.model->ApproxMemoryBytes().total();
  }
  return bytes;
}

PrefixCache::DrawTrieTotals PrefixCache::draw_tries() const {
  std::lock_guard<std::mutex> lock(mu_);
  DrawTrieTotals totals;
  totals.steps = retired_trie_steps_;
  for (const auto& [key, entry] : entries_) {
    (void)key;
    if (entry.trie == nullptr) continue;
    totals.nodes += entry.trie->size();
    totals.steps += entry.trie->shared_steps();
  }
  return totals;
}

void PrefixCache::PublishMetrics(util::MetricsRegistry* registry,
                                 const std::string& prefix) const {
  PublishPrefixCacheStats(stats(), registry, prefix);
  registry->GetGauge(prefix + "bytes")->Set(static_cast<double>(bytes()));
  const DrawTrieTotals tries = draw_tries();
  registry->GetGauge(prefix + "trie_nodes")
      ->Set(static_cast<double>(tries.nodes));
  registry->GetGauge(prefix + "trie_steps")
      ->Set(static_cast<double>(tries.steps));
}

void PrefixCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [key, entry] : entries_) {
    (void)key;
    RetireTrieLocked(entry);
  }
  entries_.clear();
  lru_.clear();
}

}  // namespace lm
}  // namespace multicast
