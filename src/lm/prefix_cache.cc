#include "lm/prefix_cache.h"

#include <algorithm>
#include <span>

#include "lm/paged_store.h"
#include "util/status.h"

namespace multicast {
namespace lm {

namespace {
// FNV-1a over token ids, computed incrementally so every prefix hash of
// a prompt falls out of one left-to-right pass.
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
  registry->GetCounter(prefix + "prefix_hits")
      ->Add(static_cast<double>(stats.prefix_hits));
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
  prefix_hits += other.prefix_hits;
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
  d.prefix_hits = Saturating(prefix_hits, other.prefix_hits);
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

PrefixCache::PrefixCache(size_t capacity) : capacity_(capacity) {}

std::vector<uint64_t> PrefixCache::PrefixHashes(
    const std::vector<token::TokenId>& prompt) {
  std::vector<uint64_t> hashes(prompt.size() + 1);
  hashes[0] = kFnvOffset;
  for (size_t i = 0; i < prompt.size(); ++i) {
    hashes[i + 1] = FoldToken(hashes[i], prompt[i]);
  }
  return hashes;
}

PrefixCache::Entry* PrefixCache::LookupLocked(
    uint64_t fingerprint, const std::vector<token::TokenId>& prompt,
    const std::vector<uint64_t>& hashes) {
  auto lens = lengths_.find(fingerprint);
  if (lens == lengths_.end()) return nullptr;
  // Probe stored lengths longest-first; each length needs exactly one
  // hash lookup because the only entry that could match carries the
  // prompt's own prefix hash at that length.
  for (auto it = lens->second.rbegin(); it != lens->second.rend(); ++it) {
    size_t len = it->first;
    if (len > prompt.size() || len == 0) continue;
    Key key{fingerprint, hashes[len], len};
    auto found = entries_.find(key);
    if (found == entries_.end()) continue;
    // Byte-exact verification: 64-bit hashes index, tokens decide.
    const std::vector<token::TokenId>& stored = found->second.prompt;
    if (!std::equal(stored.begin(), stored.end(), prompt.begin())) continue;
    TouchLocked(&found->second);
    return &found->second;
  }
  return nullptr;
}

std::unique_ptr<NGramLanguageModel> PrefixCache::ReplayLocked(
    const std::vector<token::TokenId>& prompt, const ModelFactory& fresh) {
  ++stats_.lookups;
  stats_.prompt_tokens_seen += prompt.size();
  ++stats_.misses;
  stats_.prompt_tokens_replayed += prompt.size();
  std::unique_ptr<NGramLanguageModel> model = fresh();
  model->ObserveAll(prompt);
  return model;
}

std::shared_ptr<const NGramLanguageModel> PrefixCache::EnsureLocked(
    uint64_t fingerprint, const std::vector<token::TokenId>& prompt,
    const ModelFactory& fresh) {
  ++stats_.lookups;
  stats_.prompt_tokens_seen += prompt.size();
  std::vector<uint64_t> hashes = PrefixHashes(prompt);
  Entry* match = LookupLocked(fingerprint, prompt, hashes);
  if (match != nullptr && match->prompt.size() == prompt.size()) {
    ++stats_.full_hits;
    stats_.prompt_tokens_reused += prompt.size();
    return match->model;
  }

  std::unique_ptr<NGramLanguageModel> model;
  size_t matched = 0;
  if (match != nullptr) {
    ++stats_.prefix_hits;
    matched = match->prompt.size();
    stats_.prompt_tokens_reused += matched;
    model = match->model->Fork();
  } else {
    ++stats_.misses;
    model = fresh();
  }
  model->ObserveAll(std::span(prompt).subspan(matched));
  stats_.prompt_tokens_replayed += prompt.size() - matched;
  model->Freeze();
  std::shared_ptr<const NGramLanguageModel> shared = std::move(model);
  InsertLocked(fingerprint, prompt, hashes[prompt.size()], shared);
  return shared;
}

std::unique_ptr<NGramLanguageModel> PrefixCache::AcquireSession(
    uint64_t fingerprint, const std::vector<token::TokenId>& prompt,
    const ModelFactory& fresh) {
  std::lock_guard<std::mutex> lock(mu_);
  if (capacity_ == 0) return ReplayLocked(prompt, fresh);
  return EnsureLocked(fingerprint, prompt, fresh)->Fork();
}

void PrefixCache::Warm(uint64_t fingerprint,
                       const std::vector<token::TokenId>& prompt,
                       const ModelFactory& fresh) {
  std::lock_guard<std::mutex> lock(mu_);
  if (capacity_ == 0) {
    ReplayLocked(prompt, fresh);
  } else {
    EnsureLocked(fingerprint, prompt, fresh);
  }
}

void PrefixCache::InsertLocked(
    uint64_t fingerprint, const std::vector<token::TokenId>& prompt,
    uint64_t full_hash, std::shared_ptr<const NGramLanguageModel> model) {
  Key key{fingerprint, full_hash, prompt.size()};
  auto [it, inserted] = entries_.try_emplace(key);
  if (!inserted) {
    // Same key but the lookup missed: a 64-bit hash collision between
    // different prompts of equal length. Astronomically unlikely;
    // newest wins (byte-exact verify keeps reads correct either way).
    ++stats_.evictions;
    it->second.prompt = prompt;
    it->second.model = std::move(model);
    TouchLocked(&it->second);
    return;
  }
  lru_.push_front(key);
  it->second.prompt = prompt;
  it->second.model = std::move(model);
  it->second.lru = lru_.begin();
  ++lengths_[fingerprint][prompt.size()];
  ++stats_.insertions;
  while (entries_.size() > capacity_) EvictLocked();
}

void PrefixCache::EvictLocked() {
  MC_CHECK(!lru_.empty());
  Key victim = lru_.back();
  lru_.pop_back();
  entries_.erase(victim);
  EraseIndexLocked(victim);
  ++stats_.evictions;
}

void PrefixCache::TouchLocked(Entry* entry) {
  lru_.splice(lru_.begin(), lru_, entry->lru);
}

void PrefixCache::EraseIndexLocked(const Key& key) {
  auto lens = lengths_.find(key.fingerprint);
  if (lens == lengths_.end()) return;
  auto it = lens->second.find(key.length);
  if (it == lens->second.end()) return;
  if (--it->second == 0) lens->second.erase(it);
  if (lens->second.empty()) lengths_.erase(lens);
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
  // One tally across all entries: a frozen layer shared by several
  // cached states (prefix-extension chains fork one another; paged
  // stores share blocks) is counted exactly once.
  MemoryTally tally;
  for (const auto& [key, entry] : entries_) {
    (void)key;
    tally.bytes +=
        ApproxChunkBytes(entry.prompt.capacity() * sizeof(token::TokenId));
    entry.model->TallyMemory(&tally);
  }
  return tally.bytes;
}

void PrefixCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  entries_.clear();
  lru_.clear();
  lengths_.clear();
}

}  // namespace lm
}  // namespace multicast
