// Tests of the prefix-cache subsystem: the Freeze()/Fork() contract (a
// fork fed the same tokens as a fresh model is bit-identical), the
// cache's LRU/exact-match index mechanics, the model fingerprint that
// namespaces it, and stats reconciliation against the token ledger. A
// multi-threaded hammer at the end exercises the shared-cache locking
// for TSan.

#include "lm/prefix_cache.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "lm/generator.h"
#include "lm/ngram_model.h"
#include "lm/profiles.h"
#include "token/codec.h"
#include "util/metrics.h"

namespace multicast {
namespace lm {
namespace {

constexpr size_t kVocab = 11;  // digits + comma

std::vector<token::TokenId> TokenSeq(size_t n, uint64_t seed) {
  // Deterministic pseudo-random token stream over the vocabulary.
  std::vector<token::TokenId> out;
  out.reserve(n);
  uint64_t x = seed * 0x9e3779b97f4a7c15ULL + 1;
  for (size_t i = 0; i < n; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    out.push_back(static_cast<token::TokenId>(x % kVocab));
  }
  return out;
}

std::vector<token::TokenId> EncodeDigits(const std::string& text) {
  return token::Encode(text, token::Vocabulary::Digits()).ValueOrDie();
}

// Drives `fresh` and `forked` through the same continuation and asserts
// the distributions match exactly at every step — including via the
// in-place NextDistribution overload.
void ExpectLockstep(NGramLanguageModel* fresh, NGramLanguageModel* forked,
                    const std::vector<token::TokenId>& continuation) {
  std::vector<double> buf_fresh, buf_forked;
  for (size_t i = 0; i <= continuation.size(); ++i) {
    SCOPED_TRACE("continuation step " + std::to_string(i));
    ASSERT_EQ(fresh->context_length(), forked->context_length());
    std::vector<double> d_fresh = fresh->NextDistribution();
    std::vector<double> d_forked = forked->NextDistribution();
    EXPECT_EQ(d_fresh, d_forked);
    fresh->NextDistribution(&buf_fresh);
    forked->NextDistribution(&buf_forked);
    EXPECT_EQ(buf_fresh, d_fresh);    // in-place == allocating
    EXPECT_EQ(buf_forked, d_forked);
    if (i < continuation.size()) {
      fresh->Observe(continuation[i]);
      forked->Observe(continuation[i]);
    }
  }
}

// ---------------------------------------------------------------------
// Fork equivalence, swept over options and splits.
// ---------------------------------------------------------------------

struct NGramParam {
  int max_order;
  double backoff_boost;
  double uniform_mix;
};

class NGramForkTest : public testing::TestWithParam<NGramParam> {};

TEST_P(NGramForkTest, ForkMatchesFreshAtEverySplit) {
  NGramOptions opts;
  opts.max_order = GetParam().max_order;
  opts.backoff_boost = GetParam().backoff_boost;
  opts.uniform_mix = GetParam().uniform_mix;
  const std::vector<token::TokenId> prompt = TokenSeq(48, 7);
  const std::vector<token::TokenId> continuation = TokenSeq(16, 11);
  const size_t splits[] = {0, 1, prompt.size() / 2, prompt.size() - 1,
                           prompt.size()};
  for (size_t split : splits) {
    SCOPED_TRACE("split=" + std::to_string(split));
    NGramLanguageModel fresh(kVocab, opts);
    for (token::TokenId id : prompt) fresh.Observe(id);

    NGramLanguageModel base(kVocab, opts);
    for (size_t i = 0; i < split; ++i) base.Observe(prompt[i]);
    base.Freeze();
    EXPECT_TRUE(base.frozen());
    std::unique_ptr<NGramLanguageModel> fork = base.Fork();
    ASSERT_NE(fork, nullptr);
    EXPECT_FALSE(fork->frozen());
    for (size_t i = split; i < prompt.size(); ++i) fork->Observe(prompt[i]);

    ExpectLockstep(&fresh, fork.get(), continuation);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Options, NGramForkTest,
    testing::Values(NGramParam{1, 0.0, 1e-4}, NGramParam{3, 1.5, 0.0},
                    NGramParam{8, 0.0, 0.0}, NGramParam{8, 1.5, 1e-4}),
    [](const testing::TestParamInfo<NGramParam>& info) {
      return "Order" + std::to_string(info.param.max_order) + "Boost" +
             std::to_string(static_cast<int>(info.param.backoff_boost * 10)) +
             "Mix" + std::to_string(info.param.uniform_mix > 0.0);
    });

// Two forks of one base diverge independently: tokens observed by one
// are invisible to its sibling and to the frozen base.
TEST(ForkIsolationTest, SiblingForksDoNotLeakState)
{
  NGramLanguageModel base(kVocab, NGramOptions{});
  for (token::TokenId id : TokenSeq(30, 1)) base.Observe(id);
  base.Freeze();
  std::unique_ptr<NGramLanguageModel> a = base.Fork();
  std::unique_ptr<NGramLanguageModel> b = base.Fork();
  std::vector<double> before = b->NextDistribution();
  for (token::TokenId id : TokenSeq(20, 2)) a->Observe(id);
  // b and the base are untouched by a's writes.
  EXPECT_EQ(b->NextDistribution(), before);
  std::unique_ptr<NGramLanguageModel> c = base.Fork();
  EXPECT_EQ(c->NextDistribution(), before);
}

// Reset on a frozen model drops the base and un-freezes.
TEST(ForkContractTest, ResetUnfreezesToEmpty) {
  NGramLanguageModel model(kVocab, NGramOptions{});
  for (token::TokenId id : TokenSeq(10, 5)) model.Observe(id);
  model.Freeze();
  ASSERT_TRUE(model.frozen());
  model.Reset();
  EXPECT_FALSE(model.frozen());
  EXPECT_EQ(model.context_length(), 0u);
  EXPECT_EQ(model.num_entries(), 0u);
  // Mutable again after Reset.
  model.Observe(3);
  EXPECT_EQ(model.context_length(), 1u);
}

// ---------------------------------------------------------------------
// ModelFingerprint: the cache-key namespace. Two profiles may share
// cached states only if every field that shapes a model's state is
// equal; fields that shape only token selection or storage must not
// split the cache.
// ---------------------------------------------------------------------

TEST(ModelFingerprintTest, BackEndProfilesDiffer) {
  EXPECT_NE(ModelFingerprint(ModelProfile::Llama2_7B(), kVocab),
            ModelFingerprint(ModelProfile::Phi2(), kVocab));
}

TEST(ModelFingerprintTest, VocabAndEveryFoldedOptionChangeIt) {
  const ModelProfile base = ModelProfile::Llama2_7B();
  const uint64_t fp = ModelFingerprint(base, kVocab);
  EXPECT_EQ(ModelFingerprint(base, kVocab), fp);  // stable
  EXPECT_NE(ModelFingerprint(base, kVocab + 1), fp);
  ModelProfile order = base;
  order.ngram.max_order = base.ngram.max_order - 1;
  EXPECT_NE(ModelFingerprint(order, kVocab), fp);
  ModelProfile boost = base;
  boost.ngram.backoff_boost = base.ngram.backoff_boost + 0.5;
  EXPECT_NE(ModelFingerprint(boost, kVocab), fp);
  ModelProfile mix = base;
  mix.ngram.uniform_mix = base.ngram.uniform_mix * 2.0;
  EXPECT_NE(ModelFingerprint(mix, kVocab), fp);
}

TEST(ModelFingerprintTest, SamplerPoolAndStorageOptionsDoNot) {
  const ModelProfile base = ModelProfile::Llama2_7B();
  const uint64_t fp = ModelFingerprint(base, kVocab);
  ModelProfile sampler = base;
  sampler.sampler = ModelProfile::Phi2().sampler;
  sampler.sampler.top_k = 3;
  sampler.sampler.top_p = 0.8;
  EXPECT_EQ(ModelFingerprint(sampler, kVocab), fp);
  ModelProfile pooled = base;
  pooled.memory_pool = std::make_shared<BlockPool>(PagedMemoryOptions{});
  EXPECT_EQ(ModelFingerprint(pooled, kVocab), fp);
}

// ---------------------------------------------------------------------
// PrefixCache index mechanics.
// ---------------------------------------------------------------------

PrefixCache::ModelFactory NGramFactory() {
  return [] {
    return std::make_unique<NGramLanguageModel>(kVocab, NGramOptions{});
  };
}

TEST(PrefixCacheTest, MissThenFullHit) {
  PrefixCache cache(4);
  const std::vector<token::TokenId> prompt = TokenSeq(32, 1);
  std::unique_ptr<NGramLanguageModel> first =
      cache.AcquireSession(1, prompt, NGramFactory());
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first->context_length(), prompt.size());
  std::unique_ptr<NGramLanguageModel> second =
      cache.AcquireSession(1, prompt, NGramFactory());
  ASSERT_NE(second, nullptr);
  EXPECT_EQ(second->NextDistribution(), first->NextDistribution());

  PrefixCacheStats s = cache.stats();
  EXPECT_EQ(s.lookups, 2u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.full_hits, 1u);
  EXPECT_EQ(s.insertions, 1u);
  EXPECT_EQ(s.prompt_tokens_seen, 2 * prompt.size());
  EXPECT_EQ(s.prompt_tokens_reused, prompt.size());
  EXPECT_EQ(s.prompt_tokens_replayed, prompt.size());
  EXPECT_EQ(s.prompt_tokens_seen,
            s.prompt_tokens_reused + s.prompt_tokens_replayed);
}

// The cache matches whole prompts only: a prompt that extends a cached
// one is a counted miss, replayed and cached in full beside it, and the
// lookup leaves the shorter entry where it was in the LRU.
TEST(PrefixCacheTest, ExtendingACachedPromptIsACountedMiss) {
  PrefixCache cache(2);
  const std::vector<token::TokenId> prompt = TokenSeq(40, 9);
  const std::vector<token::TokenId> shorter(prompt.begin(),
                                            prompt.begin() + 30);
  const std::vector<token::TokenId> other = TokenSeq(30, 5);
  cache.Warm(1, shorter, NGramFactory());
  cache.Warm(1, other, NGramFactory());  // `shorter` is least recent now
  const PrefixCacheStats before = cache.stats();

  std::unique_ptr<NGramLanguageModel> session =
      cache.AcquireSession(1, prompt, NGramFactory());
  ASSERT_NE(session, nullptr);
  const PrefixCacheStats s = cache.stats();
  EXPECT_EQ(s.lookups, before.lookups + 1);
  EXPECT_EQ(s.misses, before.misses + 1);
  EXPECT_EQ(s.insertions, before.insertions + 1);
  EXPECT_EQ(s.full_hits, before.full_hits);
  EXPECT_EQ(s.prompt_tokens_replayed,
            before.prompt_tokens_replayed + prompt.size());
  EXPECT_EQ(s.prompt_tokens_reused, before.prompt_tokens_reused);

  // Bit-exact against a fresh session.
  NGramLanguageModel fresh(kVocab, NGramOptions{});
  for (token::TokenId id : prompt) fresh.Observe(id);
  ExpectLockstep(&fresh, session.get(), TokenSeq(8, 4));

  // The insert evicted the least recent entry, which is still `shorter`:
  // the lookup did not touch it.
  EXPECT_EQ(s.evictions, before.evictions + 1);
  cache.AcquireSession(1, other, NGramFactory());
  EXPECT_EQ(cache.stats().full_hits, s.full_hits + 1);
  cache.AcquireSession(1, shorter, NGramFactory());
  EXPECT_EQ(cache.stats().misses, s.misses + 1);
}

TEST(PrefixCacheTest, MatchingIsByteExactNotJustLength) {
  PrefixCache cache(8);
  std::vector<token::TokenId> a = TokenSeq(24, 1);
  std::vector<token::TokenId> b = TokenSeq(24, 2);  // same length, differs
  ASSERT_NE(a, b);
  cache.Warm(1, a, NGramFactory());
  std::unique_ptr<NGramLanguageModel> session =
      cache.AcquireSession(1, b, NGramFactory());
  ASSERT_NE(session, nullptr);
  EXPECT_EQ(cache.stats().full_hits, 0u);
  EXPECT_EQ(cache.stats().misses, 2u);  // warm + acquire both missed
  NGramLanguageModel fresh(kVocab, NGramOptions{});
  for (token::TokenId id : b) fresh.Observe(id);
  EXPECT_EQ(session->NextDistribution(), fresh.NextDistribution());
}

TEST(PrefixCacheTest, FingerprintsAreSeparateNamespaces) {
  PrefixCache cache(8);
  std::vector<token::TokenId> prompt = TokenSeq(24, 1);
  cache.Warm(1, prompt, NGramFactory());
  cache.AcquireSession(2, prompt, NGramFactory());
  // Same prompt under a different fingerprint is a miss, not a hit.
  EXPECT_EQ(cache.stats().full_hits, 0u);
  EXPECT_EQ(cache.stats().misses, 2u);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(PrefixCacheTest, EvictionIsLeastRecentlyUsed) {
  PrefixCache cache(2);
  std::vector<token::TokenId> p1 = TokenSeq(16, 1);
  std::vector<token::TokenId> p2 = TokenSeq(16, 2);
  std::vector<token::TokenId> p3 = TokenSeq(16, 3);
  cache.Warm(1, p1, NGramFactory());
  cache.Warm(1, p2, NGramFactory());
  // Touch p1 so p2 becomes least-recently-used.
  cache.AcquireSession(1, p1, NGramFactory());
  cache.Warm(1, p3, NGramFactory());  // evicts p2
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().evictions, 1u);

  PrefixCacheStats before = cache.stats();
  cache.AcquireSession(1, p1, NGramFactory());  // still cached
  EXPECT_EQ(cache.stats().full_hits, before.full_hits + 1);
  cache.AcquireSession(1, p2, NGramFactory());  // was evicted: miss
  EXPECT_EQ(cache.stats().misses, before.misses + 1);
}

TEST(PrefixCacheTest, EvictedBaseStaysValidForLiveForkedSessions) {
  PrefixCache cache(1);
  std::vector<token::TokenId> p1 = TokenSeq(24, 1);
  std::vector<token::TokenId> p2 = TokenSeq(24, 2);
  // The session forked off p1's frozen base keeps the base alive via
  // shared ownership even after the LRU slot is stolen.
  std::unique_ptr<NGramLanguageModel> session =
      cache.AcquireSession(1, p1, NGramFactory());
  ASSERT_NE(session, nullptr);
  cache.Warm(1, p2, NGramFactory());  // capacity 1: evicts p1's entry
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.stats().evictions, 1u);

  // The orphaned session still decodes bit-exactly.
  NGramLanguageModel fresh(kVocab, NGramOptions{});
  for (token::TokenId id : p1) fresh.Observe(id);
  ExpectLockstep(&fresh, session.get(), TokenSeq(8, 5));

  // And p1 is genuinely gone from the index: a re-acquire misses.
  PrefixCacheStats before = cache.stats();
  cache.AcquireSession(1, p1, NGramFactory());
  EXPECT_EQ(cache.stats().misses, before.misses + 1);
}

TEST(PrefixCacheTest, ReplicasSharingOneCacheStayFingerprintIsolated) {
  // Cluster replicas may share one cache object (an external cache
  // tier); per-replica fingerprints must then namespace the entries so
  // one node's state is never served as another's.
  PrefixCache cache(8);
  constexpr uint64_t kReplicaA = 0xA;
  constexpr uint64_t kReplicaB = 0xB;
  std::vector<token::TokenId> prompt = TokenSeq(24, 3);

  cache.Warm(kReplicaA, prompt, NGramFactory());
  EXPECT_EQ(cache.size(), 1u);
  // Replica B sees a cold cache for the identical prompt.
  cache.AcquireSession(kReplicaB, prompt, NGramFactory());
  EXPECT_EQ(cache.stats().hits(), 0u);
  EXPECT_EQ(cache.stats().misses, 2u);
  EXPECT_EQ(cache.size(), 2u);

  // After both warmed, each replica full-hits its own namespace only.
  PrefixCacheStats before = cache.stats();
  cache.AcquireSession(kReplicaA, prompt, NGramFactory());
  cache.AcquireSession(kReplicaB, prompt, NGramFactory());
  EXPECT_EQ(cache.stats().full_hits, before.full_hits + 2);
  EXPECT_EQ(cache.stats().misses, before.misses);

  // A prompt that extends the one both replicas cached is a miss for
  // B: every token is replayed, none reused from either namespace.
  std::vector<token::TokenId> longer = TokenSeq(32, 3);
  ASSERT_TRUE(std::equal(prompt.begin(), prompt.end(), longer.begin()));
  before = cache.stats();
  cache.AcquireSession(kReplicaB, longer, NGramFactory());
  EXPECT_EQ(cache.stats().misses, before.misses + 1);
  EXPECT_EQ(cache.stats().prompt_tokens_replayed,
            before.prompt_tokens_replayed + longer.size());
  EXPECT_EQ(cache.stats().prompt_tokens_reused, before.prompt_tokens_reused);
}

TEST(PrefixCacheTest, ClearDropsEntriesKeepsCounters) {
  PrefixCache cache(4);
  cache.Warm(1, TokenSeq(16, 1), NGramFactory());
  ASSERT_EQ(cache.size(), 1u);
  PrefixCacheStats before = cache.stats();
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.stats().lookups, before.lookups);
  EXPECT_EQ(cache.stats().insertions, before.insertions);
  // A re-acquire after Clear is a miss again.
  cache.AcquireSession(1, TokenSeq(16, 1), NGramFactory());
  EXPECT_EQ(cache.stats().misses, before.misses + 1);
}

// The draw trie an entry keeps (PrefixCache::DrawTrieFor): made once,
// found only for the entry's exact prompt, counted in bytes() and in the
// trie gauges, and dropped with the entry on eviction and Clear(), while
// a caller's pointer keeps it alive and the steps it saved stay counted.
TEST(PrefixCacheTest, DrawTriesLiveAndDieWithTheirEntries) {
  const ModelProfile profile = ModelProfile::Llama2_7B();
  const uint64_t fingerprint = ModelFingerprint(profile, kVocab);
  auto cache = std::make_shared<PrefixCache>(2);
  const std::vector<token::TokenId> p1 = TokenSeq(40, 1);
  const GrammarMask mask = AllowAll(kVocab);
  SimulatedLlm warmer(profile, kVocab, cache);
  ASSERT_TRUE(warmer.WarmPrefix(p1).ok());
  int made = 0;
  const PrefixCache::DrawTrieFactory make =
      [&](std::shared_ptr<const std::vector<token::TokenId>> prompt) {
        ++made;
        return std::make_shared<DrawTrie>(profile, kVocab, std::move(prompt),
                                          12, mask, kCacheDrawTrieBytes);
      };
  EXPECT_EQ(cache->DrawTrieFor(fingerprint, TokenSeq(40, 2), make), nullptr);
  EXPECT_EQ(cache->DrawTrieFor(fingerprint,
                               std::vector<token::TokenId>(p1.begin(),
                                                           p1.end() - 1),
                               make),
            nullptr);
  EXPECT_EQ(cache->DrawTrieFor(fingerprint + 1, p1, make), nullptr);
  EXPECT_EQ(made, 0);
  const size_t bytes_before = cache->bytes();
  std::shared_ptr<DrawTrie> trie = cache->DrawTrieFor(fingerprint, p1, make);
  ASSERT_NE(trie, nullptr);
  EXPECT_EQ(cache->DrawTrieFor(fingerprint, p1, make), trie);
  EXPECT_EQ(made, 1);
  const PrefixCacheStats stats = cache->stats();
  for (uint64_t seed = 0; seed < 4; ++seed) {
    DrawTrie::Log log(trie.get());
    SimulatedLlm llm(profile, kVocab, cache, &log);
    Rng rng(seed);
    ASSERT_TRUE(llm.Complete(p1, 12, mask, &rng).ok());
    trie->Publish(&log);
  }
  // Four forks, and no lookup or LRU touch of DrawTrieFor's own.
  EXPECT_EQ(cache->stats().lookups, stats.lookups + 4);
  EXPECT_EQ(cache->stats().full_hits, stats.full_hits + 4);
  ASSERT_GT(trie->size(), 0u);
  ASSERT_GT(trie->shared_steps(), 0u);
  EXPECT_EQ(cache->bytes(), bytes_before + trie->bytes());
  PrefixCache::DrawTrieTotals totals = cache->draw_tries();
  EXPECT_EQ(totals.nodes, trie->size());
  EXPECT_EQ(totals.steps, trie->shared_steps());
  EXPECT_FALSE(trie->full());
  util::MetricsRegistry registry;
  cache->PublishMetrics(&registry);
  EXPECT_EQ(registry.GetGauge("prefix_cache.trie_nodes")->value(),
            static_cast<double>(trie->size()));
  EXPECT_EQ(registry.GetGauge("prefix_cache.trie_steps")->value(),
            static_cast<double>(trie->shared_steps()));

  // Two more prompts through the two entries evict p1 and its trie; the
  // pointer held here still walks and takes Logs.
  ASSERT_TRUE(warmer.WarmPrefix(TokenSeq(40, 2)).ok());
  ASSERT_TRUE(warmer.WarmPrefix(TokenSeq(40, 3)).ok());
  EXPECT_EQ(cache->draw_tries().nodes, 0u);
  EXPECT_EQ(cache->draw_tries().steps, totals.steps);
  {
    DrawTrie::Log log(trie.get());
    SimulatedLlm llm(profile, kVocab, nullptr, &log);
    Rng rng(0);
    ASSERT_TRUE(llm.Complete(p1, 12, mask, &rng).ok());
    trie->Publish(&log);
  }
  ASSERT_TRUE(warmer.WarmPrefix(p1).ok());
  std::shared_ptr<DrawTrie> fresh = cache->DrawTrieFor(fingerprint, p1, make);
  ASSERT_NE(fresh, nullptr);
  EXPECT_NE(fresh, trie);
  EXPECT_EQ(fresh->size(), 0u);
  EXPECT_EQ(made, 2);

  // Clear() drops the new trie too, and keeps the steps counted.
  {
    DrawTrie::Log log(fresh.get());
    SimulatedLlm llm(profile, kVocab, cache, &log);
    Rng rng(0);
    ASSERT_TRUE(llm.Complete(p1, 12, mask, &rng).ok());
    fresh->Publish(&log);
  }
  const size_t steps = cache->draw_tries().steps;
  cache->Clear();
  EXPECT_EQ(cache->draw_tries().nodes, 0u);
  EXPECT_EQ(cache->draw_tries().steps, steps);
  EXPECT_EQ(cache->bytes(), 0u);
}

// A trie past its byte budget takes no further node; lanes that leave
// it decode fresh and log nothing, with the plain loop's tokens.
TEST(PrefixCacheTest, DrawTrieStopsGrowingAtItsBudget) {
  const ModelProfile profile = ModelProfile::Llama2_7B();
  const std::vector<token::TokenId> prompt = TokenSeq(40, 1);
  const GrammarMask mask = AllowAll(kVocab);
  // Nodes of 16 header bytes and 11 running sums: room for 10.
  DrawTrie trie(profile, kVocab, prompt, 12, mask,
                10 * (16 + 11 * sizeof(double)));
  for (uint64_t seed = 0; seed < 6; ++seed) {
    DrawTrie::Log log(&trie);
    SimulatedLlm llm(profile, kVocab, nullptr, &log);
    SimulatedLlm plain(profile, kVocab);
    Rng rng(seed);
    Rng plain_rng(seed);
    auto got = llm.Complete(prompt, 12, mask, &rng);
    auto want = plain.Complete(prompt, 12, mask, &plain_rng);
    ASSERT_TRUE(got.ok() && want.ok());
    EXPECT_EQ(got.value().tokens, want.value().tokens);
    EXPECT_EQ(rng.NextUint32(), plain_rng.NextUint32());
    if (trie.full()) {
      EXPECT_EQ(log.size(), 0u);
    }
    trie.Publish(&log);
    EXPECT_LE(trie.size(), 10u);
  }
  EXPECT_TRUE(trie.full());
  EXPECT_EQ(trie.size(), 10u);
}

TEST(PrefixCacheStatsTest, DifferenceSaturatesAtZero) {
  PrefixCacheStats a, b;
  a.lookups = 3;
  b.lookups = 5;
  b.full_hits = 2;
  PrefixCacheStats d = a - b;
  EXPECT_EQ(d.lookups, 0u);
  EXPECT_EQ(d.full_hits, 0u);
  PrefixCacheStats sum;
  sum += a;
  sum += b;
  EXPECT_EQ(sum.lookups, 8u);
  EXPECT_EQ(sum.hits(), 2u);
}

// ---------------------------------------------------------------------
// Reconciliation with the token ledger through SimulatedLlm.
// ---------------------------------------------------------------------

TEST(PrefixCacheLedgerTest, LedgerStaysLogicalWhileStatsCountReplay) {
  auto cache = std::make_shared<PrefixCache>(16);
  SimulatedLlm llm(ModelProfile::Llama2_7B(), kVocab, cache);
  const std::vector<token::TokenId> prompt = EncodeDigits("12,34,56,78,");
  const size_t n = prompt.size();
  ASSERT_TRUE(llm.WarmPrefix(prompt).ok());

  const size_t kCalls = 4;
  for (size_t i = 0; i < kCalls; ++i) {
    Rng rng(100 + i);
    auto gen = llm.Complete(prompt, 6, AllowAll(kVocab), &rng);
    ASSERT_TRUE(gen.ok()) << gen.status().ToString();
    // The ledger reports the logical prompt size every call, cached or
    // not — bit-identical to an uncached run.
    EXPECT_EQ(gen.value().ledger.prompt_tokens, n);
    EXPECT_EQ(gen.value().ledger.generated_tokens, 6u);
  }

  PrefixCacheStats s = cache->stats();
  EXPECT_EQ(s.lookups, kCalls + 1);  // warm + 4 completes
  EXPECT_EQ(s.misses, 1u);           // the warm built the entry
  EXPECT_EQ(s.full_hits, kCalls);
  EXPECT_EQ(s.prompt_tokens_seen, (kCalls + 1) * n);
  EXPECT_EQ(s.prompt_tokens_replayed, n);
  EXPECT_EQ(s.prompt_tokens_reused, kCalls * n);
  EXPECT_EQ(s.prompt_tokens_seen,
            s.prompt_tokens_reused + s.prompt_tokens_replayed);
}

TEST(PrefixCacheLedgerTest, CachedAndUncachedCompletionsAreIdentical) {
  const std::vector<token::TokenId> prompt = EncodeDigits("17,23,17,23,");
  for (const ModelProfile& profile :
       {ModelProfile::Llama2_7B(), ModelProfile::Phi2()}) {
    SCOPED_TRACE(profile.name);
    SimulatedLlm uncached(profile, kVocab);
    SimulatedLlm cached(profile, kVocab, std::make_shared<PrefixCache>(8));
    for (uint64_t seed : {1ULL, 7ULL, 42ULL}) {
      Rng rng_a(seed);
      Rng rng_b(seed);
      auto a = uncached.Complete(prompt, 9, AllowAll(kVocab), &rng_a);
      auto b = cached.Complete(prompt, 9, AllowAll(kVocab), &rng_b);
      ASSERT_TRUE(a.ok());
      ASSERT_TRUE(b.ok());
      EXPECT_EQ(a.value().tokens, b.value().tokens);
      EXPECT_EQ(a.value().ledger.prompt_tokens, b.value().ledger.prompt_tokens);
      EXPECT_EQ(a.value().ledger.generated_tokens,
                b.value().ledger.generated_tokens);
    }
  }
}

// ---------------------------------------------------------------------
// Concurrency: many threads share one cache (the TSan target).
// ---------------------------------------------------------------------

TEST(PrefixCacheThreadingTest, ConcurrentSessionsMatchSerialResults) {
  auto cache = std::make_shared<PrefixCache>(8);
  const ModelProfile profile = ModelProfile::Llama2_7B();
  // Four prompts over a capacity-8 cache, hammered by 8 threads: forks,
  // misses (one prompt extends another, and is a miss of its own) and
  // evict-free steady state all race.
  std::vector<std::vector<token::TokenId>> prompts = {
      EncodeDigits("12,34,56,"), EncodeDigits("12,34,56,78,"),
      EncodeDigits("99,98,97,"), EncodeDigits("11,11,11,")};

  // Serial reference results, one per (prompt, seed) pair.
  std::vector<std::vector<token::TokenId>> expected;
  for (size_t p = 0; p < prompts.size(); ++p) {
    SimulatedLlm solo(profile, kVocab);
    Rng rng(1000 + p);
    expected.push_back(
        solo.Complete(prompts[p], 8, AllowAll(kVocab), &rng)
            .ValueOrDie()
            .tokens);
  }

  const int kThreads = 8;
  const int kIterations = 12;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      SimulatedLlm llm(profile, kVocab, cache);
      for (int i = 0; i < kIterations; ++i) {
        size_t p = static_cast<size_t>(t + i) % prompts.size();
        Rng rng(1000 + p);
        auto gen = llm.Complete(prompts[p], 8, AllowAll(kVocab), &rng);
        if (!gen.ok() || gen.value().tokens != expected[p]) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(mismatches.load(), 0);
  PrefixCacheStats s = cache->stats();
  EXPECT_EQ(s.lookups, static_cast<size_t>(kThreads * kIterations));
  EXPECT_EQ(s.prompt_tokens_seen,
            s.prompt_tokens_reused + s.prompt_tokens_replayed);
  // Concurrent builds of the same prompt are deduplicated under the
  // lock: one insertion per distinct prompt.
  EXPECT_EQ(s.insertions, prompts.size());
  EXPECT_EQ(cache->size(), prompts.size());
}

}  // namespace
}  // namespace lm
}  // namespace multicast
