#include "lm/paged_store.h"

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <vector>

#include "lm/mixture_model.h"
#include "lm/ngram_model.h"
#include "lm/prefix_cache.h"
#include "util/metrics.h"

namespace multicast {
namespace lm {
namespace {

std::shared_ptr<BlockPool> MakePool(size_t block_span, size_t max_blocks,
                                    bool enabled = true) {
  PagedMemoryOptions options;
  options.enabled = enabled;
  options.block_span = block_span;
  options.max_blocks = max_blocks;
  return std::make_shared<BlockPool>(options);
}

// Deterministic token stream (LCG), independent of any global RNG.
std::vector<token::TokenId> TokenStream(size_t n, size_t vocab,
                                        uint64_t seed) {
  std::vector<token::TokenId> out;
  out.reserve(n);
  uint64_t s = seed;
  for (size_t i = 0; i < n; ++i) {
    s = s * 6364136223846793005ULL + 1442695040888963407ULL;
    out.push_back(static_cast<token::TokenId>((s >> 33) % vocab));
  }
  return out;
}

// Bit-identity: every probability must be the exact same double.
void ExpectSameDistribution(const LanguageModel& a, const LanguageModel& b) {
  const std::vector<double> pa = a.NextDistribution();
  const std::vector<double> pb = b.NextDistribution();
  ASSERT_EQ(pa.size(), pb.size());
  for (size_t i = 0; i < pa.size(); ++i) {
    ASSERT_EQ(pa[i], pb[i]) << "token " << i;
  }
}

TEST(BlockPoolTest, AllocatesRecyclesAndTracksHighWater) {
  auto pool = MakePool(/*block_span=*/8, /*max_blocks=*/0);
  BlockRef a = pool->Allocate(128);
  BlockRef b = pool->Allocate(128);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(a->bytes(), 128u);
  BlockPoolStats stats = pool->stats();
  EXPECT_EQ(stats.blocks_live, 2u);
  EXPECT_EQ(stats.blocks_peak, 2u);
  EXPECT_EQ(stats.bytes_live, 256u);
  EXPECT_EQ(stats.bytes_peak, 256u);
  EXPECT_EQ(stats.blocks_free, 0u);
  EXPECT_EQ(pool->Fullness(), 0.0);  // unbounded pool: no pressure

  a.reset();
  stats = pool->stats();
  EXPECT_EQ(stats.blocks_live, 1u);
  EXPECT_EQ(stats.blocks_free, 1u);
  EXPECT_EQ(stats.blocks_peak, 2u);  // high-water mark sticks

  // Same-size allocation comes from the freelist.
  BlockRef c = pool->Allocate(128);
  ASSERT_NE(c, nullptr);
  stats = pool->stats();
  EXPECT_EQ(stats.blocks_recycled, 1u);
  EXPECT_EQ(stats.blocks_live, 2u);
  EXPECT_EQ(stats.blocks_free, 0u);
}

TEST(BlockPoolTest, CapRefusesWithExhaustionEventAndFullness) {
  auto pool = MakePool(/*block_span=*/8, /*max_blocks=*/2);
  BlockRef a = pool->Allocate(64);
  BlockRef b = pool->Allocate(64);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(pool->Fullness(), 1.0);
  BlockRef c = pool->Allocate(64);
  EXPECT_EQ(c, nullptr);
  EXPECT_EQ(pool->stats().exhaustion_events, 1u);
  // Releasing a block makes room again.
  a.reset();
  EXPECT_EQ(pool->Fullness(), 0.5);
  BlockRef d = pool->Allocate(64);
  EXPECT_NE(d, nullptr);
}

TEST(BlockPoolTest, BlockOutlivesPoolObject) {
  BlockRef survivor;
  {
    auto pool = MakePool(/*block_span=*/4, /*max_blocks=*/0);
    survivor = pool->Allocate(32);
    ASSERT_NE(survivor, nullptr);
  }
  // The deleter holds the pool internals alive; releasing after the
  // BlockPool object died must be safe (ASan-verified).
  std::memset(survivor->data(), 0xAB, survivor->bytes());
  survivor.reset();
}

TEST(BlockPoolTest, SessionAccountingAndMetricsRoundtrip) {
  auto pool = MakePool(/*block_span=*/8, /*max_blocks=*/0);
  BlockRef a = pool->Allocate(100);
  pool->NoteSessionEnd(/*overlay_bytes=*/100, /*base_bytes=*/400);
  pool->NoteSessionEnd(/*overlay_bytes=*/300, /*base_bytes=*/400);
  BlockPoolStats stats = pool->stats();
  EXPECT_EQ(stats.sessions, 2u);
  EXPECT_EQ(stats.session_overlay_bytes, 400u);
  EXPECT_EQ(stats.session_base_bytes, 800u);
  EXPECT_EQ(stats.bytes_per_session(), 200.0);
  EXPECT_EQ(stats.sharing_ratio(), 1200.0 / 100.0);

  util::MetricsRegistry registry;
  pool->PublishMetrics(&registry);
  const util::MetricsSnapshot snap = registry.Snapshot();
  BlockPoolStats back = BlockPoolStatsFromSnapshot(snap, "lm.mem.");
  EXPECT_EQ(back.blocks_live, stats.blocks_live);
  EXPECT_EQ(back.bytes_peak, stats.bytes_peak);
  EXPECT_EQ(back.sessions, stats.sessions);
  EXPECT_EQ(back.session_overlay_bytes, stats.session_overlay_bytes);
  EXPECT_EQ(snap.Value("lm.mem.pool_fullness"), 0.0);
}

TEST(PagedContextStoreTest, InsertFindForEachAndIndexGrowth) {
  auto pool = MakePool(/*block_span=*/16, /*max_blocks=*/0);
  PagedContextStore store(pool, /*slot_bytes=*/12);  // rounds up to 16
  EXPECT_EQ(store.slot_bytes(), 16u);
  const size_t n = 1000;
  for (uint64_t k = 1; k <= n; ++k) {
    std::byte* slot = store.Insert(k);
    ASSERT_NE(slot, nullptr);
    uint64_t tag = k * 3;
    std::memcpy(slot, &tag, sizeof(tag));
  }
  EXPECT_EQ(store.size(), n);
  EXPECT_EQ(store.num_blocks(), (n + 15) / 16);
  for (uint64_t k = 1; k <= n; ++k) {
    const std::byte* slot = store.Find(k);
    ASSERT_NE(slot, nullptr);
    uint64_t tag = 0;
    std::memcpy(&tag, slot, sizeof(tag));
    EXPECT_EQ(tag, k * 3);
  }
  EXPECT_EQ(store.Find(n + 1), nullptr);
  // FindMutable hits the same slot.
  std::byte* mut = store.FindMutable(7);
  ASSERT_NE(mut, nullptr);
  uint64_t updated = 99;
  std::memcpy(mut, &updated, sizeof(updated));
  uint64_t back = 0;
  std::memcpy(&back, store.Find(7), sizeof(back));
  EXPECT_EQ(back, 99u);
  // ForEach visits every live entry exactly once.
  size_t visited = 0;
  uint64_t key_sum = 0;
  store.ForEach([&](uint64_t key, const std::byte*) {
    ++visited;
    key_sum += key;
  });
  EXPECT_EQ(visited, n);
  EXPECT_EQ(key_sum, n * (n + 1) / 2);
  EXPECT_GT(store.MemoryBytes(), n * 16);
}

// The decode step's insert: holes are recorded for a batch of absent
// keys first (as NextDistribution records them for every order), then
// the batch is inserted through them, so later keys find their hole
// taken by an earlier key of the batch, or the index grown under them.
// Each key must land in the cell a plain Insert puts it in: both stores
// list their entries in the same index order. A reserved store records
// holes that stay valid, and ends up with the same index.
TEST(PagedContextStoreTest, HoleInsertLandsWhereProbeInsertDoes) {
  for (size_t reserve : {size_t{0}, size_t{3000}}) {
    SCOPED_TRACE(reserve);
    auto pool = MakePool(/*block_span=*/8, /*max_blocks=*/0);
    PagedContextStore probed(pool, /*slot_bytes=*/8);
    PagedContextStore holed(pool, /*slot_bytes=*/8);
    probed.Reserve(reserve);
    holed.Reserve(reserve);
    uint64_t s = 99;
    size_t inserted = 0;
    while (inserted < 3000) {
      s = s * 6364136223846793005ULL + 1442695040888963407ULL;
      const size_t batch = 1 + (s >> 59);  // 1..32 keys
      std::vector<uint64_t> keys;
      std::vector<PagedContextStore::Hole> holes(batch);
      for (size_t i = 0; i < batch; ++i) {
        s = s * 6364136223846793005ULL + 1442695040888963407ULL;
        // Small key range: later batches also hit present keys.
        const uint64_t key = (s >> 40) % 6000;
        bool repeat = false;
        for (uint64_t k : keys) repeat = repeat || k == key;
        if (repeat) continue;  // already in this batch
        if (holed.Find(key, PagedContextStore::HashKey(key),
                       &holes[keys.size()]) != nullptr) {
          ASSERT_NE(probed.Find(key), nullptr);
          continue;
        }
        ASSERT_EQ(probed.Find(key), nullptr);
        keys.push_back(key);
      }
      for (size_t i = 0; i < keys.size(); ++i) {
        std::byte* a = probed.Insert(keys[i]);
        std::byte* b = holed.Insert(keys[i], holes[i]);
        ASSERT_NE(a, nullptr);
        ASSERT_NE(b, nullptr);
        std::memcpy(a, &keys[i], sizeof(uint64_t));
        std::memcpy(b, &keys[i], sizeof(uint64_t));
        ++inserted;
      }
    }
    std::vector<uint64_t> order_probed;
    std::vector<uint64_t> order_holed;
    probed.ForEach([&](uint64_t key, const std::byte* p) {
      uint64_t stored = 0;
      std::memcpy(&stored, p, sizeof(stored));
      EXPECT_EQ(stored, key);
      order_probed.push_back(key);
    });
    holed.ForEach([&](uint64_t key, const std::byte* p) {
      uint64_t stored = 0;
      std::memcpy(&stored, p, sizeof(stored));
      EXPECT_EQ(stored, key);
      order_holed.push_back(key);
    });
    EXPECT_EQ(order_holed, order_probed);
    EXPECT_EQ(holed.size(), inserted);
    EXPECT_EQ(holed.MemoryBytes(), probed.MemoryBytes());
  }
}

// Reserve sizes the index for the given entry count exactly as growth
// one insert at a time would have, once, and never shrinks it.
TEST(PagedContextStoreTest, ReserveMatchesGrowthAndNeverShrinks) {
  auto pool = MakePool(/*block_span=*/8, /*max_blocks=*/0);
  for (size_t n : {size_t{1}, size_t{11}, size_t{12}, size_t{100},
                   size_t{716}, size_t{717}}) {
    SCOPED_TRACE(n);
    PagedContextStore grown(pool, /*slot_bytes=*/8);
    PagedContextStore reserved(pool, /*slot_bytes=*/8);
    reserved.Reserve(n);
    const size_t reserved_bytes = reserved.MemoryBytes();
    for (uint64_t k = 1; k <= n; ++k) {
      ASSERT_NE(grown.Insert(k), nullptr);
      ASSERT_NE(reserved.Insert(k), nullptr);
    }
    EXPECT_EQ(reserved.MemoryBytes(), grown.MemoryBytes());
    // All n entries fitted: only the blocks were added since Reserve.
    EXPECT_EQ(reserved.MemoryBytes() - reserved_bytes,
              reserved.num_blocks() * ApproxChunkBytes(8 * 8 + 8 * 8));
    reserved.Reserve(1);
    EXPECT_EQ(reserved.MemoryBytes(), grown.MemoryBytes());
  }
}

TEST(PagedContextStoreTest, InsertReturnsNullOnPoolExhaustion) {
  auto pool = MakePool(/*block_span=*/4, /*max_blocks=*/1);
  PagedContextStore store(pool, /*slot_bytes=*/8);
  for (uint64_t k = 1; k <= 4; ++k) {
    ASSERT_NE(store.Insert(k), nullptr);
  }
  EXPECT_EQ(store.Insert(5), nullptr);  // cap hit: graceful refusal
  EXPECT_EQ(store.size(), 4u);
  EXPECT_EQ(pool->stats().exhaustion_events, 1u);
  // The refused insert left the store consistent.
  EXPECT_NE(store.Find(4), nullptr);
  EXPECT_EQ(store.Find(5), nullptr);
}

TEST(PagedContextStoreTest, MergeCompactAdoptsFullBlocksWithoutCopy) {
  auto pool = MakePool(/*block_span=*/4, /*max_blocks=*/0);
  auto layer = std::make_shared<PagedContextStore>(pool, /*slot_bytes=*/8);
  for (uint64_t k = 1; k <= 8; ++k) {  // exactly two full blocks
    std::byte* slot = layer->Insert(k);
    ASSERT_NE(slot, nullptr);
    std::memcpy(slot, &k, sizeof(k));
  }
  const size_t live_before = pool->stats().blocks_live;
  std::vector<std::shared_ptr<const PagedContextStore>> layers = {layer};
  std::shared_ptr<PagedContextStore> merged =
      PagedContextStore::MergeCompact(layers, pool);
  ASSERT_NE(merged, nullptr);
  EXPECT_EQ(merged->size(), 8u);
  // Every slot survives unshadowed, so both blocks are adopted by
  // refcount — no new allocation.
  EXPECT_EQ(pool->stats().blocks_live, live_before);
  EXPECT_EQ(merged->num_blocks(), 2u);
  for (uint64_t k = 1; k <= 8; ++k) {
    const std::byte* slot = merged->Find(k);
    ASSERT_NE(slot, nullptr);
    uint64_t v = 0;
    std::memcpy(&v, slot, sizeof(v));
    EXPECT_EQ(v, k);
  }
}

TEST(PagedContextStoreTest, MergeCompactNewestWinsAndCopiesShadowed) {
  auto pool = MakePool(/*block_span=*/8, /*max_blocks=*/0);
  auto bottom = std::make_shared<PagedContextStore>(pool, /*slot_bytes=*/8);
  for (uint64_t k = 1; k <= 8; ++k) {
    std::byte* slot = bottom->Insert(k);
    ASSERT_NE(slot, nullptr);
    uint64_t v = 100 + k;
    std::memcpy(slot, &v, sizeof(v));
  }
  auto top = std::make_shared<PagedContextStore>(pool, /*slot_bytes=*/8);
  for (uint64_t k = 1; k <= 5; ++k) {  // shadows 5 of bottom's 8
    std::byte* slot = top->Insert(k);
    ASSERT_NE(slot, nullptr);
    uint64_t v = 200 + k;
    std::memcpy(slot, &v, sizeof(v));
  }
  std::vector<std::shared_ptr<const PagedContextStore>> layers = {bottom,
                                                                  top};
  std::shared_ptr<PagedContextStore> merged =
      PagedContextStore::MergeCompact(layers, pool);
  ASSERT_NE(merged, nullptr);
  EXPECT_EQ(merged->size(), 8u);
  for (uint64_t k = 1; k <= 8; ++k) {
    const std::byte* slot = merged->Find(k);
    ASSERT_NE(slot, nullptr);
    uint64_t v = 0;
    std::memcpy(&v, slot, sizeof(v));
    // The top layer shadows the bottom for keys 1..5 (newest wins).
    EXPECT_EQ(v, k <= 5 ? 200 + k : 100 + k) << "key " << k;
  }
}

// The tentpole invariant: a paged model holds byte-for-byte the same
// integers a plain model holds, so every distribution is bit-identical
// — across observation, freeze/fork chains and base-layer compaction.
TEST(PagedModelIdentityTest, NGramMatchesPlainThroughForkChains) {
  const size_t vocab = 13;
  NGramOptions plain_opts;
  plain_opts.max_base_layers = 8;  // plain chain left uncompacted longer
  NGramOptions paged_opts;
  paged_opts.max_base_layers = 2;  // paged chain compacts aggressively
  auto pool = MakePool(/*block_span=*/16, /*max_blocks=*/0);

  auto plain = std::make_unique<NGramLanguageModel>(vocab, plain_opts);
  auto paged =
      std::make_unique<NGramLanguageModel>(vocab, paged_opts, pool);
  EXPECT_FALSE(plain->paged());
  EXPECT_TRUE(paged->paged());

  const std::vector<token::TokenId> stream = TokenStream(2400, vocab, 7);
  size_t at = 0;
  for (int round = 0; round < 6; ++round) {
    for (int i = 0; i < 400; ++i, ++at) {
      plain->Observe(stream[at]);
      paged->Observe(stream[at]);
      if (i % 97 == 0) ExpectSameDistribution(*plain, *paged);
    }
    ExpectSameDistribution(*plain, *paged);
    EXPECT_EQ(plain->num_entries(), paged->num_entries());
    plain->Freeze();
    paged->Freeze();
    auto plain_fork = plain->Fork();
    auto paged_fork = paged->Fork();
    plain.reset(
        static_cast<NGramLanguageModel*>(plain_fork.release()));
    paged.reset(
        static_cast<NGramLanguageModel*>(paged_fork.release()));
  }
  // Aggressive compaction really ran: the paged chain stays clamped.
  EXPECT_LE(paged->num_base_layers(), 2u);
  EXPECT_GT(plain->num_base_layers(), 2u);
  ExpectSameDistribution(*plain, *paged);
}

TEST(PagedModelIdentityTest, NGramMatchesPlainUnderPoolExhaustion) {
  const size_t vocab = 11;
  // A pool too small for the model: most entries take the spill path.
  auto pool = MakePool(/*block_span=*/4, /*max_blocks=*/2);
  NGramLanguageModel plain(vocab, NGramOptions{});
  NGramLanguageModel paged(vocab, NGramOptions{}, pool);
  const std::vector<token::TokenId> stream = TokenStream(1500, vocab, 21);
  for (size_t i = 0; i < stream.size(); ++i) {
    plain.Observe(stream[i]);
    paged.Observe(stream[i]);
    if (i % 131 == 0) ExpectSameDistribution(plain, paged);
  }
  ExpectSameDistribution(plain, paged);
  // Exhaustion happened and degraded gracefully (spill, not failure).
  EXPECT_GT(pool->stats().exhaustion_events, 0u);
  EXPECT_EQ(plain.num_entries(), paged.num_entries());
}

TEST(PagedModelIdentityTest, NGramWideCountPromotionStaysIdentical) {
  const size_t vocab = 3;
  auto pool = MakePool(/*block_span=*/16, /*max_blocks=*/0);
  NGramLanguageModel plain(vocab, NGramOptions{});
  NGramLanguageModel paged(vocab, NGramOptions{}, pool);
  // One context observed past the u16 ceiling forces the narrow slot to
  // promote to a wide overflow entry mid-stream.
  for (int i = 0; i < 70000; ++i) {
    plain.Observe(0);
    paged.Observe(0);
  }
  ExpectSameDistribution(plain, paged);
  plain.Observe(1);
  paged.Observe(1);
  ExpectSameDistribution(plain, paged);
}

TEST(PagedModelIdentityTest, MixtureMatchesPlainThroughForkChains) {
  const size_t vocab = 9;
  MixtureOptions plain_opts;
  plain_opts.max_base_layers = 8;
  MixtureOptions paged_opts;
  paged_opts.max_base_layers = 2;
  auto pool = MakePool(/*block_span=*/16, /*max_blocks=*/0);

  auto plain = std::make_unique<MixtureLanguageModel>(vocab, plain_opts);
  auto paged =
      std::make_unique<MixtureLanguageModel>(vocab, paged_opts, pool);
  const std::vector<token::TokenId> stream = TokenStream(1800, vocab, 3);
  size_t at = 0;
  for (int round = 0; round < 6; ++round) {
    for (int i = 0; i < 300; ++i, ++at) {
      plain->Observe(stream[at]);
      paged->Observe(stream[at]);
      if (i % 89 == 0) ExpectSameDistribution(*plain, *paged);
    }
    ExpectSameDistribution(*plain, *paged);
    EXPECT_EQ(plain->num_nodes(), paged->num_nodes());
    plain->Freeze();
    paged->Freeze();
    auto plain_fork = plain->Fork();
    auto paged_fork = paged->Fork();
    plain.reset(
        static_cast<MixtureLanguageModel*>(plain_fork.release()));
    paged.reset(
        static_cast<MixtureLanguageModel*>(paged_fork.release()));
  }
  EXPECT_LE(paged->num_base_layers(), 2u);
  ExpectSameDistribution(*plain, *paged);
}

TEST(PagedModelIdentityTest, MixtureMatchesPlainUnderPoolExhaustion) {
  const size_t vocab = 7;
  auto pool = MakePool(/*block_span=*/4, /*max_blocks=*/2);
  MixtureLanguageModel plain(vocab, MixtureOptions{});
  MixtureLanguageModel paged(vocab, MixtureOptions{}, pool);
  const std::vector<token::TokenId> stream = TokenStream(1200, vocab, 17);
  for (size_t i = 0; i < stream.size(); ++i) {
    plain.Observe(stream[i]);
    paged.Observe(stream[i]);
    if (i % 113 == 0) ExpectSameDistribution(plain, paged);
  }
  ExpectSameDistribution(plain, paged);
  EXPECT_GT(pool->stats().exhaustion_events, 0u);
}

TEST(PagedModelIdentityTest, SessionEndFeedsPoolAccounting) {
  auto pool = MakePool(/*block_span=*/16, /*max_blocks=*/0);
  {
    NGramLanguageModel model(5, NGramOptions{}, pool);
    model.ObserveAll(TokenStream(200, 5, 9));
    MemoryFootprint fp = model.ApproxMemoryBytes();
    EXPECT_GT(fp.overlay_bytes, 0u);
  }
  BlockPoolStats stats = pool->stats();
  EXPECT_EQ(stats.sessions, 1u);
  EXPECT_GT(stats.session_overlay_bytes, 0u);

  // Accounting-only pools (enabled = false) measure plain-mode models
  // on the same path, giving benches one measurement source.
  auto accounting = MakePool(/*block_span=*/16, /*max_blocks=*/0,
                             /*enabled=*/false);
  {
    NGramLanguageModel model(5, NGramOptions{}, accounting);
    EXPECT_FALSE(model.paged());
    model.ObserveAll(TokenStream(200, 5, 9));
  }
  EXPECT_EQ(accounting->stats().sessions, 1u);
  EXPECT_GT(accounting->stats().session_overlay_bytes, 0u);
  EXPECT_EQ(accounting->stats().blocks_live, 0u);  // no paged storage
}

// Satellite: evicting a cached prefix while live forks still hold its
// frozen layers must keep every block alive by refcount; the blocks
// return to the freelist only when the last fork dies.
TEST(PagedEvictionLivenessTest, EvictedPrefixBlocksSurviveLiveForks) {
  const size_t vocab = 13;
  auto pool = MakePool(/*block_span=*/8, /*max_blocks=*/0);
  PrefixCache cache(/*capacity=*/1);
  const uint64_t fingerprint = 0xFEEDu;
  auto fresh = [&]() -> std::unique_ptr<LanguageModel> {
    return std::make_unique<NGramLanguageModel>(vocab, NGramOptions{},
                                                pool);
  };
  const std::vector<token::TokenId> prompt1 = TokenStream(300, vocab, 4);
  const std::vector<token::TokenId> prompt2 = TokenStream(300, vocab, 5);

  // N live forks off the cached prompt1 state.
  std::vector<std::unique_ptr<LanguageModel>> forks;
  for (int i = 0; i < 3; ++i) {
    forks.push_back(cache.AcquireSession(fingerprint, prompt1, fresh));
  }
  ASSERT_EQ(cache.stats().misses, 1u);
  ASSERT_EQ(cache.stats().full_hits, 2u);
  const size_t free_before_evict = pool->stats().blocks_free;

  // Capacity 1: caching prompt2 evicts prompt1's entry.
  auto other = cache.AcquireSession(fingerprint, prompt2, fresh);
  ASSERT_EQ(cache.stats().evictions, 1u);

  // The forks still hold prompt1's frozen blocks: nothing was freed by
  // the eviction itself, and the forks still read the exact state a
  // fresh model fed prompt1 would hold.
  EXPECT_EQ(pool->stats().blocks_free, free_before_evict);
  NGramLanguageModel reference(vocab, NGramOptions{});
  reference.ObserveAll(prompt1);
  for (const auto& fork : forks) ExpectSameDistribution(reference, *fork);

  // Forks die one by one; only the LAST release returns the frozen
  // blocks to the freelist.
  forks.pop_back();
  forks.pop_back();
  const size_t free_with_one_fork = pool->stats().blocks_free;
  forks.clear();
  EXPECT_GT(pool->stats().blocks_free, free_with_one_fork);
  EXPECT_EQ(pool->stats().sessions, 3u);
}

// Satellite: PrefixCache::bytes() reports true resident bytes and the
// metrics gauge mirrors it.
TEST(PrefixCacheBytesTest, BytesGaugeTracksResidentState) {
  const size_t vocab = 13;
  auto pool = MakePool(/*block_span=*/8, /*max_blocks=*/0);
  PrefixCache cache(/*capacity=*/4);
  auto fresh = [&]() -> std::unique_ptr<LanguageModel> {
    return std::make_unique<NGramLanguageModel>(vocab, NGramOptions{},
                                                pool);
  };
  EXPECT_EQ(cache.bytes(), 0u);
  auto s1 = cache.AcquireSession(0xA, TokenStream(200, vocab, 1), fresh);
  const size_t bytes_one = cache.bytes();
  EXPECT_GT(bytes_one, 0u);
  auto s2 = cache.AcquireSession(0xA, TokenStream(200, vocab, 2), fresh);
  const size_t bytes_two = cache.bytes();
  EXPECT_GT(bytes_two, bytes_one);

  util::MetricsRegistry registry;
  cache.PublishMetrics(&registry);
  EXPECT_EQ(registry.Snapshot().Value("prefix_cache.bytes"),
            static_cast<double>(bytes_two));

  cache.Clear();
  EXPECT_EQ(cache.bytes(), 0u);
}

// Paged layers should be denser than the plain map representation for
// the same logical state (that is the point of the subsystem).
TEST(PagedModelIdentityTest, PagedFootprintBeatsPlainMaps) {
  const size_t vocab = 13;
  auto pool = MakePool(/*block_span=*/32, /*max_blocks=*/0);
  NGramLanguageModel plain(vocab, NGramOptions{});
  NGramLanguageModel paged(vocab, NGramOptions{}, pool);
  const std::vector<token::TokenId> stream = TokenStream(3000, vocab, 31);
  plain.ObserveAll(stream);
  paged.ObserveAll(stream);
  ExpectSameDistribution(plain, paged);
  const size_t plain_bytes = plain.ApproxMemoryBytes().total();
  const size_t paged_bytes = paged.ApproxMemoryBytes().total();
  EXPECT_GT(plain_bytes, 0u);
  EXPECT_GT(paged_bytes, 0u);
  EXPECT_LT(paged_bytes * 2, plain_bytes)
      << "paged " << paged_bytes << " vs plain " << plain_bytes;
}

}  // namespace
}  // namespace lm
}  // namespace multicast
