#include "lm/paged_store.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "lm/ngram_model.h"
#include "lm/prefix_cache.h"
#include "reference_models.h"
#include "util/metrics.h"

namespace multicast {
namespace lm {
namespace {

std::shared_ptr<BlockPool> MakePool(size_t block_span, size_t max_blocks) {
  PagedMemoryOptions options;
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
void ExpectSameDistribution(const NGramLanguageModel& a,
                            const NGramLanguageModel& b) {
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
  pool->NoteSessionEnd(/*overlay_bytes=*/100, /*base_bytes=*/400,
                       /*overlay_entries=*/3);
  pool->NoteSessionEnd(/*overlay_bytes=*/300, /*base_bytes=*/400,
                       /*overlay_entries=*/5);
  BlockPoolStats stats = pool->stats();
  EXPECT_EQ(stats.sessions, 2u);
  EXPECT_EQ(stats.session_overlay_bytes, 400u);
  EXPECT_EQ(stats.session_base_bytes, 800u);
  EXPECT_EQ(stats.session_overlay_entries, 8u);
  EXPECT_EQ(stats.bytes_per_session(), 200.0);
  EXPECT_EQ(stats.sharing_ratio(), 1200.0 / 100.0);

  util::MetricsRegistry registry;
  pool->PublishMetrics(&registry);
  const util::MetricsSnapshot snap = registry.Snapshot();
  auto value = [&](const char* name) {
    return snap.Value(std::string("lm.mem.") + name);
  };
  EXPECT_EQ(value("blocks_live"), static_cast<double>(stats.blocks_live));
  EXPECT_EQ(value("bytes_peak"), static_cast<double>(stats.bytes_peak));
  EXPECT_EQ(value("sessions"), 2.0);
  EXPECT_EQ(value("session_overlay_bytes"), 400.0);
  EXPECT_EQ(value("session_base_bytes"), 800.0);
  EXPECT_EQ(value("session_overlay_entries"), 8.0);
  EXPECT_EQ(value("bytes_per_session"), 200.0);
  EXPECT_EQ(value("sharing_ratio"), 1200.0 / 100.0);
  EXPECT_EQ(value("pool_fullness"), 0.0);
  ASSERT_NE(snap.Find("lm.mem.sessions"), nullptr);
  EXPECT_EQ(snap.Find("lm.mem.sessions")->kind, util::MetricKind::kCounter);
  ASSERT_NE(snap.Find("lm.mem.blocks_live"), nullptr);
  EXPECT_EQ(snap.Find("lm.mem.blocks_live")->kind, util::MetricKind::kGauge);
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

// The bulk build's store half: keys appended and then indexed at once
// are all found, with their payloads, and the index ends at the cell
// count the same keys inserted one by one reach, also when the store
// held indexed keys before the appends.
TEST(PagedContextStoreTest, AppendThenIndexMatchesInsertOneByOne) {
  auto pool = MakePool(/*block_span=*/8, /*max_blocks=*/0);
  for (size_t n : {size_t{1}, size_t{11}, size_t{12}, size_t{100},
                   size_t{716}, size_t{717}, size_t{3000}}) {
    for (size_t before : {size_t{0}, size_t{5}}) {
      SCOPED_TRACE(testing::Message() << "n " << n << " before " << before);
      PagedContextStore inserted(pool, /*slot_bytes=*/8);
      PagedContextStore appended(pool, /*slot_bytes=*/8);
      auto key_of = [](size_t i) { return uint64_t{i} * 7919 + 3; };
      for (size_t i = 0; i < before + n; ++i) {
        const uint64_t key = key_of(i);
        std::byte* a = inserted.Insert(key);
        std::byte* b = i < before ? appended.Insert(key)
                                  : appended.Append(key);
        ASSERT_NE(a, nullptr);
        ASSERT_NE(b, nullptr);
        std::memcpy(a, &key, sizeof(key));
        std::memcpy(b, &key, sizeof(key));
      }
      // Appended keys are not indexed yet.
      EXPECT_EQ(appended.size(), before);
      EXPECT_EQ(appended.Find(key_of(before)), nullptr);
      EXPECT_EQ(appended.num_blocks(), inserted.num_blocks());
      appended.IndexAppended();
      EXPECT_EQ(appended.size(), inserted.size());
      EXPECT_EQ(appended.MemoryBytes(), inserted.MemoryBytes());
      for (size_t i = 0; i < before + n; ++i) {
        const std::byte* p = appended.Find(key_of(i));
        ASSERT_NE(p, nullptr) << "key " << i;
        uint64_t stored = 0;
        std::memcpy(&stored, p, sizeof(stored));
        EXPECT_EQ(stored, key_of(i));
      }
      EXPECT_EQ(appended.Find(key_of(before + n)), nullptr);
      // Indexing again with nothing pending changes nothing.
      appended.IndexAppended();
      EXPECT_EQ(appended.MemoryBytes(), inserted.MemoryBytes());
    }
  }
  // An Append the pool refuses claims nothing, like a refused Insert.
  auto capped = MakePool(/*block_span=*/4, /*max_blocks=*/1);
  PagedContextStore store(capped, /*slot_bytes=*/8);
  for (uint64_t k = 1; k <= 4; ++k) ASSERT_NE(store.Append(k), nullptr);
  EXPECT_EQ(store.Append(5), nullptr);
  EXPECT_EQ(capped->stats().exhaustion_events, 1u);
  store.IndexAppended();
  EXPECT_EQ(store.size(), 4u);
  EXPECT_NE(store.Find(4), nullptr);
  EXPECT_EQ(store.Find(5), nullptr);
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

// The tentpole invariant: a paged model holds exactly the counts of the
// map reference (reference_models.h), so every distribution is bit-
// identical to its own — across observation, freeze/fork chains, base-
// layer compaction, pool exhaustion and u16 promotion. The exhaustion
// cases run on a caller's capped pool, the others both on a model given
// no pool (a private unbounded one) and on one given a caller's pool.

void ExpectMatchesReference(const NGramLanguageModel& model,
                            const ReferenceNGram& reference) {
  const std::vector<double> got = model.NextDistribution();
  const std::vector<double> want = reference.NextDistribution();
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i], want[i]) << "token " << i;
  }
}

// Observes `rounds` x `per_round` tokens of `stream`, freezing and
// forking after each round, and checks the model against the reference
// every `check_every` tokens and at every round's end.
void RunForkChain(std::unique_ptr<NGramLanguageModel>* model,
                  ReferenceNGram* reference,
                  const std::vector<token::TokenId>& stream, int rounds,
                  int per_round, int check_every) {
  size_t at = 0;
  for (int round = 0; round < rounds; ++round) {
    for (int i = 0; i < per_round; ++i, ++at) {
      (*model)->Observe(stream[at]);
      reference->Observe(stream[at]);
      if (i % check_every == 0) ExpectMatchesReference(**model, *reference);
    }
    ExpectMatchesReference(**model, *reference);
    (*model)->Freeze();
    *model = (*model)->Fork();
  }
  ExpectMatchesReference(**model, *reference);
}

TEST(PagedModelIdentityTest, NGramMatchesPlainThroughForkChains) {
  const size_t vocab = 13;
  NGramOptions options;
  options.max_base_layers = 2;  // the chain compacts aggressively
  for (auto pool : {std::shared_ptr<BlockPool>(), MakePool(16, 0)}) {
    SCOPED_TRACE(pool == nullptr ? "private pool" : "caller's pool");
    auto model = std::make_unique<NGramLanguageModel>(vocab, options, pool);
    ReferenceNGram reference(vocab, options);
    RunForkChain(&model, &reference, TokenStream(2400, vocab, 7),
                 /*rounds=*/6, /*per_round=*/400, /*check_every=*/97);
    EXPECT_EQ(model->num_entries(), reference.num_entries());
    // Compaction really ran: the chain stays clamped.
    EXPECT_LE(model->num_base_layers(), 2u);
  }
}

TEST(PagedModelIdentityTest, NGramMatchesPlainUnderPoolExhaustion) {
  const size_t vocab = 11;
  // A pool too small for the model: most entries take the spill path.
  auto pool = MakePool(/*block_span=*/4, /*max_blocks=*/2);
  NGramLanguageModel model(vocab, NGramOptions{}, pool);
  ReferenceNGram reference(vocab, NGramOptions{});
  const std::vector<token::TokenId> stream = TokenStream(1500, vocab, 21);
  for (size_t i = 0; i < stream.size(); ++i) {
    model.Observe(stream[i]);
    reference.Observe(stream[i]);
    if (i % 131 == 0) ExpectMatchesReference(model, reference);
  }
  ExpectMatchesReference(model, reference);
  // Exhaustion happened and degraded gracefully (spill, not failure).
  EXPECT_GT(pool->stats().exhaustion_events, 0u);
  EXPECT_EQ(model.num_entries(), reference.num_entries());
}

TEST(PagedModelIdentityTest, NGramWideCountPromotionStaysIdentical) {
  const size_t vocab = 3;
  for (auto pool : {std::shared_ptr<BlockPool>(), MakePool(16, 0)}) {
    SCOPED_TRACE(pool == nullptr ? "private pool" : "caller's pool");
    NGramLanguageModel model(vocab, NGramOptions{}, pool);
    ReferenceNGram reference(vocab, NGramOptions{});
    // One context observed past the u16 ceiling forces the narrow slot
    // to promote to a wide overflow entry mid-stream.
    for (int i = 0; i < 70000; ++i) {
      model.Observe(0);
      reference.Observe(0);
    }
    EXPECT_GT(reference.max_count(), 0xffffu);
    ExpectMatchesReference(model, reference);
    model.Observe(1);
    reference.Observe(1);
    ExpectMatchesReference(model, reference);
  }
}

TEST(PagedModelIdentityTest, SessionEndFeedsPoolAccounting) {
  auto pool = MakePool(/*block_span=*/16, /*max_blocks=*/0);
  size_t entries = 0;
  {
    NGramLanguageModel model(5, NGramOptions{}, pool);
    model.ObserveAll(TokenStream(200, 5, 9));
    MemoryFootprint fp = model.ApproxMemoryBytes();
    EXPECT_GT(fp.overlay_bytes, 0u);
    entries = model.OverlayEntries().size();
  }
  BlockPoolStats stats = pool->stats();
  EXPECT_EQ(stats.sessions, 1u);
  EXPECT_GT(stats.session_overlay_bytes, 0u);
  EXPECT_GT(entries, 0u);
  EXPECT_EQ(stats.session_overlay_entries, entries);

  // Spilled keys count too: on a pool that runs out, the session's
  // distinct keys are its store entries plus the spills without a slot.
  auto capped = MakePool(/*block_span=*/4, /*max_blocks=*/2);
  size_t spilled = 0;
  {
    NGramLanguageModel model(5, NGramOptions{}, capped);
    model.ObserveAll(TokenStream(200, 5, 9));
    for (const auto& e : model.OverlayEntries()) spilled += !e.has_slot;
    EXPECT_EQ(model.OverlayEntries().size(), entries);
  }
  EXPECT_GT(spilled, 0u);
  EXPECT_EQ(capped->stats().session_overlay_entries, entries);
}

// Satellite: evicting a cached prefix while live forks still hold its
// frozen layers must keep every block alive by refcount; the blocks
// return to the freelist only when the last fork dies.
TEST(PagedEvictionLivenessTest, EvictedPrefixBlocksSurviveLiveForks) {
  const size_t vocab = 13;
  auto pool = MakePool(/*block_span=*/8, /*max_blocks=*/0);
  PrefixCache cache(/*capacity=*/1);
  const uint64_t fingerprint = 0xFEEDu;
  auto fresh = [&]() -> std::unique_ptr<NGramLanguageModel> {
    return std::make_unique<NGramLanguageModel>(vocab, NGramOptions{},
                                                pool);
  };
  const std::vector<token::TokenId> prompt1 = TokenStream(300, vocab, 4);
  const std::vector<token::TokenId> prompt2 = TokenStream(300, vocab, 5);

  // N live forks off the cached prompt1 state.
  std::vector<std::unique_ptr<NGramLanguageModel>> forks;
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
  auto fresh = [&]() -> std::unique_ptr<NGramLanguageModel> {
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

// ---------------------------------------------------------------------------
// Bulk prompt ingest: ObserveAll on a paged n-gram session must leave
// exactly the state one Observe per token leaves — the same counts per
// key (narrow, wide or spilled), the same store shape and bytes, the
// same pool events — and so the same distributions from then on.

struct IngestCase {
  const char* name;
  size_t vocab;
  int max_order;
  size_t block_span;
  size_t max_blocks;   // pool cap; 0 = uncapped
  size_t base_layers;  // frozen layers under the session; 0 = fresh
  size_t base_tokens;  // tokens each base layer observes
  size_t prompt_tokens;
  bool constant;       // one token repeated: counts pass the u16 ceiling
  size_t max_base_layers;
};

void PrintTo(const IngestCase& c, std::ostream* os) { *os << c.name; }

// Prompt-shaped tokens: fields of two symbols, each field closed by the
// last symbol as its separator. A constant case repeats token 0 and
// closes with a short field stream, so that new keys follow the
// saturated ones.
std::vector<token::TokenId> IngestTokens(const IngestCase& c, size_t n,
                                         uint64_t seed) {
  std::vector<token::TokenId> out = TokenStream(n, c.vocab - 1, seed);
  const token::TokenId separator = static_cast<token::TokenId>(c.vocab - 1);
  for (size_t i = 2; i < n; i += 3) out[i] = separator;
  if (c.constant) {
    const size_t tail = std::min<size_t>(n, 60);
    std::fill(out.begin(), out.end() - static_cast<std::ptrdiff_t>(tail), 0);
  }
  return out;
}

// The session the case ingests into: a fresh model, or a fork over
// `base_layers` frozen layers, each observed one token at a time.
std::unique_ptr<NGramLanguageModel> MakeSession(
    const IngestCase& c, const std::shared_ptr<BlockPool>& pool) {
  NGramOptions options;
  options.max_order = c.max_order;
  options.max_base_layers = c.max_base_layers;
  auto model = std::make_unique<NGramLanguageModel>(c.vocab, options, pool);
  for (size_t layer = 0; layer < c.base_layers; ++layer) {
    for (token::TokenId id : IngestTokens(c, c.base_tokens, 100 + layer)) {
      model->Observe(id);
    }
    model->Freeze();
    model = model->Fork();
  }
  return model;
}

void ExpectSameState(const NGramLanguageModel& a,
                     const NGramLanguageModel& b) {
  const std::vector<NGramLanguageModel::OverlayEntry> ea = a.OverlayEntries();
  const std::vector<NGramLanguageModel::OverlayEntry> eb = b.OverlayEntries();
  ASSERT_EQ(ea.size(), eb.size());
  for (size_t i = 0; i < ea.size(); ++i) {
    SCOPED_TRACE(testing::Message() << "key " << ea[i].key);
    ASSERT_EQ(ea[i].key, eb[i].key);
    EXPECT_EQ(ea[i].narrow, eb[i].narrow);
    EXPECT_EQ(ea[i].has_slot, eb[i].has_slot);
    EXPECT_EQ(ea[i].total, eb[i].total);
    EXPECT_EQ(ea[i].types, eb[i].types);
    ASSERT_EQ(ea[i].next, eb[i].next);
  }
  EXPECT_EQ(a.overlay_store()->size(), b.overlay_store()->size());
  EXPECT_EQ(a.overlay_store()->num_blocks(), b.overlay_store()->num_blocks());
  EXPECT_EQ(a.overlay_store()->MemoryBytes(),
            b.overlay_store()->MemoryBytes());
  EXPECT_EQ(a.ApproxMemoryBytes().overlay_bytes,
            b.ApproxMemoryBytes().overlay_bytes);
  EXPECT_EQ(a.ApproxMemoryBytes().base_bytes,
            b.ApproxMemoryBytes().base_bytes);
  EXPECT_EQ(a.num_entries(), b.num_entries());
  EXPECT_EQ(a.context_length(), b.context_length());
}

class BulkIngestTest : public testing::TestWithParam<IngestCase> {};

TEST_P(BulkIngestTest, MatchesObservePerToken) {
  const IngestCase& c = GetParam();
  auto pool_a = MakePool(c.block_span, c.max_blocks);
  auto pool_b = MakePool(c.block_span, c.max_blocks);
  std::unique_ptr<NGramLanguageModel> a = MakeSession(c, pool_a);
  std::unique_ptr<NGramLanguageModel> b = MakeSession(c, pool_b);
  ASSERT_EQ(b->overlay_store()->size(), 0u);
  const size_t events_before = pool_b->stats().exhaustion_events;

  const std::vector<token::TokenId> prompt =
      IngestTokens(c, c.prompt_tokens, 7);
  for (token::TokenId id : prompt) a->Observe(id);
  b->ObserveAll(prompt);
  ExpectSameState(*a, *b);
  EXPECT_EQ(pool_a->stats().exhaustion_events,
            pool_b->stats().exhaustion_events);
  EXPECT_EQ(pool_a->stats().blocks_live, pool_b->stats().blocks_live);

  // Each case exercises what it is named for.
  const std::vector<NGramLanguageModel::OverlayEntry> entries =
      b->OverlayEntries();
  auto any = [&](auto pred) {
    return std::any_of(entries.begin(), entries.end(), pred);
  };
  if (c.max_blocks > 0) {
    // The cap hit mid-prompt: slots first, spills after.
    EXPECT_GT(b->overlay_store()->size(), 0u);
    EXPECT_GT(pool_b->stats().exhaustion_events, events_before);
    EXPECT_TRUE(any([](const auto& e) { return !e.has_slot; }));
  }
  if (c.constant) {
    EXPECT_TRUE(any([](const auto& e) { return !e.narrow && e.has_slot; }));
  }
  if (c.base_layers > c.max_base_layers) {
    EXPECT_LE(b->num_base_layers(), c.max_base_layers);
  }

  // The overlay is no longer empty: a second ObserveAll goes one token
  // at a time, and still matches.
  const std::vector<token::TokenId> more = IngestTokens(c, 300, 8);
  for (token::TokenId id : more) a->Observe(id);
  b->ObserveAll(more);
  ExpectSameState(*a, *b);

  // 200 decode steps, bit for bit.
  std::vector<double> pa;
  std::vector<double> pb;
  for (token::TokenId id : TokenStream(200, c.vocab, 9)) {
    a->NextDistribution(&pa);
    b->NextDistribution(&pb);
    ASSERT_EQ(pa.size(), pb.size());
    for (size_t w = 0; w < pa.size(); ++w) ASSERT_EQ(pa[w], pb[w]);
    a->Observe(id);
    b->Observe(id);
  }
  ExpectSameState(*a, *b);
  EXPECT_EQ(pool_a->stats().exhaustion_events,
            pool_b->stats().exhaustion_events);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, BulkIngestTest,
    testing::Values(
        // name, vocab, order, span, cap, layers, base tokens, prompt,
        // constant, max_base_layers
        IngestCase{"fresh_v11_o8", 11, 8, 32, 0, 0, 0, 1700, false, 4},
        IngestCase{"fresh_v27_o12", 27, 12, 32, 0, 0, 0, 1700, false, 4},
        IngestCase{"fresh_v11_o1", 11, 1, 8, 0, 0, 0, 1700, false, 4},
        IngestCase{"fork_v11_o8", 11, 8, 32, 0, 1, 1000, 1700, false, 4},
        IngestCase{"fork_v27_o1", 27, 1, 8, 0, 1, 500, 600, false, 4},
        IngestCase{"chain_v11_o8", 11, 8, 16, 0, 5, 300, 1700, false, 2},
        IngestCase{"chain_v27_o12", 27, 12, 8, 0, 4, 200, 900, false, 2},
        IngestCase{"capped_fresh_v11_o8", 11, 8, 8, 40, 0, 0, 1700, false,
                   4},
        IngestCase{"capped_fork_v27_o8", 27, 8, 8, 320, 1, 300, 1200,
                   false, 4},
        IngestCase{"saturated_fresh_v11_o12", 11, 12, 32, 0, 0, 0, 70000,
                   true, 4},
        IngestCase{"saturated_fork_v27_o8", 27, 8, 32, 0, 1, 66000, 3000,
                   true, 4}),
    [](const testing::TestParamInfo<IngestCase>& info) {
      return std::string(info.param.name);
    });

// Paged layers should be denser than the retired map representation of
// the same logical state (that is the point of the subsystem): one map
// entry per context key, at MapEntryBytes each.
TEST(PagedModelIdentityTest, PagedFootprintBeatsPlainMaps) {
  const size_t vocab = 13;
  auto pool = MakePool(/*block_span=*/32, /*max_blocks=*/0);
  NGramLanguageModel paged(vocab, NGramOptions{}, pool);
  ReferenceNGram reference(vocab, NGramOptions{});
  const std::vector<token::TokenId> stream = TokenStream(3000, vocab, 31);
  paged.ObserveAll(stream);
  for (token::TokenId id : stream) reference.Observe(id);
  ExpectMatchesReference(paged, reference);
  const size_t plain_bytes =
      paged.OverlayEntries().size() * MapEntryBytes(vocab);
  const size_t paged_bytes = paged.ApproxMemoryBytes().total();
  EXPECT_GT(plain_bytes, 0u);
  EXPECT_GT(paged_bytes, 0u);
  EXPECT_LT(paged_bytes * 2, plain_bytes)
      << "paged " << paged_bytes << " vs plain " << plain_bytes;
}

}  // namespace
}  // namespace lm
}  // namespace multicast
