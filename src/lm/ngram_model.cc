#include "lm/ngram_model.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>

#include "util/status.h"

namespace multicast {
namespace lm {

namespace {
constexpr int kBitsPerToken = 5;

// Slot layout (see header): [u32 total][u16 types][u16 flags]
// [u16 counts[vocab]]. Scalars go through memcpy (aliasing-safe); the
// u16 count array sits at offset 8 of an 8-aligned slot, so the
// reinterpret_cast below is aligned.
constexpr size_t kTotalOffset = 0;
constexpr size_t kTypesOffset = 4;
constexpr size_t kFlagsOffset = 6;
constexpr size_t kCountsOffset = 8;
constexpr uint16_t kWideFlag = 1;  // counts live in the overflow map

uint32_t LoadU32(const std::byte* p, size_t off) {
  uint32_t v;
  std::memcpy(&v, p + off, sizeof(v));
  return v;
}
uint16_t LoadU16(const std::byte* p, size_t off) {
  uint16_t v;
  std::memcpy(&v, p + off, sizeof(v));
  return v;
}
void StoreU32(std::byte* p, size_t off, uint32_t v) {
  std::memcpy(p + off, &v, sizeof(v));
}
void StoreU16(std::byte* p, size_t off, uint16_t v) {
  std::memcpy(p + off, &v, sizeof(v));
}
const uint16_t* NarrowCounts(const std::byte* p) {
  return reinterpret_cast<const uint16_t*>(p + kCountsOffset);
}
uint16_t* NarrowCounts(std::byte* p) {
  return reinterpret_cast<uint16_t*>(p + kCountsOffset);
}
}  // namespace

NGramLanguageModel::NGramLanguageModel(size_t vocab_size,
                                       const NGramOptions& options,
                                       std::shared_ptr<BlockPool> pool)
    : vocab_size_(vocab_size), options_(options), pool_(std::move(pool)) {
  MC_CHECK(vocab_size_ >= 2 && vocab_size_ <= 31);
  MC_CHECK(options_.max_order >= 1 && options_.max_order <= kMaxOrder);
  MC_CHECK(options_.backoff_boost >= 0.0);
  MC_CHECK(options_.uniform_mix >= 0.0 && options_.uniform_mix < 1.0);
  MC_CHECK(options_.max_base_layers >= 1);
  if (pool_ == nullptr) {
    pool_ = std::make_shared<BlockPool>(PagedMemoryOptions{});
  }
  paged_local_ = std::make_unique<PagedContextStore>(pool_, SlotBytes());
}

NGramLanguageModel::~NGramLanguageModel() {
  // A model destroyed while still mutable was a decode session; frozen
  // models dying are cache entries / shared bases, not sessions.
  if (!frozen_) {
    MemoryFootprint fp = ApproxMemoryBytes();
    size_t spilled = 0;
    for (const auto& [key, cc] : overflow_local_) {
      (void)cc;
      if (paged_local_->Find(key) == nullptr) ++spilled;
    }
    pool_->NoteSessionEnd(fp.overlay_bytes, fp.base_bytes,
                          paged_local_->size() + spilled);
  }
}

size_t NGramLanguageModel::SlotBytes() const {
  return kCountsOffset + sizeof(uint16_t) * vocab_size_;
}

void NGramLanguageModel::Reset() {
  observed_ = 0;
  window_ = 0;
  probes_valid_ = false;
  paged_base_.clear();
  paged_local_ = std::make_unique<PagedContextStore>(pool_, SlotBytes());
  overflow_local_.clear();
  frozen_ = false;
}

int NGramLanguageModel::ContextOrders() const {
  return static_cast<int>(
      std::min<size_t>(observed_, static_cast<size_t>(options_.max_order)));
}

uint64_t NGramLanguageModel::ContextKey(int order) const {
  // Layout: [order tag | token_{-order} ... token_{-1}], each 5 bits.
  // Token value 0 is valid, so the order tag disambiguates "empty" keys.
  const int bits = kBitsPerToken * order;
  const uint64_t context = window_ & ((uint64_t{1} << bits) - 1);
  return ((static_cast<uint64_t>(order) + 1) << bits) | context;
}

NGramLanguageModel::CountsRef NGramLanguageModel::WideRef(
    const ContextCounts& cc) {
  CountsRef ref;
  ref.found = true;
  ref.wide = cc.next.data();
  ref.total = cc.total;
  ref.types = cc.types;
  return ref;
}

NGramLanguageModel::CountsRef NGramLanguageModel::NarrowRef(
    const std::byte* slot) {
  CountsRef ref;
  ref.found = true;
  ref.narrow = NarrowCounts(slot);
  ref.slot = slot;
  ref.total = LoadU32(slot, kTotalOffset);
  ref.types = LoadU16(slot, kTypesOffset);
  return ref;
}

NGramLanguageModel::CountsRef NGramLanguageModel::View(const Resolved& r) {
  if (r.slot != nullptr) return NarrowRef(r.slot);
  if (r.node != nullptr) return WideRef(*r.node);
  return r.under;
}

NGramLanguageModel::CountsRef NGramLanguageModel::LookupFrozenPaged(
    uint64_t key, uint64_t hash) const {
  for (auto it = paged_base_.rbegin(); it != paged_base_.rend(); ++it) {
    if (it->store != nullptr) {
      PagedContextStore::Hole unused;
      if (const std::byte* p = it->store->Find(key, hash, &unused)) {
        if (!(LoadU16(p, kFlagsOffset) & kWideFlag)) return NarrowRef(p);
        auto found = it->overflow->find(key);
        MC_CHECK(found != it->overflow->end());
        return WideRef(found->second);
      }
    }
    if (!it->overflow->empty()) {
      auto found = it->overflow->find(key);
      if (found != it->overflow->end()) return WideRef(found->second);
    }
  }
  return CountsRef{};
}

NGramLanguageModel::Resolved NGramLanguageModel::Resolve(
    uint64_t key, uint64_t hash) const {
  // The overlay is this session's private state (const here only
  // because NextDistribution is), so handing out writable pointers to
  // it is sound; frozen models have an empty overlay.
  Resolved r;
  if (const std::byte* p = paged_local_->Find(key, hash, &r.hole)) {
    if (!(LoadU16(p, kFlagsOffset) & kWideFlag)) {
      r.slot = const_cast<std::byte*>(p);
      return r;
    }
    auto found = overflow_local_.find(key);
    MC_CHECK(found != overflow_local_.end());
    r.node = const_cast<ContextCounts*>(&found->second);
    return r;
  }
  if (!overflow_local_.empty()) {
    // Pool-spilled entry: in the overflow map with no slot.
    auto found = overflow_local_.find(key);
    if (found != overflow_local_.end()) {
      r.node = const_cast<ContextCounts*>(&found->second);
      return r;
    }
  }
  r.under = LookupFrozenPaged(key, hash);
  return r;
}

NGramLanguageModel::ContextCounts* NGramLanguageModel::SeedOverlay(
    uint64_t key, const CountsRef& under, std::byte* claimed) {
  if (under.found && under.wide != nullptr) {
    // Frozen entry already wide: the overlay copy is wide too, and its
    // slot (if the pool gave one) only carries the flag.
    ContextCounts& cc = overflow_local_[key];
    cc.next.assign(under.wide, under.wide + vocab_size_);
    cc.total = under.total;
    cc.types = under.types;
    if (claimed != nullptr) StoreU16(claimed, kFlagsOffset, kWideFlag);
    return &cc;
  }
  if (claimed == nullptr) {
    // Pool exhausted: spill to the overflow map. Same integers,
    // same output — the pool has already counted the event and the
    // admission ladder sheds on its fullness.
    ContextCounts& cc = overflow_local_[key];
    if (under.found) {
      cc.next.assign(vocab_size_, 0);
      for (size_t i = 0; i < vocab_size_; ++i) cc.next[i] = under.narrow[i];
      cc.total = under.total;
      cc.types = under.types;
    }
    return &cc;
  }
  if (under.found) std::memcpy(claimed, under.slot, SlotBytes());
  return nullptr;
}

NGramLanguageModel::ContextCounts* NGramLanguageModel::BumpNarrow(
    uint64_t key, std::byte* p, size_t w) {
  uint16_t* counts = NarrowCounts(p);
  if (counts[w] == 0xffff) {
    // u16 saturation: promote the whole entry to a wide overflow entry.
    ContextCounts& cc = overflow_local_[key];
    cc.next.assign(vocab_size_, 0);
    for (size_t i = 0; i < vocab_size_; ++i) cc.next[i] = counts[i];
    cc.total = LoadU32(p, kTotalOffset);
    cc.types = LoadU16(p, kTypesOffset);
    StoreU16(p, kFlagsOffset, kWideFlag);
    BumpWide(&cc, w);
    return &cc;
  }
  if (counts[w] == 0) {
    StoreU16(p, kTypesOffset,
             static_cast<uint16_t>(LoadU16(p, kTypesOffset) + 1));
  }
  ++counts[w];
  StoreU32(p, kTotalOffset, LoadU32(p, kTotalOffset) + 1);
  return nullptr;
}

void NGramLanguageModel::BumpWide(ContextCounts* cc, size_t w) const {
  if (cc->next.empty()) cc->next.assign(vocab_size_, 0);
  if (cc->next[w] == 0) ++cc->types;
  ++cc->next[w];
  ++cc->total;
}

void NGramLanguageModel::BumpPaged(uint64_t key, const Resolved& r,
                                   token::TokenId id) {
  const size_t w = static_cast<size_t>(id);
  std::byte* slot = r.slot;
  ContextCounts* node = r.node;
  if (slot == nullptr && node == nullptr) {
    // First touch this session: claim a slot where the probe stopped,
    // seeded from the frozen view.
    slot = paged_local_->Insert(key, r.hole);
    node = SeedOverlay(key, r.under, slot);
  }
  if (node != nullptr) {
    BumpWide(node, w);
  } else {
    BumpNarrow(key, slot, w);
  }
}

void NGramLanguageModel::Advance(token::TokenId id) {
  const int window_bits = kBitsPerToken * options_.max_order;
  window_ = ((window_ << kBitsPerToken) | static_cast<uint64_t>(id)) &
            ((uint64_t{1} << window_bits) - 1);
  ++observed_;
}

void NGramLanguageModel::Observe(token::TokenId id) {
  MC_CHECK(!frozen_);  // Fork() a session instead of mutating a frozen base.
  MC_CHECK(id >= 0 && static_cast<size_t>(id) < vocab_size_);
  // Record `id` as the continuation of every context order that is fully
  // available in the window (order 0 = unigram always is). Keys of
  // different orders differ, so bumping one order never moves where
  // another resolved, and the recorded probes stay valid throughout
  // (an insert through a hole steps past cells filled since).
  if (!probes_valid_) ResolveAll(probes_.data());
  const int max_ctx = ContextOrders();
  for (int order = 0; order <= max_ctx; ++order) {
    BumpPaged(ContextKey(order), probes_[static_cast<size_t>(order)], id);
  }
  probes_valid_ = false;
  Advance(id);
}

void NGramLanguageModel::ObserveAll(std::span<const token::TokenId> ids) {
  MC_CHECK(!frozen_);  // Fork() a session instead of mutating a frozen base.
  if (paged_local_->size() == 0 && overflow_local_.empty()) {
    IngestPaged(ids);
    return;
  }
  // An overlay that already holds entries takes one token at a time.
  for (token::TokenId id : ids) Observe(id);
}

void NGramLanguageModel::IngestPaged(std::span<const token::TokenId> ids) {
  if (ids.empty()) return;
  probes_valid_ = false;
  // Scratch for this call only: one record per distinct key, in first-
  // touch order, and an open-addressed index over them of 4-byte cells
  // (1 + record position, 0 = empty), sized for the most keys the
  // prompt can add at the store's 70% load.
  struct Record {
    uint64_t key;
    std::byte* slot;  // null: the counts live in overflow_local_
  };
  const size_t max_keys = MaxNewKeys(ids.size());
  int bits = 4;
  while ((size_t{1} << bits) * 7 <= max_keys * 10) ++bits;
  std::vector<uint32_t> cells(size_t{1} << bits, 0);
  const size_t mask = cells.size() - 1;
  std::vector<Record> records;
  records.reserve(max_keys);

  for (token::TokenId id : ids) {
    MC_CHECK(id >= 0 && static_cast<size_t>(id) < vocab_size_);
    const size_t w = static_cast<size_t>(id);
    const int max_ctx = ContextOrders();
    for (int order = 0; order <= max_ctx; ++order) {
      const uint64_t key = ContextKey(order);
      // Fibonacci hashing: the top bits of key * 2^64 / phi.
      size_t cell =
          static_cast<size_t>((key * 0x9e3779b97f4a7c15ULL) >> (64 - bits));
      while (cells[cell] != 0 && records[cells[cell] - 1].key != key) {
        cell = (cell + 1) & mask;
      }
      if (cells[cell] == 0) {
        // First touch: the slot is claimed now, so slots follow first-
        // touch order as they do one Observe at a time.
        std::byte* slot = paged_local_->Append(key);
        const CountsRef under =
            paged_base_.empty()
                ? CountsRef{}
                : LookupFrozenPaged(key, PagedContextStore::HashKey(key));
        if (SeedOverlay(key, under, slot) != nullptr) slot = nullptr;
        records.push_back(Record{key, slot});
        cells[cell] = static_cast<uint32_t>(records.size());
      }
      Record& record = records[cells[cell] - 1];
      if (record.slot == nullptr) {
        BumpWide(&overflow_local_.find(key)->second, w);
      } else if (BumpNarrow(key, record.slot, w) != nullptr) {
        record.slot = nullptr;
      }
    }
    Advance(id);
  }
  paged_local_->IndexAppended();
}

void NGramLanguageModel::ResolveAll(Resolved* resolved) const {
  const int max_ctx = ContextOrders();
  std::array<uint64_t, kMaxOrder + 1> keys;
  std::array<uint64_t, kMaxOrder + 1> hashes;
  // Every order's first cache miss at once: its index cell in the
  // overlay and in each frozen store.
  for (int order = 0; order <= max_ctx; ++order) {
    const size_t o = static_cast<size_t>(order);
    keys[o] = ContextKey(order);
    hashes[o] = PagedContextStore::HashKey(keys[o]);
    paged_local_->Prefetch(hashes[o]);
    for (const PagedLayer& layer : paged_base_) {
      if (layer.store != nullptr) layer.store->Prefetch(hashes[o]);
    }
  }
  for (int order = 0; order <= max_ctx; ++order) {
    const size_t o = static_cast<size_t>(order);
    resolved[o] = Resolve(keys[o], hashes[o]);
  }
}

void NGramLanguageModel::Blend(const Resolved* resolved,
                               std::vector<double>* out) const {
  // Interpolated Witten–Bell, built bottom-up: start from uniform, then
  // for each order k with counts, blend
  //   P_k(w) = (c(h_k, w) + (T(h_k) + boost) * P_{k-1}(w))
  //            / (c(h_k) + T(h_k) + boost).
  std::vector<double>& probs = *out;
  probs.assign(vocab_size_, 1.0 / static_cast<double>(vocab_size_));
  const int max_ctx = ContextOrders();
  for (int order = 0; order <= max_ctx; ++order) {
    const CountsRef ref = View(resolved[static_cast<size_t>(order)]);
    if (!ref.found || ref.total == 0) continue;
    double lambda = static_cast<double>(ref.types) + options_.backoff_boost;
    double denom = static_cast<double>(ref.total) + lambda;
    for (size_t w = 0; w < vocab_size_; ++w) {
      probs[w] = (ref.Count(w) + lambda * probs[w]) / denom;
    }
  }

  if (options_.uniform_mix > 0.0) {
    double u = options_.uniform_mix / static_cast<double>(vocab_size_);
    for (double& p : probs) {
      p = (1.0 - options_.uniform_mix) * p + u;
    }
  }

  // Guard against drift: renormalize exactly.
  double sum = 0.0;
  for (double p : probs) sum += p;
  for (double& p : probs) p /= sum;
}

void NGramLanguageModel::NextDistribution(std::vector<double>* out) const {
  if (frozen_) {
    // Frozen models are read by many threads at once: no probe record.
    std::array<Resolved, kMaxOrder + 1> resolved;
    ResolveAll(resolved.data());
    Blend(resolved.data(), out);
    return;
  }
  // A mutable session records where each order resolved, so the
  // Observe that follows writes through without probing again.
  ResolveAll(probes_.data());
  probes_valid_ = true;
  Blend(probes_.data(), out);
}

void NGramLanguageModel::ReserveDecode(size_t num_tokens) {
  if (frozen_ || num_tokens == 0) return;
  paged_local_->Reserve(paged_local_->size() + MaxNewKeys(num_tokens));
}

size_t NGramLanguageModel::MaxNewKeys(size_t num_tokens) const {
  // One order-0 key, and per order k >= 1 one key per token, but no
  // more than the vocab_size^k distinct order-k contexts.
  size_t new_keys = 1;
  size_t contexts = 1;
  for (int order = 1; order <= options_.max_order; ++order) {
    contexts = std::min(contexts * vocab_size_, num_tokens);
    new_keys += contexts;
  }
  return new_keys;
}

std::vector<double> NGramLanguageModel::NextDistribution() const {
  std::vector<double> probs;
  NextDistribution(&probs);
  return probs;
}

void NGramLanguageModel::CompactPagedBase() {
  // Compact the frozen chain: when no layer has overflow entries, the
  // store-level MergeCompact shares (adopts) mostly-live blocks by
  // refcount and copies only the rest — copy-on-write at block
  // granularity. With overflow entries in play (u16-saturated counts or
  // pool-exhaustion spills — both rare by construction) the merge falls
  // back to one overflow-only layer; correct, just not paged.
  bool any_overflow = false;
  for (const PagedLayer& layer : paged_base_) {
    if (!layer.overflow->empty() || layer.store == nullptr) {
      any_overflow = true;
      break;
    }
  }
  if (!any_overflow) {
    std::vector<std::shared_ptr<const PagedContextStore>> stores;
    stores.reserve(paged_base_.size());
    for (const PagedLayer& layer : paged_base_) stores.push_back(layer.store);
    auto merged = PagedContextStore::MergeCompact(stores, pool_);
    if (merged == nullptr) return;  // pool exhausted: keep the chain
    paged_base_.clear();
    paged_base_.push_back(
        PagedLayer{std::move(merged), std::make_shared<const Table>()});
    return;
  }
  auto merged_overflow = std::make_shared<Table>();
  for (const PagedLayer& layer : paged_base_) {
    if (layer.store != nullptr) {
      layer.store->ForEach([&](uint64_t key, const std::byte* p) {
        if (LoadU16(p, kFlagsOffset) & kWideFlag) return;  // overflow wins
        ContextCounts& cc = (*merged_overflow)[key];
        cc.next.assign(vocab_size_, 0);
        const uint16_t* counts = NarrowCounts(p);
        for (size_t i = 0; i < vocab_size_; ++i) cc.next[i] = counts[i];
        cc.total = LoadU32(p, kTotalOffset);
        cc.types = LoadU16(p, kTypesOffset);
      });
    }
    for (const auto& [key, cc] : *layer.overflow) {
      (*merged_overflow)[key] = cc;
    }
  }
  paged_base_.clear();
  paged_base_.push_back(PagedLayer{nullptr, std::move(merged_overflow)});
}

void NGramLanguageModel::Freeze() {
  probes_valid_ = false;
  if (frozen_) return;
  frozen_ = true;
  if (paged_local_->size() > 0 || !overflow_local_.empty()) {
    // Zero-copy transition: the overlay's blocks become the frozen
    // layer's blocks; no payload moves.
    paged_base_.push_back(PagedLayer{
        std::shared_ptr<const PagedContextStore>(std::move(paged_local_)),
        std::make_shared<const Table>(std::move(overflow_local_))});
    paged_local_ = std::make_unique<PagedContextStore>(pool_, SlotBytes());
    overflow_local_ = Table{};
  }
  if (paged_base_.size() > options_.max_base_layers) CompactPagedBase();
}

std::unique_ptr<NGramLanguageModel> NGramLanguageModel::Fork() const {
  MC_CHECK(frozen_);  // Freeze() before forking decode sessions.
  auto fork =
      std::make_unique<NGramLanguageModel>(vocab_size_, options_, pool_);
  fork->observed_ = observed_;
  fork->window_ = window_;
  // Block-granularity sharing: the fork's refcounts on the frozen
  // stores (and, transitively, their blocks) are the entire copy.
  fork->paged_base_ = paged_base_;
  return fork;
}

size_t NGramLanguageModel::num_entries() const {
  // Effective view: topmost layer wins per key.
  std::unordered_map<uint64_t, uint32_t> effective;
  auto fold = [&](const PagedContextStore* store, const Table& overflow) {
    if (store != nullptr) {
      store->ForEach([&](uint64_t key, const std::byte* p) {
        if (LoadU16(p, kFlagsOffset) & kWideFlag) return;
        effective[key] = LoadU16(p, kTypesOffset);
      });
    }
    for (const auto& [key, cc] : overflow) effective[key] = cc.types;
  };
  for (const PagedLayer& layer : paged_base_) {
    fold(layer.store.get(), *layer.overflow);
  }
  fold(paged_local_.get(), overflow_local_);
  size_t n = 0;
  for (const auto& [key, types] : effective) {
    (void)key;
    n += types;
  }
  return n;
}

std::vector<NGramLanguageModel::OverlayEntry>
NGramLanguageModel::OverlayEntries() const {
  std::map<uint64_t, OverlayEntry> entries;
  paged_local_->ForEach([&](uint64_t key, const std::byte* p) {
    OverlayEntry& e = entries[key];
    e.key = key;
    e.has_slot = true;
    if (LoadU16(p, kFlagsOffset) & kWideFlag) return;  // filled below
    e.narrow = true;
    e.total = LoadU32(p, kTotalOffset);
    e.types = LoadU16(p, kTypesOffset);
    e.next.assign(NarrowCounts(p), NarrowCounts(p) + vocab_size_);
  });
  for (const auto& [key, cc] : overflow_local_) {
    OverlayEntry& e = entries[key];
    e.key = key;
    e.total = cc.total;
    e.types = cc.types;
    e.next = cc.next;
  }
  std::vector<OverlayEntry> out;
  out.reserve(entries.size());
  for (auto& [key, e] : entries) out.push_back(std::move(e));
  return out;
}

size_t NGramLanguageModel::OverflowBytes(const Table& table) {
  // Malloc model from paged_store.h: node chunk + bucket pointer +
  // out-of-line count vector per entry.
  size_t b = 0;
  for (const auto& [key, cc] : table) {
    (void)key;
    b += ApproxMapEntryBytes(
        sizeof(void*) + sizeof(std::pair<const uint64_t, ContextCounts>),
        cc.next.empty() ? 0 : cc.next.capacity() * sizeof(uint32_t));
  }
  return b;
}

MemoryFootprint NGramLanguageModel::ApproxMemoryBytes() const {
  MemoryFootprint fp;
  fp.overlay_bytes =
      paged_local_->MemoryBytes() + OverflowBytes(overflow_local_);
  for (const PagedLayer& layer : paged_base_) {
    if (layer.store != nullptr) fp.base_bytes += layer.store->MemoryBytes();
    fp.base_bytes += OverflowBytes(*layer.overflow);
  }
  return fp;
}

void NGramLanguageModel::TallyMemory(MemoryTally* tally) const {
  tally->bytes += ApproxMemoryBytes().overlay_bytes;
  // Frozen layers are shared; count each identity once across the tally.
  for (const PagedLayer& layer : paged_base_) {
    size_t bytes = OverflowBytes(*layer.overflow);
    if (layer.store != nullptr) bytes += layer.store->MemoryBytes();
    const void* identity =
        layer.store != nullptr ? static_cast<const void*>(layer.store.get())
                               : static_cast<const void*>(layer.overflow.get());
    if (tally->seen.insert(identity).second) tally->bytes += bytes;
  }
}

}  // namespace lm
}  // namespace multicast
