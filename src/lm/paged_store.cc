#include "lm/paged_store.h"

#include <algorithm>
#include <cstring>

#include "util/status.h"

namespace multicast {
namespace lm {
namespace {

constexpr size_t kMinIndexCells = 16;

size_t RoundUp8(size_t n) { return (n + 7) & ~static_cast<size_t>(7); }

}  // namespace

// ---------------------------------------------------------------------------
// BlockPool

BlockPool::BlockPool(const PagedMemoryOptions& options) : options_(options) {
  shared_ = std::make_shared<Shared>();
  shared_->max_blocks = options.max_blocks;
}

BlockRef BlockPool::Allocate(size_t bytes) {
  MC_CHECK(bytes > 0);
  std::unique_ptr<std::byte[]> buf;
  {
    std::lock_guard<std::mutex> lock(shared_->mu);
    BlockPoolStats& s = shared_->stats;
    if (shared_->max_blocks > 0 && s.blocks_live >= shared_->max_blocks) {
      ++s.exhaustion_events;  // over budget: counted, still served
    }
    auto it = shared_->freelist.find(bytes);
    if (it != shared_->freelist.end() && !it->second.empty()) {
      buf = std::move(it->second.back());
      it->second.pop_back();
      --s.blocks_free;
      ++s.blocks_recycled;
    }
    ++s.blocks_live;
    s.blocks_peak = std::max(s.blocks_peak, s.blocks_live);
    s.bytes_live += bytes;
    s.bytes_peak = std::max(s.bytes_peak, s.bytes_live);
  }
  // Heap work outside the lock; a fresh buffer needs no zeroing — the
  // store zeroes each slot as it is claimed, recycled or not.
  if (buf == nullptr) buf = std::make_unique<std::byte[]>(bytes);
  // The deleter captures the Shared state (not the pool object), so a
  // block outliving its BlockPool still returns its buffer safely.
  std::shared_ptr<Shared> home = shared_;
  return BlockRef(new Block(std::move(buf), bytes), [home](Block* b) {
    {
      std::lock_guard<std::mutex> lock(home->mu);
      BlockPoolStats& s = home->stats;
      --s.blocks_live;
      s.bytes_live -= b->bytes_;
      ++s.blocks_free;
      home->freelist[b->bytes_].push_back(std::move(b->data_));
    }
    delete b;
  });
}

void BlockPool::NoteSessionEnd(size_t overlay_bytes, size_t base_bytes,
                               size_t overlay_entries) {
  std::lock_guard<std::mutex> lock(shared_->mu);
  BlockPoolStats& s = shared_->stats;
  ++s.sessions;
  s.session_overlay_bytes += overlay_bytes;
  s.session_base_bytes += base_bytes;
  s.session_overlay_entries += overlay_entries;
}

double BlockPool::Fullness() const {
  std::lock_guard<std::mutex> lock(shared_->mu);
  if (shared_->max_blocks == 0) return 0.0;
  return std::min(1.0, static_cast<double>(shared_->stats.blocks_live) /
                           static_cast<double>(shared_->max_blocks));
}

BlockPoolStats BlockPool::stats() const {
  std::lock_guard<std::mutex> lock(shared_->mu);
  return shared_->stats;
}

void BlockPool::PublishMetrics(util::MetricsRegistry* registry,
                               const std::string& prefix) const {
  PublishBlockPoolStats(stats(), registry, prefix);
  registry->GetGauge(prefix + "pool_fullness")->Set(Fullness());
}

void PublishBlockPoolStats(const BlockPoolStats& stats,
                           util::MetricsRegistry* registry,
                           const std::string& prefix) {
  auto gauge = [&](const char* name, double v) {
    registry->GetGauge(prefix + name)->Set(v);
  };
  auto counter = [&](const char* name, double v) {
    registry->GetCounter(prefix + name)->Add(v);
  };
  gauge("blocks_live", static_cast<double>(stats.blocks_live));
  gauge("blocks_peak", static_cast<double>(stats.blocks_peak));
  gauge("blocks_free", static_cast<double>(stats.blocks_free));
  gauge("bytes_live", static_cast<double>(stats.bytes_live));
  gauge("bytes_peak", static_cast<double>(stats.bytes_peak));
  counter("blocks_recycled", static_cast<double>(stats.blocks_recycled));
  counter("exhaustion_events", static_cast<double>(stats.exhaustion_events));
  counter("sessions", static_cast<double>(stats.sessions));
  counter("session_overlay_bytes",
          static_cast<double>(stats.session_overlay_bytes));
  counter("session_base_bytes",
          static_cast<double>(stats.session_base_bytes));
  counter("session_overlay_entries",
          static_cast<double>(stats.session_overlay_entries));
  gauge("bytes_per_session", stats.bytes_per_session());
  gauge("sharing_ratio", stats.sharing_ratio());
}

// ---------------------------------------------------------------------------
// PagedContextStore

PagedContextStore::PagedContextStore(std::shared_ptr<BlockPool> pool,
                                     size_t slot_bytes)
    : pool_(std::move(pool)), slot_bytes_(RoundUp8(slot_bytes)) {
  MC_CHECK(pool_ != nullptr);
  span_ = std::max(kMinBlockSpan, pool_->options().block_span);
  MC_CHECK(span_ <= kMaxBlockSpan);
  while ((size_t{1} << slot_bits_) < span_) ++slot_bits_;
  // Keys first, payload area after — 8 * span keeps the payload area
  // (and with slot_bytes_ a multiple of 8, every slot) 8-aligned.
  block_bytes_ = sizeof(uint64_t) * span_ + slot_bytes_ * span_;
}

uint64_t PagedContextStore::HashKey(uint64_t key) {
  // splitmix64 finalizer: the packed context keys are highly regular in
  // their low bits, and the index mask needs avalanche.
  uint64_t z = key + 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

uint64_t* PagedContextStore::KeyArray(size_t block) {
  return reinterpret_cast<uint64_t*>(blocks_[block]->data());
}

const uint64_t* PagedContextStore::KeyArray(size_t block) const {
  return reinterpret_cast<const uint64_t*>(blocks_[block]->data());
}

std::byte* PagedContextStore::Payload(size_t block, size_t slot) {
  return blocks_[block]->data() + sizeof(uint64_t) * span_ +
         slot_bytes_ * slot;
}

const std::byte* PagedContextStore::Payload(size_t block, size_t slot) const {
  return blocks_[block]->data() + sizeof(uint64_t) * span_ +
         slot_bytes_ * slot;
}

size_t PagedContextStore::Probe(uint64_t key, uint64_t hash) const {
  const size_t mask = index_.size() - 1;
  size_t cell = static_cast<size_t>(hash) & mask;
  while (true) {
    const uint32_t id = index_[cell];
    if (id == 0) return cell;
    if (KeyArray(BlockOf(id))[SlotOf(id)] == key) return cell;
    cell = (cell + 1) & mask;
  }
}

void PagedContextStore::PlaceId(uint32_t id) {
  const size_t mask = index_.size() - 1;
  const uint64_t key = KeyArray(BlockOf(id))[SlotOf(id)];
  size_t cell = static_cast<size_t>(HashKey(key)) & mask;
  while (index_[cell] != 0) cell = (cell + 1) & mask;
  index_[cell] = id;
}

void PagedContextStore::GrowIndex(size_t min_cells) {
  size_t cells = kMinIndexCells;
  while (cells < min_cells) cells <<= 1;
  std::vector<uint32_t> old = std::move(index_);
  index_.assign(cells, 0);
  for (uint32_t id : old) {
    if (id != 0) PlaceId(id);
  }
}

void PagedContextStore::Reserve(size_t entries) {
  // The load rule of IndexSlot, applied to the last of `entries` keys.
  size_t cells = std::max(kMinIndexCells, index_.size());
  while (entries * 10 >= cells * 7) cells <<= 1;
  if (cells != index_.size()) GrowIndex(cells);
}

void PagedContextStore::IndexSlot(uint64_t key, uint32_t block,
                                  uint32_t slot, const Hole& hole) {
  // Keep load below 70%.
  if (index_.empty() || (size_ + 1) * 10 >= index_.size() * 7) {
    GrowIndex(index_.empty() ? kMinIndexCells : index_.size() * 2);
  }
  size_t cell;
  if (hole.cells == index_.size()) {
    // The cells between the key's home and the hole were all taken when
    // the hole was recorded, and cells are never emptied, so the first
    // empty cell from the hole onward is the one Probe would find.
    const size_t mask = index_.size() - 1;
    cell = hole.cell;
    while (index_[cell] != 0) cell = (cell + 1) & mask;
  } else {
    cell = Probe(key, HashKey(key));
  }
  MC_CHECK(index_[cell] == 0);
  index_[cell] = 1 + ((block << slot_bits_) | slot);
  ++size_;
}

const std::byte* PagedContextStore::Find(uint64_t key) const {
  Hole unused;
  return Find(key, HashKey(key), &unused);
}

const std::byte* PagedContextStore::Find(uint64_t key, uint64_t hash,
                                         Hole* hole) const {
  hole->cells = index_.size();
  if (index_.empty()) return nullptr;
  const size_t cell = Probe(key, hash);
  const uint32_t id = index_[cell];
  if (id == 0) {
    hole->cell = cell;
    return nullptr;
  }
  return Payload(BlockOf(id), SlotOf(id));
}

void PagedContextStore::Prefetch(uint64_t hash) const {
  if (index_.empty()) return;
  const size_t mask = index_.size() - 1;
  __builtin_prefetch(&index_[static_cast<size_t>(hash) & mask]);
}

std::byte* PagedContextStore::Insert(uint64_t key) {
  return Insert(key, Hole{});
}

std::byte* PagedContextStore::ClaimSlot(uint64_t key, uint32_t* block,
                                        uint32_t* slot) {
  if (blocks_.empty() || tail_used_ == span_) {
    blocks_.push_back(pool_->Allocate(block_bytes_));
    tail_used_ = 0;
  }
  *block = static_cast<uint32_t>(blocks_.size() - 1);
  *slot = static_cast<uint32_t>(tail_used_++);
  MC_CHECK(*block < (uint32_t{0xffffffff} >> slot_bits_));  // id fits 32 bits
  KeyArray(*block)[*slot] = key;
  std::byte* payload = Payload(*block, *slot);
  std::memset(payload, 0, slot_bytes_);
  return payload;
}

std::byte* PagedContextStore::Insert(uint64_t key, const Hole& hole) {
  MC_CHECK(pending_ == 0);  // IndexAppended() first
  uint32_t block = 0;
  uint32_t slot = 0;
  std::byte* payload = ClaimSlot(key, &block, &slot);
  IndexSlot(key, block, slot, hole);
  return payload;
}

std::byte* PagedContextStore::Append(uint64_t key) {
  uint32_t block = 0;
  uint32_t slot = 0;
  std::byte* payload = ClaimSlot(key, &block, &slot);
  if (pending_ == 0) {
    pending_block_ = block;
    pending_slot_ = slot;
  }
  ++pending_;
  return payload;
}

void PagedContextStore::IndexAppended() {
  if (pending_ == 0) return;
  // Growth one insert at a time ends at the smallest cell count that
  // holds every key under the load rule, which is what Reserve sizes.
  Reserve(size_ + pending_);
  // Pending slots run on from the first through the blocks claimed
  // after it: each such block was fresh, so full up to the tail.
  size_t block = pending_block_;
  size_t slot = pending_slot_;
  for (size_t i = 0; i < pending_; ++i, ++slot) {
    if (slot == span_) {
      ++block;
      slot = 0;
    }
    PlaceId(static_cast<uint32_t>(1 + ((block << slot_bits_) | slot)));
  }
  size_ += pending_;
  pending_ = 0;
}

size_t PagedContextStore::MemoryBytes() const {
  size_t total = 0;
  for (const BlockRef& b : blocks_) total += ApproxChunkBytes(b->bytes());
  if (!index_.empty()) {
    total += ApproxChunkBytes(index_.size() * sizeof(uint32_t));
  }
  return total;
}

void PagedContextStore::ForEach(
    const std::function<void(uint64_t, const std::byte*)>& fn) const {
  for (uint32_t id : index_) {
    if (id == 0) continue;
    fn(KeyArray(BlockOf(id))[SlotOf(id)], Payload(BlockOf(id), SlotOf(id)));
  }
}

}  // namespace lm
}  // namespace multicast
