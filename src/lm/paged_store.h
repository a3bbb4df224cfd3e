// Paged session memory: block-allocated, refcounted context storage.
//
// Every decode session layers a private copy-on-write overlay over at
// most one shared frozen base (ngram_model.h Freeze()/Fork()). The model
// keeps both in the paged-KV analogue below, the one context storage of
// the simulated back-ends: per-entry map nodes, each with a separately
// heap-allocated count vector, would cost ~3x the bytes the counts
// need, and at thousands of concurrent draws (the M4-style many-series
// regime) overlay memory dominates long before the scheduler saturates.
//
//   BlockPool         — the process-wide (or per-replica) authority for
//                       fixed-size storage blocks: refcounted handles,
//                       a freelist that recycles returned buffers, a
//                       live/peak high-water gauge, an optional block
//                       budget (an allocation over it is an *exhaustion
//                       event*, and the overload ladder sheds on the
//                       pool's fullness), and per-session byte and
//                       entry accounting.
//
//   PagedContextStore — one layer's context table: 64-bit context keys
//                       mapped to fixed-size payload slots packed into
//                       pool blocks, with a flat open-addressed index
//                       (4 bytes per cell) instead of per-entry map
//                       nodes. A frozen store is immutable and shared
//                       by refcount with every fork of its model.
//
// Who copies what (the COW contract, mirrored in DESIGN.md §5k):
//   * A fork shares its base's blocks by refcount. Writing a context
//     key copies that key's slot (never the block, never the layer)
//     into the fork's private overlay store — byte-for-byte the same
//     integers a monolithic model would hold, so all downstream float
//     math is bit-identical.
//   * Freeze() moves the overlay's blocks into the frozen base without
//     copying.
//   * Blocks return to the pool freelist only when the last holder of
//     their store dies — evicting a cached prompt while live forks still
//     share its base frees nothing until those forks finish.
//
// The block cap is a pressure budget, not a hard limit: a pool at or
// past it still hands out the block, so decode never fails mid-token
// and output stays bit-identical; the pool counts the allocation as an
// exhaustion event, and its fullness feeds the serving layer's
// admission ladder, which sheds *before* dispatch (serve/overload.h).

#ifndef MULTICAST_LM_PAGED_STORE_H_
#define MULTICAST_LM_PAGED_STORE_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "util/metrics.h"

namespace multicast {
namespace lm {

/// Block spans a PagedContextStore accepts; a span below the minimum is
/// raised to it. An index cell addresses (block, slot) in 32 bits, so
/// the widest span still leaves 65,535 blocks per store.
inline constexpr size_t kMinBlockSpan = 4;
inline constexpr size_t kMaxBlockSpan = 65536;

/// Paged-memory configuration, carried by lm::ModelProfile into every
/// decode-model construction site.
struct PagedMemoryOptions {
  /// Payload slots per block. Larger spans amortize allocation but
  /// coarsen the freelist granularity. In [kMinBlockSpan,
  /// kMaxBlockSpan]; smaller values are raised to kMinBlockSpan.
  size_t block_span = 32;
  /// Pool-wide budget of live blocks; 0 = unbounded. An allocation at or
  /// past it still succeeds and counts one exhaustion event.
  size_t max_blocks = 0;
};

/// One refcounted storage block. Handles are std::shared_ptr<Block>
/// whose deleter returns the buffer to the owning pool's freelist, so
/// "refcount" is the shared_ptr control block and a block is recycled
/// exactly when its last holder (overlay store, frozen layer, fork)
/// lets go.
class Block {
 public:
  Block(std::unique_ptr<std::byte[]> data, size_t bytes)
      : data_(std::move(data)), bytes_(bytes) {}
  std::byte* data() { return data_.get(); }
  const std::byte* data() const { return data_.get(); }
  size_t bytes() const { return bytes_; }

 private:
  friend class BlockPool;
  std::unique_ptr<std::byte[]> data_;
  size_t bytes_;
};

using BlockRef = std::shared_ptr<Block>;

/// Cumulative pool counters (also published as lm.mem.* metrics).
struct BlockPoolStats {
  size_t blocks_live = 0;       ///< allocated and still referenced
  size_t blocks_peak = 0;       ///< high-water mark of blocks_live
  size_t blocks_free = 0;       ///< returned, parked on the freelist
  size_t bytes_live = 0;        ///< bytes behind blocks_live
  size_t bytes_peak = 0;        ///< high-water mark of bytes_live
  size_t blocks_recycled = 0;   ///< allocations served from the freelist
  size_t exhaustion_events = 0; ///< allocations over max_blocks
  size_t sessions = 0;          ///< decode sessions that ended
  size_t session_overlay_bytes = 0;  ///< summed private overlay bytes
  size_t session_base_bytes = 0;     ///< summed (logical) frozen-base bytes
  /// Summed distinct context keys of the sessions' private overlays.
  size_t session_overlay_entries = 0;

  /// Mean private bytes per ended session (0 before any ended).
  double bytes_per_session() const {
    return sessions == 0 ? 0.0
                         : static_cast<double>(session_overlay_bytes) /
                               static_cast<double>(sessions);
  }
  /// Logical bytes sessions conditioned on (each counting its full
  /// frozen base) over the peak physical bytes the pool ever held: how
  /// many times over the refcounted blocks were shared. 0 when the pool
  /// never held a block.
  double sharing_ratio() const {
    return bytes_peak == 0
               ? 0.0
               : static_cast<double>(session_overlay_bytes +
                                     session_base_bytes) /
                     static_cast<double>(bytes_peak);
  }
};

/// Registry export: gauges/counters under `prefix` ("lm.mem." by
/// convention). Publishes cumulative totals — call once per registry,
/// like the other Publish* helpers.
void PublishBlockPoolStats(const BlockPoolStats& stats,
                           util::MetricsRegistry* registry,
                           const std::string& prefix);

/// See file comment. Thread-safe: one mutex guards the freelist and
/// counters; block payload access is the caller's concern (immutable
/// once frozen, private while mutable — the Freeze()/Fork() contract).
class BlockPool {
 public:
  explicit BlockPool(const PagedMemoryOptions& options);

  const PagedMemoryOptions& options() const { return options_; }

  /// One refcounted block of >= `bytes` bytes (freelist buffers are
  /// size-matched exactly, so in practice == bytes); never null. At or
  /// past max_blocks live blocks it counts one exhaustion event.
  BlockRef Allocate(size_t bytes);

  /// A mutable decode session ended, holding `overlay_bytes` of private
  /// state in `overlay_entries` distinct context keys over `base_bytes`
  /// of (shared) frozen base. Models report this from their destructor.
  void NoteSessionEnd(size_t overlay_bytes, size_t base_bytes,
                      size_t overlay_entries);

  /// Live blocks over max_blocks, clamped to [0, 1]; 0 when unbounded.
  /// The overload ladder's memory-pressure observable.
  double Fullness() const;

  BlockPoolStats stats() const;
  /// Publishes stats() under `prefix` plus a `fullness` gauge. Call
  /// once per registry (cumulative totals, like the other views).
  void PublishMetrics(util::MetricsRegistry* registry,
                      const std::string& prefix = "lm.mem.") const;

 private:
  struct Shared {
    mutable std::mutex mu;
    // Freelist keyed by exact buffer size (one vocab yields one or two
    // sizes in practice).
    std::unordered_map<size_t, std::vector<std::unique_ptr<std::byte[]>>>
        freelist;
    BlockPoolStats stats;
    size_t max_blocks = 0;
  };

  const PagedMemoryOptions options_;
  // Shared with every handed-out block's deleter, so returned buffers
  // find their way home even if they outlive the BlockPool object.
  std::shared_ptr<Shared> shared_;
};

/// malloc-model estimate of one heap chunk serving a `request`-byte
/// allocation (glibc-style: 8-byte header, 16-byte granule, 32-byte
/// minimum). Overflow maps are unordered_map + vector heaps, so their
/// resident size is estimated with this model; paged stores are
/// measured from their actual block and index allocations through the
/// same function. The model is documented in DESIGN.md §5k.
inline size_t ApproxChunkBytes(size_t request) {
  const size_t chunk = (request + 8 + 15) & ~static_cast<size_t>(15);
  return chunk < 32 ? 32 : chunk;
}

/// Estimate of one unordered_map entry: the node chunk (bucket pointer
/// amortized in) plus one out-of-line payload chunk of
/// `heap_payload_bytes` (0 for none).
inline size_t ApproxMapEntryBytes(size_t node_bytes,
                                  size_t heap_payload_bytes) {
  size_t total = ApproxChunkBytes(node_bytes) + sizeof(void*);
  if (heap_payload_bytes > 0) total += ApproxChunkBytes(heap_payload_bytes);
  return total;
}

/// See file comment. One layer's context table: keys are the models'
/// packed 64-bit context keys, payloads are fixed-size byte records the
/// owning model encodes/decodes. Mutable while building an overlay;
/// frozen by wrapping in shared_ptr<const> (no further Insert calls).
/// Not internally synchronized: mutable stores are session-private,
/// frozen stores are immutable.
class PagedContextStore {
 public:
  /// `slot_bytes` is the payload record size; it is rounded up to an
  /// 8-byte multiple, so every slot is 8-aligned. The n-gram's fields
  /// need only 2; the rounding is kept because the per-session byte
  /// accounting is measured with it. `pool` must be non-null.
  PagedContextStore(std::shared_ptr<BlockPool> pool, size_t slot_bytes);

  PagedContextStore(const PagedContextStore&) = delete;
  PagedContextStore& operator=(const PagedContextStore&) = delete;

  /// Where a lookup of an absent key stopped: the empty index cell the
  /// key would be inserted into, and the index's cell count at that
  /// moment (an index that has grown since no longer holds the cell).
  struct Hole {
    size_t cell = 0;
    size_t cells = 0;
  };

  /// Payload slot for `key`, or null.
  const std::byte* Find(uint64_t key) const;
  /// The index hash of `key`. It is the same in every store, so a
  /// lookup of one key in several stores computes it once.
  static uint64_t HashKey(uint64_t key);
  /// Find of a key whose HashKey is `hash`; on a miss it records in
  /// `*hole` where the key would go.
  const std::byte* Find(uint64_t key, uint64_t hash, Hole* hole) const;

  /// Issues a prefetch of the index cell of a key whose HashKey is
  /// `hash`, so that finds of several keys overlap their first misses.
  void Prefetch(uint64_t hash) const;

  /// Appends a zero-initialized slot for `key` (which must be absent)
  /// and returns its payload.
  std::byte* Insert(uint64_t key);
  /// Insert of a key that Find(key, hash, &hole) reported absent, with no
  /// insert of that key since. The index search resumes at the recorded
  /// cell, stepping past cells that other inserts filled since, and
  /// starts over from the key's home cell only if the index has grown.
  /// The key lands in the same cell Insert(key) would put it in.
  std::byte* Insert(uint64_t key, const Hole& hole);

  /// Append-then-index-once, the bulk build: Append claims a zero-
  /// initialized slot for `key` exactly as Insert does (the same block,
  /// the same slot, the same pool call) but leaves the key unindexed, so
  /// Find does not see it yet. The key must be absent from the store and
  /// from every pending append.
  /// Insert must not be called while appends are pending.
  std::byte* Append(uint64_t key);
  /// Indexes every pending Append, growing the index once to the cell
  /// count that inserting the same keys one at a time would reach.
  void IndexAppended();

  /// Grows the index, once, so that `entries` keys in total fit without
  /// a further growth. Never shrinks it.
  void Reserve(size_t entries);

  size_t size() const { return size_; }
  size_t slot_bytes() const { return slot_bytes_; }
  size_t num_blocks() const { return blocks_.size(); }
  const std::shared_ptr<BlockPool>& pool() const { return pool_; }

  /// Physical resident bytes: every held block's full allocation (the
  /// pool handed it out whole, partially filled or not) plus the index
  /// array, both through the shared malloc model.
  size_t MemoryBytes() const;

  /// Every live (indexed) entry, in index order.
  void ForEach(
      const std::function<void(uint64_t key, const std::byte* payload)>& fn)
      const;

 private:
  uint64_t* KeyArray(size_t block);
  const uint64_t* KeyArray(size_t block) const;
  std::byte* Payload(size_t block, size_t slot);
  const std::byte* Payload(size_t block, size_t slot) const;

  /// Block and slot of a nonzero index cell id.
  size_t BlockOf(uint32_t id) const { return (id - 1) >> slot_bits_; }
  size_t SlotOf(uint32_t id) const {
    return (id - 1) & ((size_t{1} << slot_bits_) - 1);
  }

  /// Index cell holding `key` (hashing to `hash`), or the empty cell
  /// where it would go.
  size_t Probe(uint64_t key, uint64_t hash) const;
  void GrowIndex(size_t min_cells);
  /// Puts index cell id `id`, whose key is absent from the index, in the
  /// first empty cell from its key's home cell on. No growth.
  void PlaceId(uint32_t id);
  /// The slot Insert and Append hand out: the tail block's next slot,
  /// holding `key` and a zeroed payload, after a fresh block if the tail
  /// is full.
  std::byte* ClaimSlot(uint64_t key, uint32_t* block, uint32_t* slot);
  /// Indexes an existing (block, slot) pair; grows the index as needed.
  /// `hole` is as in Insert(key, hole); a default Hole means "probe".
  void IndexSlot(uint64_t key, uint32_t block, uint32_t slot,
                 const Hole& hole);

  std::shared_ptr<BlockPool> pool_;
  size_t slot_bytes_;
  size_t span_;
  /// Bits of an index cell id that hold the slot: ceil(log2(span_)).
  int slot_bits_ = 0;
  size_t block_bytes_;
  std::vector<BlockRef> blocks_;
  /// Slots used in the tail block, where inserts append.
  size_t tail_used_ = 0;
  /// Open-addressed index: cell = 1 + (block << slot_bits_ | slot);
  /// 0 = empty. Sized to a power of two, grown at 70% load.
  std::vector<uint32_t> index_;
  size_t size_ = 0;
  /// Appended slots not indexed yet, and where the first of them is;
  /// the rest follow it slot by slot through the fresh tail blocks.
  size_t pending_ = 0;
  uint32_t pending_block_ = 0;
  uint32_t pending_slot_ = 0;
};

}  // namespace lm
}  // namespace multicast

#endif  // MULTICAST_LM_PAGED_STORE_H_
