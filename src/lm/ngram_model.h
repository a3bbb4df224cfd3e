// Interpolated Witten–Bell backoff n-gram language model: the decoder
// behind the simulated LLM back-ends.
//
// It stands in for the paper's LLaMA2 / Phi-2 back-ends (see DESIGN.md,
// "Reproduction gates") and is driven the way a decoder-only LLM is:
// feed the prompt token ids (ObserveAll, the prefill), then alternate
// NextDistribution -> sample -> Observe for each generated token.
// Counts of all n-grams up to `max_order` are maintained *online* over
// the observed context, so the model is zero-shot: its only knowledge is
// the serialized history it was prompted with, exactly the information a
// frozen LLM conditions on at inference time. Witten–Bell interpolation
// backs off smoothly from the longest matching context to the uniform
// distribution, which keeps every token's probability strictly positive
// (required for constrained sampling — masking must never zero out the
// entire support).
//
// Freeze()/Fork() are the simulated analogue of KV/prefix caching: a
// model that has observed a prompt is frozen into an immutable,
// shareable base, and each decode session forks a cheap copy-on-write
// overlay on top of it. A fork fed the same tokens as a fresh model
// produces bit-identical distributions, so caching removes redundant
// prompt replay and never changes output (see lm/prefix_cache.h).
//
// Counts are layered to support Freeze()/Fork(): frozen layers are
// immutable and shared by reference between forks; each live session
// writes only its own overlay layer. The first write to a context key
// copies that key's full entry from the frozen view into the overlay
// (vocab <= 31, so a copy is at most 31 counters), after which reads
// and increments hit the overlay copy — byte-for-byte the same integers
// a monolithic model would hold, so every downstream float op is
// bit-identical.
//
// Every layer is one PagedContextStore (lm/paged_store.h; context keys
// already encode their order), counts packed as u16 in fixed-size slots
// drawn from refcounted pool blocks. Entries whose counts outgrow u16,
// and entries the pool had no block for (exhaustion), live in a per-
// layer overflow map of u32 counts — the same integers, so output does
// not depend on where an entry lives. A model given no pool builds
// itself a private unbounded one, which its forks share.
//
// One decode step (NextDistribution, sample, Observe) costs one probe
// per context order and layer: the conditioning window
// is one packed 64-bit word, so each order's key is a shift and a mask,
// and NextDistribution on a mutable session records where every order's
// key resolved (overlay slot or node, or overlay miss plus the frozen
// entry) for the Observe that directly follows to write through. An
// overlay miss also records the empty index cell it stopped at,
// so the insert that follows resumes there instead of probing again;
// ReserveDecode sizes the overlay index for a whole generation when the
// session opens, so that the index does not grow (and rehash) mid-draw.
//
// Prompt ingest (ObserveAll) into a session whose overlay is still
// empty (a fresh model, or a fork over a frozen base) is one bulk build
// rather than an Observe per token: the counts after ingest are a
// multiset of (context, next-token) pairs, so one sweep that dedupes the
// keys in a scratch index, claims each new key's slot in first-touch
// order and indexes the overlay once at the end holds the same integers
// in the same blocks and slots (DESIGN.md §5k, "Bulk prompt ingest").

#ifndef MULTICAST_LM_NGRAM_MODEL_H_
#define MULTICAST_LM_NGRAM_MODEL_H_

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "lm/paged_store.h"
#include "token/vocabulary.h"

namespace multicast {
namespace lm {

struct NGramOptions {
  /// Longest context used, in tokens (an order-k model conditions on the
  /// previous k tokens). Must be in [1, 12] so contexts pack into 64 bits.
  int max_order = 8;
  /// Extra pseudo-type mass added to every Witten–Bell backoff weight.
  /// Larger values flatten the model toward lower orders — the knob the
  /// weaker "Phi-2" profile turns up.
  double backoff_boost = 0.0;
  /// Probability mass mixed in from the uniform distribution at the end
  /// (decoder noise floor). Must be in [0, 1).
  double uniform_mix = 1e-4;
  /// Frozen layers a fork chain may accumulate before Freeze() compacts
  /// them into one; bounds the per-lookup layer walk for long chains
  /// (e.g. rolling windows forked off forked prefixes). Must be >= 1.
  /// Storage-only: does not affect model output, so it is excluded from
  /// the model fingerprint.
  size_t max_base_layers = 4;
};

/// Estimated resident bytes of one model, split the way the paged
/// memory accounting needs it: `overlay_bytes` is state private to this
/// session; `base_bytes` is the frozen base it conditions on, which may
/// be shared with any number of other sessions by refcount.
struct MemoryFootprint {
  size_t overlay_bytes = 0;
  size_t base_bytes = 0;
  size_t total() const { return overlay_bytes + base_bytes; }
};

/// Deduplicating byte tally: shared frozen layers are counted once no
/// matter how many models (e.g. PrefixCache entries and their forks)
/// reference them. `seen` holds the identity of each shared object
/// already counted.
struct MemoryTally {
  size_t bytes = 0;
  std::unordered_set<const void*> seen;
};

/// See file comment.
class NGramLanguageModel {
 public:
  /// `vocab_size` must be <= 31 (tokens pack into 5 bits each). The
  /// layers draw their blocks from `pool` (null: a private unbounded
  /// pool), which also receives the session's byte accounting.
  NGramLanguageModel(size_t vocab_size, const NGramOptions& options,
                     std::shared_ptr<BlockPool> pool = nullptr);
  ~NGramLanguageModel();

  /// Clears all context (start of a fresh prompt). On a frozen model
  /// this also drops the frozen base: the model becomes empty & mutable.
  void Reset();

  /// Consumes one token of context (prompt or previously sampled
  /// output). Calling Observe on a frozen model is a checked error.
  void Observe(token::TokenId id);

  /// Consumes a whole token sequence: the same state, and so the same
  /// output, as calling Observe on each token in order. A bulk build
  /// into a session with an empty overlay; otherwise one Observe per
  /// token (see file comment).
  void ObserveAll(std::span<const token::TokenId> ids);

  /// Probability of each vocabulary token following the observed
  /// context: vocab_size() entries summing to 1.
  std::vector<double> NextDistribution() const;

  /// The same distribution written into `*out` (resized to
  /// vocab_size()), so that decode loops reuse one buffer across steps.
  void NextDistribution(std::vector<double>* out) const;

  /// Tells a mutable session, once, as it opens for generation, that it
  /// will sample and observe `num_tokens` more tokens, so that it sizes
  /// its overlay index for them up front. A sizing hint only: output
  /// never depends on it, and a session that outgrows it still grows.
  void ReserveDecode(size_t num_tokens);

  size_t vocab_size() const { return vocab_size_; }

  /// Number of tokens observed since the last Reset().
  size_t context_length() const { return observed_; }

  /// Makes the current state immutable and shareable: all accumulated
  /// context becomes a frozen base that any number of Fork() sessions
  /// (and threads) may read concurrently. Idempotent. Reset()
  /// un-freezes into an empty model.
  void Freeze();

  bool frozen() const { return frozen_; }

  /// A new mutable decode session layered copy-on-write over this
  /// model's frozen state: it starts with exactly this model's context
  /// and records only what it observes itself. Requires Freeze() first.
  std::unique_ptr<NGramLanguageModel> Fork() const;

  /// Estimated resident bytes (see MemoryFootprint).
  MemoryFootprint ApproxMemoryBytes() const;

  /// Adds this model's resident bytes into `tally`, counting shared
  /// frozen layers only once across all models tallied into the same
  /// MemoryTally (the PrefixCache's true-resident-bytes accounting).
  void TallyMemory(MemoryTally* tally) const;

  const NGramOptions& options() const { return options_; }

  /// Number of distinct (context, next) pairs currently counted, across
  /// all orders, in the effective (layer-merged) view. Exposed for tests
  /// and capacity diagnostics.
  size_t num_entries() const;

  /// Longest supported context order: 12 tokens of 5 bits plus the
  /// 4-bit order tag fill a 64-bit key.
  static constexpr int kMaxOrder = 12;

  /// Number of frozen base layers under this session (tests only).
  size_t num_base_layers() const { return paged_base_.size(); }

  /// One context key of the session's private overlay, as held.
  struct OverlayEntry {
    uint64_t key = 0;
    /// Counts live in a u16 slot (else in the wide overflow map).
    bool narrow = false;
    /// The key holds an overlay slot (narrow, or flagged wide); a wide
    /// entry without one was spilled on pool exhaustion.
    bool has_slot = false;
    uint32_t total = 0;
    uint32_t types = 0;
    std::vector<uint32_t> next;
  };
  /// Every overlay entry, ordered by key (tests only).
  std::vector<OverlayEntry> OverlayEntries() const;
  /// The session's overlay store (tests only).
  const PagedContextStore* overlay_store() const { return paged_local_.get(); }

 private:
  // Per-context counts: next-token counts, their total, and the number of
  // distinct next-token types (Witten–Bell's T(h)).
  struct ContextCounts {
    std::vector<uint32_t> next;
    uint32_t total = 0;
    uint32_t types = 0;
  };
  using Table = std::unordered_map<uint64_t, ContextCounts>;

  // One frozen layer: its store plus the overflow map of wide-promoted
  // and pool-spilled entries. `store` is null in an overflow-only layer
  // (the compaction fallback when overflow entries exist). An entry
  // shadows any entry with the same key in lower layers — it was copied
  // from the effective view when first touched, so it is always the
  // complete, current state of its key.
  struct PagedLayer {
    std::shared_ptr<const PagedContextStore> store;
    std::shared_ptr<const Table> overflow;
  };

  // Read view of one entry: counts live behind either a u32 array (a
  // wide overflow entry) or a u16 slot array. Equal integers cast to
  // equal doubles, so the blend below does not depend on which.
  struct CountsRef {
    bool found = false;
    const uint32_t* wide = nullptr;
    const uint16_t* narrow = nullptr;
    const std::byte* slot = nullptr;  // narrow slot base, for seeding
    uint32_t total = 0;
    uint32_t types = 0;
    double Count(size_t w) const {
      return narrow != nullptr ? static_cast<double>(narrow[w])
                               : static_cast<double>(wide[w]);
    }
  };

  // Where one context key resolved: in this session's overlay (a narrow
  // slot, or a node — an overflow entry), else an overlay miss plus the
  // frozen view (`under`, not found when no frozen layer holds the key
  // either). An overlay miss also records where the key's insert goes
  // (`hole`).
  struct Resolved {
    std::byte* slot = nullptr;
    ContextCounts* node = nullptr;
    CountsRef under;
    PagedContextStore::Hole hole;
  };

  static CountsRef WideRef(const ContextCounts& cc);
  static CountsRef NarrowRef(const std::byte* slot);
  static CountsRef View(const Resolved& r);

  // Orders with a full context in the window: 0 .. min(observed,
  // max_order).
  int ContextOrders() const;
  // Key of the order-`order` context: the last `order` tokens of the
  // window under an order tag, so keys of different orders never
  // collide.
  uint64_t ContextKey(int order) const;

  // One overlay-then-frozen lookup of `key`, whose index hash is `hash`.
  // The overlay belongs to this mutable session, so the handles it
  // returns are writable.
  Resolved Resolve(uint64_t key, uint64_t hash) const;
  // Resolves every context order into `resolved[0 .. ContextOrders()]`,
  // each order's index cells prefetched before any is probed.
  void ResolveAll(Resolved* resolved) const;
  // The interpolated distribution over the resolved orders.
  void Blend(const Resolved* resolved, std::vector<double>* out) const;
  // Topmost frozen-layer entry for a key (not found: none).
  CountsRef LookupFrozenPaged(uint64_t key, uint64_t hash) const;
  // Counts `id` after the context `key`, which resolved to `r`;
  // an overlay miss is copied from `r.under` first.
  void BumpPaged(uint64_t key, const Resolved& r, token::TokenId id);
  // Seeds the first-touch overlay entry of `key` from `under`, the
  // frozen view, into `claimed`, the slot the overlay store gave the key
  // (null: the pool refused one). Returns the overflow entry holding the
  // counts (a wide frozen entry, its slot flagged; or a spill), or null
  // when they live in `claimed`.
  ContextCounts* SeedOverlay(uint64_t key, const CountsRef& under,
                             std::byte* claimed);
  // Counts token `w` in the narrow slot `p` of `key`. At u16 saturation
  // the entry is promoted to a wide overflow entry instead, counted
  // there and returned; null otherwise.
  ContextCounts* BumpNarrow(uint64_t key, std::byte* p, size_t w);
  void BumpWide(ContextCounts* cc, size_t w) const;
  // Shifts `id` into the window as the newest observed token.
  void Advance(token::TokenId id);
  // The ObserveAll bulk build (see file comment).
  void IngestPaged(std::span<const token::TokenId> ids);
  // Most context keys `num_tokens` more observed tokens can add.
  size_t MaxNewKeys(size_t num_tokens) const;

  size_t SlotBytes() const;
  void CompactPagedBase();
  // Malloc-model bytes of an overflow map (paged_store.h).
  static size_t OverflowBytes(const Table& table);

  size_t vocab_size_;
  NGramOptions options_;
  std::shared_ptr<BlockPool> pool_;
  size_t observed_ = 0;
  // The most recent max_order tokens, 5 bits each, newest lowest.
  uint64_t window_ = 0;
  // Frozen base layers, bottom to top; shared read-only with every fork.
  std::vector<PagedLayer> paged_base_;
  // This session's private overlay: its store and overflow map.
  std::unique_ptr<PagedContextStore> paged_local_;
  Table overflow_local_;
  bool frozen_ = false;
  // Where each order's key resolved: recorded by NextDistribution for
  // the Observe that directly follows (which otherwise resolves into it
  // itself). Written only by mutable sessions (frozen models are read
  // by many threads at once); every mutating call clears the record.
  mutable std::array<Resolved, kMaxOrder + 1> probes_;
  mutable bool probes_valid_ = false;
};

// An alias only because perfbench/probes.cc spells this name.
using LanguageModel = NGramLanguageModel;

}  // namespace lm
}  // namespace multicast

#endif  // MULTICAST_LM_NGRAM_MODEL_H_
