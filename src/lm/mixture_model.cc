#include "lm/mixture_model.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <unordered_set>
#include <utility>

#include "util/status.h"

namespace multicast {
namespace lm {

namespace {
constexpr int kBitsPerToken = 5;
constexpr int kMaxSupportedDepth = 12;

// Slot layout: [f64 log_self_odds][u32 total][u16 flags]
// [u16 counts[vocab]]. The store 8-aligns every slot, so the leading
// double is aligned; scalars go through memcpy, the count array's
// offset (14) is even so the u16 cast is aligned.
constexpr size_t kLsoOffset = 0;
constexpr size_t kTotalOffset = 8;
constexpr size_t kFlagsOffset = 12;
constexpr size_t kCountsOffset = 14;
constexpr uint16_t kWideFlag = 1;  // node lives in the overflow map

double LoadF64(const std::byte* p, size_t off) {
  double v;
  std::memcpy(&v, p + off, sizeof(v));
  return v;
}
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
void StoreF64(std::byte* p, size_t off, double v) {
  std::memcpy(p + off, &v, sizeof(v));
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

MixtureLanguageModel::MixtureLanguageModel(size_t vocab_size,
                                           const MixtureOptions& options,
                                           std::shared_ptr<BlockPool> pool)
    : vocab_size_(vocab_size), options_(options), pool_(std::move(pool)) {
  MC_CHECK(vocab_size_ >= 2 && vocab_size_ <= 31);
  MC_CHECK(options_.max_depth >= 1 &&
           options_.max_depth <= kMaxSupportedDepth);
  MC_CHECK(options_.kt_alpha > 0.0);
  MC_CHECK(options_.prior_self_weight > 0.0 &&
           options_.prior_self_weight < 1.0);
  MC_CHECK(options_.uniform_mix >= 0.0 && options_.uniform_mix < 1.0);
  MC_CHECK(options_.max_base_layers >= 1);
  if (pool_ == nullptr) {
    pool_ = std::make_shared<BlockPool>(PagedMemoryOptions{});
  }
  paged_local_ = std::make_unique<PagedContextStore>(pool_, SlotBytes());
  depth_log_odds_.assign(static_cast<size_t>(options_.max_depth) + 1, 0.0);
}

MixtureLanguageModel::~MixtureLanguageModel() {
  // See ngram_model.cc: mutable at death == a decode session.
  if (!frozen_) {
    MemoryFootprint fp = ApproxMemoryBytes();
    size_t spilled = 0;
    for (const auto& [key, node] : overflow_local_) {
      (void)node;
      if (paged_local_->Find(key) == nullptr) ++spilled;
    }
    pool_->NoteSessionEnd(fp.overlay_bytes, fp.base_bytes,
                          paged_local_->size() + spilled);
  }
}

size_t MixtureLanguageModel::SlotBytes() const {
  return kCountsOffset + sizeof(uint16_t) * vocab_size_;
}

void MixtureLanguageModel::Reset() {
  observed_ = 0;
  recent_.clear();
  paged_base_.clear();
  paged_local_ = std::make_unique<PagedContextStore>(pool_, SlotBytes());
  overflow_local_.clear();
  depth_log_odds_.assign(static_cast<size_t>(options_.max_depth) + 1, 0.0);
  frozen_ = false;
}

uint64_t MixtureLanguageModel::PackContext(int depth) const {
  uint64_t key = static_cast<uint64_t>(depth) + 1;
  size_t start = recent_.size() - static_cast<size_t>(depth);
  for (size_t i = start; i < recent_.size(); ++i) {
    key = (key << kBitsPerToken) |
          static_cast<uint64_t>(recent_[i] & 0x1f);
  }
  return key;
}

double MixtureLanguageModel::KtProbRef(const NodeRef& node,
                                       size_t symbol) const {
  double num = node.Count(symbol) + options_.kt_alpha;
  double den = static_cast<double>(node.total) +
               options_.kt_alpha * static_cast<double>(vocab_size_);
  return num / den;
}

MixtureLanguageModel::NodeRef MixtureLanguageModel::LookupFrozenPaged(
    uint64_t key) const {
  NodeRef ref;
  auto from_wide = [&](const Node& node) {
    ref.found = true;
    ref.wide = node.counts.empty() ? nullptr : node.counts.data();
    ref.total = node.total;
    ref.log_self_odds = node.log_self_odds;
  };
  for (auto it = paged_base_.rbegin(); it != paged_base_.rend(); ++it) {
    if (it->store != nullptr) {
      if (const std::byte* p = it->store->Find(key)) {
        if (LoadU16(p, kFlagsOffset) & kWideFlag) {
          auto found = it->overflow->find(key);
          MC_CHECK(found != it->overflow->end());
          from_wide(found->second);
        } else {
          ref.found = true;
          ref.narrow = NarrowCounts(p);
          ref.slot = p;
          ref.total = LoadU32(p, kTotalOffset);
          ref.log_self_odds = LoadF64(p, kLsoOffset);
        }
        return ref;
      }
    }
    if (!it->overflow->empty()) {
      auto found = it->overflow->find(key);
      if (found != it->overflow->end()) {
        from_wide(found->second);
        return ref;
      }
    }
  }
  return ref;
}

MixtureLanguageModel::NodeRef MixtureLanguageModel::LookupNodePaged(
    uint64_t key) const {
  NodeRef ref;
  if (const std::byte* p = paged_local_->Find(key)) {
    if (LoadU16(p, kFlagsOffset) & kWideFlag) {
      auto found = overflow_local_.find(key);
      MC_CHECK(found != overflow_local_.end());
      const Node& node = found->second;
      ref.found = true;
      ref.wide = node.counts.empty() ? nullptr : node.counts.data();
      ref.total = node.total;
      ref.log_self_odds = node.log_self_odds;
    } else {
      ref.found = true;
      ref.narrow = NarrowCounts(p);
      ref.slot = p;
      ref.total = LoadU32(p, kTotalOffset);
      ref.log_self_odds = LoadF64(p, kLsoOffset);
    }
    return ref;
  }
  if (!overflow_local_.empty()) {
    auto found = overflow_local_.find(key);
    if (found != overflow_local_.end()) {
      const Node& node = found->second;
      ref.found = true;
      ref.wide = node.counts.empty() ? nullptr : node.counts.data();
      ref.total = node.total;
      ref.log_self_odds = node.log_self_odds;
      return ref;
    }
  }
  return LookupFrozenPaged(key);
}

void MixtureLanguageModel::UpdateNodePaged(uint64_t key, size_t symbol,
                                           double llr,
                                           double prior_log_odds) {
  // The phase-2 update, applied to a wide overflow node.
  auto bump_wide = [&](Node& node) {
    if (node.counts.empty()) node.counts.assign(vocab_size_, 0);
    node.log_self_odds =
        std::clamp(node.log_self_odds + llr, -30.0, 30.0);
    ++node.counts[symbol];
    ++node.total;
  };

  std::byte* p = paged_local_->FindMutable(key);
  if (p == nullptr) {
    auto spilled = overflow_local_.find(key);
    if (spilled != overflow_local_.end()) {
      bump_wide(spilled->second);
      return;
    }
    // First touch this session: seed from the frozen view.
    NodeRef under = LookupFrozenPaged(key);
    if (under.found && under.narrow == nullptr) {
      Node& node = overflow_local_[key];
      node.counts.assign(vocab_size_, 0);
      if (under.wide != nullptr) {
        std::copy(under.wide, under.wide + vocab_size_, node.counts.begin());
      }
      node.total = under.total;
      node.log_self_odds = under.log_self_odds;
      if (std::byte* slot = paged_local_->Insert(key)) {
        StoreU16(slot, kFlagsOffset, kWideFlag);
      }
      bump_wide(node);
      return;
    }
    p = paged_local_->Insert(key);
    if (p == nullptr) {
      // Pool exhausted: spill (same integers and doubles, same output).
      Node& node = overflow_local_[key];
      node.counts.assign(vocab_size_, 0);
      if (under.found) {
        for (size_t i = 0; i < vocab_size_; ++i) node.counts[i] = under.narrow[i];
        node.total = under.total;
        node.log_self_odds = under.log_self_odds;
      } else {
        node.log_self_odds = prior_log_odds;
      }
      bump_wide(node);
      return;
    }
    if (under.found) {
      std::memcpy(p, under.slot, SlotBytes());
    } else {
      StoreF64(p, kLsoOffset, prior_log_odds);  // fresh node
    }
  } else if (LoadU16(p, kFlagsOffset) & kWideFlag) {
    auto found = overflow_local_.find(key);
    MC_CHECK(found != overflow_local_.end());
    bump_wide(found->second);
    return;
  }

  // Clamp so a long stretch of wins cannot freeze the weight forever.
  const double lso =
      std::clamp(LoadF64(p, kLsoOffset) + llr, -30.0, 30.0);
  uint16_t* counts = NarrowCounts(p);
  if (counts[symbol] == 0xffff) {
    // u16 saturation: promote the node to a wide overflow entry.
    Node& node = overflow_local_[key];
    node.counts.assign(vocab_size_, 0);
    for (size_t i = 0; i < vocab_size_; ++i) node.counts[i] = counts[i];
    node.total = LoadU32(p, kTotalOffset);
    node.log_self_odds = lso;
    StoreU16(p, kFlagsOffset, kWideFlag);
    ++node.counts[symbol];
    ++node.total;
    return;
  }
  StoreF64(p, kLsoOffset, lso);
  ++counts[symbol];
  StoreU32(p, kTotalOffset, LoadU32(p, kTotalOffset) + 1);
}

void MixtureLanguageModel::MixturePath(std::vector<double>* mix,
                                       std::vector<uint64_t>* keys) const {
  if (keys != nullptr) keys->clear();
  mix->assign(vocab_size_, 1.0 / static_cast<double>(vocab_size_));
  int max_depth = static_cast<int>(std::min<size_t>(
      recent_.size(), static_cast<size_t>(options_.max_depth)));
  for (int d = 0; d <= max_depth; ++d) {
    uint64_t key = PackContext(d);
    if (keys != nullptr) keys->push_back(key);
    NodeRef node = LookupNodePaged(key);
    if (!node.found) continue;  // unseen context: defer to shallower
    double odds = std::exp(std::clamp(
        node.log_self_odds + depth_log_odds_[static_cast<size_t>(d)],
        -30.0, 30.0));
    double w = odds / (1.0 + odds);
    for (size_t s = 0; s < vocab_size_; ++s) {
      (*mix)[s] = w * KtProbRef(node, s) + (1.0 - w) * (*mix)[s];
    }
  }
}

void MixtureLanguageModel::Observe(token::TokenId id) {
  MC_CHECK(!frozen_);  // Fork() a session instead of mutating a frozen base.
  MC_CHECK(id >= 0 && static_cast<size_t>(id) < vocab_size_);
  const size_t symbol = static_cast<size_t>(id);
  int max_depth = static_cast<int>(std::min<size_t>(
      recent_.size(), static_cast<size_t>(options_.max_depth)));

  // 1. Pre-update predictive probabilities of `symbol` at every depth:
  // shallow[d] is the full mixture up to depth d, own[d] the node's KT.
  std::vector<double> mix_below(static_cast<size_t>(max_depth) + 1);
  std::vector<double> own(static_cast<size_t>(max_depth) + 1);
  std::vector<uint64_t> keys(static_cast<size_t>(max_depth) + 1);
  double running = 1.0 / static_cast<double>(vocab_size_);
  double prior_log_odds = std::log(options_.prior_self_weight /
                                   (1.0 - options_.prior_self_weight));
  for (int d = 0; d <= max_depth; ++d) {
    keys[d] = PackContext(d);
    NodeRef node = LookupNodePaged(keys[d]);
    mix_below[d] = running;  // mixture of depths < d at `symbol`
    if (node.found) {
      own[d] = KtProbRef(node, symbol);
      double odds = std::exp(std::clamp(
          node.log_self_odds + depth_log_odds_[static_cast<size_t>(d)],
          -30.0, 30.0));
      double w = odds / (1.0 + odds);
      running = w * own[d] + (1.0 - w) * running;
    } else {
      // Fresh node: its KT estimator is uniform.
      own[d] = 1.0 / static_cast<double>(vocab_size_);
    }
  }

  // 2. Bayesian weight update per node (posterior odds multiply by the
  // likelihood ratio of "my estimator" vs "the shallower mixture"),
  // then count updates.
  for (int d = 0; d <= max_depth; ++d) {
    double llr = std::log(own[d]) - std::log(mix_below[d]);
    UpdateNodePaged(keys[d], symbol, llr, prior_log_odds);
    depth_log_odds_[static_cast<size_t>(d)] = std::clamp(
        depth_log_odds_[static_cast<size_t>(d)] +
            options_.depth_learning_rate * llr,
        -30.0, 30.0);
  }

  recent_.push_back(id);
  if (recent_.size() > static_cast<size_t>(options_.max_depth)) {
    recent_.pop_front();
  }
  ++observed_;
}

void MixtureLanguageModel::NextDistribution(std::vector<double>* out) const {
  MixturePath(out, nullptr);
  std::vector<double>& probs = *out;
  if (options_.uniform_mix > 0.0) {
    double u = options_.uniform_mix / static_cast<double>(vocab_size_);
    for (double& p : probs) {
      p = (1.0 - options_.uniform_mix) * p + u;
    }
  }
  double sum = 0.0;
  for (double p : probs) sum += p;
  for (double& p : probs) p /= sum;
}

std::vector<double> MixtureLanguageModel::NextDistribution() const {
  std::vector<double> probs;
  NextDistribution(&probs);
  return probs;
}

void MixtureLanguageModel::CompactPagedBase() {
  // See ngram_model.cc: block-adopting MergeCompact when no overflow
  // entries exist; overflow-only fallback layer otherwise.
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
        Node& node = (*merged_overflow)[key];
        node.counts.assign(vocab_size_, 0);
        const uint16_t* counts = NarrowCounts(p);
        for (size_t i = 0; i < vocab_size_; ++i) node.counts[i] = counts[i];
        node.total = LoadU32(p, kTotalOffset);
        node.log_self_odds = LoadF64(p, kLsoOffset);
      });
    }
    for (const auto& [key, node] : *layer.overflow) {
      (*merged_overflow)[key] = node;
    }
  }
  paged_base_.clear();
  paged_base_.push_back(PagedLayer{nullptr, std::move(merged_overflow)});
}

void MixtureLanguageModel::Freeze() {
  if (frozen_) return;
  frozen_ = true;
  if (paged_local_->size() > 0 || !overflow_local_.empty()) {
    paged_base_.push_back(PagedLayer{
        std::shared_ptr<const PagedContextStore>(std::move(paged_local_)),
        std::make_shared<const Table>(std::move(overflow_local_))});
    paged_local_ = std::make_unique<PagedContextStore>(pool_, SlotBytes());
    overflow_local_ = Table{};
  }
  if (paged_base_.size() > options_.max_base_layers) CompactPagedBase();
}

std::unique_ptr<LanguageModel> MixtureLanguageModel::Fork() const {
  MC_CHECK(frozen_);  // Freeze() before forking decode sessions.
  auto fork =
      std::make_unique<MixtureLanguageModel>(vocab_size_, options_, pool_);
  fork->observed_ = observed_;
  fork->recent_ = recent_;
  fork->paged_base_ = paged_base_;
  fork->depth_log_odds_ = depth_log_odds_;
  return fork;
}

size_t MixtureLanguageModel::num_nodes() const {
  std::unordered_set<uint64_t> effective;
  auto fold = [&](const PagedContextStore* store, const Table& overflow) {
    if (store != nullptr) {
      store->ForEach(
          [&](uint64_t key, const std::byte*) { effective.insert(key); });
    }
    for (const auto& [key, node] : overflow) {
      (void)node;
      effective.insert(key);
    }
  };
  for (const PagedLayer& layer : paged_base_) {
    fold(layer.store.get(), *layer.overflow);
  }
  fold(paged_local_.get(), overflow_local_);
  return effective.size();
}

size_t MixtureLanguageModel::OverflowBytes(const Table& table) {
  // Malloc model from paged_store.h, as in ngram_model.cc.
  size_t b = 0;
  for (const auto& [key, node] : table) {
    (void)key;
    b += ApproxMapEntryBytes(
        sizeof(void*) + sizeof(std::pair<const uint64_t, Node>),
        node.counts.empty() ? 0 : node.counts.capacity() * sizeof(uint32_t));
  }
  return b;
}

MemoryFootprint MixtureLanguageModel::ApproxMemoryBytes() const {
  MemoryFootprint fp;
  fp.overlay_bytes =
      paged_local_->MemoryBytes() + OverflowBytes(overflow_local_);
  for (const PagedLayer& layer : paged_base_) {
    if (layer.store != nullptr) fp.base_bytes += layer.store->MemoryBytes();
    fp.base_bytes += OverflowBytes(*layer.overflow);
  }
  return fp;
}

void MixtureLanguageModel::TallyMemory(MemoryTally* tally) const {
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
