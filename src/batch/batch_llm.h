// Backend-stack leaf that decodes through a shared BatchScheduler.
//
// A drop-in replacement for lm::SimulatedLlm at the bottom of the
// per-draw backend stack: the lane is opened (prompt validated, grammar
// cycle hoisted, PrefixCache fork or fresh replay, the forecast's draw
// trie attached) by lm::OpenDecodeLane, as the sequential decoder opens
// it — but instead of calling the lane's Next in a loop itself,
// Complete() submits the lane to the scheduler and blocks in Await(),
// where it cooperatively drives the shared batch. Draws that callers on
// other threads submit meanwhile (other in-flight requests sharing the
// scheduler) decode together with it, one token per session per step.
// A draw whose prefix an earlier draw of its forecast published walks
// the trie inside the scheduler's step exactly as it would inside
// SimulatedLlm (lm::DrawTrie, DESIGN.md §5m).
//
// Transparency contract: name, error strings, token ledger and reported
// latency (0 — the latency model lives in the decorators above) are
// identical to SimulatedLlm, and each job's token sequence depends only
// on its own session/RNG/grammar, so swapping this leaf in changes no
// observable output at any batch size.

#ifndef MULTICAST_BATCH_BATCH_LLM_H_
#define MULTICAST_BATCH_BATCH_LLM_H_

#include <memory>
#include <string>
#include <vector>

#include "batch/batch_scheduler.h"
#include "lm/backend.h"
#include "lm/generator.h"
#include "lm/prefix_cache.h"
#include "lm/profiles.h"
#include "util/random.h"
#include "util/status.h"

namespace multicast {
namespace batch {

class BatchLlm final : public lm::LlmBackend {
 public:
  /// `scheduler` must not be null; `prefix_cache` may be (every call
  /// then replays its prompt into a fresh session). Both are shared —
  /// any number of BatchLlm instances and threads may use them.
  /// `draws` (may be null) is this back-end's Log of the DrawTrie its
  /// calls share, as for SimulatedLlm; it must outlive the back-end.
  BatchLlm(const lm::ModelProfile& profile, size_t vocab_size,
           std::shared_ptr<BatchScheduler> scheduler,
           std::shared_ptr<lm::PrefixCache> prefix_cache = nullptr,
           lm::DrawTrie::Log* draws = nullptr);

  /// The profile name, exactly as SimulatedLlm reports it: the batch
  /// path is an execution strategy, not a different backend.
  std::string name() const override { return profile_.name; }
  size_t vocab_size() const override { return vocab_size_; }

  using lm::LlmBackend::Complete;

  Result<lm::GenerationResult> Complete(
      const std::vector<token::TokenId>& prompt, size_t num_tokens,
      const lm::GrammarMask& mask, Rng* rng,
      const lm::CallOptions& call) override;

 private:
  lm::ModelProfile profile_;
  size_t vocab_size_;
  std::shared_ptr<BatchScheduler> scheduler_;
  std::shared_ptr<lm::PrefixCache> cache_;
  lm::DrawTrie::Log* draws_ = nullptr;
  uint64_t fingerprint_ = 0;
};

}  // namespace batch
}  // namespace multicast

#endif  // MULTICAST_BATCH_BATCH_LLM_H_
