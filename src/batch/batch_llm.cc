#include "batch/batch_llm.h"

#include <utility>

#include "lm/generator.h"

namespace multicast {
namespace batch {

BatchLlm::BatchLlm(const lm::ModelProfile& profile, size_t vocab_size,
                   std::shared_ptr<BatchScheduler> scheduler,
                   std::shared_ptr<lm::PrefixCache> prefix_cache,
                   lm::DrawTrie::Log* draws)
    : profile_(profile),
      vocab_size_(vocab_size),
      scheduler_(std::move(scheduler)),
      cache_(std::move(prefix_cache)),
      draws_(draws),
      fingerprint_(lm::ModelFingerprint(profile_, vocab_size_)) {
  MC_CHECK(scheduler_ != nullptr);
}

Result<lm::GenerationResult> BatchLlm::Complete(
    const std::vector<token::TokenId>& prompt, size_t num_tokens,
    const lm::GrammarMask& mask, Rng* rng, const lm::CallOptions& call) {
  MC_ASSIGN_OR_RETURN(lm::DecodeLane lane,
                      lm::OpenDecodeLane(profile_, vocab_size_, fingerprint_,
                                         cache_.get(), prompt, num_tokens,
                                         mask, draws_));
  lm::GenerationResult result;
  // Logical prompt size, cached or not — same ledger contract as
  // SimulatedLlm (see lm/generator.cc).
  result.ledger.prompt_tokens = prompt.size();
  if (num_tokens == 0) return result;

  DecodeJobSpec spec;
  spec.lane = std::move(lane);
  spec.rng = rng;
  spec.deadline_seconds = call.context.deadline.at_seconds;
  spec.clock = call.context.clock;
  spec.cancel = call.context.cancel;

  const BatchTicket ticket = scheduler_->Submit(std::move(spec));
  MC_ASSIGN_OR_RETURN(DecodeOutput out, scheduler_->Await(ticket));

  result.tokens = std::move(out.tokens);
  result.ledger.generated_tokens = result.tokens.size();
  return result;
}

}  // namespace batch
}  // namespace multicast
