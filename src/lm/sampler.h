// Constrained temperature sampling over a token distribution.

#ifndef MULTICAST_LM_SAMPLER_H_
#define MULTICAST_LM_SAMPLER_H_

#include <vector>

#include "lm/ngram_model.h"
#include "token/vocabulary.h"
#include "util/random.h"
#include "util/status.h"

namespace multicast {
namespace lm {

struct SamplerOptions {
  /// Softmax temperature applied in probability space
  /// (p_i^(1/T) renormalized). 1 = sample from the model; ->0 = greedy.
  double temperature = 0.9;
  /// Keep only the `top_k` most probable allowed tokens (0 = disabled).
  int top_k = 0;
  /// Nucleus sampling: keep the smallest set of tokens whose cumulative
  /// (temperature-annealed) weight reaches `top_p` (0 or >= 1 disables).
  /// LLMTime decodes with nucleus sampling; applied after top_k.
  double top_p = 0.0;
  /// Miscalibration: multiplies token i's weight by
  /// exp(slope * i / (V - 1)). Positive values systematically skew
  /// decoding toward high-id tokens (larger digits). Models a decoder
  /// whose numeric outputs are consistently shifted — the failure mode
  /// the paper observed in the weaker Phi-2 back-end (Fig. 2b) — which,
  /// unlike sampling noise, the median aggregation cannot remove.
  double logit_bias_slope = 0.0;
};

/// Samples a token id from `probs` restricted to `allowed` (LLMTime's
/// "[0-9,]" output constraint generalized to a position grammar).
/// Errors when no allowed token has positive probability.
Result<token::TokenId> SampleToken(const std::vector<double>& probs,
                                   const std::vector<bool>& allowed,
                                   const SamplerOptions& options, Rng* rng);

/// Deterministic argmax over the allowed set (used by tests and by
/// temperature 0).
Result<token::TokenId> GreedyToken(const std::vector<double>& probs,
                                   const std::vector<bool>& allowed);

/// Marks a grammar position that admits more than one token.
inline constexpr token::TokenId kNotForced = -1;

/// The one token `allowed` admits, or kNotForced when it admits none or
/// several.
token::TokenId ForcedToken(const std::vector<bool>& allowed);

/// One step of a plain constrained decode loop: SampleToken over
/// `model`'s NextDistribution (written into `*probs`, a buffer the loop
/// reuses) restricted to `allowed`. The caller observes the result.
///
/// At a grammar-forced position — `forced`, which must equal
/// ForcedToken(allowed), is not kNotForced — the model is not consulted
/// and the result is `forced`. `rng` then advances exactly as
/// SampleToken would over any strictly positive distribution (and every
/// backend's distribution is strictly positive): one NextDouble above
/// temperature 1e-6, none when greedy. So the token, and every later
/// draw, are those of the unskipped loop.
Result<token::TokenId> SampleNextToken(const NGramLanguageModel& model,
                                       const std::vector<bool>& allowed,
                                       token::TokenId forced,
                                       const SamplerOptions& options,
                                       Rng* rng, std::vector<double>* probs);

}  // namespace lm
}  // namespace multicast

#endif  // MULTICAST_LM_SAMPLER_H_
