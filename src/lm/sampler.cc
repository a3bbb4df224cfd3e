#include "lm/sampler.h"

#include <algorithm>
#include <cmath>

namespace multicast {
namespace lm {

namespace {

Status ValidateShapes(const std::vector<double>& probs,
                      const std::vector<bool>& allowed) {
  if (probs.empty()) return Status::InvalidArgument("empty distribution");
  if (probs.size() != allowed.size()) {
    return Status::InvalidArgument("probs and allowed mask size mismatch");
  }
  return Status::OK();
}

}  // namespace

Result<token::TokenId> SampleToken(const std::vector<double>& probs,
                                   const std::vector<bool>& allowed,
                                   const SamplerOptions& options, Rng* rng) {
  MC_RETURN_IF_ERROR(ValidateShapes(probs, allowed));
  if (options.temperature <= 1e-6) return GreedyToken(probs, allowed);

  // One weights buffer per thread, reused across tokens: decode calls
  // this once per generated token.
  thread_local std::vector<double> weights;
  weights.assign(probs.size(), 0.0);
  double inv_t = 1.0 / options.temperature;
  double max_allowed = 0.0;
  for (size_t i = 0; i < probs.size(); ++i) {
    if (allowed[i]) max_allowed = std::max(max_allowed, probs[i]);
  }
  if (max_allowed <= 0.0) {
    return Status::FailedPrecondition(
        "no allowed token has positive probability");
  }
  for (size_t i = 0; i < probs.size(); ++i) {
    if (!allowed[i] || probs[i] <= 0.0) continue;
    // Normalize by the max before exponentiating to avoid underflow at
    // low temperatures.
    weights[i] = std::pow(probs[i] / max_allowed, inv_t);
    if (options.logit_bias_slope != 0.0 && probs.size() > 1) {
      weights[i] *= std::exp(options.logit_bias_slope *
                             static_cast<double>(i) /
                             static_cast<double>(probs.size() - 1));
    }
  }

  if (options.top_k > 0) {
    std::vector<size_t> order;
    for (size_t i = 0; i < weights.size(); ++i) {
      if (weights[i] > 0.0) order.push_back(i);
    }
    if (order.size() > static_cast<size_t>(options.top_k)) {
      std::nth_element(order.begin(),
                       order.begin() + options.top_k - 1, order.end(),
                       [&](size_t a, size_t b) {
                         return weights[a] > weights[b];
                       });
      for (size_t j = static_cast<size_t>(options.top_k); j < order.size();
           ++j) {
        weights[order[j]] = 0.0;
      }
    }
  }

  if (options.top_p > 0.0 && options.top_p < 1.0) {
    // Sort candidate indices by weight, keep the smallest prefix whose
    // mass reaches top_p of the total, zero the rest.
    std::vector<size_t> order;
    double total = 0.0;
    for (size_t i = 0; i < weights.size(); ++i) {
      if (weights[i] > 0.0) {
        order.push_back(i);
        total += weights[i];
      }
    }
    std::sort(order.begin(), order.end(),
              [&](size_t a, size_t b) { return weights[a] > weights[b]; });
    double acc = 0.0;
    size_t kept = 0;
    for (; kept < order.size(); ++kept) {
      acc += weights[order[kept]];
      if (acc >= options.top_p * total) {
        ++kept;
        break;
      }
    }
    for (size_t j = kept; j < order.size(); ++j) {
      weights[order[j]] = 0.0;
    }
  }

  return static_cast<token::TokenId>(rng->SampleDiscrete(weights));
}

Result<token::TokenId> GreedyToken(const std::vector<double>& probs,
                                   const std::vector<bool>& allowed) {
  MC_RETURN_IF_ERROR(ValidateShapes(probs, allowed));
  int best = -1;
  double best_p = -1.0;
  for (size_t i = 0; i < probs.size(); ++i) {
    if (allowed[i] && probs[i] > best_p) {
      best = static_cast<int>(i);
      best_p = probs[i];
    }
  }
  if (best < 0 || best_p <= 0.0) {
    return Status::FailedPrecondition(
        "no allowed token has positive probability");
  }
  return static_cast<token::TokenId>(best);
}

token::TokenId ForcedToken(const std::vector<bool>& allowed) {
  token::TokenId forced = kNotForced;
  for (size_t i = 0; i < allowed.size(); ++i) {
    if (!allowed[i]) continue;
    if (forced != kNotForced) return kNotForced;
    forced = static_cast<token::TokenId>(i);
  }
  return forced;
}

Result<token::TokenId> SampleNextToken(const NGramLanguageModel& model,
                                       const std::vector<bool>& allowed,
                                       token::TokenId forced,
                                       const SamplerOptions& options,
                                       Rng* rng, std::vector<double>* probs) {
  if (forced != kNotForced) {
    // SampleToken's draw over weights with one nonzero entry: a single
    // NextDouble that always lands on it. (Its greedy test, negated.)
    if (!(options.temperature <= 1e-6)) rng->NextDouble();
    return forced;
  }
  model.NextDistribution(probs);
  return SampleToken(*probs, allowed, options, rng);
}

}  // namespace lm
}  // namespace multicast
