#include "lm/ngram_model.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "lm/paged_store.h"
#include "reference_models.h"
#include "util/random.h"

namespace multicast {
namespace lm {
namespace {

std::vector<token::TokenId> Repeat(const std::vector<token::TokenId>& motif,
                                   int times) {
  std::vector<token::TokenId> out;
  for (int i = 0; i < times; ++i) {
    out.insert(out.end(), motif.begin(), motif.end());
  }
  return out;
}

TEST(NGramModelTest, FreshModelIsUniform) {
  NGramLanguageModel model(4, NGramOptions{});
  std::vector<double> p = model.NextDistribution();
  ASSERT_EQ(p.size(), 4u);
  for (double v : p) EXPECT_NEAR(v, 0.25, 1e-9);
}

TEST(NGramModelTest, DistributionSumsToOne) {
  NGramLanguageModel model(11, NGramOptions{});
  model.ObserveAll(Repeat({0, 1, 2, 3, 10}, 20));
  std::vector<double> p = model.NextDistribution();
  double sum = 0.0;
  for (double v : p) sum += v;
  EXPECT_NEAR(sum, 1.0, 1e-12);
}

TEST(NGramModelTest, AllProbabilitiesStrictlyPositive) {
  // Witten–Bell + uniform floor must never zero a token out, or the
  // constrained sampler could face an empty support.
  NGramOptions opts;
  opts.uniform_mix = 1e-4;
  NGramLanguageModel model(11, opts);
  model.ObserveAll(Repeat({5, 5, 5, 5}, 50));
  std::vector<double> p = model.NextDistribution();
  for (double v : p) EXPECT_GT(v, 0.0);
}

TEST(NGramModelTest, LearnsDeterministicCycle) {
  // After seeing "0 1 2 0 1 2 ..." many times, the model should assign
  // high probability to the cycle's continuation.
  NGramLanguageModel model(4, NGramOptions{});
  model.ObserveAll(Repeat({0, 1, 2}, 30));
  // Context ends ...0 1 2; next should be 0.
  std::vector<double> p = model.NextDistribution();
  EXPECT_GT(p[0], 0.8);
  model.Observe(0);
  p = model.NextDistribution();
  EXPECT_GT(p[1], 0.8);
}

TEST(NGramModelTest, LongerContextDisambiguates) {
  // Motif: 0 1 9 / 2 1 7 — after "1", the next depends on the token two
  // back, which only an order >= 2 model can capture.
  std::vector<token::TokenId> motif = {0, 1, 9, 2, 1, 7};
  NGramOptions deep;
  deep.max_order = 4;
  NGramLanguageModel model(10, deep);
  model.ObserveAll(Repeat(motif, 30));
  // Advance into the cycle so the context ends "... 9 2 1".
  model.ObserveAll(std::vector<token::TokenId>{0, 1, 9, 2, 1});
  // Context ends ...2 1 -> expect 7.
  std::vector<double> p = model.NextDistribution();
  EXPECT_GT(p[7], 0.7);
  EXPECT_LT(p[9], 0.3);
}

TEST(NGramModelTest, OrderOneCannotDisambiguate) {
  std::vector<token::TokenId> motif = {0, 1, 9, 2, 1, 7};
  NGramOptions shallow;
  shallow.max_order = 1;
  NGramLanguageModel model(10, shallow);
  model.ObserveAll(Repeat(motif, 30));
  model.ObserveAll(std::vector<token::TokenId>{0, 1, 9, 2, 1});
  std::vector<double> p = model.NextDistribution();
  // After "1" an order-1 model sees 9 and 7 equally often.
  EXPECT_NEAR(p[7], p[9], 0.05);
}

TEST(NGramModelTest, ResetClearsEverything) {
  NGramLanguageModel model(4, NGramOptions{});
  model.ObserveAll(Repeat({0, 1}, 20));
  model.Reset();
  EXPECT_EQ(model.context_length(), 0u);
  std::vector<double> p = model.NextDistribution();
  for (double v : p) EXPECT_NEAR(v, 0.25, 1e-9);
}

TEST(NGramModelTest, ContextLengthCounts) {
  NGramLanguageModel model(4, NGramOptions{});
  model.ObserveAll(std::vector<token::TokenId>{0, 1, 2});
  EXPECT_EQ(model.context_length(), 3u);
}

TEST(NGramModelTest, NumEntriesGrowsWithNovelty) {
  NGramLanguageModel repeat_model(8, NGramOptions{});
  repeat_model.ObserveAll(Repeat({0, 1}, 40));
  NGramLanguageModel varied_model(8, NGramOptions{});
  std::vector<token::TokenId> varied;
  for (int i = 0; i < 80; ++i) {
    varied.push_back(static_cast<token::TokenId>((i * 5 + i / 7) % 8));
  }
  varied_model.ObserveAll(varied);
  EXPECT_GT(varied_model.num_entries(), repeat_model.num_entries());
}

TEST(NGramModelTest, BackoffBoostFlattens) {
  auto peak_prob = [](double boost) {
    NGramOptions opts;
    opts.backoff_boost = boost;
    NGramLanguageModel model(10, opts);
    model.ObserveAll(Repeat({3, 4, 5}, 30));
    return model.NextDistribution()[3];  // continuation of the cycle
  };
  EXPECT_GT(peak_prob(0.0), peak_prob(5.0));
}

TEST(NGramModelTest, UniformMixRaisesFloor) {
  auto min_prob = [](double mix) {
    NGramOptions opts;
    opts.uniform_mix = mix;
    NGramLanguageModel model(10, opts);
    model.ObserveAll(Repeat({3, 4, 5}, 50));
    std::vector<double> p = model.NextDistribution();
    double lo = 1.0;
    for (double v : p) lo = std::min(lo, v);
    return lo;
  };
  EXPECT_GT(min_prob(0.05), min_prob(0.0));
  EXPECT_GE(min_prob(0.05), 0.05 / 10 * 0.9);
}

TEST(NGramModelTest, UnseenContextFallsBackGracefully) {
  NGramLanguageModel model(10, NGramOptions{});
  model.ObserveAll(Repeat({1, 2, 3}, 20));
  // Feed a context never seen: falls back toward unigram stats, which
  // favor the motif tokens over never-seen tokens.
  model.Observe(9);
  model.Observe(8);
  std::vector<double> p = model.NextDistribution();
  double motif_mass = p[1] + p[2] + p[3];
  double unseen_mass = p[0] + p[4] + p[5] + p[6] + p[7];
  EXPECT_GT(motif_mass, unseen_mass);
}

TEST(NGramModelTest, MaxOrderTwelveSupported) {
  NGramOptions opts;
  opts.max_order = 12;
  NGramLanguageModel model(31, opts);
  model.ObserveAll(Repeat({0, 30, 15, 7, 22, 1, 9, 28, 4, 11, 19, 3}, 10));
  std::vector<double> p = model.NextDistribution();
  EXPECT_GT(p[0], 0.5);  // period-12 cycle continuation
}

TEST(NGramModelTest, MaxBaseLayersCompactsLongForkChains) {
  // Fork chains deeper than max_base_layers compact into one layer;
  // the option is storage-only, so output never changes with it.
  NGramOptions tight;
  tight.max_base_layers = 1;
  NGramOptions loose;
  loose.max_base_layers = 8;
  auto tight_model = std::make_unique<NGramLanguageModel>(6, tight);
  auto loose_model = std::make_unique<NGramLanguageModel>(6, loose);
  for (int round = 0; round < 5; ++round) {
    auto chunk = Repeat({0, 1, 2, 3, 4, 5}, 4 + round);
    tight_model->ObserveAll(chunk);
    loose_model->ObserveAll(chunk);
    tight_model->Freeze();
    loose_model->Freeze();
    tight_model = tight_model->Fork();
    loose_model = loose_model->Fork();
  }
  EXPECT_LE(tight_model->num_base_layers(), 1u);
  EXPECT_EQ(loose_model->num_base_layers(), 5u);
  EXPECT_EQ(tight_model->num_entries(), loose_model->num_entries());
  std::vector<double> pt = tight_model->NextDistribution();
  std::vector<double> pl = loose_model->NextDistribution();
  ASSERT_EQ(pt.size(), pl.size());
  for (size_t i = 0; i < pt.size(); ++i) EXPECT_EQ(pt[i], pl[i]);
}

// ---------------------------------------------------------------------------
// Differential test of the decode step against the map reference
// (reference_models.h).

struct DecodeStepCase {
  std::string name;
  size_t vocab = 11;
  NGramOptions options;
  size_t block_span = 16;
  size_t max_blocks = 0;  // paged pool cap; 0 = unbounded
  size_t steps = 1500;
  // Probability that a token is 0 (the rest uniform): near 1, one
  // context's count outgrows u16 and promotes to a wide entry.
  double zero_bias = 0.0;
  // Tokens follow a 13-token motif [lead, 1, ..., 11, tail(lead)] with
  // lead in {0, 30} (10% noise): the order-12 context of the tail
  // differs from its twin only in the oldest token, the window's top
  // five bits.
  bool motif = false;
  // Probabilities of the structural steps (the rest decode or observe).
  double fork_rate = 0.03;
  double reset_rate = 0.002;
  // ReserveDecode hint given to every session as it opens (first model,
  // each fork, each reset); 0 = none. Sessions run on for a random
  // number of steps, so a hint may be far below or above their need.
  size_t reserve_tokens = 0;
};

void PrintTo(const DecodeStepCase& c, std::ostream* os) { *os << c.name; }

class DecodeStepTest : public testing::TestWithParam<DecodeStepCase> {};

void ExpectMatchesReference(const NGramLanguageModel& model,
                            const ReferenceNGram& reference, size_t step) {
  const std::vector<double> got = model.NextDistribution();
  const std::vector<double> want = reference.NextDistribution();
  ASSERT_EQ(got.size(), want.size());
  for (size_t w = 0; w < got.size(); ++w) {
    ASSERT_EQ(got[w], want[w]) << "step " << step << ", token " << w;
  }
}

// Seeded random walk over the model's calls, on a model with no pool of its own
// (a private unbounded one) and on one drawing from the case's pool (its span
// and cap): each step is a decode step (NextDistribution, whose result is
// checked, then Observe), a run of 1-3 bare Observes with no read between them,
// Freeze + Fork (the frozen parent kept alive and checked) or Reset, each of
// the last two followed directly by a bare run. After every step each model's
// distribution and num_entries() must equal the reference's exactly. The check
// itself leaves a probe record, which the next step's first Observe consumes;
// bare runs' later Observes and every Observe right after a fork or a reset
// must probe afresh.
TEST_P(DecodeStepTest, MatchesMapReferenceUnderRandomCalls) {
  const DecodeStepCase& c = GetParam();
  for (bool own_pool : {false, true}) {
    SCOPED_TRACE(own_pool ? "caller's pool" : "private pool");
    std::shared_ptr<BlockPool> pool;
    if (own_pool) {
      PagedMemoryOptions popts;
      popts.block_span = c.block_span;
      popts.max_blocks = c.max_blocks;
      pool = std::make_shared<BlockPool>(popts);
    }
    auto model = std::make_unique<NGramLanguageModel>(c.vocab, c.options, pool);
    auto open_session = [&] {
      if (c.reserve_tokens > 0) model->ReserveDecode(c.reserve_tokens);
    };
    open_session();
    ReferenceNGram reference(c.vocab, c.options);
    std::vector<std::unique_ptr<NGramLanguageModel>> frozen;  // kept alive
    Rng rng(1234 + c.vocab);
    token::TokenId lead = 0;
    size_t motif_at = 0;
    auto next_token = [&]() -> token::TokenId {
      if (c.motif) {
        const size_t at = motif_at++ % 13;
        if (at == 0) lead = rng.NextBounded(2) == 0 ? 0 : 30;
        if (rng.NextDouble() >= 0.1) {
          if (at == 0) return lead;
          if (at == 12) return lead == 0 ? 5 : 25;
          return static_cast<token::TokenId>(at);
        }
      }
      if (c.zero_bias > 0.0 && rng.NextDouble() < c.zero_bias) return 0;
      return static_cast<token::TokenId>(
          rng.NextBounded(static_cast<uint32_t>(c.vocab)));
    };
    auto observe_run = [&] {
      const size_t run = 1 + rng.NextBounded(3);
      for (size_t i = 0; i < run; ++i) {
        const token::TokenId id = next_token();
        model->Observe(id);
        reference.Observe(id);
      }
    };
    size_t forks = 0;
    for (size_t step = 0; step < c.steps; ++step) {
      const double u = rng.NextDouble();
      if (u < c.reset_rate) {
        model->Reset();
        reference.Reset();
        frozen.clear();
        open_session();
        observe_run();
      } else if (u < c.reset_rate + c.fork_rate) {
        model->Freeze();
        std::unique_ptr<NGramLanguageModel> fork = model->Fork();
        ExpectMatchesReference(*model, reference, step);  // frozen read
        frozen.push_back(std::move(model));
        if (frozen.size() > 3) frozen.erase(frozen.begin());
        model = std::move(fork);
        open_session();
        observe_run();
        ++forks;
      } else if (u < 0.6) {
        ExpectMatchesReference(*model, reference, step);
        const token::TokenId id = next_token();
        model->Observe(id);
        reference.Observe(id);
      } else {
        observe_run();
      }
      ExpectMatchesReference(*model, reference, step);
      ASSERT_EQ(model->num_entries(), reference.num_entries())
          << "step " << step;
      if (HasFatalFailure()) return;
    }
    EXPECT_GT(forks, 0u);
    if (c.zero_bias > 0.0) {
      EXPECT_GT(reference.max_count(), 0xffffu);  // u16 promotion happened
    }
    if (own_pool && c.max_blocks > 0) {
      EXPECT_GT(pool->stats().exhaustion_events, 0u);
    }
    if (c.fork_rate > 0.1) {
      EXPECT_LE(model->num_base_layers(), c.options.max_base_layers);
    }
  }
}

std::vector<DecodeStepCase> DecodeStepCases() {
  std::vector<DecodeStepCase> cases;
  DecodeStepCase base;
  base.name = "Default";
  cases.push_back(base);

  DecodeStepCase wide = base;
  wide.name = "U16Saturation";
  wide.vocab = 3;
  wide.options.max_order = 2;
  wide.steps = 70000;
  wide.zero_bias = 0.995;
  wide.fork_rate = 0.0005;
  wide.reset_rate = 0.0;
  cases.push_back(wide);

  DecodeStepCase capped = base;
  capped.name = "CappedPoolSpills";
  capped.block_span = 4;
  capped.max_blocks = 6;
  cases.push_back(capped);

  DecodeStepCase compact = base;
  compact.name = "CompactionPastMaxBaseLayers";
  compact.options.max_base_layers = 2;
  compact.steps = 600;
  compact.fork_rate = 0.15;
  compact.reset_rate = 0.0;
  cases.push_back(compact);

  DecodeStepCase wide_window = base;
  wide_window.name = "Order12Vocab31";
  wide_window.vocab = 31;
  wide_window.options.max_order = 12;
  wide_window.motif = true;
  cases.push_back(wide_window);

  // Index grows between NextDistribution and the Observe that inserts
  // through the holes it recorded.
  DecodeStepCase hint_low = base;
  hint_low.name = "HintBelowNeed";
  hint_low.reserve_tokens = 1;
  cases.push_back(hint_low);

  DecodeStepCase hint_high = base;
  hint_high.name = "HintAboveNeed";
  hint_high.reserve_tokens = 4096;
  cases.push_back(hint_high);

  DecodeStepCase capped_hint = capped;
  capped_hint.name = "CappedPoolSpillsWithHint";
  capped_hint.reserve_tokens = 64;
  cases.push_back(capped_hint);
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    Seeded, DecodeStepTest, testing::ValuesIn(DecodeStepCases()),
    [](const testing::TestParamInfo<DecodeStepCase>& info) {
      return info.param.name;
    });

// A frozen model is shared by every fork and read from many threads at
// once, so its NextDistribution must not write the probe record. Four
// threads read one frozen model while two of its forks decode on other
// threads; every read must see the frozen distribution, and each fork
// must decode exactly as it does alone.
TEST(NGramConcurrencyTest, FrozenModelReadsWhileForksDecode) {
  for (bool own_pool : {false, true}) {
    SCOPED_TRACE(own_pool ? "caller's pool" : "private pool");
    std::shared_ptr<BlockPool> pool;
    if (own_pool) {
      PagedMemoryOptions popts;
      pool = std::make_shared<BlockPool>(popts);
    }
    NGramLanguageModel base(11, NGramOptions{}, pool);
    Rng rng(77);
    for (int i = 0; i < 2000; ++i) {
      base.Observe(static_cast<token::TokenId>(rng.NextBounded(11)));
    }
    base.Freeze();
    const std::vector<double> expected = base.NextDistribution();

    // One fork's decode: NextDistribution then Observe of its argmax,
    // folded into a checksum of every distribution it saw.
    auto decode = [&base](int steps) {
      std::unique_ptr<NGramLanguageModel> fork = base.Fork();
      double checksum = 0.0;
      std::vector<double> probs;
      for (int i = 0; i < steps; ++i) {
        fork->NextDistribution(&probs);
        size_t best = 0;
        for (size_t w = 0; w < probs.size(); ++w) {
          checksum += probs[w] * static_cast<double>(w + 1);
          if (probs[w] > probs[best]) best = w;
        }
        fork->Observe(static_cast<token::TokenId>((best + i) % probs.size()));
      }
      return checksum;
    };
    const double alone = decode(300);

    std::vector<int> mismatches(4, 0);
    std::vector<double> checksums(2, 0.0);
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
      threads.emplace_back([&, t] {
        std::vector<double> probs;
        for (int i = 0; i < 300; ++i) {
          base.NextDistribution(&probs);
          if (probs != expected) ++mismatches[static_cast<size_t>(t)];
        }
      });
    }
    for (int t = 0; t < 2; ++t) {
      threads.emplace_back(
          [&, t] { checksums[static_cast<size_t>(t)] = decode(300); });
    }
    for (std::thread& th : threads) th.join();
    for (int m : mismatches) EXPECT_EQ(m, 0);
    for (double sum : checksums) EXPECT_EQ(sum, alone);
  }
}

}  // namespace
}  // namespace lm
}  // namespace multicast
