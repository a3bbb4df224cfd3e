#include "lm/generator.h"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "decode_reference.h"
#include "token/codec.h"

namespace multicast {
namespace lm {
namespace {

std::vector<token::TokenId> EncodeDigits(const std::string& text) {
  return token::Encode(text, token::Vocabulary::Digits()).ValueOrDie();
}

std::string DecodeDigits(const std::vector<token::TokenId>& ids) {
  return token::Decode(ids, token::Vocabulary::Digits()).ValueOrDie();
}

TEST(GeneratorTest, ProducesRequestedTokenCount) {
  SimulatedLlm llm(ModelProfile::Llama2_7B(), 11);
  Rng rng(1);
  auto gen = llm.Complete(EncodeDigits("12,12,12,"), 9, AllowAll(11), &rng);
  ASSERT_TRUE(gen.ok());
  EXPECT_EQ(gen.value().tokens.size(), 9u);
}

TEST(GeneratorTest, LedgerCountsPromptAndGenerated) {
  SimulatedLlm llm(ModelProfile::Llama2_7B(), 11);
  Rng rng(1);
  std::string prompt = "12,34,56,";
  auto gen = llm.Complete(EncodeDigits(prompt), 6, AllowAll(11), &rng);
  ASSERT_TRUE(gen.ok());
  EXPECT_EQ(gen.value().ledger.prompt_tokens, prompt.size());
  EXPECT_EQ(gen.value().ledger.generated_tokens, 6u);
  EXPECT_EQ(gen.value().ledger.total(), prompt.size() + 6);
}

TEST(GeneratorTest, ContinuesStrongPeriodicPattern) {
  // "17,23," repeated: the pattern model should continue it near-
  // verbatim under the digit/comma grammar.
  std::string prompt;
  for (int i = 0; i < 40; ++i) prompt += "17,23,";
  SimulatedLlm llm(ModelProfile::Llama2_7B(), 11);
  GrammarMask mask = [](size_t step) {
    std::vector<bool> allowed(11, step % 3 != 2);
    allowed[10] = step % 3 == 2;  // comma every third token
    return allowed;
  };
  Rng rng(5);
  auto gen = llm.Complete(EncodeDigits(prompt), 12, mask, &rng);
  ASSERT_TRUE(gen.ok());
  EXPECT_EQ(DecodeDigits(gen.value().tokens), "17,23,17,23,");
}

TEST(GeneratorTest, GrammarMaskEnforcedEveryStep) {
  std::string prompt = "917,23,";  // noisy prompt
  SimulatedLlm llm(ModelProfile::Phi2(), 11);
  GrammarMask mask = [](size_t step) {
    std::vector<bool> allowed(11, step % 3 != 2);
    allowed[10] = step % 3 == 2;
    return allowed;
  };
  Rng rng(9);
  auto gen = llm.Complete(EncodeDigits(prompt), 30, mask, &rng);
  ASSERT_TRUE(gen.ok());
  std::string text = DecodeDigits(gen.value().tokens);
  for (size_t i = 0; i < text.size(); ++i) {
    if (i % 3 == 2) {
      EXPECT_EQ(text[i], ',') << text;
    } else {
      EXPECT_TRUE(text[i] >= '0' && text[i] <= '9') << text;
    }
  }
}

TEST(GeneratorTest, EmptyPromptRejected) {
  SimulatedLlm llm(ModelProfile::Llama2_7B(), 11);
  Rng rng(1);
  EXPECT_FALSE(llm.Complete({}, 3, AllowAll(11), &rng).ok());
}

TEST(GeneratorTest, OutOfVocabularyPromptRejected) {
  SimulatedLlm llm(ModelProfile::Llama2_7B(), 11);
  Rng rng(1);
  EXPECT_FALSE(llm.Complete({0, 99}, 3, AllowAll(11), &rng).ok());
  EXPECT_FALSE(llm.Complete({-1}, 3, AllowAll(11), &rng).ok());
}

TEST(GeneratorTest, BadMaskSizeRejected) {
  SimulatedLlm llm(ModelProfile::Llama2_7B(), 11);
  Rng rng(1);
  GrammarMask bad = [](size_t) { return std::vector<bool>(5, true); };
  EXPECT_FALSE(llm.Complete(EncodeDigits("1,"), 3, bad, &rng).ok());
}

TEST(GeneratorTest, DeterministicForSameSeed) {
  SimulatedLlm llm(ModelProfile::Llama2_7B(), 11);
  std::string prompt = "10,20,30,40,";
  Rng a(77), b(77);
  auto ga = llm.Complete(EncodeDigits(prompt), 20, AllowAll(11), &a);
  auto gb = llm.Complete(EncodeDigits(prompt), 20, AllowAll(11), &b);
  ASSERT_TRUE(ga.ok());
  ASSERT_TRUE(gb.ok());
  EXPECT_EQ(ga.value().tokens, gb.value().tokens);
}

TEST(GeneratorTest, StatelessAcrossCalls) {
  // Two identical calls with identical rngs must match: no state leaks
  // from one Complete() to the next (each is a fresh zero-shot session).
  SimulatedLlm llm(ModelProfile::Llama2_7B(), 11);
  std::string prompt = "55,66,";
  Rng a(3);
  auto first = llm.Complete(EncodeDigits(prompt), 10, AllowAll(11), &a);
  Rng b(3);
  auto second = llm.Complete(EncodeDigits(prompt), 10, AllowAll(11), &b);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first.value().tokens, second.value().tokens);
}

TEST(GeneratorTest, ZeroTokensIsValid) {
  SimulatedLlm llm(ModelProfile::Llama2_7B(), 11);
  Rng rng(1);
  auto gen = llm.Complete(EncodeDigits("1,"), 0, AllowAll(11), &rng);
  ASSERT_TRUE(gen.ok());
  EXPECT_TRUE(gen.value().tokens.empty());
  EXPECT_EQ(gen.value().ledger.generated_tokens, 0u);
}

// The decode loop skips the model at grammar-forced positions. Against
// the loop that calls NextDistribution and SampleToken at every step,
// with and without a prefix cache, every back-end, grammar and sampler
// setting must give the same tokens, the same ledger and leave the RNG
// at the same point.
TEST(GeneratorTest, ForcedPositionsMatchTheUnskippedLoop) {
  namespace ref = decode_reference;
  const std::vector<token::TokenId> prompt = ref::DigitPrompt(60);
  const size_t num_tokens = 70;
  for (const ref::NamedProfile& base : ref::Profiles()) {
    for (const ref::NamedSampler& sampler : ref::Samplers()) {
      ModelProfile profile = base.profile;
      profile.sampler = sampler.options;
      for (const ref::NamedMask& mask : ref::ForcedMasks()) {
        for (bool cached : {false, true}) {
          SCOPED_TRACE(base.name + " " + sampler.name + " " + mask.name +
                       (cached ? " cached" : " uncached"));
          const uint64_t seed = 7 + sampler.name.size();
          const ref::Decoded want = ref::ReferenceDecode(
              profile, ref::kVocab, prompt, num_tokens, mask.mask, seed);
          SimulatedLlm llm(profile, ref::kVocab,
                           cached ? std::make_shared<PrefixCache>(2)
                                  : nullptr);
          Rng rng(seed);
          auto got = llm.Complete(prompt, num_tokens, mask.mask, &rng);
          ASSERT_TRUE(got.ok()) << got.status().ToString();
          EXPECT_EQ(got.value().tokens, want.tokens);
          EXPECT_EQ(got.value().ledger.prompt_tokens, prompt.size());
          EXPECT_EQ(got.value().ledger.generated_tokens, num_tokens);
          EXPECT_EQ(rng.NextUint32(), want.rng_next);
        }
      }
    }
  }
}

// Draws over one DrawTrie one at a time, as the sample loop runs them:
// the k-th draw walks what the k - 1 before it added. Every draw must
// give the tokens, ledger and RNG state of the plain loop with its own
// seed, for every back-end, grammar and sampler, with and without a
// prefix cache, and the trie must hold one node per prefix drawn.
TEST(DrawTrieTest, SequentialDrawsMatchTheReferenceLoop) {
  namespace ref = decode_reference;
  const std::vector<token::TokenId> prompt = ref::DigitPrompt(60);
  const size_t num_tokens = 42;
  const int draws = 6;
  for (const ref::NamedProfile& base : ref::Profiles()) {
    for (const ref::NamedSampler& sampler : ref::Samplers()) {
      ModelProfile profile = base.profile;
      profile.sampler = sampler.options;
      for (const ref::NamedMask& mask : ref::ForcedMasks()) {
        for (bool cached : {false, true}) {
          SCOPED_TRACE(base.name + " " + sampler.name + " " + mask.name +
                       (cached ? " cached" : " uncached"));
          auto cache = cached ? std::make_shared<PrefixCache>(2) : nullptr;
          DrawTrie trie(profile, ref::kVocab, ref::Shared(prompt),
                        num_tokens, mask.mask);
          std::vector<std::vector<token::TokenId>> drawn;
          for (int k = 0; k < draws; ++k) {
            const uint64_t seed = 100 + static_cast<uint64_t>(k);
            const ref::Decoded want = ref::ReferenceDecode(
                profile, ref::kVocab, prompt, num_tokens, mask.mask, seed);
            SimulatedLlm llm(profile, ref::kVocab, cache, &trie);
            Rng rng(seed);
            auto got = llm.Complete(prompt, num_tokens, mask.mask, &rng);
            ASSERT_TRUE(got.ok()) << got.status().ToString();
            EXPECT_EQ(got.value().tokens, want.tokens) << "draw " << k;
            EXPECT_EQ(got.value().ledger.prompt_tokens, prompt.size());
            EXPECT_EQ(got.value().ledger.generated_tokens, num_tokens);
            EXPECT_EQ(rng.NextUint32(), want.rng_next) << "draw " << k;
            drawn.push_back(want.tokens);
          }
          EXPECT_EQ(trie.size(),
                    ref::ModelStepPrefixes(drawn, mask.mask).size());
          EXPECT_GT(trie.size(), 0u);
        }
      }
    }
  }
}

// Four threads' lanes write one trie at once, in waves that start
// together: each lane walks what the trie holds when it reaches a model
// step, including what the other lanes of its wave added a moment
// before, and adds the steps it computes. Under the greedy sampler all
// of them draw one sequence, so lanes race to add the same nodes. Every
// draw must decode the plain loop, and two lanes that reach the same
// new prefix must leave one node for it. (Run under TSan in CI.)
TEST(DrawTrieTest, ConcurrentWavesMatchTheReferenceLoop) {
  namespace ref = decode_reference;
  const std::vector<token::TokenId> prompt = ref::DigitPrompt(60);
  const size_t num_tokens = 42;
  const int waves = 3;
  const int width = 4;
  for (const ref::NamedSampler& sampler :
       {ref::Samplers()[0], ref::Samplers()[1]}) {
    for (const ref::NamedMask& mask : ref::ForcedMasks()) {
      for (bool cached : {false, true}) {
        SCOPED_TRACE(sampler.name + " " + mask.name +
                     (cached ? " cached" : " uncached"));
        ModelProfile profile = ModelProfile::Llama2_7B();
        profile.sampler = sampler.options;
        auto cache = cached ? std::make_shared<PrefixCache>(2) : nullptr;
        DrawTrie trie(profile, ref::kVocab, ref::Shared(prompt), num_tokens,
                      mask.mask);
        std::vector<std::vector<token::TokenId>> drawn;
        for (int w = 0; w < waves; ++w) {
          std::vector<Result<GenerationResult>> got(
              width, Status::Internal("not run"));
          std::vector<uint32_t> rng_next(width);
          std::atomic<int> ready{0};
          std::vector<std::thread> threads;
          for (int k = 0; k < width; ++k) {
            threads.emplace_back([&, k] {
              SimulatedLlm llm(profile, ref::kVocab, cache, &trie);
              Rng rng(500 + static_cast<uint64_t>(w * width + k));
              ready.fetch_add(1);
              while (ready.load() < width) std::this_thread::yield();
              got[k] = llm.Complete(prompt, num_tokens, mask.mask, &rng);
              rng_next[k] = rng.NextUint32();
            });
          }
          for (std::thread& t : threads) t.join();
          for (int k = 0; k < width; ++k) {
            const ref::Decoded want = ref::ReferenceDecode(
                profile, ref::kVocab, prompt, num_tokens, mask.mask,
                500 + static_cast<uint64_t>(w * width + k));
            ASSERT_TRUE(got[k].ok()) << got[k].status().ToString();
            EXPECT_EQ(got[k].value().tokens, want.tokens) << w << "/" << k;
            EXPECT_EQ(rng_next[k], want.rng_next) << w << "/" << k;
            drawn.push_back(want.tokens);
          }
          EXPECT_EQ(trie.size(),
                    ref::ModelStepPrefixes(drawn, mask.mask).size())
              << "wave " << w;
        }
      }
    }
  }
}

// Four greedy lanes decode one long sequence on one trie at once, so
// whenever a lane is interrupted between looking a model step up and
// adding it, another lane can walk up to it and add the same node: the
// later Add must find it and keep one node per prefix. Each lane spans
// several scheduler time slices even where the threads share one CPU.
// (Run under TSan in CI.)
TEST(DrawTrieTest, LanesRacingOnOnePrefixLeaveOneNode) {
  namespace ref = decode_reference;
  const std::vector<token::TokenId> prompt = ref::DigitPrompt(60);
  const lm::GrammarMask mask = ref::ForcedMasks()[0].mask;
  const size_t num_tokens = 40000;
  const int width = 4;
  ModelProfile profile = ModelProfile::Llama2_7B();
  profile.sampler = ref::Samplers()[0].options;  // greedy
  DrawTrie trie(profile, ref::kVocab, ref::Shared(prompt), num_tokens, mask);
  std::vector<Result<GenerationResult>> got(width,
                                            Status::Internal("not run"));
  std::atomic<int> ready{0};
  std::vector<std::thread> threads;
  for (int k = 0; k < width; ++k) {
    threads.emplace_back([&, k] {
      SimulatedLlm llm(profile, ref::kVocab, nullptr, &trie);
      Rng rng(k);
      ready.fetch_add(1);
      while (ready.load() < width) std::this_thread::yield();
      got[k] = llm.Complete(prompt, num_tokens, mask, &rng);
    });
  }
  for (std::thread& t : threads) t.join();
  const ref::Decoded want =
      ref::ReferenceDecode(profile, ref::kVocab, prompt, num_tokens, mask, 0);
  for (int k = 0; k < width; ++k) {
    ASSERT_TRUE(got[k].ok()) << got[k].status().ToString();
    EXPECT_EQ(got[k].value().tokens, want.tokens) << k;
  }
  // One sequence: one node per model step.
  size_t model_steps = 0;
  for (size_t p = 0; p < num_tokens; ++p) {
    model_steps += ForcedToken(*mask(p)) == kNotForced ? 1 : 0;
  }
  EXPECT_EQ(trie.size(), model_steps);
}

// A trie a prefix-cache entry keeps is walked and grown by many
// requests at once. Readers take no lock, so they must see either a
// whole node or none. Every draw must still give the plain loop's
// tokens and RNG state, and the trie must stop at its budget. (Run under
// TSan in CI.)
TEST(DrawTrieTest, PublishingWhileOthersWalkMatchesTheReferenceLoop) {
  namespace ref = decode_reference;
  const std::vector<token::TokenId> prompt = ref::DigitPrompt(60);
  const size_t num_tokens = 42;
  const int threads = 4;
  const int draws = 8;
  for (const ref::NamedMask& mask : ref::ForcedMasks()) {
    SCOPED_TRACE(mask.name);
    ModelProfile profile = ModelProfile::Llama2_7B();
    profile.sampler.temperature = 1.0;
    // Room for at least 150 nodes: each keeps at most ref::kVocab
    // running sums.
    DrawTrie trie(profile, ref::kVocab, ref::Shared(prompt), num_tokens,
                  mask.mask, 150 * (16 + ref::kVocab * sizeof(double)));
    std::vector<std::vector<std::string>> failures(threads);
    std::vector<std::thread> workers;
    for (int t = 0; t < threads; ++t) {
      workers.emplace_back([&, t] {
        for (int k = 0; k < draws; ++k) {
          const uint64_t seed = 900 + static_cast<uint64_t>(t * draws + k);
          SimulatedLlm llm(profile, ref::kVocab, nullptr, &trie);
          Rng rng(seed);
          auto got = llm.Complete(prompt, num_tokens, mask.mask, &rng);
          const ref::Decoded want = ref::ReferenceDecode(
              profile, ref::kVocab, prompt, num_tokens, mask.mask, seed);
          if (!got.ok() || got.value().tokens != want.tokens ||
              rng.NextUint32() != want.rng_next) {
            failures[t].push_back("seed " + std::to_string(seed));
          }
        }
      });
    }
    for (std::thread& w : workers) w.join();
    for (int t = 0; t < threads; ++t) {
      EXPECT_TRUE(failures[t].empty()) << failures[t].front();
    }
    EXPECT_GT(trie.shared_steps(), 0u);
    EXPECT_TRUE(trie.full());
  }
}

TEST(DrawTrieTest, RepeatedDrawComputesNoNewDistribution) {
  namespace ref = decode_reference;
  const std::vector<token::TokenId> prompt = ref::DigitPrompt(40);
  const lm::GrammarMask mask = ref::ForcedMasks()[0].mask;
  ModelProfile profile = ModelProfile::Llama2_7B();
  for (bool cached : {false, true}) {
    auto cache = cached ? std::make_shared<PrefixCache>(2) : nullptr;
    auto pool = std::make_shared<BlockPool>(PagedMemoryOptions{});
    profile.memory_pool = pool;
    // What a session holds with the prompt taken and nothing else: an
    // empty overlay over a cached fork, the prompt's keys uncached.
    NGramLanguageModel opened(ref::kVocab, profile.ngram);
    if (!cached) opened.ObserveAll(prompt);
    DrawTrie trie(profile, ref::kVocab, ref::Shared(prompt), 35, mask);
    std::vector<token::TokenId> first;
    for (int k = 0; k < 2; ++k) {
      SimulatedLlm llm(profile, ref::kVocab, cache, &trie);
      Rng rng(9);
      const size_t bytes_before = pool->stats().session_overlay_bytes;
      auto got = llm.Complete(prompt, 35, mask, &rng);
      ASSERT_TRUE(got.ok());
      // 35 tokens of a 7-token cycle whose last position is forced: the
      // first draw adds 30 nodes, and the second draw, the trie gains
      // no node.
      EXPECT_EQ(trie.size(), 30u);
      if (k == 0) {
        first = got.value().tokens;
      } else {
        EXPECT_EQ(got.value().tokens, first);
        EXPECT_EQ(trie.shared_steps(), 30u);
        // The draw never took a fresh model step, so it never sized its
        // session for the generation.
        EXPECT_EQ(pool->stats().session_overlay_bytes - bytes_before,
                  opened.ApproxMemoryBytes().overlay_bytes);
      }
    }
  }
}

TEST(DrawTrieTest, SamplerErrorPropagatesAndLogsNoPartialNode) {
  namespace ref = decode_reference;
  const std::vector<token::TokenId> prompt = ref::DigitPrompt(40);
  // Step 2 allows no token: ForcedToken finds none, so it is a model
  // step whose SamplerWeights (or GreedyToken) fails.
  auto digits = std::make_shared<const std::vector<bool>>(
      std::vector<bool>(ref::kVocab, true));
  auto none = std::make_shared<const std::vector<bool>>(
      std::vector<bool>(ref::kVocab, false));
  const GrammarMask mask(
      [=](size_t step) { return step == 2 ? none : digits; });
  for (const ref::NamedSampler& sampler : ref::Samplers()) {
    SCOPED_TRACE(sampler.name);
    ModelProfile profile = ModelProfile::Llama2_7B();
    profile.sampler = sampler.options;
    SimulatedLlm plain(profile, ref::kVocab);
    Rng plain_rng(4);
    const Status want = plain.Complete(prompt, 6, mask, &plain_rng).status();
    ASSERT_FALSE(want.ok());
    DrawTrie trie(profile, ref::kVocab, ref::Shared(prompt), 6, mask);
    for (int k = 0; k < 2; ++k) {
      SimulatedLlm llm(profile, ref::kVocab, nullptr, &trie);
      Rng rng(4);
      const Status got = llm.Complete(prompt, 6, mask, &rng).status();
      EXPECT_EQ(got.code(), want.code());
      EXPECT_EQ(got.message(), want.message());
      // The two complete model steps before the failing one; the second
      // draw walks them and fails at the same step, and the trie gains
      // no node.
      EXPECT_EQ(trie.size(), 2u);
    }
  }
}

TEST(DrawTrieTest, CallsTheTrieWasNotMadeForDecodeWithoutIt) {
  namespace ref = decode_reference;
  const std::vector<token::TokenId> prompt = ref::DigitPrompt(40);
  const std::vector<token::TokenId> other = ref::DigitPrompt(41);
  const std::vector<ref::NamedMask> masks = ref::ForcedMasks();
  ModelProfile profile = ModelProfile::Llama2_7B();
  ModelProfile hotter = profile;
  hotter.sampler.temperature = 1.1;
  DrawTrie trie(profile, ref::kVocab, ref::Shared(prompt), 28,
                masks[0].mask);
  SimulatedLlm seeder(profile, ref::kVocab, nullptr, &trie);
  Rng seed_rng(1);
  ASSERT_TRUE(seeder.Complete(prompt, 28, masks[0].mask, &seed_rng).ok());
  const size_t nodes = trie.size();
  struct Case {
    std::string name;
    ModelProfile profile;
    std::vector<token::TokenId> prompt;
    GrammarMask mask;
  };
  const std::vector<Case> cases = {
      {"prompt", profile, other, masks[0].mask},
      {"sampler", hotter, prompt, masks[0].mask},
      {"grammar", profile, prompt, masks[1].mask},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const ref::Decoded want =
        ref::ReferenceDecode(c.profile, ref::kVocab, c.prompt, 28, c.mask, 1);
    SimulatedLlm llm(c.profile, ref::kVocab, nullptr, &trie);
    Rng rng(1);
    auto got = llm.Complete(c.prompt, 28, c.mask, &rng);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got.value().tokens, want.tokens);
    EXPECT_EQ(rng.NextUint32(), want.rng_next);
    EXPECT_EQ(trie.size(), nodes);
    EXPECT_EQ(trie.shared_steps(), 0u);
  }
}

TEST(GeneratorTest, ForcedTokenFindsTheOnlyAllowedToken) {
  EXPECT_EQ(ForcedToken({false, false, true, false}), 2);
  EXPECT_EQ(ForcedToken({true, false, true, false}), kNotForced);
  EXPECT_EQ(ForcedToken({false, false, false}), kNotForced);
  EXPECT_EQ(ForcedToken({true}), 0);
}

TEST(TokenLedgerTest, Accumulates) {
  TokenLedger a{10, 5};
  TokenLedger b{3, 2};
  a += b;
  EXPECT_EQ(a.prompt_tokens, 13u);
  EXPECT_EQ(a.generated_tokens, 7u);
  EXPECT_EQ(a.total(), 20u);
}

TEST(ProfileTest, ProfilesDiffer) {
  ModelProfile llama = ModelProfile::Llama2_7B();
  ModelProfile phi = ModelProfile::Phi2();
  EXPECT_GT(llama.ngram.max_order, phi.ngram.max_order);
  EXPECT_LT(llama.ngram.uniform_mix, phi.ngram.uniform_mix);
  EXPECT_LT(llama.sampler.temperature, phi.sampler.temperature);
  EXPECT_NE(llama.name, phi.name);
}

}  // namespace
}  // namespace lm
}  // namespace multicast
