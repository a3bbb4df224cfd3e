#include "lm/generator.h"

#include <gtest/gtest.h>

#include <memory>

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
