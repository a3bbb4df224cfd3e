// Contract tests the language model must satisfy, on its own and end to
// end through SimulatedLlm, run through a parameterized factory.

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <memory>
#include <ostream>

#include "lm/generator.h"
#include "lm/ngram_model.h"
#include "token/codec.h"

namespace multicast {
namespace lm {
namespace {

struct BackendCase {
  const char* name;
  std::function<std::unique_ptr<NGramLanguageModel>(size_t vocab)> make;
  ModelProfile profile;  // for end-to-end generation checks
};

// gtest would print the case as raw bytes, pointers included, into each
// test's name; the name alone keeps the test names stable.
void PrintTo(const BackendCase& c, std::ostream* os) { *os << c.name; }

BackendCase NGramCase() {
  return {"ngram",
          [](size_t vocab) {
            return std::make_unique<NGramLanguageModel>(vocab,
                                                        NGramOptions{});
          },
          ModelProfile::Llama2_7B()};
}

class BackendContractTest : public testing::TestWithParam<BackendCase> {};

TEST_P(BackendContractTest, DistributionIsProperEverywhere) {
  auto model = GetParam().make(11);
  Rng rng(13);
  for (int step = 0; step < 300; ++step) {
    std::vector<double> p = model->NextDistribution();
    ASSERT_EQ(p.size(), 11u);
    double sum = 0.0;
    for (double v : p) {
      ASSERT_GT(v, 0.0) << GetParam().name << " step " << step;
      sum += v;
    }
    ASSERT_NEAR(sum, 1.0, 1e-9) << GetParam().name;
    model->Observe(static_cast<token::TokenId>(rng.NextBounded(11)));
  }
}

TEST_P(BackendContractTest, ContextLengthTracksObserves) {
  auto model = GetParam().make(5);
  EXPECT_EQ(model->context_length(), 0u);
  for (int i = 0; i < 17; ++i) model->Observe(i % 5);
  EXPECT_EQ(model->context_length(), 17u);
  model->Reset();
  EXPECT_EQ(model->context_length(), 0u);
}

TEST_P(BackendContractTest, ResetRestoresUniform) {
  auto model = GetParam().make(6);
  for (int i = 0; i < 60; ++i) model->Observe(2);
  model->Reset();
  std::vector<double> p = model->NextDistribution();
  for (double v : p) EXPECT_NEAR(v, 1.0 / 6, 1e-9) << GetParam().name;
}

TEST_P(BackendContractTest, CycleContinuationIsLearned) {
  auto model = GetParam().make(7);
  for (int rep = 0; rep < 40; ++rep) {
    for (token::TokenId t : {0, 3, 6}) model->Observe(t);
  }
  // Context ends ...0 3 6 -> expect 0 with high probability.
  std::vector<double> p = model->NextDistribution();
  EXPECT_GT(p[0], 0.5) << GetParam().name;
}

TEST_P(BackendContractTest, GeneratorHonorsGrammarEndToEnd) {
  SimulatedLlm llm(GetParam().profile, 11);
  std::string prompt;
  for (int i = 0; i < 30; ++i) prompt += "42,";
  auto ids = token::Encode(prompt, token::Vocabulary::Digits()).ValueOrDie();
  GrammarMask mask = [](size_t step) {
    std::vector<bool> allowed(11, step % 3 != 2);
    allowed[10] = step % 3 == 2;
    return allowed;
  };
  Rng rng(3);
  auto gen = llm.Complete(ids, 30, mask, &rng);
  ASSERT_TRUE(gen.ok()) << GetParam().name;
  std::string text =
      token::Decode(gen.value().tokens, token::Vocabulary::Digits())
          .ValueOrDie();
  for (size_t i = 0; i < text.size(); ++i) {
    if (i % 3 == 2) {
      ASSERT_EQ(text[i], ',') << GetParam().name << ": " << text;
    } else {
      ASSERT_TRUE(text[i] >= '0' && text[i] <= '9')
          << GetParam().name << ": " << text;
    }
  }
}

TEST_P(BackendContractTest, GeneratorDeterministicPerSeed) {
  SimulatedLlm llm(GetParam().profile, 11);
  auto ids =
      token::Encode("17,23,17,23,", token::Vocabulary::Digits()).ValueOrDie();
  Rng a(9), b(9);
  auto ga = llm.Complete(ids, 12, AllowAll(11), &a);
  auto gb = llm.Complete(ids, 12, AllowAll(11), &b);
  ASSERT_TRUE(ga.ok());
  ASSERT_TRUE(gb.ok());
  EXPECT_EQ(ga.value().tokens, gb.value().tokens) << GetParam().name;
}

INSTANTIATE_TEST_SUITE_P(AllBackends, BackendContractTest,
                         testing::Values(NGramCase()),
                         [](const testing::TestParamInfo<BackendCase>& info) {
                           return info.param.name;
                         });

}  // namespace
}  // namespace lm
}  // namespace multicast
