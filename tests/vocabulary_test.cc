#include "token/vocabulary.h"

#include <gtest/gtest.h>

namespace multicast {
namespace token {
namespace {

TEST(VocabularyTest, DigitsHasElevenTokens) {
  Vocabulary v = Vocabulary::Digits();
  EXPECT_EQ(v.size(), 11u);
  for (char c = '0'; c <= '9'; ++c) EXPECT_TRUE(v.Contains(c));
  EXPECT_TRUE(v.Contains(','));
  EXPECT_FALSE(v.Contains('a'));
}

TEST(VocabularyTest, IdsAreStableAndBidirectional) {
  Vocabulary v = Vocabulary::Digits();
  for (char c = '0'; c <= '9'; ++c) {
    auto id = v.IdOf(c);
    ASSERT_TRUE(id.ok());
    auto back = v.SymbolOf(id.value());
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(back.value(), c);
  }
}

TEST(VocabularyTest, AddIsIdempotent) {
  Vocabulary v;
  TokenId a = v.Add('x');
  TokenId b = v.Add('x');
  EXPECT_EQ(a, b);
  EXPECT_EQ(v.size(), 1u);
}

TEST(VocabularyTest, UnknownSymbolIsNotFound) {
  Vocabulary v = Vocabulary::Digits();
  EXPECT_EQ(v.IdOf('z').status().code(), StatusCode::kNotFound);
}

// Ids are looked up by the char's unsigned value, so high-bit chars
// (negative as a signed char) index the table like any other.
TEST(VocabularyTest, HighBitSymbolsAreNotFoundUntilAdded) {
  Vocabulary v = Vocabulary::Digits();
  for (char c : {'\xff', '\x80', '\0'}) {
    EXPECT_FALSE(v.Contains(c));
    EXPECT_EQ(v.IdOf(c).status().code(), StatusCode::kNotFound);
  }
  const TokenId id = v.Add('\xff');
  EXPECT_EQ(id, 11);
  EXPECT_EQ(v.Add('\xff'), id);
  EXPECT_TRUE(v.Contains('\xff'));
  ASSERT_TRUE(v.IdOf('\xff').ok());
  EXPECT_EQ(v.IdOf('\xff').value(), id);
  ASSERT_TRUE(v.SymbolOf(id).ok());
  EXPECT_EQ(v.SymbolOf(id).value(), '\xff');
  // The chars that share its low bits, or its signed value, stay absent.
  EXPECT_FALSE(v.Contains('\x7f'));
  EXPECT_FALSE(v.Contains('\x80'));
  EXPECT_EQ(v.size(), 12u);
}

TEST(VocabularyTest, BadIdIsOutOfRange) {
  Vocabulary v = Vocabulary::Digits();
  EXPECT_FALSE(v.SymbolOf(-1).ok());
  EXPECT_FALSE(v.SymbolOf(100).ok());
}

TEST(VocabularyTest, SaxAlphabeticSizes) {
  auto v = Vocabulary::SaxAlphabetic(5);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v.value().size(), 6u);  // a..e plus comma
  EXPECT_TRUE(v.value().Contains('e'));
  EXPECT_FALSE(v.value().Contains('f'));
  EXPECT_TRUE(v.value().Contains(','));
}

TEST(VocabularyTest, SaxAlphabeticBounds) {
  EXPECT_FALSE(Vocabulary::SaxAlphabetic(1).ok());
  EXPECT_FALSE(Vocabulary::SaxAlphabetic(27).ok());
  EXPECT_TRUE(Vocabulary::SaxAlphabetic(26).ok());
}

TEST(VocabularyTest, SaxDigitalCapsAtTen) {
  // Table IX's "N/A" cell: digital SAX cannot express 20 symbols.
  EXPECT_FALSE(Vocabulary::SaxDigital(20).ok());
  auto v = Vocabulary::SaxDigital(10);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v.value().size(), 11u);
}

TEST(VocabularyTest, SaxDigitalSymbols) {
  auto v = Vocabulary::SaxDigital(5);
  ASSERT_TRUE(v.ok());
  EXPECT_TRUE(v.value().Contains('4'));
  EXPECT_FALSE(v.value().Contains('5'));
}

TEST(VocabularyTest, CommaId) {
  Vocabulary v = Vocabulary::Digits();
  auto comma = v.CommaId();
  ASSERT_TRUE(comma.ok());
  EXPECT_EQ(v.SymbolOf(comma.value()).value(), ',');
  Vocabulary empty;
  EXPECT_FALSE(empty.CommaId().ok());
}

TEST(VocabularyTest, SymbolsInIdOrder) {
  Vocabulary v = Vocabulary::Digits();
  const auto& syms = v.symbols();
  ASSERT_EQ(syms.size(), 11u);
  EXPECT_EQ(syms[0], '0');
  EXPECT_EQ(syms[10], ',');
}

}  // namespace
}  // namespace token
}  // namespace multicast
