#include "token/codec.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace multicast {
namespace token {
namespace {

TEST(FixedWidthTest, PadsWithZeros) {
  EXPECT_EQ(FixedWidthDigits(7, 3).ValueOrDie(), "007");
  EXPECT_EQ(FixedWidthDigits(0, 2).ValueOrDie(), "00");
  EXPECT_EQ(FixedWidthDigits(99, 2).ValueOrDie(), "99");
}

TEST(FixedWidthTest, RejectsOverflowAndNegative) {
  EXPECT_FALSE(FixedWidthDigits(100, 2).ok());
  EXPECT_FALSE(FixedWidthDigits(-1, 2).ok());
  EXPECT_FALSE(FixedWidthDigits(5, 0).ok());
  EXPECT_FALSE(FixedWidthDigits(5, 19).ok());
}

// The digits are rendered without printf; strings and error messages
// must be those of the "%0*lld" rendering, at every width and around
// every power of ten, up to the largest int64.
TEST(FixedWidthTest, MatchesPrintfRendering) {
  std::vector<int64_t> values = {0, 1, 9, INT64_MAX, INT64_MAX - 1};
  for (int64_t p = 1; p <= INT64_MAX / 10; p *= 10) {
    for (int64_t v : {p - 1, p, p + 1, 10 * p - 1}) values.push_back(v);
  }
  for (int digits = 1; digits <= 18; ++digits) {
    for (int64_t v : values) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%0*lld", digits,
                    static_cast<long long>(v));
      const std::string want = buf;
      Result<std::string> got = FixedWidthDigits(v, digits);
      if (static_cast<int>(want.size()) == digits) {
        ASSERT_TRUE(got.ok()) << v << " in " << digits;
        EXPECT_EQ(got.value(), want);
      } else {
        ASSERT_FALSE(got.ok()) << v << " in " << digits;
        EXPECT_EQ(got.status().code(), StatusCode::kOutOfRange);
        EXPECT_EQ(got.status().message(),
                  "value " + std::to_string(v) + " does not fit in " +
                      std::to_string(digits) + " digits");
      }
    }
  }
  EXPECT_EQ(FixedWidthDigits(-3, 2).status().message(),
            "negative scaled value -3");
  EXPECT_EQ(FixedWidthDigits(5, 19).status().message(),
            "bad digit width 19");
}

TEST(FixedWidthTest, ParseRoundTrip) {
  for (int64_t v : {0LL, 7LL, 42LL, 999LL}) {
    auto s = FixedWidthDigits(v, 4);
    ASSERT_TRUE(s.ok());
    auto back = ParseFixedWidthDigits(s.value());
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(back.value(), v);
  }
}

TEST(ParseFixedWidthTest, RejectsNonDigits) {
  EXPECT_FALSE(ParseFixedWidthDigits("").ok());
  EXPECT_FALSE(ParseFixedWidthDigits("12a").ok());
  EXPECT_FALSE(ParseFixedWidthDigits("-12").ok());
}

TEST(ParseFixedWidthTest, LeadingZeros) {
  EXPECT_EQ(ParseFixedWidthDigits("007").ValueOrDie(), 7);
  EXPECT_EQ(ParseFixedWidthDigits("000").ValueOrDie(), 0);
}

TEST(ParseFixedWidthTest, OverflowGuard) {
  EXPECT_FALSE(ParseFixedWidthDigits("99999999999999999999999").ok());
}

TEST(EncodeDecodeTest, RoundTrip) {
  Vocabulary v = Vocabulary::Digits();
  std::string text = "17,23,26,31";
  auto ids = Encode(text, v);
  ASSERT_TRUE(ids.ok());
  EXPECT_EQ(ids.value().size(), text.size());
  auto back = Decode(ids.value(), v);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), text);
}

TEST(EncodeTest, RejectsUnknownSymbol) {
  Vocabulary v = Vocabulary::Digits();
  EXPECT_FALSE(Encode("12x", v).ok());
}

TEST(DecodeTest, RejectsBadId) {
  Vocabulary v = Vocabulary::Digits();
  EXPECT_FALSE(Decode({0, 99}, v).ok());
}

TEST(EncodeTest, SaxVocabularyWorks) {
  auto v = Vocabulary::SaxAlphabetic(5);
  ASSERT_TRUE(v.ok());
  auto ids = Encode("ab,cd", v.value());
  ASSERT_TRUE(ids.ok());
  EXPECT_EQ(Decode(ids.value(), v.value()).ValueOrDie(), "ab,cd");
}

}  // namespace
}  // namespace token
}  // namespace multicast
