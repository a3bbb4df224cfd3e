#include "util/flags.h"

#include <gtest/gtest.h>

#include <cstdint>

namespace multicast {
namespace {

const std::set<std::string> kKnown = {"input", "horizon", "plot", "rate"};
const std::set<std::string> kBools = {"plot"};

TEST(FlagsTest, SeparateValueForm) {
  auto f = FlagSet::Parse({"--input", "a.csv", "--horizon", "12"}, kKnown);
  ASSERT_TRUE(f.ok());
  EXPECT_EQ(f.value().GetString("input", ""), "a.csv");
  EXPECT_EQ(f.value().GetInt("horizon", 0).ValueOrDie(), 12);
}

TEST(FlagsTest, EqualsForm) {
  auto f = FlagSet::Parse({"--input=b.csv", "--horizon=7"}, kKnown);
  ASSERT_TRUE(f.ok());
  EXPECT_EQ(f.value().GetString("input", ""), "b.csv");
  EXPECT_EQ(f.value().GetInt("horizon", 0).ValueOrDie(), 7);
}

TEST(FlagsTest, BooleanFlag) {
  auto f = FlagSet::Parse({"--plot"}, kKnown, kBools);
  ASSERT_TRUE(f.ok());
  EXPECT_TRUE(f.value().GetBool("plot"));
  auto g = FlagSet::Parse({}, kKnown, kBools);
  ASSERT_TRUE(g.ok());
  EXPECT_FALSE(g.value().GetBool("plot"));
}

TEST(FlagsTest, PositionalsPreserveOrder) {
  auto f = FlagSet::Parse({"first", "--plot", "second"}, kKnown, kBools);
  ASSERT_TRUE(f.ok());
  EXPECT_EQ(f.value().positional(),
            (std::vector<std::string>{"first", "second"}));
}

TEST(FlagsTest, UnknownFlagRejected) {
  auto f = FlagSet::Parse({"--bogus", "1"}, kKnown);
  ASSERT_FALSE(f.ok());
  EXPECT_NE(f.status().message().find("bogus"), std::string::npos);
}

TEST(FlagsTest, MissingValueRejected) {
  EXPECT_FALSE(FlagSet::Parse({"--input"}, kKnown).ok());
}

TEST(FlagsTest, DuplicateFlagRejected) {
  EXPECT_FALSE(
      FlagSet::Parse({"--horizon", "1", "--horizon", "2"}, kKnown).ok());
}

TEST(FlagsTest, BareDashDashRejected) {
  EXPECT_FALSE(FlagSet::Parse({"--"}, kKnown).ok());
}

TEST(FlagsTest, DefaultsWhenAbsent) {
  auto f = FlagSet::Parse({}, kKnown).ValueOrDie();
  EXPECT_EQ(f.GetString("input", "fallback"), "fallback");
  EXPECT_EQ(f.GetInt("horizon", 99).ValueOrDie(), 99);
  EXPECT_DOUBLE_EQ(f.GetDouble("rate", 0.5).ValueOrDie(), 0.5);
  EXPECT_FALSE(f.Has("input"));
}

TEST(FlagsTest, BadNumericValuesRejected) {
  auto f = FlagSet::Parse({"--horizon", "abc"}, kKnown).ValueOrDie();
  EXPECT_FALSE(f.GetInt("horizon", 0).ok());
  auto g = FlagSet::Parse({"--rate", "1.5x"}, kKnown).ValueOrDie();
  EXPECT_FALSE(g.GetDouble("rate", 0.0).ok());
  // Outside int64: strtoll would clamp these to a bound.
  for (const char* v : {"99999999999999999999", "-99999999999999999999",
                        "9223372036854775808"}) {
    auto h = FlagSet::Parse({"--horizon", v}, kKnown).ValueOrDie();
    EXPECT_FALSE(h.GetInt("horizon", 0).ok()) << v;
  }
  // Not finite, spelled out or by overflow.
  for (const char* v : {"nan", "NaN", "-nan", "inf", "-inf", "infinity",
                        "1e999", "-1e999"}) {
    auto r = FlagSet::Parse({"--rate", v}, kKnown).ValueOrDie();
    EXPECT_FALSE(r.GetDouble("rate", 0.0).ok()) << v;
  }
  // The int64 bounds themselves, and a double that underflows toward
  // zero, are still values.
  auto lo = FlagSet::Parse({"--horizon", "-9223372036854775808"}, kKnown)
                .ValueOrDie();
  EXPECT_EQ(lo.GetInt("horizon", 0).ValueOrDie(), INT64_MIN);
  auto hi = FlagSet::Parse({"--horizon", "9223372036854775807"}, kKnown)
                .ValueOrDie();
  EXPECT_EQ(hi.GetInt("horizon", 0).ValueOrDie(), INT64_MAX);
  auto tiny = FlagSet::Parse({"--rate", "1e-999"}, kKnown).ValueOrDie();
  EXPECT_TRUE(tiny.GetDouble("rate", 1.0).ok());
}

TEST(FlagsTest, NegativeAndFloatValues) {
  auto f = FlagSet::Parse({"--horizon=-3", "--rate", "0.25"}, kKnown)
               .ValueOrDie();
  EXPECT_EQ(f.GetInt("horizon", 0).ValueOrDie(), -3);
  EXPECT_DOUBLE_EQ(f.GetDouble("rate", 0.0).ValueOrDie(), 0.25);
}

}  // namespace
}  // namespace multicast
