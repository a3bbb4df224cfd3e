#include "multiplex/multiplexer.h"

#include <gtest/gtest.h>

namespace multicast {
namespace multiplex {
namespace {

// The paper's running example (Fig. 1): d1 = [17, 26], d2 = [23, 31].
MuxInput PaperExample() {
  MuxInput input;
  input.values = {{"17", "26"}, {"23", "31"}};
  return input;
}

TEST(MuxKindTest, NamesAndParsing) {
  EXPECT_STREQ(MuxKindName(MuxKind::kDigitInterleave), "DI");
  EXPECT_STREQ(MuxKindName(MuxKind::kValueInterleave), "VI");
  EXPECT_STREQ(MuxKindName(MuxKind::kValueConcat), "VC");
  EXPECT_EQ(ParseMuxKind("di").ValueOrDie(), MuxKind::kDigitInterleave);
  EXPECT_EQ(ParseMuxKind("VI").ValueOrDie(), MuxKind::kValueInterleave);
  EXPECT_EQ(ParseMuxKind("Vc").ValueOrDie(), MuxKind::kValueConcat);
  EXPECT_FALSE(ParseMuxKind("XX").ok());
}

TEST(CreateMultiplexerTest, FactoryMatchesKind) {
  for (MuxKind kind : {MuxKind::kDigitInterleave, MuxKind::kValueInterleave,
                       MuxKind::kValueConcat}) {
    auto mux = CreateMultiplexer(kind);
    ASSERT_NE(mux, nullptr);
    EXPECT_EQ(mux->kind(), kind);
  }
}

TEST(DigitInterleaveTest, MatchesPaperFigure1a) {
  Multiplexer mux(MuxKind::kDigitInterleave);
  auto out = mux.Multiplex(PaperExample(), {2, 2});
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out.value(), "1273,2361");
}

TEST(ValueInterleaveTest, MatchesPaperFigure1b) {
  Multiplexer mux(MuxKind::kValueInterleave);
  auto out = mux.Multiplex(PaperExample(), {2, 2});
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out.value(), "1723,2631");
}

TEST(ValueConcatTest, MatchesPaperFigure1c) {
  Multiplexer mux(MuxKind::kValueConcat);
  auto out = mux.Multiplex(PaperExample(), {2, 2});
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out.value(), "17,23,26,31");
}

class AllMuxTest : public testing::TestWithParam<MuxKind> {};

TEST_P(AllMuxTest, RoundTripIsExact) {
  auto mux = CreateMultiplexer(GetParam());
  MuxInput input = PaperExample();
  auto text = mux->Multiplex(input, {2, 2});
  ASSERT_TRUE(text.ok());
  auto back = mux->Demultiplex(text.value(), {2, 2}, false);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().values, input.values);
}

TEST_P(AllMuxTest, ThreeDimensionalRoundTrip) {
  auto mux = CreateMultiplexer(GetParam());
  MuxInput input;
  input.values = {{"01", "99", "50"}, {"12", "34", "56"}, {"78", "90", "11"}};
  auto text = mux->Multiplex(input, {2, 2, 2});
  ASSERT_TRUE(text.ok());
  auto back = mux->Demultiplex(text.value(), {2, 2, 2}, false);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().values, input.values);
}

TEST_P(AllMuxTest, SingleDimensionRoundTrip) {
  auto mux = CreateMultiplexer(GetParam());
  MuxInput input;
  input.values = {{"170", "263", "099"}};
  auto text = mux->Multiplex(input, {3});
  ASSERT_TRUE(text.ok());
  auto back = mux->Demultiplex(text.value(), {3}, false);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().values, input.values);
}

TEST_P(AllMuxTest, PartialTrailingTimestampDropped) {
  auto mux = CreateMultiplexer(GetParam());
  auto text = mux->Multiplex(PaperExample(), {2, 2});
  ASSERT_TRUE(text.ok());
  // Chop off the last character, as a token-budgeted LLM would.
  std::string truncated = text.value().substr(0, text.value().size() - 1);
  auto strict = mux->Demultiplex(truncated, {2, 2}, false);
  EXPECT_FALSE(strict.ok());
  auto partial = mux->Demultiplex(truncated, {2, 2}, true);
  ASSERT_TRUE(partial.ok());
  EXPECT_EQ(partial.value().num_timestamps(), 1u);
  EXPECT_EQ(partial.value().values[0][0], "17");
  EXPECT_EQ(partial.value().values[1][0], "23");
}

TEST_P(AllMuxTest, TrailingCommaHandledWithPartial) {
  auto mux = CreateMultiplexer(GetParam());
  auto text = mux->Multiplex(PaperExample(), {2, 2});
  ASSERT_TRUE(text.ok());
  auto partial = mux->Demultiplex(text.value() + ",", {2, 2}, true);
  ASSERT_TRUE(partial.ok());
  EXPECT_EQ(partial.value().num_timestamps(), 2u);
}

TEST_P(AllMuxTest, GarbageInputRejected) {
  auto mux = CreateMultiplexer(GetParam());
  EXPECT_FALSE(mux->Demultiplex("abc!!,def", {2, 2}, false).ok());
  EXPECT_FALSE(mux->Demultiplex("", {2, 2}, true).ok());
}

TEST_P(AllMuxTest, ValidationCatchesShapeErrors) {
  auto mux = CreateMultiplexer(GetParam());
  MuxInput empty;
  EXPECT_FALSE(mux->Multiplex(empty, {}).ok());

  MuxInput ragged;
  ragged.values = {{"17", "26"}, {"23"}};
  EXPECT_FALSE(mux->Multiplex(ragged, {2, 2}).ok());

  MuxInput bad_width;
  bad_width.values = {{"170", "260"}, {"23", "31"}};
  EXPECT_FALSE(mux->Multiplex(bad_width, {2, 2}).ok());

  MuxInput bad_chars;
  bad_chars.values = {{"1,", "26"}, {"23", "31"}};
  EXPECT_FALSE(mux->Multiplex(bad_chars, {2, 2}).ok());
}

TEST_P(AllMuxTest, SeparatorGrammarMatchesSerialization) {
  // Property: re-serializing one timestamp and checking each position
  // against IsSeparatorPosition must agree with where commas appear.
  auto mux = CreateMultiplexer(GetParam());
  std::vector<int> widths = {2, 2};  // uniform so DI is defined too
  MuxInput input;
  input.values = {{"17"}, {"23"}};
  auto text = mux->Multiplex(input, widths);
  ASSERT_TRUE(text.ok());
  std::string cycle = text.value() + ",";  // one full timestamp cycle
  ASSERT_EQ(cycle.size(), mux->TokensPerTimestamp(widths));
  for (size_t pos = 0; pos < cycle.size(); ++pos) {
    EXPECT_EQ(mux->IsSeparatorPosition(pos, widths), cycle[pos] == ',')
        << "pos=" << pos << " cycle=" << cycle;
  }
}

INSTANTIATE_TEST_SUITE_P(AllKinds, AllMuxTest,
                         testing::Values(MuxKind::kDigitInterleave,
                                         MuxKind::kValueInterleave,
                                         MuxKind::kValueConcat),
                         [](const testing::TestParamInfo<MuxKind>& info) {
                           return MuxKindName(info.param);
                         });

TEST(DigitInterleaveTest, RequiresUniformWidths) {
  Multiplexer mux(MuxKind::kDigitInterleave);
  MuxInput input;
  input.values = {{"17"}, {"023"}};
  EXPECT_FALSE(mux.Multiplex(input, {2, 3}).ok());
  EXPECT_FALSE(mux.Demultiplex("17023", {2, 3}, false).ok());
}

TEST(ValueInterleaveTest, MixedWidthsSupported) {
  Multiplexer mux(MuxKind::kValueInterleave);
  MuxInput input;
  input.values = {{"17", "26"}, {"023", "931"}};
  auto text = mux.Multiplex(input, {2, 3});
  ASSERT_TRUE(text.ok());
  EXPECT_EQ(text.value(), "17023,26931");
  auto back = mux.Demultiplex(text.value(), {2, 3}, false);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().values, input.values);
}

TEST(ValueConcatTest, MixedWidthsSupported) {
  Multiplexer mux(MuxKind::kValueConcat);
  MuxInput input;
  input.values = {{"17"}, {"023"}};
  auto text = mux.Multiplex(input, {2, 3});
  ASSERT_TRUE(text.ok());
  EXPECT_EQ(text.value(), "17,023");
}

TEST(TokensPerTimestampTest, CountsMatchPaperCosts) {
  // DI/VI: sum(widths) digits + 1 comma. VC: + one comma per value.
  std::vector<int> widths = {2, 2, 2};
  EXPECT_EQ(Multiplexer(MuxKind::kDigitInterleave).TokensPerTimestamp(widths),
            7u);
  EXPECT_EQ(Multiplexer(MuxKind::kValueInterleave).TokensPerTimestamp(widths),
            7u);
  EXPECT_EQ(Multiplexer(MuxKind::kValueConcat).TokensPerTimestamp(widths), 9u);
}

TEST(DigitInterleaveTest, LeadingDigitsComeFirst) {
  // The DI property the paper argues for: all most-significant digits
  // precede all least-significant digits within a timestamp.
  Multiplexer mux(MuxKind::kDigitInterleave);
  MuxInput input;
  input.values = {{"19"}, {"28"}, {"37"}};
  auto text = mux.Multiplex(input, {2, 2, 2});
  ASSERT_TRUE(text.ok());
  EXPECT_EQ(text.value(), "123987");
}

TEST_P(AllMuxTest, DimensionAtPositionConsistentWithGrammar) {
  // Property: every cycle position is either a separator or belongs to
  // exactly one valid dimension, and each dimension owns widths[d]
  // positions per cycle.
  auto mux = CreateMultiplexer(GetParam());
  std::vector<int> widths = {2, 2, 2};
  size_t cycle = mux->TokensPerTimestamp(widths);
  std::vector<int> owned(widths.size(), 0);
  for (size_t pos = 0; pos < cycle; ++pos) {
    int d = mux->DimensionAtPosition(pos, widths);
    if (mux->IsSeparatorPosition(pos, widths)) {
      EXPECT_EQ(d, -1) << "pos " << pos;
    } else {
      ASSERT_GE(d, 0) << "pos " << pos;
      ASSERT_LT(d, 3) << "pos " << pos;
      ++owned[static_cast<size_t>(d)];
    }
  }
  for (size_t d = 0; d < widths.size(); ++d) {
    EXPECT_EQ(owned[d], widths[d]) << "dim " << d;
  }
}

TEST(DimensionAtPositionTest, MatchesPaperExampleLayouts) {
  std::vector<int> widths = {2, 2};
  // DI "1273": positions 0..3 belong to dims 0,1,0,1.
  Multiplexer di(MuxKind::kDigitInterleave);
  EXPECT_EQ(di.DimensionAtPosition(0, widths), 0);
  EXPECT_EQ(di.DimensionAtPosition(1, widths), 1);
  EXPECT_EQ(di.DimensionAtPosition(2, widths), 0);
  EXPECT_EQ(di.DimensionAtPosition(3, widths), 1);
  EXPECT_EQ(di.DimensionAtPosition(4, widths), -1);  // comma
  // VI "1723": 0,0,1,1.
  Multiplexer vi(MuxKind::kValueInterleave);
  EXPECT_EQ(vi.DimensionAtPosition(0, widths), 0);
  EXPECT_EQ(vi.DimensionAtPosition(1, widths), 0);
  EXPECT_EQ(vi.DimensionAtPosition(2, widths), 1);
  EXPECT_EQ(vi.DimensionAtPosition(3, widths), 1);
  // VC "17,23,": 0,0,comma,1,1,comma.
  Multiplexer vc(MuxKind::kValueConcat);
  EXPECT_EQ(vc.DimensionAtPosition(0, widths), 0);
  EXPECT_EQ(vc.DimensionAtPosition(1, widths), 0);
  EXPECT_EQ(vc.DimensionAtPosition(2, widths), -1);
  EXPECT_EQ(vc.DimensionAtPosition(3, widths), 1);
  EXPECT_EQ(vc.DimensionAtPosition(4, widths), 1);
  EXPECT_EQ(vc.DimensionAtPosition(5, widths), -1);
}

TEST(IsMuxSymbolsTest, Behaviour) {
  EXPECT_TRUE(IsMuxSymbols("17"));
  EXPECT_TRUE(IsMuxSymbols("abc"));
  EXPECT_TRUE(IsMuxSymbols("a1"));
  EXPECT_FALSE(IsMuxSymbols(""));
  EXPECT_FALSE(IsMuxSymbols("1,2"));
  EXPECT_FALSE(IsMuxSymbols("1 2"));
}

}  // namespace
}  // namespace multiplex
}  // namespace multicast
