// Differential test: multiplex::Multiplexer, which reads one cycle layout
// for all three schemes, against the per-scheme references in
// reference_multiplexers.h. Seeded random inputs, every truncation of
// their streams, corrupted streams and garbage must give the same
// ok/error outcome and, when ok, the same output.

#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <vector>

#include "multiplex/multiplexer.h"
#include "reference_multiplexers.h"
#include "util/random.h"

namespace multicast {
namespace multiplex {
namespace {

constexpr MuxKind kKinds[] = {MuxKind::kDigitInterleave,
                              MuxKind::kValueInterleave,
                              MuxKind::kValueConcat};

// What a model's corrupted output, or hostile input, is drawn from.
constexpr char kGarbage[] = "0123456789,abz!. ";
// Valid payload symbols: digits for raw values, letters for SAX.
constexpr char kSymbols[] = "0123456789abcdefghij";

char Pick(const char* alphabet, size_t size, Rng* rng) {
  return alphabet[rng->NextBounded(static_cast<uint32_t>(size - 1))];
}

// 1-4 dimensions of width 1-4: one shared width for DI, mixed widths
// for VI and VC.
std::vector<int> RandomWidths(MuxKind kind, Rng* rng) {
  const size_t dims = 1 + rng->NextBounded(4);
  std::vector<int> widths(dims, 1 + static_cast<int>(rng->NextBounded(4)));
  if (kind != MuxKind::kDigitInterleave) {
    for (int& w : widths) w = 1 + static_cast<int>(rng->NextBounded(4));
  }
  return widths;
}

MuxInput RandomInput(const std::vector<int>& widths, size_t n, Rng* rng) {
  MuxInput input;
  input.values.resize(widths.size());
  for (size_t d = 0; d < widths.size(); ++d) {
    for (size_t t = 0; t < n; ++t) {
      std::string value;
      for (int j = 0; j < widths[d]; ++j) {
        value.push_back(Pick(kSymbols, sizeof(kSymbols), rng));
      }
      input.values[d].push_back(std::move(value));
    }
  }
  return input;
}

// With probability 1/2, breaks one shape rule Multiplex checks.
void MaybeBreakInput(MuxInput* input, std::vector<int>* widths, Rng* rng) {
  const size_t d = rng->NextBounded(static_cast<uint32_t>(widths->size()));
  std::vector<std::string>& dim = input->values[d];
  std::string& value = dim[rng->NextBounded(static_cast<uint32_t>(dim.size()))];
  switch (rng->NextBounded(12)) {
    case 0:
      value.push_back('7');
      break;
    case 1:
      value[0] = Pick(kGarbage, sizeof(kGarbage), rng);
      break;
    case 2:
      dim.pop_back();
      break;
    case 3:
      widths->push_back(1);
      break;
    case 4:
      (*widths)[d] += 1;  // mixed widths: DI must refuse them
      for (std::string& v : dim) v.push_back('5');
      break;
    case 5:
      (*widths)[d] = 0;
      break;
    default:
      break;
  }
}

// One to three single-character edits over the garbage alphabet.
std::string Corrupt(std::string text, Rng* rng) {
  const size_t edits = 1 + rng->NextBounded(3);
  for (size_t e = 0; e < edits; ++e) {
    const size_t at =
        rng->NextBounded(static_cast<uint32_t>(text.size() + 1));
    const char c = Pick(kGarbage, sizeof(kGarbage), rng);
    switch (rng->NextBounded(3)) {
      case 0:
        if (at < text.size()) text[at] = c;
        break;
      case 1:
        text.insert(text.begin() + static_cast<std::ptrdiff_t>(at), c);
        break;
      default:
        if (at < text.size()) text.erase(at, 1);
        break;
    }
  }
  return text;
}

std::string Describe(MuxKind kind, const std::string& text,
                     const std::vector<int>& widths) {
  std::string s = std::string(MuxKindName(kind)) + " widths {";
  for (int w : widths) s += std::to_string(w) + ",";
  return s + "} text '" + text + "'";
}

void ExpectSameDemux(MuxKind kind, const std::string& text,
                     const std::vector<int>& widths) {
  const Multiplexer mux(kind);
  const auto ref = CreateReferenceMultiplexer(kind);
  for (bool partial : {false, true}) {
    Result<MuxInput> got = mux.Demultiplex(text, widths, partial);
    Result<MuxInput> want = ref->Demultiplex(text, widths, partial);
    ASSERT_EQ(got.ok(), want.ok())
        << Describe(kind, text, widths) << " partial " << partial << ": "
        << (got.ok() ? want.status() : got.status()).ToString();
    if (got.ok()) {
      EXPECT_EQ(got.value().values, want.value().values)
          << Describe(kind, text, widths) << " partial " << partial;
    }
  }
}

class MuxReferenceTest : public testing::TestWithParam<int> {
 protected:
  Rng MakeRng() const {
    return Rng(static_cast<uint64_t>(GetParam()) + 101);
  }
};

TEST_P(MuxReferenceTest, MultiplexMatchesReference) {
  Rng rng = MakeRng();
  for (MuxKind kind : kKinds) {
    const Multiplexer mux(kind);
    const auto ref = CreateReferenceMultiplexer(kind);
    for (int trial = 0; trial < 40; ++trial) {
      std::vector<int> widths = RandomWidths(kind, &rng);
      MuxInput input = RandomInput(widths, 1 + rng.NextBounded(8), &rng);
      MaybeBreakInput(&input, &widths, &rng);
      Result<std::string> got = mux.Multiplex(input, widths);
      Result<std::string> want = ref->Multiplex(input, widths);
      ASSERT_EQ(got.ok(), want.ok())
          << MuxKindName(kind) << " trial " << trial << ": "
          << (got.ok() ? want.status() : got.status()).ToString();
      if (got.ok()) {
        EXPECT_EQ(got.value(), want.value())
            << MuxKindName(kind) << " trial " << trial;
      }
    }
  }
}

TEST_P(MuxReferenceTest, DemultiplexMatchesReference) {
  Rng rng = MakeRng();
  for (MuxKind kind : kKinds) {
    const auto ref = CreateReferenceMultiplexer(kind);
    for (int trial = 0; trial < 8; ++trial) {
      const std::vector<int> widths = RandomWidths(kind, &rng);
      const MuxInput input =
          RandomInput(widths, 1 + rng.NextBounded(5), &rng);
      const std::string text = ref->Multiplex(input, widths).ValueOrDie();
      const std::string corrupted = Corrupt(text, &rng);
      // Round trip, then every truncation a token budget could cut,
      // of the clean stream and of a corrupted one.
      for (const std::string& stream : {text, corrupted}) {
        for (size_t len = 0; len <= stream.size(); ++len) {
          ExpectSameDemux(kind, stream.substr(0, len), widths);
        }
        ExpectSameDemux(kind, stream + ",", widths);
      }
      std::string garbage;
      const size_t len = rng.NextBounded(40);
      for (size_t i = 0; i < len; ++i) {
        garbage.push_back(Pick(kGarbage, sizeof(kGarbage), &rng));
      }
      ExpectSameDemux(kind, garbage, widths);
    }
  }
}

TEST_P(MuxReferenceTest, CyclePositionsMatchReference) {
  Rng rng = MakeRng();
  for (MuxKind kind : kKinds) {
    const Multiplexer mux(kind);
    const auto ref = CreateReferenceMultiplexer(kind);
    for (int trial = 0; trial < 10; ++trial) {
      const std::vector<int> widths = RandomWidths(kind, &rng);
      const size_t cycle = ref->TokensPerTimestamp(widths);
      ASSERT_EQ(mux.TokensPerTimestamp(widths), cycle)
          << Describe(kind, "", widths);
      for (size_t pos = 0; pos < cycle; ++pos) {
        EXPECT_EQ(mux.IsSeparatorPosition(pos, widths),
                  ref->IsSeparatorPosition(pos, widths))
            << Describe(kind, "", widths) << " pos " << pos;
        EXPECT_EQ(mux.DimensionAtPosition(pos, widths),
                  ref->DimensionAtPosition(pos, widths))
            << Describe(kind, "", widths) << " pos " << pos;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MuxReferenceTest, testing::Range(0, 12));

}  // namespace
}  // namespace multiplex
}  // namespace multicast
