// Property-based tests: randomized sweeps over the library's core
// invariants. Each property runs across many seeded random inputs via
// parameterized gtest.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "forecast/multicast_forecaster.h"
#include "multiplex/multiplexer.h"
#include "sax/sax.h"
#include "scale/scaler.h"
#include "token/codec.h"
#include "ts/stats.h"
#include "ts/transforms.h"
#include "util/csv.h"
#include "util/flags.h"
#include "util/random.h"

namespace multicast {
namespace {

class SeededProperty : public testing::TestWithParam<int> {
 protected:
  Rng MakeRng() const { return Rng(static_cast<uint64_t>(GetParam()) + 1); }
};

// ---- Multiplexing: Demultiplex(Multiplex(x)) == x for random inputs. ----

TEST_P(SeededProperty, MuxRoundTripRandomInputs) {
  Rng rng = MakeRng();
  for (auto kind : {multiplex::MuxKind::kDigitInterleave,
                    multiplex::MuxKind::kValueInterleave,
                    multiplex::MuxKind::kValueConcat}) {
    auto mux = multiplex::CreateMultiplexer(kind);
    size_t dims = 1 + rng.NextBounded(4);
    size_t n = 1 + rng.NextBounded(40);
    int width = 1 + static_cast<int>(rng.NextBounded(4));
    multiplex::MuxInput input;
    input.values.resize(dims);
    std::vector<int> widths(dims, width);
    for (size_t d = 0; d < dims; ++d) {
      for (size_t t = 0; t < n; ++t) {
        int64_t limit = 1;
        for (int k = 0; k < width; ++k) limit *= 10;
        int64_t v = rng.NextBounded(static_cast<uint32_t>(limit));
        input.values[d].push_back(
            token::FixedWidthDigits(v, width).ValueOrDie());
      }
    }
    auto text = mux->Multiplex(input, widths);
    ASSERT_TRUE(text.ok()) << mux->name();
    auto back = mux->Demultiplex(text.value(), widths, false);
    ASSERT_TRUE(back.ok()) << mux->name();
    EXPECT_EQ(back.value().values, input.values) << mux->name();
  }
}

// ---- Multiplexing: stream length matches the token ledger formula. ----

TEST_P(SeededProperty, MuxStreamLengthMatchesTokenFormula) {
  Rng rng = MakeRng();
  for (auto kind : {multiplex::MuxKind::kDigitInterleave,
                    multiplex::MuxKind::kValueInterleave,
                    multiplex::MuxKind::kValueConcat}) {
    auto mux = multiplex::CreateMultiplexer(kind);
    size_t dims = 1 + rng.NextBounded(3);
    size_t n = 1 + rng.NextBounded(20);
    std::vector<int> widths(dims, 2);
    multiplex::MuxInput input;
    input.values.resize(dims);
    for (size_t d = 0; d < dims; ++d) {
      for (size_t t = 0; t < n; ++t) {
        input.values[d].push_back(
            token::FixedWidthDigits(rng.NextBounded(100), 2).ValueOrDie());
      }
    }
    auto text = mux->Multiplex(input, widths).ValueOrDie();
    // n timestamps at TokensPerTimestamp each, minus the final comma
    // that Multiplex leaves off.
    EXPECT_EQ(text.size() + 1, n * mux->TokensPerTimestamp(widths))
        << mux->name();
  }
}

// ---- Scaling: round-trip error bounded, scaled range respected. ----

TEST_P(SeededProperty, ScalerRoundTripBounded) {
  Rng rng = MakeRng();
  size_t n = 16 + rng.NextBounded(100);
  double offset = rng.NextUniform(-100.0, 100.0);
  double span = rng.NextUniform(0.1, 50.0);
  std::vector<double> v;
  for (size_t i = 0; i < n; ++i) {
    v.push_back(offset + rng.NextDouble() * span);
  }
  ts::Series s(v, "r");
  scale::ScalerOptions opts;
  opts.digits = 2 + static_cast<int>(rng.NextBounded(3));
  auto params = scale::FitScaler(s, opts);
  ASSERT_TRUE(params.ok());
  auto scaled = scale::ScaleValues(v, params.value());
  for (int64_t x : scaled) {
    EXPECT_GE(x, 0);
    EXPECT_LE(x, params.value().MaxValue());
  }
  auto back = scale::DescaleValues(scaled, params.value());
  double bound = scale::MaxRoundTripError(params.value());
  for (size_t i = 0; i < n; ++i) {
    // Values above the fitted percentile may clip; only check the bulk.
    if (v[i] <= ts::Quantile(v, opts.upper_percentile)) {
      EXPECT_LE(std::fabs(back[i] - v[i]), bound + 1e-9);
    }
  }
}

// ---- SAX: encode/decode stays within the quantization error bound. ----

TEST_P(SeededProperty, SaxReconstructionBoundedByBinWidth) {
  Rng rng = MakeRng();
  size_t n = 60 + rng.NextBounded(120);
  std::vector<double> v;
  double level = rng.NextUniform(-10.0, 10.0);
  for (size_t i = 0; i < n; ++i) {
    level += rng.NextGaussian(0.0, 0.3);
    v.push_back(level);
  }
  ts::Series s(v, "walk");
  sax::SaxOptions opts;
  opts.segment_length = 1;  // isolate the y-axis quantization error
  opts.alphabet_size = 5 + static_cast<int>(rng.NextBounded(10));
  auto codec = sax::SaxCodec::Fit(s, opts);
  ASSERT_TRUE(codec.ok());
  auto word = codec.value().Encode(v).ValueOrDie();
  auto back = codec.value().Decode(word, n).ValueOrDie();
  // Interior bins: reconstruction is within one bin width. Tail bins are
  // unbounded, so allow 4 sigma there.
  ts::Summary sum = ts::Summarize(v);
  auto breaks = codec.value().breakpoints();
  double max_gap = 0.0;
  for (size_t i = 1; i < breaks.size(); ++i) {
    max_gap = std::max(max_gap, breaks[i] - breaks[i - 1]);
  }
  for (size_t i = 0; i < n; ++i) {
    double z = (v[i] - sum.mean) / (sum.stddev > 1e-12 ? sum.stddev : 1.0);
    double zr = (back[i] - sum.mean) /
                (sum.stddev > 1e-12 ? sum.stddev : 1.0);
    if (z > breaks.front() && z < breaks.back()) {
      EXPECT_LE(std::fabs(zr - z), max_gap + 1e-9);
    } else {
      EXPECT_LE(std::fabs(zr - z), 4.0);
    }
  }
}

// ---- SAX: encoding is monotone in the value. ----

TEST_P(SeededProperty, SaxEncodingMonotone) {
  Rng rng = MakeRng();
  std::vector<double> train;
  for (int i = 0; i < 100; ++i) train.push_back(rng.NextGaussian(0.0, 2.0));
  sax::SaxOptions opts;
  opts.segment_length = 1;
  opts.alphabet_size = 4 + static_cast<int>(rng.NextBounded(8));
  auto codec = sax::SaxCodec::Fit(ts::Series(train, "t"), opts);
  ASSERT_TRUE(codec.ok());
  double a = rng.NextGaussian(0.0, 2.0);
  double b = a + rng.NextDouble() * 3.0;
  char sym_a = codec.value().Encode({a}).ValueOrDie()[0];
  char sym_b = codec.value().Encode({b}).ValueOrDie()[0];
  EXPECT_LE(sym_a, sym_b);
}

// ---- Differencing: Undifference(Difference(x)) == x. ----

TEST_P(SeededProperty, DifferencingRoundTrip) {
  Rng rng = MakeRng();
  size_t n = 10 + rng.NextBounded(50);
  int d = static_cast<int>(rng.NextBounded(3));
  std::vector<double> v;
  for (size_t i = 0; i < n; ++i) v.push_back(rng.NextGaussian(0.0, 5.0));
  std::vector<double> heads;
  auto diffed = ts::DifferenceWithHeads(v, d, &heads);
  ASSERT_TRUE(diffed.ok());
  auto back = ts::Undifference(diffed.value(), heads);
  ASSERT_TRUE(back.ok());
  ASSERT_EQ(back.value().size(), v.size());
  for (size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(back.value()[i], v[i], 1e-8);
  }
}

// ---- Fixed-width digit strings: parse inverts format. ----

TEST_P(SeededProperty, FixedWidthRoundTrip) {
  Rng rng = MakeRng();
  int digits = 1 + static_cast<int>(rng.NextBounded(8));
  int64_t limit = 1;
  for (int i = 0; i < digits; ++i) limit *= 10;
  int64_t v = rng.NextBounded(static_cast<uint32_t>(
      std::min<int64_t>(limit, 4000000000LL)));
  if (v >= limit) v = limit - 1;
  auto s = token::FixedWidthDigits(v, digits);
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(static_cast<int>(s.value().size()), digits);
  EXPECT_EQ(token::ParseFixedWidthDigits(s.value()).ValueOrDie(), v);
}

// ---- Demux fuzzing: arbitrary garbage never crashes, and either ----
// ---- errors cleanly or yields only well-formed timestamps.       ----

TEST_P(SeededProperty, DemuxSurvivesGarbage) {
  Rng rng = MakeRng();
  const char kAlphabet[] = "0123456789,abz!. ";
  for (auto kind : {multiplex::MuxKind::kDigitInterleave,
                    multiplex::MuxKind::kValueInterleave,
                    multiplex::MuxKind::kValueConcat}) {
    auto mux = multiplex::CreateMultiplexer(kind);
    for (int trial = 0; trial < 20; ++trial) {
      size_t len = rng.NextBounded(60);
      std::string garbage;
      for (size_t i = 0; i < len; ++i) {
        garbage.push_back(
            kAlphabet[rng.NextBounded(sizeof(kAlphabet) - 1)]);
      }
      std::vector<int> widths(1 + rng.NextBounded(3),
                              1 + static_cast<int>(rng.NextBounded(3)));
      for (bool partial : {false, true}) {
        auto result = mux->Demultiplex(garbage, widths, partial);
        if (!result.ok()) continue;  // clean rejection is fine
        // Any accepted output must be rectangular with exact widths.
        const auto& values = result.value().values;
        ASSERT_EQ(values.size(), widths.size());
        size_t n = values[0].size();
        for (size_t d = 0; d < values.size(); ++d) {
          ASSERT_EQ(values[d].size(), n);
          for (const auto& v : values[d]) {
            EXPECT_EQ(static_cast<int>(v.size()), widths[d]);
          }
        }
      }
    }
  }
}

// ---- Token decode fuzzing: ids a model or a caller hands back,   ----
// ---- negative or past the vocabulary among them, either fail      ----
// ---- cleanly or decode to one vocabulary symbol per id.           ----

TEST_P(SeededProperty, TokenDecodeSurvivesGarbage) {
  Rng rng = MakeRng();
  std::vector<token::Vocabulary> vocabs = {token::Vocabulary::Digits()};
  vocabs.push_back(token::Vocabulary::SaxAlphabetic(
                       1 + static_cast<int>(rng.NextBounded(26)))
                       .ValueOrDie());
  vocabs.push_back(token::Vocabulary::SaxDigital(
                       1 + static_cast<int>(rng.NextBounded(10)))
                       .ValueOrDie());
  const std::vector<token::TokenId> extremes = {
      -1, std::numeric_limits<token::TokenId>::min(),
      std::numeric_limits<token::TokenId>::max()};
  for (const token::Vocabulary& vocab : vocabs) {
    const auto size = static_cast<token::TokenId>(vocab.size());
    for (int trial = 0; trial < 20; ++trial) {
      std::vector<token::TokenId> ids(rng.NextBounded(40));
      bool bad = false;
      for (token::TokenId& id : ids) {
        switch (rng.NextBounded(4)) {
          case 0:
            id = size + static_cast<token::TokenId>(rng.NextBounded(1000));
            break;
          case 1:
            id = extremes[rng.NextBounded(3)];
            break;
          default:
            id = static_cast<token::TokenId>(
                rng.NextBounded(static_cast<uint32_t>(size)));
            break;
        }
        bad = bad || id < 0 || id >= size;
      }
      Result<std::string> text = token::Decode(ids, vocab);
      if (bad) {
        ASSERT_FALSE(text.ok());
        EXPECT_EQ(text.status().code(), StatusCode::kInvalidArgument);
        continue;
      }
      ASSERT_TRUE(text.ok()) << text.status().ToString();
      ASSERT_EQ(text.value().size(), ids.size());
      for (size_t i = 0; i < ids.size(); ++i) {
        EXPECT_EQ(text.value()[i],
                  vocab.symbols()[static_cast<size_t>(ids[i])]);
      }
    }
  }
}

// ---- SAX decode fuzzing: words in and out of the alphabet, at any ----
// ---- requested length, either fail cleanly or give exactly        ----
// ---- `out_length` finite values.                                  ----

TEST_P(SeededProperty, SaxDecodeSurvivesGarbage) {
  Rng rng = MakeRng();
  std::vector<double> train(50);
  for (double& v : train) v = rng.NextGaussian(3.0, 2.0);
  const char kAlphabet[] = "abcdefghijklmnopqrstuvwxyz0123456789,!A ";
  for (auto kind : {sax::SymbolKind::kAlphabetic, sax::SymbolKind::kDigital}) {
    sax::SaxOptions options;
    options.symbols = kind;
    options.alphabet_size =
        2 + static_cast<int>(rng.NextBounded(
                kind == sax::SymbolKind::kDigital ? 9 : 25));
    options.segment_length = 1 + static_cast<int>(rng.NextBounded(4));
    auto codec = sax::SaxCodec::Fit(ts::Series(train), options);
    ASSERT_TRUE(codec.ok()) << codec.status().ToString();
    int decoded = 0;
    for (int trial = 0; trial < 20; ++trial) {
      // Mostly symbols of the codec's own alphabet, so that some words
      // decode; one in ten from anywhere.
      std::string word;
      const size_t len = rng.NextBounded(30);
      for (size_t i = 0; i < len; ++i) {
        word.push_back(
            rng.NextBounded(10) == 0
                ? kAlphabet[rng.NextBounded(sizeof(kAlphabet) - 1)]
                : codec.value()
                      .SymbolForBin(static_cast<int>(rng.NextBounded(
                          static_cast<uint32_t>(options.alphabet_size))))
                      .ValueOrDie());
      }
      const size_t out_length =
          rng.NextBounded(2) == 0 ? 0 : rng.NextBounded(100);
      Result<std::vector<double>> values =
          codec.value().Decode(word, out_length);
      if (!values.ok()) continue;  // clean rejection is fine
      ++decoded;
      ASSERT_EQ(values.value().size(), out_length) << word;
      for (double v : values.value()) EXPECT_TRUE(std::isfinite(v)) << word;
    }
    EXPECT_GT(decoded, 0);
  }
}

// ---- Flag fuzzing: arbitrary argument lists never crash; Parse     ----
// ---- either errors cleanly or yields flags every getter reads, and ----
// ---- a bool flag's inline value is only ever true or false.        ----

TEST_P(SeededProperty, FlagsSurviveGarbage) {
  Rng rng = MakeRng();
  const std::set<std::string> known = {"input", "horizon", "rate", "plot",
                                       "batch"};
  const std::set<std::string> bools = {"plot", "batch"};
  const std::vector<std::string> names = {"input", "horizon", "rate", "plot",
                                          "batch", "bogus", ""};
  const std::vector<std::string> values = {
      "true", "false", "yes", "1",    "-3", "2.5", "1e999", "nan",
      "0x1f", " 4",    "abc", "--",   "=",  "",    "9223372036854775808"};
  auto any = [&rng](const std::vector<std::string>& from) {
    return from[rng.NextBounded(static_cast<uint32_t>(from.size()))];
  };
  for (int trial = 0; trial < 60; ++trial) {
    // Positionals, bare flags and inline-valued flags, mixed.
    std::vector<std::string> args(rng.NextBounded(6));
    for (std::string& arg : args) {
      const uint32_t shape = rng.NextBounded(3);
      if (shape == 0) {
        arg = any(values);
        continue;
      }
      arg = "--";
      arg += any(names);
      if (shape == 2) {
        arg += "=";
        arg += any(values);
      }
    }
    // Scan as Parse does (a value flag without '=' consumes the next
    // argument) for a bool flag given an inline value it must refuse.
    bool bad_inline_bool = false;
    for (size_t i = 0; i < args.size(); ++i) {
      if (args[i].rfind("--", 0) != 0) continue;
      const size_t eq = args[i].find('=');
      if (eq == std::string::npos) {
        const std::string name = args[i].substr(2);
        if (known.count(name) != 0 && bools.count(name) == 0) ++i;
        continue;
      }
      const std::string value = args[i].substr(eq + 1);
      if (bools.count(args[i].substr(2, eq - 2)) != 0 && value != "true" &&
          value != "false") {
        bad_inline_bool = true;
      }
    }
    Result<FlagSet> parsed = FlagSet::Parse(args, known, bools);
    if (bad_inline_bool) {
      EXPECT_FALSE(parsed.ok()) << "trial " << trial;
    }
    if (!parsed.ok()) {
      EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
      continue;
    }
    const FlagSet& flags = parsed.value();
    for (const std::string& name : known) {
      if (bools.count(name) != 0) {
        const std::string v = flags.GetString(name, "false");
        EXPECT_TRUE(v == "true" || v == "false") << name << "=" << v;
        EXPECT_EQ(flags.GetBool(name), v == "true") << name;
        continue;
      }
      Result<int64_t> i = flags.GetInt(name, 7);
      if (!flags.Has(name)) {
        EXPECT_EQ(i.ValueOrDie(), 7);
      } else if (!i.ok()) {
        EXPECT_NE(i.status().message().find("--" + name), std::string::npos);
      }
      Result<double> d = flags.GetDouble(name, 0.5);
      if (d.ok()) {
        EXPECT_TRUE(std::isfinite(d.value())) << name;
      } else {
        EXPECT_NE(d.status().message().find("--" + name), std::string::npos);
      }
    }
  }
}

// ---- CSV fuzzing: garbage and corrupted tables never crash, and   ----
// ---- ParseCsv either errors cleanly or returns a rectangular,     ----
// ---- named, finite table.                                         ----

TEST_P(SeededProperty, CsvSurvivesGarbage) {
  Rng rng = MakeRng();
  const char kAlphabet[] = "0123456789,.-+eE \n\r\tabnaif";
  auto pick = [&rng, &kAlphabet] {
    return kAlphabet[rng.NextBounded(sizeof(kAlphabet) - 1)];
  };
  for (int trial = 0; trial < 40; ++trial) {
    std::string text;
    if (trial % 2 == 0) {
      const size_t len = rng.NextBounded(80);
      for (size_t i = 0; i < len; ++i) text.push_back(pick());
    } else {
      // A well-formed table, then one to three character edits.
      const size_t cols = 1 + rng.NextBounded(3);
      const size_t rows = 1 + rng.NextBounded(4);
      if (rng.NextBounded(2) == 0) {
        for (size_t c = 0; c < cols; ++c) text += c > 0 ? ",x" : "x";
        text += "\n";
      }
      for (size_t r = 0; r < rows; ++r) {
        for (size_t c = 0; c < cols; ++c) {
          if (c > 0) text += ",";
          text += std::to_string(rng.NextGaussian(0.0, 100.0));
        }
        text += "\n";
      }
      const size_t edits = 1 + rng.NextBounded(3);
      for (size_t e = 0; e < edits; ++e) {
        const size_t at =
            rng.NextBounded(static_cast<uint32_t>(text.size()));
        text[at] = pick();
      }
    }
    Result<CsvTable> parsed = ParseCsv(text);
    if (!parsed.ok()) {
      EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
      continue;
    }
    const CsvTable& table = parsed.value();
    ASSERT_GE(table.num_cols(), 1u);
    ASSERT_GE(table.num_rows(), 1u);
    EXPECT_EQ(table.column_names.size(), table.num_cols());
    for (const std::vector<double>& column : table.columns) {
      ASSERT_EQ(column.size(), table.num_rows());
      for (double v : column) EXPECT_TRUE(std::isfinite(v)) << text;
    }
  }
}

// ---- Forecast invariance: the pipeline commutes with affine maps  ----
// ---- of the input (the scaler normalizes them away).              ----

TEST_P(SeededProperty, MultiCastInvariantToAffineRescaling) {
  Rng rng = MakeRng();
  size_t n = 48;
  std::vector<double> base(n);
  for (size_t i = 0; i < n; ++i) {
    base[i] = std::sin(static_cast<double>(i) * 0.5) * 3.0 +
              rng.NextGaussian(0.0, 0.1);
  }
  double scale_factor = rng.NextUniform(0.5, 20.0);
  double offset = rng.NextUniform(-100.0, 100.0);
  std::vector<double> mapped(n);
  for (size_t i = 0; i < n; ++i) mapped[i] = base[i] * scale_factor + offset;

  forecast::MultiCastOptions opts;
  opts.num_samples = 2;
  opts.seed = 7;
  forecast::MultiCastForecaster f1(opts), f2(opts);
  ts::Frame frame1 =
      ts::Frame::FromSeries({ts::Series(base, "x")}, "f").ValueOrDie();
  ts::Frame frame2 =
      ts::Frame::FromSeries({ts::Series(mapped, "x")}, "f").ValueOrDie();
  auto r1 = f1.Forecast(frame1, 6).ValueOrDie();
  auto r2 = f2.Forecast(frame2, 6).ValueOrDie();
  // Identical scaled-integer streams -> identical token sequences ->
  // forecasts related by the same affine map (up to rounding of the
  // percentile fit, which is itself affine-equivariant).
  for (size_t t = 0; t < 6; ++t) {
    double mapped_back =
        (r2.forecast.at(0, t) - offset) / scale_factor;
    EXPECT_NEAR(mapped_back, r1.forecast.at(0, t), 0.15)
        << "scale=" << scale_factor << " offset=" << offset;
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, SeededProperty, testing::Range(0, 24));

}  // namespace
}  // namespace multicast
