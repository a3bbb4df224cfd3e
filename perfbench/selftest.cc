// Self-tests of the benchmark harness: the percentile rule, MASE on a
// hand-computed case, generator determinism, digest stability and span
// self time. Runs every check and exits nonzero if any failed.
//
//   .bench_build/perfbench/perfbench_selftest

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "forecast/multicast_forecaster.h"
#include "harness.h"
#include "util/quantile.h"
#include "workloads.h"

namespace perfbench {
namespace {

int failures = 0;

void Expect(bool ok, const std::string& what) {
  if (!ok) {
    std::fprintf(stderr, "selftest FAILED: %s\n", what.c_str());
    ++failures;
  }
}

void PercentileRule() {
  Expect(SamplesBeyond(1000, 99.0) == 10, "1000 samples leave 10 beyond p99");
  Expect(SamplesBeyond(999, 99.0) == 9, "999 samples leave 9 beyond p99");
  Expect(HighestSupportedPercentile(1000) == 99.0, "p99 supported at 1000");
  Expect(HighestSupportedPercentile(999) == 90.0, "p90 is the limit at 999");
  Expect(HighestSupportedPercentile(10000) == 99.9, "p99.9 at 10000");
  Expect(HighestSupportedPercentile(20) == 50.0, "p50 at 20");
  Expect(HighestSupportedPercentile(19) == 0.0, "nothing at 19");
  std::vector<double> ramp;
  for (int i = 100; i >= 1; --i) ramp.push_back(i);
  Expect(multicast::util::NearestRankQuantile(ramp, 0.50) == 50.0,
         "nearest-rank median of 1..100");
  Expect(multicast::util::NearestRankQuantile(ramp, 0.99) == 99.0,
         "nearest-rank p99 of 1..100");
  Expect(Median({3.0, 1.0, 2.0, 10.0}) == 2.5, "even-count median");
}

void MaseByHand() {
  // Naive one-step errors of the history: 1, 2, 3 -> scale 2. Forecast
  // errors 1 and 3 -> MAE 2 -> MASE 1.
  Expect(Mase({1, 2, 4, 7}, {8, 10}, {9, 7}) == 1.0, "MASE hand case = 1");
  Expect(std::fabs(Mase({0, 2, 0, 2}, {1, 1, 1}, {1.5, 0.5, 1}) - 1.0 / 6.0) <
             1e-15,
         "MASE hand case = 1/6");
  Expect(Mase({5, 5, 5}, {5}, {6}) < 0.0, "constant history is unscorable");
  Expect(Mase({1, 2}, {1, 2}, {1}) < 0.0, "length mismatch is unscorable");
}

void GeneratorDeterminism() {
  auto a = GenerateDailyCorpus(11, 30, 100, 1000, 14);
  auto b = GenerateDailyCorpus(11, 30, 100, 1000, 14);
  auto c = GenerateDailyCorpus(12, 30, 100, 1000, 14);
  bool same = a.size() == b.size(), differs = false, shaped = true;
  for (size_t i = 0; i < a.size(); ++i) {
    same = same && a[i].history == b[i].history && a[i].truth == b[i].truth;
    differs = differs || a[i].history != c[i].history;
    shaped = shaped && a[i].history.size() >= 100 &&
             a[i].history.size() <= 1000 && a[i].truth.size() == 14;
    for (double v : a[i].history) shaped = shaped && v > 0.0;
  }
  Expect(same, "same seed gives the same corpus");
  Expect(differs, "another seed gives another corpus");
  Expect(shaped, "lengths, horizon and positivity of the corpus");
  Expect(MixSeed(1, 2) == MixSeed(1, 2) && MixSeed(1, 2) != MixSeed(1, 3),
         "seed mixing is a function of both arguments");
}

uint64_t ForecastDigest(double nudge) {
  multicast::forecast::MultiCastOptions o;
  o.num_samples = 3;
  o.quantiles = {0.1, 0.9};
  std::vector<double> x, y;
  for (int t = 0; t < 60; ++t) {
    x.push_back(std::sin(t * 0.3) + (t == 59 ? nudge : 0.0));
    y.push_back(std::cos(t * 0.2));
  }
  auto frame = multicast::ts::Frame::FromSeries(
      {multicast::ts::Series(x, "x"), multicast::ts::Series(y, "y")});
  multicast::forecast::MultiCastForecaster forecaster(o);
  auto result = forecaster.Forecast(frame.value(), 6);
  Digest digest;
  if (result.ok()) DigestForecast(result.value(), &digest);
  return result.ok() ? digest.value() : 0;
}

void DigestStability() {
  // FNV-1a 64 reference vectors.
  Digest a, foobar;
  a.AddBytes("a", 1);
  foobar.AddBytes("foobar", 6);
  Expect(a.value() == 0xaf63dc4c8601ec8cULL, "FNV-1a of \"a\"");
  Expect(foobar.value() == 0x85944171f73967e8ULL, "FNV-1a of \"foobar\"");
  Digest zero, negative_zero;
  zero.Add(0.0);
  negative_zero.Add(-0.0);
  Expect(zero.value() != negative_zero.value(), "digests see every bit");
  const uint64_t first = ForecastDigest(0.0);
  Expect(first != 0, "the probe forecast succeeds");
  Expect(first == ForecastDigest(0.0), "same forecast, same digest");
  Expect(first != ForecastDigest(0.5), "changed input, changed digest");
}

void SpanSelfTime() {
  Tracer tracer;
  const int parent = tracer.Layer("parent");
  const int child = tracer.Layer("child");
  tracer.Begin(parent, 1);
  const int64_t now = NowNs();
  tracer.Record(child, now, now + 1000, 1);
  tracer.Record(child, now, now + 500, 1);
  tracer.End();
  const auto& p = tracer.totals(parent);
  const auto& c = tracer.totals(child);
  Expect(c.count == 2 && c.total_ns == 1500 && c.self_ns == 1500,
         "child totals");
  Expect(p.count == 1 && p.self_ns == p.total_ns - 1500,
         "parent self time excludes its children");
  Expect(tracer.spans_kept() == 3, "every span kept");
}

}  // namespace
}  // namespace perfbench

int main() {
  perfbench::PercentileRule();
  perfbench::MaseByHand();
  perfbench::GeneratorDeterminism();
  perfbench::DigestStability();
  perfbench::SpanSelfTime();
  if (perfbench::failures > 0) return 1;
  std::printf("perfbench selftest: ok\n");
  return 0;
}
