// Measurement plumbing of the real-CPU benchmark: order statistics, the
// percentile rule, MASE, output digests, process CPU/RSS, the machine
// header and an in-memory span tracer with Chrome trace-event export.
//
// Nothing here touches the forecasting library except the result types
// it digests; every timing is std::chrono::steady_clock wall time.

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "forecast/forecaster.h"

namespace perfbench {

/// Monotonic nanoseconds.
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Interpolated median (util::InterpolatedQuantileSorted at 0.5); 0 when
/// empty.
double Median(std::vector<double> values);

/// How many of `n` samples lie strictly beyond the nearest-rank `pct`
/// percentile (util::NearestRankQuantile at pct / 100).
size_t SamplesBeyond(size_t n, double pct);

/// The highest of the percentiles 50, 90, 99 and 99.9 that leaves at
/// least ten samples beyond it out of `n`; 0 when even the median does
/// not (n < 20).
double HighestSupportedPercentile(size_t n);

/// Mean absolute scaled error of `forecast` against `truth`, scaled by
/// the in-sample mean absolute one-step naive error of `history`.
/// Returns a negative value when the inputs cannot be scored (empty,
/// mismatched lengths, or a constant history).
double Mase(const std::vector<double>& history,
            const std::vector<double>& truth,
            const std::vector<double>& forecast);

/// FNV-1a 64-bit digest over the exact bytes of what is added.
class Digest {
 public:
  void Add(uint64_t v);
  void Add(double v);
  void Add(const std::string& s);
  void AddValues(const std::vector<double>& values);
  void AddBytes(const void* data, size_t n);
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 14695981039346656037ULL;
};

/// Adds a forecast's point values, bands (levels and values) and token
/// ledger to `digest`.
void DigestForecast(const multicast::forecast::ForecastResult& result,
                    Digest* digest);

/// Wall nanoseconds of one chunk of a fixed calibration kernel: counting
/// contexts of a pseudo-random token stream in a 16 MB open-addressed
/// table plus a small softmax, the same kind of work as n-gram decoding
/// but written here, so that no change to the library changes it. Each
/// call runs kCalibrationChunkIterations iterations, continuing the
/// stream of the previous call, and every chunk does the same work. Its
/// time tracks the speed the host gives this thread at the moment. The
/// first call also allocates and fills the table, untimed; the table
/// stays resident after it: CalibrationTableMb() of RSS.
int64_t CalibrationChunkNs();
double CalibrationTableMb();
inline constexpr int kCalibrationChunkIterations = 2000;

/// CalibrationChunkNs() on the reference host: a 4-vCPU Xeon VM at
/// 2.1 GHz, gcc 12 Release build, at the fastest speed the host was seen
/// to give. The end-to-end times are scaled by the mean chunk time over a
/// pass / kReferenceChunkNs, so they read as on that host at that speed.
inline constexpr double kReferenceChunkNs = 80000.0;

/// Process CPU seconds (user + system).
double ProcessCpuSeconds();

/// Process CPU nanoseconds, all threads (CLOCK_PROCESS_CPUTIME_ID).
int64_t ProcessCpuNs();

/// Peak resident set size of the process (VmHWM).
double PeakRssMb();

/// Machine and build description printed with every result.
std::map<std::string, std::string> MachineHeader();

/// Spans recorded from the benchmark's own code around calls into the
/// library. Single-threaded (every workload runs threads = 1). Spans
/// nest through an explicit stack: a span begun while another is open
/// becomes its child, and a layer's self time is its duration minus
/// the time its direct children cover.
class Tracer {
 public:
  struct LayerTotals {
    size_t count = 0;
    int64_t total_ns = 0;
    int64_t self_ns = 0;
  };

  /// Interned layer id for `name`.
  int Layer(const std::string& name);

  /// Forgets every closed span and total; layer ids stay valid. Call
  /// with no span open.
  void ResetTotals();

  void Begin(int layer, int64_t request);
  void End();
  /// A closed span [start_ns, end_ns) that is a child of the open span.
  void Record(int layer, int64_t start_ns, int64_t end_ns, int64_t request);

  const LayerTotals& totals(int layer) const { return totals_[layer]; }
  const LayerTotals* Find(const std::string& name) const;
  size_t spans_recorded() const { return recorded_; }
  size_t spans_kept() const { return spans_.size(); }
  std::vector<std::pair<std::string, LayerTotals>> AllTotals() const;

  /// Writes the kept spans as Chrome trace-event JSON (complete "X"
  /// events, microsecond timestamps); false on I/O failure.
  bool WriteChromeTrace(const std::string& path) const;

  /// Spans kept in memory for export; later spans still count in the
  /// per-layer totals.
  static constexpr size_t kMaxKeptSpans = 50000;

 private:
  struct Span {
    int layer = 0;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int64_t parent = -1;
    int64_t request = -1;
  };
  struct Open {
    int layer = 0;
    int64_t start_ns = 0;
    int64_t child_ns = 0;
    int64_t kept = -1;
    int64_t request = -1;
  };
  void Close(const Open& open, int64_t end_ns);
  int64_t Keep(int layer, int64_t start_ns, int64_t request);

  std::map<std::string, int> ids_;
  std::vector<std::string> names_;
  std::vector<LayerTotals> totals_;
  std::vector<Open> stack_;
  std::vector<Span> spans_;
  size_t recorded_ = 0;
};

/// RAII span; a null tracer makes it a no-op.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, int layer, int64_t request) : tracer_(tracer) {
    if (tracer_ != nullptr) tracer_->Begin(layer, request);
  }
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
};

/// Minimal JSON string escaping for the result lines.
std::string JsonEscape(const std::string& s);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
