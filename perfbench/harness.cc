#include "harness.h"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <thread>

#include "util/quantile.h"

namespace perfbench {

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return multicast::util::InterpolatedQuantileSorted(values, 0.5);
}

size_t SamplesBeyond(size_t n, double pct) {
  // The rank util::NearestRankQuantileSorted picks, with its tolerance.
  if (n == 0) return 0;
  const double exact = pct * static_cast<double>(n) / 100.0;
  const size_t rank = static_cast<size_t>(std::ceil(exact - 1e-9));
  return n - std::clamp<size_t>(rank, 1, n);
}

double HighestSupportedPercentile(size_t n) {
  for (double pct : {99.9, 99.0, 90.0, 50.0}) {
    if (SamplesBeyond(n, pct) >= 10) return pct;
  }
  return 0.0;
}

double Mase(const std::vector<double>& history,
            const std::vector<double>& truth,
            const std::vector<double>& forecast) {
  if (history.size() < 2 || truth.empty() ||
      truth.size() != forecast.size()) {
    return -1.0;
  }
  double scale = 0.0;
  for (size_t t = 1; t < history.size(); ++t) {
    scale += std::fabs(history[t] - history[t - 1]);
  }
  scale /= static_cast<double>(history.size() - 1);
  if (!(scale > 0.0)) return -1.0;
  double mae = 0.0;
  for (size_t t = 0; t < truth.size(); ++t) {
    mae += std::fabs(truth[t] - forecast[t]);
  }
  mae /= static_cast<double>(truth.size());
  return mae / scale;
}

void Digest::AddBytes(const void* data, size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    h_ ^= p[i];
    h_ *= 1099511628211ULL;
  }
}

void Digest::Add(uint64_t v) { AddBytes(&v, sizeof(v)); }

void Digest::Add(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  Add(bits);
}

void Digest::Add(const std::string& s) {
  Add(static_cast<uint64_t>(s.size()));
  AddBytes(s.data(), s.size());
}

void Digest::AddValues(const std::vector<double>& values) {
  Add(static_cast<uint64_t>(values.size()));
  for (double v : values) Add(v);
}

void DigestForecast(const multicast::forecast::ForecastResult& result,
                    Digest* digest) {
  const multicast::ts::Frame& f = result.forecast;
  digest->Add(static_cast<uint64_t>(f.num_dims()));
  for (size_t d = 0; d < f.num_dims(); ++d) {
    digest->AddValues(f.dim(d).values());
  }
  digest->Add(static_cast<uint64_t>(result.quantile_bands.size()));
  for (const auto& [level, band] : result.quantile_bands) {
    digest->Add(level);
    for (size_t d = 0; d < band.num_dims(); ++d) {
      digest->AddValues(band.dim(d).values());
    }
  }
  digest->Add(static_cast<uint64_t>(result.ledger.prompt_tokens));
  digest->Add(static_cast<uint64_t>(result.ledger.generated_tokens));
  digest->Add(static_cast<uint64_t>(result.tier));
}

namespace {

// Open-addressed count table of the calibration kernel: 2^20 contexts in
// 2^21 slots. A slot holds the key + 1 in its high 32 bits (so an empty
// slot, 0, never matches) and the count in its low 32.
constexpr size_t kCalibrationSlots = size_t{1} << 21;
constexpr uint64_t kCalibrationContexts = uint64_t{1} << 20;

struct CalibrationKernel {
  std::vector<uint64_t> table;
  uint64_t x = 88172645463325252ULL;
  uint64_t context = 0;

  uint64_t& Cell(uint64_t key) {
    size_t slot = (key * 0x9e3779b97f4a7c15ULL) >> 43;
    for (;; slot = (slot + 1) & (kCalibrationSlots - 1)) {
      uint64_t& cell = table[slot];
      if (cell == 0) cell = (key + 1) << 32;
      if ((cell >> 32) == key + 1) return cell;
    }
  }

  // Allocates the table and inserts every context once, so that each
  // later lookup hits and every chunk does the same work.
  CalibrationKernel() : table(kCalibrationSlots) {
    for (uint64_t key = 0; key < kCalibrationContexts; ++key) ++Cell(key);
  }
};

// Keeps the kernel's result observable, so the compiler cannot drop it.
volatile double calibration_sink = 0.0;

CalibrationKernel& Kernel() {
  static CalibrationKernel kernel;
  return kernel;
}

}  // namespace

double CalibrationTableMb() {
  return static_cast<double>(kCalibrationSlots * sizeof(uint64_t)) /
         (1024.0 * 1024.0);
}

int64_t CalibrationChunkNs() {
  CalibrationKernel& k = Kernel();
  const int64_t t0 = NowNs();
  double acc = 0.0;
  double logits[16];
  for (int i = 0; i < kCalibrationChunkIterations; ++i) {
    k.x ^= k.x << 13;
    k.x ^= k.x >> 7;
    k.x ^= k.x << 17;
    const uint64_t token = (k.x >> 33) % 13;
    k.context = (k.context * 31 + token) & (kCalibrationContexts - 1);
    const uint64_t c = ++k.Cell(k.context) & 0xFFFFFFFFULL;
    if ((i & 7) == 0) {
      double z = 0.0;
      for (int j = 0; j < 16; ++j) {
        logits[j] = std::exp(0.01 * static_cast<double>((c + j) % 7));
        z += logits[j];
      }
      acc += logits[token] / z;
    }
  }
  const int64_t ns = NowNs() - t0;
  calibration_sink = acc;
  return ns;
}

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

int64_t ProcessCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0.0;
}

std::map<std::string, std::string> MachineHeader() {
  std::map<std::string, std::string> header;
  header["nproc"] = std::to_string(std::thread::hardware_concurrency());
  std::string model = "unknown";
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) == 0) {
      size_t colon = line.find(':');
      if (colon != std::string::npos) model = line.substr(colon + 2);
      break;
    }
  }
  header["cpu_model"] = model;
#if defined(__clang__)
  header["compiler"] = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  header["compiler"] = std::string("gcc ") + __VERSION__;
#else
  header["compiler"] = "unknown";
#endif
#ifdef PERFBENCH_BUILD_TYPE
  header["build_type"] = PERFBENCH_BUILD_TYPE;
#else
  header["build_type"] = "unknown";
#endif
  std::ifstream loadavg("/proc/loadavg");
  std::string one, five, fifteen;
  loadavg >> one >> five >> fifteen;
  header["loadavg_start"] = one + " " + five + " " + fifteen;
  return header;
}

int Tracer::Layer(const std::string& name) {
  auto it = ids_.find(name);
  if (it != ids_.end()) return it->second;
  const int id = static_cast<int>(names_.size());
  ids_.emplace(name, id);
  names_.push_back(name);
  totals_.emplace_back();
  return id;
}

void Tracer::ResetTotals() {
  totals_.assign(totals_.size(), LayerTotals{});
  spans_.clear();
  recorded_ = 0;
}

int64_t Tracer::Keep(int layer, int64_t start_ns, int64_t request) {
  ++recorded_;
  if (spans_.size() >= kMaxKeptSpans) return -1;
  Span span;
  span.layer = layer;
  span.start_ns = start_ns;
  span.end_ns = start_ns;
  span.parent = stack_.empty() ? -1 : stack_.back().kept;
  span.request = request;
  spans_.push_back(span);
  return static_cast<int64_t>(spans_.size()) - 1;
}

void Tracer::Begin(int layer, int64_t request) {
  Open open;
  open.layer = layer;
  open.request = request;
  open.start_ns = NowNs();
  open.kept = Keep(layer, open.start_ns, request);
  stack_.push_back(open);
}

void Tracer::Close(const Open& open, int64_t end_ns) {
  const int64_t duration = end_ns - open.start_ns;
  LayerTotals& totals = totals_[open.layer];
  ++totals.count;
  totals.total_ns += duration;
  totals.self_ns += duration - open.child_ns;
  if (open.kept >= 0) spans_[open.kept].end_ns = end_ns;
  if (!stack_.empty()) stack_.back().child_ns += duration;
}

void Tracer::End() {
  const int64_t end_ns = NowNs();
  Open open = stack_.back();
  stack_.pop_back();
  Close(open, end_ns);
}

void Tracer::Record(int layer, int64_t start_ns, int64_t end_ns,
                    int64_t request) {
  Open open;
  open.layer = layer;
  open.request = request;
  open.start_ns = start_ns;
  open.kept = Keep(layer, start_ns, request);
  Close(open, end_ns);
}

const Tracer::LayerTotals* Tracer::Find(const std::string& name) const {
  auto it = ids_.find(name);
  return it == ids_.end() ? nullptr : &totals_[it->second];
}

std::vector<std::pair<std::string, Tracer::LayerTotals>> Tracer::AllTotals()
    const {
  std::vector<std::pair<std::string, LayerTotals>> out;
  for (size_t i = 0; i < names_.size(); ++i) {
    out.emplace_back(names_[i], totals_[i]);
  }
  return out;
}

bool Tracer::WriteChromeTrace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"name\": \"%s\", \"cat\": \"perfbench\", \"ph\": \"X\", "
                 "\"pid\": 1, \"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, "
                 "\"args\": {\"id\": %zu, \"parent\": %lld, \"request\": "
                 "%lld}}%s\n",
                 JsonEscape(names_[s.layer]).c_str(),
                 static_cast<double>(s.start_ns - origin) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3, i,
                 static_cast<long long>(s.parent),
                 static_cast<long long>(s.request),
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out.push_back(c);
    }
  }
  return out;
}

}  // namespace perfbench
