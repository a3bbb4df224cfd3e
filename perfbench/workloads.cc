#include "workloads.h"

#include <cmath>
#include <utility>

#include "cluster/replica_set.h"
#include "data/datasets.h"
#include "forecast/classical.h"
#include "forecast/llmtime_forecaster.h"
#include "forecast/multicast_forecaster.h"
#include "serve/executor.h"
#include "serve/trace.h"

namespace perfbench {

namespace mc = multicast;
using mc::forecast::ForecastResult;
using mc::forecast::Forecaster;
using mc::forecast::MultiCastOptions;

uint64_t MixSeed(uint64_t seed, uint64_t salt) {
  uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::vector<DailySeries> GenerateDailyCorpus(uint64_t seed, size_t count,
                                             size_t min_length,
                                             size_t max_length,
                                             size_t horizon) {
  mc::Rng rng(seed, 17);
  std::vector<DailySeries> corpus(count);
  for (DailySeries& series : corpus) {
    const size_t length =
        min_length +
        rng.NextBounded(static_cast<uint32_t>(max_length - min_length + 1));
    const double level =
        std::exp(rng.NextUniform(std::log(200.0), std::log(20000.0)));
    const double drift = rng.NextGaussian(0.0, 0.001) * level;
    const double noise = rng.NextUniform(0.005, 0.03) * level;
    const double weekly =
        rng.NextDouble() < 0.5 ? rng.NextUniform(0.0, 0.06) * level : 0.0;
    const double phase = rng.NextUniform(0.0, 7.0);
    const double floor = 0.05 * level;
    double x = level;
    for (size_t t = 0; t < length + horizon; ++t) {
      x += drift + noise * rng.NextGaussian();
      if (x < floor) x = 2.0 * floor - x;  // reflect: counts stay positive
      const double y =
          x + weekly * std::sin(2.0 * M_PI * (static_cast<double>(t) + phase) /
                                7.0);
      (t < length ? series.history : series.truth).push_back(y);
    }
  }
  return corpus;
}

namespace {

// Table II defaults: b = 2 digits, n = 5 samples, llama2-7b-sim.
MultiCastOptions TableTwo(mc::multiplex::MuxKind mux) {
  MultiCastOptions o;
  o.mux = mux;
  o.digits = 2;
  o.num_samples = 5;
  o.profile = mc::lm::ModelProfile::Llama2_7B();
  return o;
}

// One held-out evaluation input.
struct Input {
  mc::ts::Frame history;
  std::vector<std::vector<double>> truth;  // [dim][t]
};

Input SplitTail(const mc::ts::Frame& frame, size_t origin, size_t horizon) {
  Input input;
  input.history = frame.Head(origin);
  for (size_t d = 0; d < frame.num_dims(); ++d) {
    const std::vector<double>& v = frame.dim(d).values();
    input.truth.emplace_back(v.begin() + origin, v.begin() + origin + horizon);
  }
  return input;
}

// Mean over dimensions of the per-dimension MASE; negative when no
// dimension can be scored.
double FrameMase(const Input& input, const mc::ts::Frame& forecast) {
  double sum = 0.0;
  size_t n = 0;
  for (size_t d = 0; d < forecast.num_dims(); ++d) {
    const double m = Mase(input.history.dim(d).values(), input.truth[d],
                          forecast.dim(d).values());
    if (m >= 0.0) {
      sum += m;
      ++n;
    }
  }
  return n > 0 ? sum / static_cast<double>(n) : -1.0;
}

mc::ts::Frame LoadOrDie(const std::string& name, uint64_t seed) {
  mc::Result<mc::ts::Frame> frame = mc::data::LoadDataset(name, seed);
  if (!frame.ok()) {
    std::fprintf(stderr, "dataset %s: %s\n", name.c_str(),
                 frame.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(frame).value();
}

void AddCacheStats(const mc::lm::PrefixCacheStats& s,
                   std::map<std::string, double>* out) {
  (*out)["prefix_cache.hit_rate"] =
      s.lookups > 0 ? static_cast<double>(s.hits()) /
                          static_cast<double>(s.lookups)
                    : 0.0;
  (*out)["prefix_cache.replayed_tokens"] =
      static_cast<double>(s.prompt_tokens_replayed);
  (*out)["prefix_cache.misses"] = static_cast<double>(s.misses);
}

// Mean microseconds of `n` timed calls summing to `ns`; 0 when none.
double MeanUs(int64_t ns, size_t n) {
  return n > 0 ? static_cast<double>(ns) / 1e3 / static_cast<double>(n) : 0.0;
}

// Same forecast, bands and ledger (the tier tag may differ: serving
// factories stamp it on the result).
bool SameOutput(const ForecastResult& a, const ForecastResult& b) {
  Digest da, db;
  ForecastResult a2 = a, b2 = b;
  a2.tier = b2.tier = mc::forecast::ForecastTier::kLlmFull;
  DigestForecast(a2, &da);
  DigestForecast(b2, &db);
  return da.value() == db.value();
}

// ---------------------------------------------------------------------------
// tables and many-series: forecasts issued one after another.

struct Pipeline {
  std::string method;
  bool llmtime = false;
  /// LLMTime runs keep their fields (digits, samples, profile, seed) here.
  MultiCastOptions options;
  /// Traced persistent pipelines: the interposed backend.
  std::unique_ptr<TimingBackend> backend;
  /// Persistent pipelines only; null when built per forecast.
  std::unique_ptr<Forecaster> forecaster;
};

struct Task {
  size_t pipeline = 0;
  size_t input = 0;
};

std::unique_ptr<Forecaster> MakeForecaster(const Pipeline& p,
                                           mc::lm::LlmBackend* backend) {
  if (p.llmtime) {
    mc::forecast::LlmTimeOptions o;
    o.digits = p.options.digits;
    o.num_samples = p.options.num_samples;
    o.profile = p.options.profile;
    o.seed = p.options.seed;
    o.backend = backend;
    return std::make_unique<mc::forecast::LlmTimeForecaster>(o);
  }
  MultiCastOptions o = p.options;
  o.backend = backend;
  return std::make_unique<mc::forecast::MultiCastForecaster>(o);
}

std::shared_ptr<mc::lm::PrefixCache> CacheOf(Forecaster* f,
                                             TimingBackend* backend) {
  if (backend != nullptr) return backend->cache();
  if (auto* m = dynamic_cast<mc::forecast::MultiCastForecaster*>(f)) {
    return m->prefix_cache();
  }
  if (auto* l = dynamic_cast<mc::forecast::LlmTimeForecaster*>(f)) {
    return l->prefix_cache();
  }
  return nullptr;
}

class ForecastWorkload : public Workload {
 public:
  ForecastWorkload(uint64_t seed, Recorder* recorder, bool per_forecast)
      : seed_(seed), rec_(recorder), per_forecast_(per_forecast) {}

  void Build(bool traced) override {
    traced_ = traced;
    Generate();
    if (per_forecast_) return;
    for (Pipeline& p : pipelines_) {
      const int64_t t0 = NowNs();
      if (traced_) {
        p.backend = std::make_unique<TimingBackend>(
            p.options.profile, PipelineVocabSize(p.options),
            p.options.prefix_cache_capacity, rec_);
      }
      p.forecaster = MakeForecaster(p, p.backend.get());
      construct_ns_ += NowNs() - t0;
      ++constructs_;
    }
  }

  PassResult RunPass() override;

  double mase() const override { return mase_; }
  double goodput() const override { return goodput_; }

  void set_capture(bool capture) override {
    capture_ = capture;
    for (Pipeline& p : pipelines_) {
      if (p.backend != nullptr) p.backend->set_capture(capture);
    }
  }

  bool Replay(StageTimes* times, std::string* why) override {
    for (const Captured& c : captured_) {
      const Pipeline& p = pipelines_[tasks_[c.task].pipeline];
      const Input& input = inputs_[tasks_[c.task].input];
      if (!ReplayAndCheck(p.options, p.llmtime, input.history, horizon_,
                          c.calls, c.result, times, why)) {
        *why = p.method + ": " + *why;
        return false;
      }
    }
    captured_.clear();
    return true;
  }

  std::map<std::string, double> LayerCounters() const override {
    std::map<std::string, double> out;
    AddCacheStats(cache_stats_, &out);
    out["prefix_cache.bytes"] = cache_bytes_;
    out["forecast.construct_us"] = MeanUs(construct_ns_, constructs_);
    return out;
  }

 protected:
  /// Fills inputs_, pipelines_ (options only), tasks_ and horizon_.
  virtual void Generate() = 0;

  uint64_t seed_;
  Recorder* rec_;
  size_t horizon_ = 0;
  std::vector<Input> inputs_;
  std::vector<Pipeline> pipelines_;
  std::vector<Task> tasks_;

 private:
  struct Captured {
    size_t task = 0;
    ForecastResult result;
    std::vector<CapturedCall> calls;
  };

  const bool per_forecast_;
  bool traced_ = false;
  bool capture_ = false;
  bool scored_ = false;
  double mase_ = 0.0;
  double goodput_ = 0.0;
  int64_t construct_ns_ = 0;
  size_t constructs_ = 0;
  mc::lm::PrefixCacheStats cache_stats_;
  double cache_bytes_ = 0.0;
  std::vector<Captured> captured_;
};

PassResult ForecastWorkload::RunPass() {
  PassResult pass;
  Digest digest;
  Tracer* tracer = rec_->tracer;
  const int construct_layer =
      tracer != nullptr ? tracer->Layer("forecast.construct") : -1;
  // Cache counters are read on the capture pass only (it is replayed and
  // left out of the traced pass times), so timed passes carry no
  // bookkeeping beyond the latency sample.
  const bool count = capture_;
  mc::lm::PrefixCacheStats before;
  if (count && !per_forecast_) {
    for (Pipeline& p : pipelines_) {
      before += CacheOf(p.forecaster.get(), p.backend.get())->stats();
    }
  }
  mc::lm::PrefixCacheStats per_forecast_stats;
  double per_forecast_bytes = 0.0;
  if (per_forecast_) {
    construct_ns_ = 0;
    constructs_ = 0;
  }
  double mase_sum = 0.0;
  size_t mase_n = 0;
  captured_.clear();

  const double cpu0 = ProcessCpuSeconds();
  const int64_t t0 = NowNs();
  ScopedSpan pass_span(tracer, tracer != nullptr ? tracer->Layer("pass") : -1,
                       -1);
  for (size_t i = 0; i < tasks_.size(); ++i) {
    const Task& task = tasks_[i];
    const Pipeline& p = pipelines_[task.pipeline];
    const Input& input = inputs_[task.input];
    rec_->request = static_cast<int64_t>(i);
    Forecaster* forecaster = p.forecaster.get();
    TimingBackend* backend = p.backend.get();
    std::unique_ptr<TimingBackend> own_backend;
    std::unique_ptr<Forecaster> own;
    if (per_forecast_) {
      ScopedSpan span(tracer, construct_layer, rec_->request);
      const int64_t c0 = NowNs();
      if (traced_) {
        own_backend = std::make_unique<TimingBackend>(
            p.options.profile, PipelineVocabSize(p.options),
            p.options.prefix_cache_capacity, rec_);
        own_backend->set_capture(capture_);
        backend = own_backend.get();
      }
      own = MakeForecaster(p, backend);
      forecaster = own.get();
      construct_ns_ += NowNs() - c0;
      ++constructs_;
    }
    mc::Result<ForecastResult> result =
        rec_->Forecast(forecaster, input.history, horizon_, {}, "forecast");
    ++pass.attempted;
    if (!result.ok()) {
      ++pass.failed;
      digest.Add(result.status().ToString());
      continue;
    }
    ++pass.completed;
    DigestForecast(result.value(), &digest);
    pass.generated_tokens += result.value().ledger.generated_tokens;
    if (!scored_) {
      const double m = FrameMase(input, result.value().forecast);
      if (m >= 0.0) {
        mase_sum += m;
        ++mase_n;
      }
    }
    if (count && per_forecast_) {
      auto cache = CacheOf(forecaster, backend);
      per_forecast_stats += cache->stats();
      per_forecast_bytes += static_cast<double>(cache->bytes());
    }
    if (capture_ && backend != nullptr) {
      captured_.push_back({i, result.value(), backend->TakeCalls()});
    }
  }
  pass.wall_s = static_cast<double>(NowNs() - t0) / 1e9;
  pass.cpu_s = ProcessCpuSeconds() - cpu0;
  pass.digest = digest.value();
  if (!scored_) {
    mase_ = mase_n > 0 ? mase_sum / static_cast<double>(mase_n) : 0.0;
    goodput_ = static_cast<double>(pass.completed) /
               static_cast<double>(pass.attempted);
    scored_ = true;
  }
  if (count) {
    if (per_forecast_) {
      cache_stats_ = per_forecast_stats;
      cache_bytes_ = per_forecast_bytes / static_cast<double>(tasks_.size());
    } else {
      mc::lm::PrefixCacheStats after;
      double bytes = 0.0;
      for (Pipeline& p : pipelines_) {
        auto cache = CacheOf(p.forecaster.get(), p.backend.get());
        after += cache->stats();
        bytes += static_cast<double>(cache->bytes());
      }
      cache_stats_ = after - before;
      cache_bytes_ = bytes;
    }
  }
  return pass;
}

class TablesWorkload final : public ForecastWorkload {
 public:
  using ForecastWorkload::ForecastWorkload;

 private:
  void Generate() override {
    horizon_ = 24;
    const size_t kOrigins = 8, kStride = 12, kSamplingSeeds = 2;
    const std::vector<std::string> datasets = {"GasRate", "Electricity",
                                               "Weather"};
    struct Method {
      std::string name;
      bool llmtime;
      MultiCastOptions options;
    };
    std::vector<Method> methods;
    for (auto mux : {mc::multiplex::MuxKind::kDigitInterleave,
                     mc::multiplex::MuxKind::kValueInterleave,
                     mc::multiplex::MuxKind::kValueConcat}) {
      methods.push_back({std::string("MultiCast ") +
                             mc::multiplex::MuxKindName(mux),
                         false, TableTwo(mux)});
    }
    methods.push_back({"LLMTIME", true,
                       TableTwo(mc::multiplex::MuxKind::kValueConcat)});
    for (auto q : {mc::forecast::Quantization::kSaxAlphabetic,
                   mc::forecast::Quantization::kSaxDigital}) {
      MultiCastOptions o = TableTwo(mc::multiplex::MuxKind::kDigitInterleave);
      o.quantization = q;
      methods.push_back({std::string("MultiCast SAX ") +
                             mc::forecast::QuantizationName(q),
                         false, o});
    }
    // Inputs: rolling origins over each Table I stand-in, generated from
    // the workload seed.
    std::vector<size_t> first_input;
    for (size_t k = 0; k < datasets.size(); ++k) {
      mc::ts::Frame frame = LoadOrDie(datasets[k], MixSeed(seed_, k));
      first_input.push_back(inputs_.size());
      for (size_t r = 0; r < kOrigins; ++r) {
        inputs_.push_back(SplitTail(
            frame, frame.length() - horizon_ - r * kStride, horizon_));
      }
    }
    // One persistent pipeline per (dataset, method, sampling seed); its
    // prefix cache holds every origin's prompt after the first pass.
    std::vector<std::vector<size_t>> pipeline_of(datasets.size());
    for (size_t k = 0; k < datasets.size(); ++k) {
      for (size_t m = 0; m < methods.size(); ++m) {
        for (size_t s = 0; s < kSamplingSeeds; ++s) {
          Pipeline p;
          p.method = methods[m].name;
          p.llmtime = methods[m].llmtime;
          p.options = methods[m].options;
          p.options.seed = MixSeed(seed_, 1000 + pipelines_.size());
          if (!p.llmtime) p.options.quantiles = {0.1, 0.9};
          pipeline_of[k].push_back(pipelines_.size());
          pipelines_.push_back(std::move(p));
        }
      }
    }
    for (size_t r = 0; r < kOrigins; ++r) {
      for (size_t k = 0; k < datasets.size(); ++k) {
        for (size_t p : pipeline_of[k]) {
          tasks_.push_back({p, first_input[k] + r});
        }
      }
    }
  }
};

class ManySeriesWorkload final : public ForecastWorkload {
 public:
  ManySeriesWorkload(uint64_t seed, Recorder* recorder)
      : ForecastWorkload(seed, recorder, /*per_forecast=*/true) {}

 private:
  void Generate() override {
    horizon_ = 14;
    const size_t kSeries = 1200;
    std::vector<DailySeries> corpus =
        GenerateDailyCorpus(MixSeed(seed_, 7), kSeries, 100, 1000, horizon_);
    for (size_t i = 0; i < corpus.size(); ++i) {
      Input input;
      input.history = mc::ts::Frame::FromSeries(
                          {mc::ts::Series(std::move(corpus[i].history), "y")},
                          "daily")
                          .value();
      input.truth.push_back(std::move(corpus[i].truth));
      inputs_.push_back(std::move(input));
      Pipeline p;
      p.method = "MultiCast (univariate)";
      p.options = TableTwo(mc::multiplex::MuxKind::kDigitInterleave);
      p.options.seed = MixSeed(seed_, 1000 + i);
      p.options.quantiles = {0.1, 0.9};
      pipelines_.push_back(std::move(p));
      tasks_.push_back({i, i});
    }
  }
};

// ---------------------------------------------------------------------------
// serve-burst and fleet-failover: one executor run over the whole trace
// per pass, with fresh caches and schedulers so every pass is identical.

struct ServeShape {
  std::string dataset;
  size_t histories = 0;
  size_t horizon = 12;
  size_t requests = 0;
  double arrival_rate = 0.0;
  double burst_factor = 1.0;
  double step_seconds = 0.0;
  size_t batch_slots = 1;
};

class ServeWorkload final : public Workload {
 public:
  ServeWorkload(uint64_t seed, Recorder* recorder, bool cluster)
      : seed_(seed), rec_(recorder), cluster_(cluster) {
    if (cluster_) {
      shape_ = {.dataset = "Weather", .histories = 32, .requests = 1000,
                .arrival_rate = 6.0, .burst_factor = 2.0,
                .step_seconds = 0.001, .batch_slots = 2};
    } else {
      shape_ = {.dataset = "GasRate", .histories = 16, .requests = 3000,
                .arrival_rate = 12.0, .burst_factor = 4.0,
                .step_seconds = 0.0008, .batch_slots = 8};
    }
  }

  void Build(bool traced) override;
  PassResult RunPass() override;
  double mase() const override { return mase_; }
  double goodput() const override { return goodput_; }
  void set_capture(bool capture) override { capture_ = capture; }
  bool Replay(StageTimes* times, std::string* why) override;
  std::map<std::string, double> LayerCounters() const override {
    return counters_;
  }

 private:
  // Virtual-time SLO budget of a request's class, for goodput.
  static double BudgetFor(mc::serve::SloClass slo) {
    switch (slo) {
      case mc::serve::SloClass::kInteractive:
        return 1.0;
      case mc::serve::SloClass::kStandard:
        return 2.0;
      case mc::serve::SloClass::kBatch:
        return 4.0;
    }
    return 2.0;
  }

  MultiCastOptions RequestOptions(const mc::serve::ForecastRequest& req) const {
    MultiCastOptions o = TableTwo(mc::multiplex::MuxKind::kValueInterleave);
    if (req.tier == mc::serve::ServiceTier::kLlmReduced) o.num_samples = 2;
    o.seed = MixSeed(seed_, 5000 + req.id);
    o.quantiles = {0.1, 0.9};
    return o;
  }

  // Builds the pipeline for one request and wraps it for timing.
  std::unique_ptr<Forecaster> BuildFor(
      const mc::serve::ForecastRequest& req,
      const std::shared_ptr<mc::lm::PrefixCache>& cache,
      const std::shared_ptr<mc::batch::BatchScheduler>& scheduler) {
    rec_->request = static_cast<int64_t>(req.id);
    ScopedSpan span(rec_->tracer, factory_layer_, rec_->request);
    const int64_t t0 = NowNs();
    std::unique_ptr<Forecaster> f;
    const char* layer = "forecast";
    if (req.tier == mc::serve::ServiceTier::kClassical) {
      mc::forecast::ClassicalOptions copts;
      copts.demotion_note =
          "overload ladder demoted request to the classical tier";
      f = std::make_unique<mc::forecast::ClassicalForecaster>(copts);
      layer = "forecast.classical";
    } else {
      MultiCastOptions o = RequestOptions(req);
      o.shared_prefix_cache = cache;
      o.batch_scheduler = scheduler;
      f = std::make_unique<mc::forecast::MultiCastForecaster>(o);
    }
    construct_ns_ += NowNs() - t0;
    ++constructs_;
    return std::make_unique<TimedForecaster>(std::move(f), rec_, layer);
  }

  // Replays the trace through a fresh executor with fresh caches and
  // schedulers, so every pass computes the same thing.
  mc::Result<std::vector<mc::serve::ServeStats>> RunExecutor(
      std::vector<std::shared_ptr<mc::lm::PrefixCache>>* caches,
      std::vector<std::shared_ptr<mc::batch::BatchScheduler>>* schedulers,
      mc::cluster::ClusterReport* report);

  std::shared_ptr<mc::batch::BatchScheduler> NewScheduler() {
    mc::batch::BatchPolicy policy;
    policy.max_batch = shape_.batch_slots;
    policy.step_seconds = shape_.step_seconds;
    if (traced_) policy.on_step = [this](size_t) { OnStep(); };
    return std::make_shared<mc::batch::BatchScheduler>(policy);
  }

  // Records the interval since the previous decode step of the same
  // Forecast() call as one batch.step span.
  void OnStep() {
    const int64_t now = NowNs();
    const size_t forecast_index = rec_->latency_ms.size();
    if (last_step_ns_ > 0 && step_forecast_ == forecast_index) {
      rec_->tracer->Record(step_layer_, last_step_ns_, now, rec_->request);
    }
    last_step_ns_ = now;
    step_forecast_ = forecast_index;
  }

  uint64_t seed_;
  Recorder* rec_;
  bool cluster_;
  ServeShape shape_;
  bool traced_ = false;
  bool capture_ = false;
  bool scored_ = false;
  double mase_ = 0.0;
  double goodput_ = 0.0;
  int factory_layer_ = -1;
  int step_layer_ = -1;
  int64_t last_step_ns_ = 0;
  size_t step_forecast_ = 0;
  int64_t construct_ns_ = 0;
  size_t constructs_ = 0;
  std::vector<Input> inputs_;
  std::vector<size_t> input_of_;  // request id -> input index
  std::vector<mc::serve::ForecastRequest> requests_;
  std::vector<mc::serve::ServeStats> last_stats_;
  std::map<std::string, double> counters_;
};

void ServeWorkload::Build(bool traced) {
  traced_ = traced;
  if (rec_->tracer != nullptr) {
    factory_layer_ = rec_->tracer->Layer("serve.factory");
    step_layer_ = rec_->tracer->Layer("batch.step");
  }
  inputs_.reserve(shape_.histories);  // requests point into inputs_
  for (size_t k = 0; k < shape_.histories; ++k) {
    mc::ts::Frame frame = LoadOrDie(shape_.dataset, MixSeed(seed_, 200 + k));
    inputs_.push_back(
        SplitTail(frame, frame.length() - shape_.horizon, shape_.horizon));
  }
  mc::serve::TraceOptions trace;
  trace.num_requests = shape_.requests;
  trace.arrival_rate = shape_.arrival_rate;
  trace.burst_factor = shape_.burst_factor;
  trace.deadline_seconds = 0.0;  // no deadline: every request is served
  trace.seed = MixSeed(seed_, 300);
  std::vector<mc::serve::Arrival> arrivals = mc::serve::GenerateTrace(trace);
  mc::Rng rng(MixSeed(seed_, 301), 5);
  for (size_t i = 0; i < arrivals.size(); ++i) {
    mc::serve::ForecastRequest req;
    req.id = i;
    req.arrival_seconds = arrivals[i].arrival_seconds;
    const size_t k = rng.NextBounded(static_cast<uint32_t>(inputs_.size()));
    req.history = &inputs_[k].history;
    req.horizon = shape_.horizon;
    req.session_key = k;
    const double u = rng.NextDouble();
    req.slo = u < 0.3   ? mc::serve::SloClass::kInteractive
              : u < 0.7 ? mc::serve::SloClass::kStandard
                        : mc::serve::SloClass::kBatch;
    requests_.push_back(req);
    input_of_.push_back(k);
  }
}

mc::Result<std::vector<mc::serve::ServeStats>> ServeWorkload::RunExecutor(
    std::vector<std::shared_ptr<mc::lm::PrefixCache>>* caches,
    std::vector<std::shared_ptr<mc::batch::BatchScheduler>>* schedulers,
    mc::cluster::ClusterReport* report) {
  mc::serve::QueuePolicy queue;
  queue.capacity = 1 << 20;  // open loop: nothing is refused at the door
  queue.drop_expired_at_dequeue = false;
  if (cluster_) {
    std::vector<mc::cluster::Replica> fleet;
    const double span =
        static_cast<double>(shape_.requests) / shape_.arrival_rate;
    for (int r = 0; r < 3; ++r) {
      mc::cluster::Replica rep;
      rep.id = r;
      rep.slots = shape_.batch_slots;
      rep.prefix_cache = std::make_shared<mc::lm::PrefixCache>(32);
      rep.scheduler = NewScheduler();
      if (r == 0) {
        // Replica 0 crashes for 3 s every 30 s of the trace.
        for (double t = 10.0; t < span; t += 30.0) {
          rep.plan.crashes.push_back({t, t + 3.0});
        }
      }
      caches->push_back(rep.prefix_cache);
      schedulers->push_back(rep.scheduler);
      fleet.push_back(std::move(rep));
    }
    mc::cluster::ClusterOptions options;
    options.queue = queue;
    options.router = mc::cluster::RouterPolicy::kAffinity;
    options.router_seed = MixSeed(seed_, 400);
    options.redispatch_delay_seconds = 0.05;
    mc::cluster::ClusterExecutor executor(
        [this](const mc::serve::ForecastRequest& req,
               const mc::cluster::Replica& rep) {
          return BuildFor(req, rep.prefix_cache, rep.scheduler);
        },
        nullptr, std::move(fleet), options);
    auto run = executor.Run(requests_);
    *report = executor.report();
    return run;
  }
  auto cache = std::make_shared<mc::lm::PrefixCache>(64);
  auto scheduler = NewScheduler();
  caches->push_back(cache);
  schedulers->push_back(scheduler);
  mc::serve::ServeOptions options;
  options.queue = queue;
  options.prefix_cache = cache;
  options.batch.enabled = true;
  options.batch.size = shape_.batch_slots;
  options.batch.scheduler = scheduler;
  mc::serve::LadderPolicy& ladder = options.overload.ladder;
  ladder.enabled = true;
  ladder.reduced_samples = 2;
  ladder.wait_budget_seconds = 1.0;
  ladder.window_seconds = 5.0;
  ladder.recovery_seconds = 2.0;
  ladder.enter_reject = 1e9;  // demote, never refuse
  mc::serve::ServeExecutor executor(
      [this, cache, scheduler](const mc::serve::ForecastRequest& req) {
        return BuildFor(req, cache, scheduler);
      },
      mc::serve::ForecasterFactory(), options);
  return executor.Run(requests_);
}

PassResult ServeWorkload::RunPass() {
  PassResult pass;
  Digest digest;
  construct_ns_ = 0;
  constructs_ = 0;
  last_step_ns_ = 0;
  Tracer* tracer = rec_->tracer;

  std::vector<std::shared_ptr<mc::lm::PrefixCache>> caches;
  std::vector<std::shared_ptr<mc::batch::BatchScheduler>> schedulers;
  mc::cluster::ClusterReport report;
  const double cpu0 = ProcessCpuSeconds();
  const int64_t t0 = NowNs();
  mc::Result<std::vector<mc::serve::ServeStats>> run = [&] {
    ScopedSpan span(tracer, tracer != nullptr ? tracer->Layer("pass") : -1,
                    -1);
    return RunExecutor(&caches, &schedulers, &report);
  }();
  pass.wall_s = static_cast<double>(NowNs() - t0) / 1e9;
  pass.cpu_s = ProcessCpuSeconds() - cpu0;

  if (!run.ok()) {
    std::fprintf(stderr, "executor run failed: %s\n",
                 run.status().ToString().c_str());
    pass.attempted = requests_.size();
    pass.failed = requests_.size();
    return pass;
  }
  std::vector<mc::serve::ServeStats> stats = std::move(run).value();
  double mase_sum = 0.0;
  size_t mase_n = 0, on_slo = 0;
  for (const mc::serve::ServeStats& st : stats) {
    ++pass.attempted;
    const bool served =
        st.outcome == mc::serve::RequestOutcome::kServed ||
        st.outcome == mc::serve::RequestOutcome::kServedDegraded;
    digest.Add(static_cast<uint64_t>(st.outcome));
    digest.Add(static_cast<uint64_t>(st.tier));
    digest.Add(static_cast<uint64_t>(st.cluster.replica + 1));
    digest.Add(st.finish_seconds);
    if (!served || st.result == nullptr) {
      ++pass.failed;
      continue;
    }
    ++pass.completed;
    DigestForecast(*st.result, &digest);
    pass.generated_tokens += st.result->ledger.generated_tokens;
    if (st.finish_seconds <= st.arrival_seconds + BudgetFor(st.slo)) ++on_slo;
    if (!scored_) {
      const double m =
          FrameMase(inputs_[input_of_[st.id]], st.result->forecast);
      if (m >= 0.0) {
        mase_sum += m;
        ++mase_n;
      }
    }
  }
  pass.digest = digest.value();
  if (!scored_) {
    mase_ = mase_n > 0 ? mase_sum / static_cast<double>(mase_n) : 0.0;
    goodput_ = static_cast<double>(on_slo) /
               static_cast<double>(pass.attempted);
    scored_ = true;
  }
  if (capture_) {
    mc::serve::ServeSummary summary = mc::serve::Summarize(stats);
    mc::lm::PrefixCacheStats cache_stats;
    double bytes = 0.0;
    for (const auto& c : caches) {
      cache_stats += c->stats();
      bytes += static_cast<double>(c->bytes());
    }
    mc::batch::BatchStats batch;
    for (const auto& s : schedulers) batch += s->stats();
    counters_.clear();
    AddCacheStats(cache_stats, &counters_);
    counters_["prefix_cache.bytes"] = bytes;
    counters_["batch.steps"] = static_cast<double>(batch.steps);
    counters_["batch.mean_occupancy"] = batch.mean_batch();
    counters_["serve.queue_wait_p99_s"] = summary.p99_queue_wait_seconds;
    counters_["serve.tier_full"] = static_cast<double>(summary.tier_llm_full);
    counters_["serve.tier_reduced"] =
        static_cast<double>(summary.tier_llm_reduced);
    counters_["serve.tier_classical"] =
        static_cast<double>(summary.tier_classical);
    counters_["serve.tier_shed"] = static_cast<double>(summary.tier_shed);
    counters_["cluster.failovers"] = static_cast<double>(report.failovers);
    counters_["cluster.redispatched_draws"] =
        static_cast<double>(report.redispatched_draws);
    counters_["forecast.construct_us"] = MeanUs(construct_ns_, constructs_);
    last_stats_ = std::move(stats);
  }
  return pass;
}

bool ServeWorkload::Replay(StageTimes* times, std::string* why) {
  // Shadow the first LLM-served requests of the captured pass: the same
  // pipeline (same seed and draw count) over an interposed backend,
  // without the shared cache and scheduler, must give the served output
  // bit for bit; its backend calls are then replayed stage by stage.
  const size_t kShadowed = 24;
  size_t shadowed = 0;
  for (const mc::serve::ServeStats& st : last_stats_) {
    if (shadowed == kShadowed) break;
    if (st.result == nullptr ||
        (st.tier != mc::serve::ServiceTier::kLlmFull &&
         st.tier != mc::serve::ServiceTier::kLlmReduced)) {
      continue;
    }
    mc::serve::ForecastRequest req = requests_[st.id];
    req.tier = st.tier;
    MultiCastOptions o = RequestOptions(req);
    TimingBackend backend(o.profile, PipelineVocabSize(o), 64, rec_);
    backend.set_capture(true);
    o.backend = &backend;
    mc::forecast::MultiCastForecaster shadow(o);
    mc::Result<ForecastResult> result =
        shadow.Forecast(*req.history, req.horizon);
    if (!result.ok()) {
      *why = "shadow forecast failed: " + result.status().ToString();
      return false;
    }
    if (!SameOutput(result.value(), *st.result)) {
      *why = "shadow forecast differs from the served forecast";
      return false;
    }
    if (!ReplayAndCheck(o, false, *req.history, req.horizon,
                        backend.TakeCalls(), result.value(), times, why)) {
      return false;
    }
    ++shadowed;
  }
  last_stats_.clear();
  if (shadowed == 0) {
    *why = "no LLM-served request to shadow";
    return false;
  }
  return true;
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {
      "tables", "many-series", "serve-burst", "fleet-failover"};
  return names;
}

std::string WorkloadWhy(const std::string& name) {
  if (name == "tables") {
    return "Table IV-VI roster on the three datasets: decode-bound, where a "
           "decode-kernel change must show";
  }
  if (name == "many-series") {
    return "M4-Daily-shaped univariate corpus, one fresh pipeline per "
           "series: ingest- and fixed-cost-bound";
  }
  if (name == "serve-burst") {
    return "batched ServeExecutor with brownout ladder on a Poisson-burst "
           "trace: serve, batch, classical and cache hits";
  }
  if (name == "fleet-failover") {
    return "3-replica ClusterExecutor with a crashing replica: the cluster "
           "loop and wiped caches rebuilt";
  }
  return "";
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed,
                                       Recorder* recorder) {
  if (name == "tables") {
    return std::make_unique<TablesWorkload>(seed, recorder,
                                            /*per_forecast=*/false);
  }
  if (name == "many-series") {
    return std::make_unique<ManySeriesWorkload>(seed, recorder);
  }
  if (name == "serve-burst") {
    return std::make_unique<ServeWorkload>(seed, recorder, /*cluster=*/false);
  }
  if (name == "fleet-failover") {
    return std::make_unique<ServeWorkload>(seed, recorder, /*cluster=*/true);
  }
  return nullptr;
}

}  // namespace perfbench
