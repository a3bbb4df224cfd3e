#include "extensions/anomaly.h"

#include <cmath>

#include "lm/ngram_model.h"
#include "scale/scaler.h"
#include "token/codec.h"
#include "ts/stats.h"
#include "util/strings.h"

namespace multicast {
namespace extensions {

namespace {

struct SerializedStream {
  std::vector<token::TokenId> ids;
  multiplex::CycleLayout layout;
};

// Serializes the frame exactly as the forecaster does and returns the
// token ids plus the cycle layout that attributes tokens back to
// dimensions.
Result<SerializedStream> SerializeFrame(const ts::Frame& frame,
                                        const AnomalyOptions& options) {
  const size_t dims = frame.num_dims();
  multiplex::MuxInput input;
  input.values.resize(dims);
  std::vector<int> widths(dims, options.digits);
  scale::ScalerOptions scaler_opts;
  scaler_opts.digits = options.digits;
  for (size_t d = 0; d < dims; ++d) {
    MC_ASSIGN_OR_RETURN(scale::ScalerParams params,
                        scale::FitScaler(frame.dim(d), scaler_opts));
    std::vector<int64_t> scaled =
        scale::ScaleValues(frame.dim(d).values(), params);
    for (int64_t v : scaled) {
      MC_ASSIGN_OR_RETURN(std::string s,
                          token::FixedWidthDigits(v, options.digits));
      input.values[d].push_back(std::move(s));
    }
  }
  const multiplex::Multiplexer mux(options.mux);
  MC_ASSIGN_OR_RETURN(std::string stream, mux.Multiplex(input, widths));
  stream.push_back(',');  // terminate the last timestamp's cycle
  token::Vocabulary vocab = token::Vocabulary::Digits();
  SerializedStream out;
  MC_ASSIGN_OR_RETURN(out.ids, token::Encode(stream, vocab));
  out.layout = mux.Layout(widths);
  return out;
}

}  // namespace

size_t AnomalyReport::ArgMaxDimension(size_t t) const {
  size_t best = 0;
  for (size_t d = 1; d < per_dim_scores.size(); ++d) {
    if (t < per_dim_scores[d].size() &&
        per_dim_scores[d][t] > per_dim_scores[best][t]) {
      best = d;
    }
  }
  return best;
}

Result<AnomalyReport> DetectAnomalies(const ts::Frame& frame,
                                      const AnomalyOptions& options) {
  if (frame.length() < 4) {
    return Status::InvalidArgument("frame too short to score");
  }
  if (!(options.threshold_quantile > 0.0 &&
        options.threshold_quantile < 1.0)) {
    return Status::InvalidArgument("threshold_quantile must be in (0, 1)");
  }
  MC_ASSIGN_OR_RETURN(SerializedStream serialized,
                      SerializeFrame(frame, options));
  const std::vector<token::TokenId>& ids = serialized.ids;
  const multiplex::CycleLayout& layout = serialized.layout;
  const size_t cycle = layout.size();

  // Prequential scoring: surprisal of each token before observing it,
  // attributed both to its timestamp and, via the cycle geometry, to
  // the dimension it serializes.
  lm::NGramLanguageModel model(token::Vocabulary::Digits().size(),
                               options.profile.ngram);
  AnomalyReport report;
  report.scores.assign(frame.length(), 0.0);
  report.per_dim_scores.assign(frame.num_dims(),
                               std::vector<double>(frame.length(), 0.0));
  std::vector<double> tokens_per_dim(frame.num_dims(), 0.0);
  for (const multiplex::CycleSlot& slot : layout) {
    if (!slot.is_separator()) {
      tokens_per_dim[static_cast<size_t>(slot.dim)] += 1.0;
    }
  }
  for (size_t i = 0; i < ids.size(); ++i) {
    std::vector<double> probs = model.NextDistribution();
    double p = probs[static_cast<size_t>(ids[i])];
    double surprisal = -std::log(std::max(p, 1e-12));
    size_t t = i / cycle;  // timestamp this token belongs to
    if (t < report.scores.size()) {
      report.scores[t] += surprisal / static_cast<double>(cycle);
      int d = layout[i % cycle].dim;
      if (d >= 0) {
        report.per_dim_scores[static_cast<size_t>(d)][t] +=
            surprisal / tokens_per_dim[static_cast<size_t>(d)];
      }
    }
    model.Observe(ids[i]);
  }

  // Threshold on post-warm-up scores only; warm-up surprisal is high for
  // the trivial reason that the model has no context yet.
  std::vector<double> scored(report.scores.begin() +
                                 std::min(options.warmup,
                                          report.scores.size()),
                             report.scores.end());
  if (scored.empty()) {
    return Status::InvalidArgument("warmup swallows the whole series");
  }
  report.threshold = ts::Quantile(scored, options.threshold_quantile);
  for (size_t t = options.warmup; t < report.scores.size(); ++t) {
    if (report.scores[t] > report.threshold) report.anomalies.push_back(t);
  }
  return report;
}

Result<std::vector<size_t>> DetectChangePoints(
    const ts::Frame& frame, const ChangePointOptions& options) {
  MC_ASSIGN_OR_RETURN(AnomalyReport report,
                      DetectAnomalies(frame, options.scoring));
  const std::vector<double>& s = report.scores;
  size_t warmup = std::min(options.scoring.warmup, s.size());

  // Running CUSUM over the surprisal stream, with mean/stddev estimated
  // incrementally so later shifts do not leak into earlier statistics.
  std::vector<size_t> change_points;
  double mean = 0.0, m2 = 0.0;
  size_t count = 0;
  double cusum = 0.0;
  size_t last_cp = 0;
  for (size_t t = 0; t < s.size(); ++t) {
    if (count >= 2) {
      double stddev = std::sqrt(m2 / static_cast<double>(count));
      if (stddev > 1e-9 && t >= warmup) {
        double z = (s[t] - mean) / stddev;
        cusum = std::max(0.0, cusum + z - options.drift_sigmas);
        bool spaced = change_points.empty() ||
                      t - last_cp >= options.min_spacing;
        if (cusum > options.alarm_sigmas && spaced) {
          change_points.push_back(t);
          last_cp = t;
          cusum = 0.0;
        }
      }
    }
    // Welford update.
    ++count;
    double delta = s[t] - mean;
    mean += delta / static_cast<double>(count);
    m2 += delta * (s[t] - mean);
  }
  return change_points;
}

}  // namespace extensions
}  // namespace multicast
