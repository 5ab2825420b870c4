// The §V-C synthesizer end-to-end: treat one dataset + trace as the
// "production deployment" you are not allowed to share, synthesize a
// statistically equivalent dataset and workload spec from it, and verify on
// a real SUT that the synthetic benchmark predicts the production one —
// similarity stats and measured throughput side by side.

#include <algorithm>
#include <cstdio>

#include "core/driver.h"
#include "data/dataset.h"
#include "data/synthesizer.h"
#include "stats/similarity.h"
#include "sut/systems.h"
#include "workload/generator.h"
#include "workload/trace.h"

int main() {
  using namespace lsbench;

  // --- the "production" side (pretend this cannot leave the building) ---
  DatasetOptions data_options;
  data_options.num_keys = 60000;
  data_options.seed = 505;
  const Dataset production =
      GenerateDataset(ClusteredUnit(7, 0.004, 3), data_options);
  PhaseSpec production_phase;
  production_phase.name = "production";
  production_phase.mix.get = 0.65;
  production_phase.mix.scan = 0.2;
  production_phase.mix.insert = 0.15;
  production_phase.access = AccessPattern::kZipfian;
  production_phase.scan_length = 80;
  const Result<OperationTrace> recorded =
      RecordTrace(production, production_phase, 50000, 99);
  if (!recorded.ok()) {
    std::fprintf(stderr, "recording failed: %s\n",
                 recorded.status().ToString().c_str());
    return 1;
  }
  const OperationTrace& trace = recorded.value();

  // --- the synthesizer output (what you can publish) ---
  const Dataset synthetic = SynthesizeDatasetLike(production);
  const FittedWorkload fitted =
      FitPhaseSpecFromTrace(trace, production.domain_max);

  const double ks =
      KolmogorovSmirnov(Subsample(production.NormalizedKeys(), 4096),
                        Subsample(synthetic.NormalizedKeys(), 4096))
          .statistic;
  size_t shared = 0;
  for (Key k : synthetic.keys) {
    if (std::binary_search(production.keys.begin(), production.keys.end(),
                           k)) {
      ++shared;
    }
  }
  std::printf("dataset synthesis: KS(prod, synth) = %.4f, shared keys = "
              "%zu/%zu (%.2f%%)\n",
              ks, shared, synthetic.size(),
              100.0 * static_cast<double>(shared) /
                  static_cast<double>(synthetic.size()));
  std::printf(
      "workload fit: mix get=%.2f scan=%.2f insert=%.2f, access=%s, "
      "scan_length=%u, hot10 mass=%.2f\n",
      fitted.phase.mix.get, fitted.phase.mix.scan, fitted.phase.mix.insert,
      AccessPatternToString(fitted.phase.access).c_str(),
      fitted.phase.scan_length, fitted.hot10_mass);

  // --- does the synthetic benchmark predict production performance? ---
  auto measure = [](const Dataset& ds, const PhaseSpec& phase) -> double {
    RunSpec spec;
    spec.name = "synth_check";
    spec.datasets.push_back(ds);
    PhaseSpec p = phase;
    p.dataset_index = 0;
    p.num_operations = 50000;
    spec.phases.push_back(p);
    LearnedKvSystem sut;
    BenchmarkDriver driver;
    const Result<RunResult> run = driver.Run(spec, &sut);
    if (!run.ok()) {
      std::fprintf(stderr, "run failed: %s\n",
                   run.status().ToString().c_str());
      return 0.0;
    }
    return run.value().metrics.mean_throughput;
  };
  const double prod_tput = measure(production, production_phase);
  const double synth_tput = measure(synthetic, fitted.phase);
  if (prod_tput <= 0.0 || synth_tput <= 0.0) return 1;
  std::printf(
      "learned SUT throughput: production %.0f ops/s vs synthetic %.0f "
      "ops/s (ratio %.2f)\n",
      prod_tput, synth_tput, synth_tput / prod_tput);
  std::printf(
      "=> the synthetic pair preserves what the learned system's\n"
      "   performance depends on, without disclosing a single row\n"
      "   (paper SV-C).\n");
  return 0;
}
