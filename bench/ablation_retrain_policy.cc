// Ablation: the retraining-policy design space of the learned SUT. DESIGN.md
// calls out "when to retrain" as the central design choice behind the
// adaptability results; this bench runs the same shift workload under all
// four policies (never / on-phase-start / delta-threshold / drift-triggered)
// and reports the paper's metric suite for each, via the comparison harness.

#include <cstdio>

#include "bench/bench_common.h"
#include "core/comparison.h"
#include "report/report.h"

namespace lsbench {
namespace {

RunSpec BuildSpec(const std::vector<Dataset>& datasets) {
  RunSpec spec;
  spec.name = "ablation_retrain_policy";
  spec.datasets = datasets;
  spec.seed = 17;
  spec.interval_nanos = 50000000;
  spec.adjustment_window_ops = 5000;

  PhaseSpec steady;
  steady.name = "steady";
  steady.dataset_index = 0;
  steady.mix.get = 0.7;
  steady.mix.insert = 0.3;
  steady.access = AccessPattern::kZipfian;
  steady.num_operations = bench::ScaledOps(200000);
  spec.phases.push_back(steady);

  PhaseSpec shifted = steady;
  shifted.name = "shifted";
  shifted.dataset_index = 4;
  spec.phases.push_back(shifted);
  return spec;
}

void Main() {
  const std::vector<Dataset> datasets =
      bench::StandardDriftDatasets(bench::ScaledKeys(150000), 8);
  const RunSpec spec = BuildSpec(datasets);

  std::vector<std::unique_ptr<LearnedKvSystem>> systems;
  for (const RetrainPolicy policy :
       {RetrainPolicy::kNever, RetrainPolicy::kOnPhaseStart,
        RetrainPolicy::kDeltaThreshold, RetrainPolicy::kDriftTriggered}) {
    LearnedSystemOptions options;
    options.retrain_policy = policy;
    options.delta_threshold_fraction = 0.05;
    systems.push_back(std::make_unique<LearnedKvSystem>(options));
  }
  std::vector<SystemUnderTest*> suts;
  for (const auto& s : systems) suts.push_back(s.get());

  DriverOptions driver_options;
  driver_options.enforce_holdout_once = false;
  const Result<ComparisonReport> report =
      CompareSystems(spec, suts, nullptr, driver_options);
  if (!report.ok()) {
    std::fprintf(stderr, "%s\n", report.status().ToString().c_str());
    std::abort();
  }

  bench::Header("Ablation — retraining policies under an abrupt shift");
  std::printf("%s\n", TableText(ComparisonTable(report.value())).c_str());
  std::printf(
      "=> 'never' avoids retraining cost but decays after the shift;\n"
      "   frequent small retrains trade average throughput for smoother\n"
      "   transitions (fewer SLA violations, lower adjustment excess).\n");
}

}  // namespace
}  // namespace lsbench

int main() {
  lsbench::Main();
  return 0;
}
