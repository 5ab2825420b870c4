// Reproduces Figure 1b of "Towards a Benchmark for Learned Systems":
// cumulative queries completed over time, for a run with an abrupt data/
// workload shift in the middle. The paper's single-value summaries — area
// difference vs an ideal constant-throughput system, and area between two
// systems — are reported alongside the curves.
//
// Expected shape: the drift-triggered learned system stalls briefly after
// the shift (retraining) and then recovers to a steeper slope than the
// traditional system; the never-retrained learned system's slope keeps
// flattening as its delta buffer grows.

#include <cstdio>
#include <utility>

#include "bench/bench_common.h"
#include "report/report.h"

namespace lsbench {
namespace {

RunSpec BuildSpec(const std::vector<Dataset>& datasets) {
  RunSpec spec;
  spec.name = "fig1b_cumulative";
  spec.datasets = datasets;
  spec.seed = 777;
  spec.interval_nanos = 10000000;  // 10 ms resolution for the curve.

  PhaseSpec before;
  before.name = "trained_distribution";
  before.dataset_index = 0;
  before.mix.get = 0.9;
  before.mix.insert = 0.1;
  before.access = AccessPattern::kZipfian;
  before.num_operations = bench::ScaledOps(400000);
  spec.phases.push_back(before);

  PhaseSpec after;
  after.name = "shifted_distribution";
  after.dataset_index = 4;  // Far end of the drift family: abrupt shift.
  after.mix.get = 0.6;
  after.mix.insert = 0.4;  // Insert-heavy after the shift: the frozen
                           // system's delta buffer balloons to a large
                           // fraction of the static data.
  after.access = AccessPattern::kZipfian;
  after.num_operations = bench::ScaledOps(800000);
  after.transition_in = TransitionKind::kAbrupt;
  spec.phases.push_back(after);
  return spec;
}

void Main() {
  const std::vector<Dataset> datasets =
      bench::StandardDriftDatasets(bench::ScaledKeys(200000), 2);
  const RunSpec spec = BuildSpec(datasets);

  LearnedSystemOptions adaptive_options;
  adaptive_options.retrain_policy = RetrainPolicy::kDeltaThreshold;
  adaptive_options.delta_threshold_fraction = 0.05;
  LearnedKvSystem adaptive(adaptive_options);
  const RunResult adaptive_run = bench::MustRun(spec, &adaptive);

  LearnedSystemOptions frozen_options;
  frozen_options.retrain_policy = RetrainPolicy::kNever;
  LearnedKvSystem frozen(frozen_options);
  const RunResult frozen_run = bench::MustRun(spec, &frozen);

  BTreeSystem btree;
  const RunResult btree_run = bench::MustRun(spec, &btree);

  bench::Header("Fig. 1b — cumulative queries over time");
  std::printf("%s\n", RenderRunSummary(adaptive_run).c_str());
  std::printf("%s\n", RenderRunSummary(frozen_run).c_str());
  std::printf("%s\n", RenderRunSummary(btree_run).c_str());

  const std::vector<std::pair<std::string, std::vector<CumulativePoint>>>
      curves = {{adaptive.name(), adaptive_run.metrics.cumulative},
                {frozen.name(), frozen_run.metrics.cumulative},
                {btree.name(), btree_run.metrics.cumulative}};
  std::printf("%s\n", RenderCumulativeComparison(curves).c_str());
  std::printf("area vs ideal (%s): %.3f q-s\n", adaptive.name().c_str(),
              adaptive_run.metrics.area_vs_ideal);
  std::printf("area vs ideal (%s): %.3f q-s\n", frozen.name().c_str(),
              frozen_run.metrics.area_vs_ideal);
  std::printf("area vs ideal (%s): %.3f q-s\n", btree.name().c_str(),
              btree_run.metrics.area_vs_ideal);
  std::printf("area between systems (retraining - frozen): %.3f q-s\n",
              AreaBetweenCurves(adaptive_run.metrics.cumulative,
                                frozen_run.metrics.cumulative));
  std::printf("\nCSV (%s):\n%s\n", adaptive.name().c_str(),
              TableCsv(CumulativeTable(adaptive_run.metrics.cumulative))
                  .c_str());
}

}  // namespace
}  // namespace lsbench

int main() {
  lsbench::Main();
  return 0;
}
