// Reproduces Figure 1a of "Towards a Benchmark for Learned Systems":
// throughput per workload/data distribution, reported as box plots sorted by
// the dissimilarity function phi (each phase's drift factor against phase 0),
// with a hold-out (out-of-sample) phase.
//
// Expected shape: the learned system's boxes sit high and tight on phases
// similar to its training distribution (low phi) and degrade as phi grows;
// the hold-out phase shows the out-of-sample gap; the B+-tree's boxes stay
// comparatively flat across phi.

#include <cstdio>

#include "bench/bench_common.h"
#include "core/drift.h"
#include "core/specialization.h"
#include "report/report.h"

namespace lsbench {
namespace {

RunSpec BuildSpec(const std::vector<Dataset>& datasets) {
  RunSpec spec;
  spec.name = "fig1a_specialization";
  spec.datasets = datasets;
  spec.seed = 4242;
  spec.interval_nanos = 100000000;      // 100 ms.
  spec.boxplot_sample_nanos = 2000000;  // 2 ms sampling: ~dozens of box
                                        // samples per phase even at speed.

  // Phases 0..4 walk the drift sequence away from the trained distribution;
  // phase 5 is the lognormal hold-out with a different workload mix.
  for (int i = 0; i < 5; ++i) {
    PhaseSpec phase;
    phase.name = "drift" + std::to_string(i);
    phase.dataset_index = i;
    // Reads plus a steady insert stream: the stored data drifts toward the
    // phase's distribution, so a never-retrained learned system accumulates
    // an ever-larger delta as phi grows while the B+-tree absorbs the
    // inserts natively.
    phase.mix.get = 0.7;
    phase.mix.insert = 0.3;
    phase.access = AccessPattern::kZipfian;
    phase.num_operations = bench::ScaledOps(200000);
    spec.phases.push_back(phase);
  }
  PhaseSpec holdout;
  holdout.name = "holdout_lognormal";
  holdout.dataset_index = 5;
  holdout.mix = OperationMix::ScanHeavy();
  holdout.access = AccessPattern::kUniform;
  holdout.num_operations = bench::ScaledOps(50000);
  holdout.holdout = true;
  holdout.scan_length = 50;
  spec.phases.push_back(holdout);
  return spec;
}

void RunSystem(const RunSpec& spec, const DriftTrajectoryReport& drift,
               SystemUnderTest* sut) {
  const RunResult result = bench::MustRun(spec, sut);
  const SpecializationReport report =
      BuildSpecializationReport(spec, result, drift);
  bench::Header("Fig. 1a — " + sut->name());
  std::printf("%s\n", RenderRunSummary(result).c_str());
  std::printf("%s\n", RenderSpecializationReport(report).c_str());
  std::printf("CSV:\n%s\n",
              TableCsv(SpecializationTable(report)).c_str());
}

void Main() {
  const std::vector<Dataset> datasets =
      bench::StandardDriftDatasets(bench::ScaledKeys(200000), 1);
  const RunSpec spec = BuildSpec(datasets);
  // Phi is each phase's drift factor against phase 0, measured once for
  // both systems.
  const DriftTrajectoryReport drift = MeasureDriftTrajectory(spec);

  // The learned system trains on the phase-0 distribution and keeps its
  // models (kNever) so specialization vs phi is visible undiluted.
  LearnedSystemOptions learned_options;
  learned_options.retrain_policy = RetrainPolicy::kNever;
  LearnedKvSystem learned(learned_options);
  RunSystem(spec, drift, &learned);

  BTreeSystem btree;
  RunSystem(spec, drift, &btree);
}

}  // namespace
}  // namespace lsbench

int main() {
  lsbench::Main();
  return 0;
}
