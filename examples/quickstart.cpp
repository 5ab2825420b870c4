// Quickstart for LSBench: define datasets and phases, run a learned system
// and a traditional baseline through the benchmark driver, and print the
// paper's metric suite for both.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart

#include <cstdio>

#include "core/drift.h"
#include "core/driver.h"
#include "core/specialization.h"
#include "data/dataset.h"
#include "report/report.h"
#include "sut/systems.h"

int main() {
  using namespace lsbench;

  // 1. Datasets: the benchmark varies the *data distribution* inside a run.
  DatasetOptions data_options;
  data_options.num_keys = 50000;
  data_options.seed = 7;
  RunSpec spec;
  spec.name = "quickstart";
  spec.datasets.push_back(GenerateDataset(UniformUnit(), data_options));
  spec.datasets.push_back(
      GenerateDataset(ClusteredUnit(5, 0.01, 11), data_options));

  // 2. Phases: a zipfian read phase on the first distribution, then an
  //    abrupt shift to a clustered distribution with mixed reads/writes.
  PhaseSpec warm;
  warm.name = "zipf_reads";
  warm.dataset_index = 0;
  warm.mix = OperationMix::ReadMostly();
  warm.access = AccessPattern::kZipfian;
  warm.num_operations = 50000;
  spec.phases.push_back(warm);

  PhaseSpec shifted;
  shifted.name = "clustered_mixed";
  shifted.dataset_index = 1;
  shifted.mix.get = 0.6;
  shifted.mix.insert = 0.4;
  shifted.num_operations = 50000;
  spec.phases.push_back(shifted);

  // 3. Run both systems through the driver. Training is timed and reported
  //    as a first-class result.
  BenchmarkDriver driver;
  LearnedKvSystem learned;  // RMI + drift-triggered retraining by default.
  BTreeSystem btree;

  const Result<RunResult> learned_run = driver.Run(spec, &learned);
  const Result<RunResult> btree_run = driver.Run(spec, &btree);
  if (!learned_run.ok() || !btree_run.ok()) {
    std::fprintf(stderr, "run failed\n");
    return 1;
  }

  // 4. Reports: run summaries, the Fig. 1a specialization view, and the
  //    Fig. 1b cumulative comparison between the two systems.
  std::printf("%s\n", RenderRunSummary(learned_run.value()).c_str());
  std::printf("%s\n", RenderRunSummary(btree_run.value()).c_str());
  std::printf("%s\n",
              RenderSpecializationReport(
                  BuildSpecializationReport(spec, learned_run.value(),
                                            MeasureDriftTrajectory(spec)))
                  .c_str());
  std::printf(
      "%s\n",
      RenderCumulativeComparison(
          {{learned.name(), learned_run.value().metrics.cumulative},
           {btree.name(), btree_run.value().metrics.cumulative}})
          .c_str());
  return 0;
}
