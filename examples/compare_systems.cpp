// Example: the fair-comparison harness. Runs one dynamic benchmark spec
// against four systems — traditional, static learned (RMI and PGM), and the
// continuously adaptive index — and prints a side-by-side table of the
// paper's metric suite, plus an archived CSV trace of the exact operation
// stream used (for reproducibility / benchmark-as-a-service hand-off),
// replayed through the driver on one more system.

#include <cstdio>
#include <memory>
#include <utility>

#include "core/comparison.h"
#include "core/driver.h"
#include "data/dataset.h"
#include "report/report.h"
#include "sut/systems.h"
#include "util/random.h"
#include "workload/trace.h"

int main() {
  using namespace lsbench;

  RunSpec spec;
  spec.name = "four_way_comparison";
  DatasetOptions options;
  options.num_keys = 50000;
  options.seed = 1;
  spec.datasets.push_back(GenerateDataset(UniformUnit(), options));
  options.seed = 2;
  spec.datasets.push_back(
      GenerateDataset(ClusteredUnit(6, 0.005, 3), options));

  PhaseSpec steady;
  steady.name = "steady";
  steady.mix.get = 0.7;
  steady.mix.insert = 0.3;
  steady.access = AccessPattern::kZipfian;
  steady.num_operations = 60000;
  spec.phases.push_back(steady);

  PhaseSpec shifted = steady;
  shifted.name = "shifted";
  shifted.dataset_index = 1;
  shifted.transition_in = TransitionKind::kLinear;
  shifted.transition_operations = 10000;
  spec.phases.push_back(shifted);

  BTreeSystem btree;
  LearnedSystemOptions rmi_options;
  rmi_options.retrain_policy = RetrainPolicy::kDeltaThreshold;
  LearnedKvSystem rmi(rmi_options);
  LearnedSystemOptions pgm_options;
  pgm_options.index_kind = LearnedSystemOptions::IndexKind::kPgm;
  pgm_options.retrain_policy = RetrainPolicy::kDriftTriggered;
  LearnedKvSystem pgm(pgm_options);
  AdaptiveKvSystem adaptive;

  const Result<ComparisonReport> report =
      CompareSystems(spec, {&btree, &rmi, &pgm, &adaptive});
  if (!report.ok()) {
    std::fprintf(stderr, "comparison failed: %s\n",
                 report.status().ToString().c_str());
    return 1;
  }
  std::printf("%s\n", TableText(ComparisonTable(report.value())).c_str());

  // Archive the first 1000 operations the steady phase drew (its generator
  // seed is the run seed's first fork), then replay the archived CSV as a
  // trace phase through the same driver — what a benchmark-as-a-service
  // evaluator does with a hidden trace.
  const Result<OperationTrace> recorded = RecordTrace(
      spec.datasets[0], steady, 1000, Rng(spec.seed).Fork(1).Next());
  if (!recorded.ok()) {
    std::fprintf(stderr, "recording failed: %s\n",
                 recorded.status().ToString().c_str());
    return 1;
  }
  const std::string csv = recorded.value().ToCsv();
  std::printf("archived trace: %zu ops, first lines of CSV:\n%.*s...\n",
              recorded.value().size(), 120, csv.c_str());

  Result<OperationTrace> archived = OperationTrace::FromCsv(csv);
  if (!archived.ok()) {
    std::fprintf(stderr, "archive unreadable: %s\n",
                 archived.status().ToString().c_str());
    return 1;
  }
  RunSpec replay;
  replay.name = "archived_trace_replay";
  replay.datasets.push_back(spec.datasets[0]);
  PhaseSpec replayed;
  replayed.name = "replayed";
  replayed.num_operations = archived.value().size();
  replayed.trace =
      std::make_shared<const OperationTrace>(std::move(archived).value());
  replay.phases.push_back(replayed);
  BTreeSystem replay_sut;
  BenchmarkDriver driver;
  const Result<RunResult> run = driver.Run(replay, &replay_sut);
  if (!run.ok()) {
    std::fprintf(stderr, "replay failed: %s\n",
                 run.status().ToString().c_str());
    return 1;
  }
  std::printf("replayed %llu archived ops on %s: %.0f ops/s\n",
              static_cast<unsigned long long>(
                  run.value().metrics.total_operations),
              run.value().sut_name.c_str(),
              run.value().metrics.mean_throughput);
  return 0;
}
