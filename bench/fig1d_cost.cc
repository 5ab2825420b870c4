// Reproduces Figure 1d of "Towards a Benchmark for Learned Systems":
// throughput achieved per training cost, for CPU/GPU/TPU training hardware
// profiles, against the step function of a traditional system tuned by a
// paid DBA. Reports the paper's headline metric: the training cost needed
// to outperform the manually tuned system.
//
// Training budget is swept through the RMI's model count and training
// subsampling; training time is measured on the CPU and converted to other
// hardware via the profile's speedup and hourly rate.

#include <cstdio>
#include <utility>
#include <vector>

#include "bench/bench_common.h"
#include "report/report.h"
#include "sut/cost_model.h"
#include "util/clock.h"

namespace lsbench {
namespace {

struct TrainingBudget {
  int num_leaf_models;
  int train_sample_every;
};

/// Measured steady-state read throughput of `sut` on a zipfian workload.
double MeasureThroughput(const RunSpec& spec, SystemUnderTest* sut) {
  const RunResult result = bench::MustRun(spec, sut);
  return result.metrics.mean_throughput;
}

void Main() {
  DatasetOptions data_options;
  data_options.num_keys = bench::ScaledKeys(400000);
  data_options.seed = 11;
  // A hard distribution where model capacity matters.
  const Dataset ds =
      GenerateDataset(ClusteredUnit(40, 0.0015, 13), data_options);

  RunSpec spec;
  spec.name = "fig1d_cost";
  spec.datasets.push_back(ds);
  spec.seed = 2024;
  // The driver reloads the SUT and fits it once per run, so every
  // throughput below is served by a trained model; the sweep times Train()
  // on its own below for the cost axis.
  spec.offline_training = true;
  PhaseSpec reads;
  reads.name = "zipf_reads";
  reads.mix.get = 1.0;
  reads.access = AccessPattern::kZipfian;
  reads.num_operations = bench::ScaledOps(400000);
  spec.phases.push_back(reads);

  // Baseline: untuned traditional system.
  BTreeSystem btree;
  const double base_throughput = MeasureThroughput(spec, &btree);
  const DbaCostModel dba = DbaCostModel::Default();

  // Sweep training budgets: longer training = more leaf models fitted on
  // more of the data.
  const std::vector<TrainingBudget> budgets = {
      {16, 256}, {64, 64}, {256, 16}, {1024, 4}, {4096, 1}, {16384, 1}};
  RealClock clock;
  struct Sweep {
    double cpu_seconds;
    double throughput;
    double mean_error;
    uint64_t fit_points;
  };
  std::vector<Sweep> sweeps;
  for (const TrainingBudget& budget : budgets) {
    LearnedSystemOptions options;
    options.retrain_policy = RetrainPolicy::kNever;
    options.rmi.num_leaf_models = budget.num_leaf_models;
    options.rmi.train_sample_every = budget.train_sample_every;
    LearnedKvSystem learned(options);
    // Load, then time the explicit training pass (repeated to de-noise).
    std::vector<KeyValue> pairs;
    pairs.reserve(ds.keys.size());
    for (size_t i = 0; i < ds.keys.size(); ++i) {
      pairs.emplace_back(ds.keys[i], static_cast<Value>(i));
    }
    bench::MustLoad(&learned, pairs);
    const int reps = 3;
    TrainReport report;
    Stopwatch watch(&clock);
    for (int r = 0; r < reps; ++r) {
      report = learned.Train();
      if (!report.status.ok()) {
        std::fprintf(stderr, "train failed: %s\n",
                     report.status.ToString().c_str());
        std::abort();
      }
    }
    const double cpu_seconds = watch.ElapsedSeconds() / reps;
    const double throughput = MeasureThroughput(spec, &learned);
    // fit_points is one fit's work, as the cost column is one fit's time.
    sweeps.push_back({cpu_seconds, throughput,
                      learned.GetStats().model_error, report.work_items});
  }

  bench::Header("Fig. 1d — throughput per training cost");
  std::printf("traditional baseline (untuned btree): %.0f ops/s\n",
              base_throughput);
  std::printf("DBA model: %s$%.0f/h, tiers to x%.1f at $%.0f total\n", "",
              dba.hourly_rate(), dba.tiers().back().multiplier,
              dba.TotalDollars());
  std::printf("\n%-10s %-14s %-14s %-14s %-14s\n", "budget", "train_cpu_s",
              "throughput", "model_err", "fit_points");
  for (size_t i = 0; i < budgets.size(); ++i) {
    std::printf("%-10d %-14.4f %-14.0f %-14.1f %-14llu\n",
                budgets[i].num_leaf_models, sweeps[i].cpu_seconds,
                sweeps[i].throughput, sweeps[i].mean_error,
                static_cast<unsigned long long>(sweeps[i].fit_points));
  }

  // Scale the cost axis so the sweep spans the DBA tiers: the paper's chart
  // compares *dollar* budgets, and our measured seconds are tiny next to
  // human hours, so we model a production-scale retraining pipeline as
  // 10^6 x the single-index fit (many indexes/partitions/reruns).
  constexpr double kPipelineScale = 1e6;
  std::vector<std::pair<std::string, std::vector<CostPoint>>> curves;
  for (const HardwareProfile& hw :
       {HardwareProfile::Cpu(), HardwareProfile::Gpu(),
        HardwareProfile::Tpu()}) {
    std::vector<CostPoint> points;
    for (const Sweep& s : sweeps) {
      points.push_back(
          {hw.TrainingDollars(s.cpu_seconds * kPipelineScale),
           s.throughput});
    }
    curves.emplace_back("learned_" + hw.name, std::move(points));
  }
  std::printf("\n%s\n",
              RenderCostReport(curves, base_throughput, dba).c_str());
  std::printf("CSV:\n%s\n", TableCsv(CostCurveTable(curves)).c_str());
}

}  // namespace
}  // namespace lsbench

int main() {
  lsbench::Main();
  return 0;
}
