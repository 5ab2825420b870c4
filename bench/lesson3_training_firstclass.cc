// Lesson 3 of the paper: "Training must be a first-class result." The
// benchmark reports training time next to execution performance: this
// experiment sweeps offline training effort and shows the throughput the
// budget buys, from an untrained index up — the curve a benchmark must
// publish instead of hiding training in the setup phase.

#include <cstdio>

#include "bench/bench_common.h"
#include "util/clock.h"

namespace lsbench {
namespace {

void Main() {
  DatasetOptions options;
  options.num_keys = bench::ScaledKeys(400000);
  options.seed = 21;
  const Dataset ds = GenerateDataset(ClusteredUnit(30, 0.002, 23), options);

  RunSpec spec;
  spec.name = "lesson3_training";
  spec.datasets.push_back(ds);
  spec.seed = 3;
  spec.offline_training = true;  // Every budget row serves trained.
  PhaseSpec reads;
  reads.name = "reads";
  reads.mix.get = 1.0;
  reads.access = AccessPattern::kZipfian;
  reads.num_operations = bench::ScaledOps(300000);
  spec.phases.push_back(reads);

  std::vector<KeyValue> pairs;
  pairs.reserve(ds.keys.size());
  for (size_t i = 0; i < ds.keys.size(); ++i) {
    pairs.emplace_back(ds.keys[i], static_cast<Value>(i));
  }

  bench::Header("Lesson 3 — training as a first-class result");
  std::printf("%-8s %-12s %-12s %-12s %-14s %-12s\n", "models",
              "sample_every", "fit_points", "train_s", "throughput",
              "model_err");

  // The zero-budget row: the driver loads the SUT and never trains it, so
  // every lookup binary-searches the whole key array.
  {
    LearnedSystemOptions sys_options;
    sys_options.retrain_policy = RetrainPolicy::kNever;
    LearnedKvSystem sut(sys_options);
    RunSpec untrained = spec;
    untrained.offline_training = false;
    const double throughput =
        bench::MustRun(untrained, &sut).metrics.mean_throughput;
    std::printf("%-8s %-12s %-12d %-12.4f %-14.0f %-12.1f\n", "none", "-", 0,
                0.0, throughput, sut.GetStats().model_error);
  }

  struct Budget {
    int models;
    int sample_every;
  };
  const Budget budgets[] = {
      {8, 256}, {64, 64}, {512, 8}, {4096, 1}, {16384, 1}};
  RealClock clock;
  for (const Budget& budget : budgets) {
    LearnedSystemOptions sys_options;
    sys_options.retrain_policy = RetrainPolicy::kNever;
    sys_options.rmi.num_leaf_models = budget.models;
    sys_options.rmi.train_sample_every = budget.sample_every;
    LearnedKvSystem sut(sys_options);
    // Time one fit on a loaded SUT; the run below reloads and refits it.
    bench::MustLoad(&sut, pairs);
    Stopwatch watch(&clock);
    const TrainReport report = sut.Train();
    const double train_seconds = watch.ElapsedSeconds();
    const double throughput =
        bench::MustRun(spec, &sut).metrics.mean_throughput;
    std::printf("%-8d %-12d %-12llu %-12.4f %-14.0f %-12.1f\n",
                budget.models, budget.sample_every,
                static_cast<unsigned long long>(report.work_items),
                train_seconds, throughput, sut.GetStats().model_error);
  }
  std::printf(
      "\n=> throughput is a function of training effort; a benchmark that\n"
      "   omits the training column cannot compare these systems "
      "(Lesson 3).\n");
}

}  // namespace
}  // namespace lsbench

int main() {
  lsbench::Main();
  return 0;
}
