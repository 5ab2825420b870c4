// Reproduces Figure 1c of "Towards a Benchmark for Learned Systems":
// query-latency bands per reporting interval, split into completions within
// the SLA and violations, plus the adjustment-speed metric (sum of excess
// latency over the first N queries after a distribution change).
//
// The SLA threshold is calibrated from the first phase's latency statistics
// (p99 x 2), as the paper recommends. Expected shape: a burst of violations
// right after the abrupt shift for the retraining learned system, decaying
// as the models adapt; the traditional system shows few violations
// throughout.

#include <cstdio>

#include "bench/bench_common.h"
#include "stats/ascii_chart.h"
#include "report/report.h"

namespace lsbench {
namespace {

RunSpec BuildSpec(const std::vector<Dataset>& datasets) {
  RunSpec spec;
  spec.name = "fig1c_sla";
  spec.datasets = datasets;
  spec.seed = 555;
  spec.interval_nanos = 20000000;  // 20 ms bands.
  spec.sla.threshold_nanos = 0;    // Calibrate from phase 0 (p99 x 2).
  spec.sla.auto_percentile = 0.99;
  spec.sla.auto_margin = 2.0;
  spec.adjustment_window_ops = 20000;

  // Open-loop arrivals are essential here: during a synchronous retraining
  // stall the offered load keeps arriving, so queueing delay turns the
  // stall into a visible burst of SLA violations (the paper's Fig. 1c).
  PhaseSpec before;
  before.name = "steady_state";
  before.dataset_index = 0;
  before.mix.get = 0.95;
  before.mix.insert = 0.05;
  before.access = AccessPattern::kZipfian;
  before.arrival = ArrivalPattern::kPoisson;
  before.arrival_rate_qps = 400000.0;
  before.num_operations = bench::ScaledOps(300000);
  spec.phases.push_back(before);

  PhaseSpec shift;
  shift.name = "abrupt_shift";
  shift.dataset_index = 4;
  shift.mix.get = 0.7;
  shift.mix.insert = 0.3;
  shift.access = AccessPattern::kZipfian;
  shift.arrival = ArrivalPattern::kPoisson;
  shift.arrival_rate_qps = 400000.0;
  shift.num_operations = bench::ScaledOps(300000);
  spec.phases.push_back(shift);
  return spec;
}

void RunSystem(const RunSpec& spec, SystemUnderTest* sut) {
  const RunResult result = bench::MustRun(spec, sut);
  bench::Header("Fig. 1c — " + sut->name());
  std::printf("%s\n", RenderRunSummary(result).c_str());
  std::printf("%s\n", RenderSlaBands(result.metrics.bands,
                                     result.metrics.sla_nanos)
                          .c_str());
  for (const PhaseMetrics& pm : result.metrics.phases) {
    std::printf(
        "phase %d: sla_violations=%llu adjustment_excess=%.4fs\n", pm.phase,
        static_cast<unsigned long long>(pm.sla_violations),
        pm.adjustment_excess_seconds);
  }
  // The SV-D2 extension: more bands, color-coded (here glyph-coded) into
  // <=SLA/2, <=SLA, <=4xSLA, above.
  const int64_t sla = result.metrics.sla_nanos;
  const std::vector<MultiBand> multi = BuildMultiBands(
      result.events, spec.interval_nanos, {sla / 2, sla, 4 * sla});
  std::vector<std::vector<double>> columns;
  for (const MultiBand& band : multi) {
    std::vector<double> col;
    for (uint64_t c : band.counts) col.push_back(static_cast<double>(c));
    columns.push_back(std::move(col));
  }
  std::printf("multi-threshold bands (<=SLA/2, <=SLA, <=4xSLA, above):\n%s",
              RenderMultiBandChart(columns).c_str());
  std::printf("\nCSV:\n%s\n",
              TableCsv(BandsTable(result.metrics.bands)).c_str());
}

void Main() {
  const std::vector<Dataset> datasets =
      bench::StandardDriftDatasets(bench::ScaledKeys(200000), 3);
  const RunSpec spec = BuildSpec(datasets);

  // Drift-triggered retraining: quiet through the steady phase, then
  // synchronous retraining stalls right after the shift.
  LearnedSystemOptions learned_options;
  learned_options.retrain_policy = RetrainPolicy::kDriftTriggered;
  LearnedKvSystem learned(learned_options);
  RunSystem(spec, &learned);

  BTreeSystem btree;
  RunSystem(spec, &btree);
}

}  // namespace
}  // namespace lsbench

int main() {
  lsbench::Main();
  return 0;
}
