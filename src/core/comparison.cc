#include "core/comparison.h"

#include "util/assert.h"

namespace lsbench {

size_t ComparisonReport::BestThroughputIndex() const {
  size_t best = 0;
  for (size_t i = 1; i < rows.size(); ++i) {
    if (rows[i].mean_throughput > rows[best].mean_throughput) best = i;
  }
  return best;
}

ComparisonRow MakeComparisonRow(const RunResult& result) {
  ComparisonRow row;
  row.sut_name = result.sut_name;
  row.mean_throughput = result.metrics.mean_throughput;
  row.p50_latency_nanos = result.metrics.overall_latency.Median();
  row.p99_latency_nanos = result.metrics.overall_latency.P99();
  row.sla_violations = result.metrics.total_sla_violations;
  for (const PhaseMetrics& pm : result.metrics.phases) {
    row.adjustment_excess_seconds += pm.adjustment_excess_seconds;
  }
  row.area_vs_ideal = result.metrics.area_vs_ideal;
  row.offline_train_seconds = result.OfflineTrainSeconds();
  row.online_train_seconds = result.final_sut_stats.online_train_seconds;
  row.retrain_events = result.final_sut_stats.retrain_events;
  row.memory_bytes = result.final_sut_stats.memory_bytes;
  return row;
}

Result<ComparisonReport> CompareSystems(
    const RunSpec& spec, const std::vector<SystemUnderTest*>& suts,
    const Clock* clock, DriverOptions driver_options) {
  if (suts.empty()) {
    return Status::InvalidArgument("no systems to compare");
  }
  ComparisonReport report;
  report.run_name = spec.name;
  BenchmarkDriver driver(clock, driver_options);
  for (SystemUnderTest* sut : suts) {
    LSBENCH_ASSERT(sut != nullptr);
    Result<RunResult> result = driver.Run(spec, sut);
    if (!result.ok()) return result.status();
    report.rows.push_back(MakeComparisonRow(result.value()));
    report.results.push_back(std::move(result).value());
  }
  return report;
}

}  // namespace lsbench
