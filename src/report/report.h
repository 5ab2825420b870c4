#ifndef LSBENCH_REPORT_REPORT_H_
#define LSBENCH_REPORT_REPORT_H_

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/comparison.h"
#include "core/drift.h"
#include "core/driver.h"
#include "core/metrics.h"
#include "core/specialization.h"
#include "report/table.h"
#include "sut/cost_model.h"

namespace lsbench {

/// Human-readable run headline: totals, training, latency, SLA, resilience
/// and service-mode verdicts, SUT stats and the trace span count. The
/// per-section numbers are in RunTables.
std::string RenderRunSummary(const RunResult& result);

/// Fig. 1a — box plots per phase, sorted by Φ, hold-outs marked.
std::string RenderSpecializationReport(const SpecializationReport& report);

/// Fig. 1b — cumulative queries over time for one or more systems, with the
/// area-vs-ideal summary per system.
std::string RenderCumulativeComparison(
    const std::vector<std::pair<std::string, std::vector<CumulativePoint>>>&
        curves);

/// Fig. 1c — SLA bands plus the violation totals.
std::string RenderSlaBands(const std::vector<LatencyBand>& bands,
                           int64_t sla_nanos);

/// One sample of a Fig. 1d training-cost sweep.
struct CostPoint {
  double training_dollars = 0.0;
  double throughput = 0.0;
};

/// Fig. 1d — learned throughput-vs-cost curves (one per hardware profile)
/// against the DBA step function; reports training-cost-to-outperform.
std::string RenderCostReport(
    const std::vector<std::pair<std::string, std::vector<CostPoint>>>& curves,
    double traditional_base_throughput, const DbaCostModel& dba);

/// The declared drift trajectory's overall verdict against its tolerance;
/// empty when the spec declares no trajectory. The per-transition numbers
/// are in DriftTable.
std::string RenderDriftReport(const DriftTrajectoryReport& report);

// One builder per report section. A builder returning std::nullopt has
// nothing to report for this run, and its section is left out.

/// Fig. 1a rows: Φ, its components and the throughput box per phase.
Table SpecializationTable(const SpecializationReport& report);
/// Fig. 1b series (chart table).
Table CumulativeTable(const std::vector<CumulativePoint>& curve);
/// Fig. 1c series (chart table).
Table BandsTable(const std::vector<LatencyBand>& bands);
/// Fig. 1d series, one row per (system, sample) (chart table).
Table CostCurveTable(
    const std::vector<std::pair<std::string, std::vector<CostPoint>>>& curves);
/// One row per phase transition: measured drift factor and components, the
/// declared target, tolerance and verdict (empty cells when undeclared).
/// Nothing to report when the spec has a single phase.
std::optional<Table> DriftTable(const DriftTrajectoryReport& report);
/// One row per compared system; best_throughput flags the fastest.
Table ComparisonTable(const ComparisonReport& report);

/// Every section of one run, in report order: phases, op_types, service,
/// resilience, stages, metrics, histograms, specialization, cumulative,
/// bands, drift. Sections with nothing to report are left out. Text, CSV
/// and HTML reports are loops over this list.
std::vector<Table> RunTables(const RunResult& run,
                             const SpecializationReport& specialization,
                             const DriftTrajectoryReport& drift);

}  // namespace lsbench

#endif  // LSBENCH_REPORT_REPORT_H_
