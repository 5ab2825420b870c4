#include "report/report.h"

#include <sstream>

#include "obs/metrics_registry.h"
#include "obs/profile.h"
#include "stats/ascii_chart.h"
#include "util/string_util.h"

namespace lsbench {

namespace {

// Each section's "nothing to report" predicate, shared by its headline
// line and its table.
bool HasResilience(const ResilienceMetrics& rm) {
  return rm.failed_operations > 0 || rm.total_retries > 0 ||
         rm.breaker_opens > 0 || rm.failed_trains > 0;
}

bool HasService(const ServiceMetrics& sm) {
  return sm.enabled || sm.open_loop_operations > 0;
}

}  // namespace

std::string RenderRunSummary(const RunResult& result) {
  std::ostringstream os;
  os << "=== Run '" << result.run_name << "' on SUT '" << result.sut_name
     << "' ===\n";
  os << "load: " << FormatDouble(result.load_seconds, 3) << "s";
  if (!result.train_events.empty()) {
    os << ", offline training: "
       << FormatDouble(result.OfflineTrainSeconds(), 3) << "s over "
       << result.train_events.size() << " pass(es)";
  }
  os << "\n";
  const RunMetrics& m = result.metrics;
  os << "operations: " << m.total_operations
     << ", wall: " << FormatDouble(m.wall_seconds, 3) << "s"
     << ", mean throughput: " << HumanCount(m.mean_throughput) << " ops/s\n";
  // On closed-loop runs this is a *service time*: each op issues only after
  // the previous completes, so queueing delay a real client would have seen
  // is never measured (coordinated omission). Open-loop service mode
  // reports the response-time decomposition below.
  os << "service time: p50=" << HumanDuration(m.overall_latency.Median())
     << " p95=" << HumanDuration(m.overall_latency.P95())
     << " p99=" << HumanDuration(m.overall_latency.P99())
     << " max=" << HumanDuration(m.overall_latency.max()) << "\n";
  if (m.service.open_loop_operations == 0) {
    os << "note: closed-loop run; latencies above exclude queueing delay "
          "(coordinated omission) — use [service] mode for response times\n";
  }
  os << "SLA threshold: " << HumanDuration(static_cast<double>(m.sla_nanos))
     << ", violations: " << m.total_sla_violations << " ("
     << FormatDouble(m.total_operations > 0
                         ? 100.0 * static_cast<double>(m.total_sla_violations) /
                               static_cast<double>(m.total_operations)
                         : 0.0,
                     2)
     << "%)\n";
  os << "area vs ideal: " << FormatDouble(m.area_vs_ideal, 1)
     << " query-seconds\n";
  const ResilienceMetrics& rm = m.resilience;
  if (HasResilience(rm)) {
    os << "resilience: availability="
       << FormatDouble(100.0 * rm.availability, 2) << "%"
       << ", errors=" << rm.failed_operations
       << " (timeouts=" << rm.timeouts << ", shed=" << rm.shed_operations
       << "), retries=" << rm.total_retries
       << ", breaker opens=" << rm.breaker_opens
       << ", degraded=" << FormatDouble(rm.degraded_seconds, 3) << "s";
    if (rm.failed_trains > 0) os << ", failed trains=" << rm.failed_trains;
    os << "\n";
  }
  const ServiceMetrics& sm = m.service;
  if (HasService(sm)) {
    os << "service mode: policy=" << (sm.policy.empty() ? "-" : sm.policy)
       << ", queue capacity=" << sm.queue_capacity
       << ", offered=" << HumanCount(sm.offered_qps) << " elements/s"
       << ", goodput=" << HumanCount(sm.achieved_qps) << " elements/s\n";
    os << "  response time (from intended arrival): p50="
       << HumanDuration(sm.response_latency.Median())
       << " p99=" << HumanDuration(sm.response_latency.P99())
       << " | service time (from issue): p50="
       << HumanDuration(sm.service_latency.Median())
       << " p99=" << HumanDuration(sm.service_latency.P99()) << "\n";
    os << "  coordinated-omission gap (response p99 - service p99): "
       << HumanDuration(sm.response_latency.P99() -
                        sm.service_latency.P99())
       << ", queue wait p99=" << HumanDuration(sm.queue_wait.P99()) << "\n";
    os << "  shed: " << sm.queue_shed_operations << " of "
       << sm.open_loop_operations << " offered ("
       << FormatDouble(100.0 * sm.shed_fraction, 2) << "%), bound "
       << FormatDouble(100.0 * sm.max_shed_fraction, 0) << "% -> "
       << (sm.shed_bound_met ? "met" : "EXCEEDED");
    if (sm.slo_p99_nanos > 0) {
      os << "; SLO p99 "
         << HumanDuration(static_cast<double>(sm.slo_p99_nanos)) << " -> "
         << (sm.slo_met ? "met" : "VIOLATED");
    }
    os << "\n";
  }
  os << "SUT stats: memory=" << HumanCount(static_cast<double>(
                                   result.final_sut_stats.memory_bytes))
     << "B, retrain events=" << result.final_sut_stats.retrain_events
     << ", online training="
     << FormatDouble(result.final_sut_stats.online_train_seconds, 3) << "s\n";

  if (!result.observability.trace.empty()) {
    os << "trace: " << result.observability.trace.size()
       << " spans recorded (--trace-out writes the full stream)\n";
  }
  return os.str();
}

std::string RenderSpecializationReport(const SpecializationReport& report) {
  std::vector<LabeledBox> boxes;
  for (const SpecializationEntry& e : report.entries) {
    std::string label =
        "phi=" + FormatDouble(e.drift.factor, 2) + " " + e.phase_name;
    if (e.holdout) label += " [holdout]";
    boxes.push_back({label, e.throughput_box});
  }
  return "=== Specialization (Fig. 1a): throughput per workload/data "
         "distribution, sorted by phi ===\n" +
         RenderBoxPlotChart(boxes);
}

std::string RenderCumulativeComparison(
    const std::vector<std::pair<std::string, std::vector<CumulativePoint>>>&
        curves) {
  std::ostringstream os;
  os << "=== Cumulative queries over time (Fig. 1b) ===\n";
  std::vector<Series> series;
  for (const auto& [name, curve] : curves) {
    Series s;
    s.name = name + " (area vs ideal: " +
             FormatDouble(AreaVsIdeal(curve), 1) + " q-s)";
    for (const CumulativePoint& p : curve) {
      s.xs.push_back(static_cast<double>(p.t_nanos) * 1e-9);
      s.ys.push_back(static_cast<double>(p.completed));
    }
    series.push_back(std::move(s));
  }
  os << RenderLineChart(series, 72, 20, "seconds", "cumulative queries");
  if (curves.size() == 2) {
    os << "area between systems ('" << curves[0].first << "' - '"
       << curves[1].first << "'): "
       << FormatDouble(AreaBetweenCurves(curves[0].second, curves[1].second),
                       1)
       << " query-seconds\n";
  }
  return os.str();
}

std::string RenderSlaBands(const std::vector<LatencyBand>& bands,
                           int64_t sla_nanos) {
  std::ostringstream os;
  os << "=== SLA violation bands (Fig. 1c), threshold "
     << HumanDuration(static_cast<double>(sla_nanos)) << " ===\n";
  std::vector<BandColumn> columns;
  uint64_t violated = 0, total = 0;
  for (const LatencyBand& b : bands) {
    columns.push_back({static_cast<double>(b.within_sla),
                       static_cast<double>(b.violated)});
    violated += b.violated;
    total += b.Total();
  }
  os << RenderBandChart(columns);
  os << "total completions: " << total << ", violations: " << violated
     << "\n";
  return os.str();
}

std::string RenderCostReport(
    const std::vector<std::pair<std::string, std::vector<CostPoint>>>& curves,
    double traditional_base_throughput, const DbaCostModel& dba) {
  std::ostringstream os;
  os << "=== Throughput per training cost (Fig. 1d) ===\n";
  std::vector<Series> series;
  double max_cost = dba.TotalDollars();
  for (const auto& [name, points] : curves) {
    for (const CostPoint& p : points) {
      max_cost = std::max(max_cost, p.training_dollars);
    }
  }
  for (const auto& [name, points] : curves) {
    Series s;
    s.name = name;
    for (const CostPoint& p : points) {
      s.xs.push_back(p.training_dollars);
      s.ys.push_back(p.throughput);
    }
    series.push_back(std::move(s));
  }
  // DBA step function sampled densely so the steps are visible.
  Series dba_series;
  dba_series.name = "traditional + DBA (step function)";
  for (int i = 0; i <= 100; ++i) {
    const double dollars = max_cost * static_cast<double>(i) / 100.0;
    dba_series.xs.push_back(dollars);
    dba_series.ys.push_back(traditional_base_throughput *
                            dba.MultiplierAt(dollars));
  }
  series.push_back(std::move(dba_series));
  os << RenderLineChart(series, 72, 20, "training dollars", "ops/s");

  for (const auto& [name, points] : curves) {
    std::vector<double> costs, tputs;
    for (const CostPoint& p : points) {
      costs.push_back(p.training_dollars);
      tputs.push_back(p.throughput);
    }
    const double crossover = TrainingCostToOutperform(
        costs, tputs, traditional_base_throughput, dba);
    os << "training cost to outperform (" << name << "): ";
    if (crossover < 0.0) {
      os << "never\n";
    } else {
      os << "$" << FormatDouble(crossover, 4) << "\n";
    }
  }
  return os.str();
}


std::string RenderDriftReport(const DriftTrajectoryReport& report) {
  if (report.transitions.empty() || !report.declared) return "";
  return "declared drift trajectory, tolerance " +
         FormatDouble(report.tolerance, 3) + " -> " +
         (report.AllWithinTolerance() ? "met" : "VIOLATED") + "\n";
}

namespace {

Table PhasesTable(const RunMetrics& metrics) {
  Table t{"phases",
          {"phase", "holdout", "operations", "duration_s", "mean_throughput",
           "median_throughput", "p99_latency_ns", "sla_violations",
           "adjustment_excess_s"}};
  for (const PhaseMetrics& pm : metrics.phases) {
    t.rows.push_back({Cell::Count(static_cast<int64_t>(pm.phase)),
                      Cell::Flag(pm.holdout), Cell::Count(pm.operations),
                      Cell::Seconds(pm.duration_seconds),
                      Cell::Rate(pm.mean_throughput),
                      Cell::Rate(pm.throughput_box.median),
                      Cell::Nanos(pm.latency.P99()),
                      Cell::Count(pm.sla_violations),
                      Cell::Seconds(pm.adjustment_excess_seconds)});
  }
  return t;
}

/// One row per OpType, zero rows included so columns line up across runs.
/// Batch classes are judged by their effective per-op latency (request
/// latency / batch size); for scalar classes both latencies coincide.
Table OpTypesTable(const RunMetrics& metrics) {
  Table t{"op_types",
          {"op_type", "operations", "ok", "failed", "p50_latency_ns",
           "p99_latency_ns", "max_latency_ns", "mean_batch",
           "effective_p50_ns", "effective_p99_ns"}};
  for (const OpTypeMetrics& ot : metrics.op_types) {
    t.rows.push_back({Cell::Text(OpTypeToString(ot.type)),
                      Cell::Count(ot.operations),
                      Cell::Count(ot.ok_operations),
                      Cell::Count(ot.failed_operations),
                      Cell::Nanos(ot.latency.Median()),
                      Cell::Nanos(ot.latency.P99()),
                      Cell::Nanos(ot.latency.max()),
                      Cell::Ratio(ot.MeanBatchSize()),
                      Cell::Nanos(ot.effective_latency.Median()),
                      Cell::Nanos(ot.effective_latency.P99())});
  }
  return t;
}

/// The [service] section's verdicts and latency decomposition (response vs
/// service time, shed accounting). Nothing to report on closed-loop runs.
std::optional<Table> ServiceTable(const ServiceMetrics& sm) {
  if (!HasService(sm)) return std::nullopt;
  return Table{
      "service",
      {"policy", "queue_capacity", "offered_ops", "queue_shed",
       "shed_fraction", "max_shed_fraction", "shed_bound_met", "offered_qps",
       "achieved_qps", "response_p50_ns", "response_p99_ns", "service_p50_ns",
       "service_p99_ns", "queue_wait_p99_ns", "slo_p99_ns", "slo_met"},
      {{Cell::Text(sm.policy),
        Cell::Count(static_cast<uint64_t>(sm.queue_capacity)),
        Cell::Count(sm.open_loop_operations),
        Cell::Count(sm.queue_shed_operations), Cell::Ratio(sm.shed_fraction),
        Cell::Ratio(sm.max_shed_fraction), Cell::Flag(sm.shed_bound_met),
        Cell::Rate(sm.offered_qps), Cell::Rate(sm.achieved_qps),
        Cell::Nanos(sm.response_latency.Median()),
        Cell::Nanos(sm.response_latency.P99()),
        Cell::Nanos(sm.service_latency.Median()),
        Cell::Nanos(sm.service_latency.P99()),
        Cell::Nanos(sm.queue_wait.P99()), Cell::Nanos(sm.slo_p99_nanos),
        Cell::Flag(sm.slo_met)}}};
}

/// Nothing to report on a run without failures, retries or breaker trips.
std::optional<Table> ResilienceTable(const ResilienceMetrics& rm) {
  if (!HasResilience(rm)) return std::nullopt;
  return Table{"resilience",
               {"availability", "failed_operations", "timeouts",
                "shed_operations", "retries", "breaker_opens", "degraded_s",
                "failed_trains"},
               {{Cell::Ratio(rm.availability),
                 Cell::Count(rm.failed_operations), Cell::Count(rm.timeouts),
                 Cell::Count(rm.shed_operations),
                 Cell::Count(rm.total_retries), Cell::Count(rm.breaker_opens),
                 Cell::Seconds(rm.degraded_seconds),
                 Cell::Count(rm.failed_trains)}}};
}

/// Where the time went, per phase (phase -1 holds load/train/merge).
/// Nothing to report unless the spec's [observability] profile is on.
std::optional<Table> StagesTable(const StageBreakdown& stages) {
  if (stages.empty()) return std::nullopt;
  Table t{"stages",
          {"phase", "stage", "total_nanos", "samples", "share"}};
  for (const PhaseStageBreakdown& pb : stages) {
    const int64_t phase_total = pb.TotalNanos();
    for (size_t s = 0; s < kNumStages; ++s) {
      const StageAccum& accum = pb.stages[s];
      if (accum.samples == 0) continue;
      t.rows.push_back(
          {Cell::Count(static_cast<int64_t>(pb.phase)),
           Cell::Text(std::string(StageName(static_cast<Stage>(s)))),
           Cell::Nanos(accum.total_nanos), Cell::Count(accum.samples),
           Cell::Ratio(phase_total > 0
                           ? static_cast<double>(accum.total_nanos) /
                                 static_cast<double>(phase_total)
                           : 0.0)});
    }
  }
  return t;
}

/// Metrics-registry counters and gauges.
std::optional<Table> MetricsTable(const MetricsSnapshot& metrics) {
  if (metrics.counters.empty() && metrics.gauges.empty()) return std::nullopt;
  Table t{"metrics", {"metric", "value"}};
  for (const auto& [name, value] : metrics.counters) {
    t.rows.push_back({Cell::Text(name), Cell::Count(value)});
  }
  for (const auto& [name, value] : metrics.gauges) {
    t.rows.push_back({Cell::Text(name), Cell::Count(value)});
  }
  return t;
}

/// Metrics-registry latency histograms.
std::optional<Table> HistogramsTable(const MetricsSnapshot& metrics) {
  if (metrics.histograms.empty()) return std::nullopt;
  Table t{"histograms",
          {"histogram", "count", "p50_ns", "p99_ns", "max_ns"}};
  for (const auto& [name, hist] : metrics.histograms) {
    t.rows.push_back({Cell::Text(name), Cell::Count(hist.count()),
                      Cell::Nanos(hist.Median()), Cell::Nanos(hist.P99()),
                      Cell::Nanos(static_cast<int64_t>(hist.max()))});
  }
  return t;
}

}  // namespace

Table SpecializationTable(const SpecializationReport& report) {
  Table t{"specialization",
          {"phase", "phi", "key_ks", "key_mmd", "key_overlap", "op_mix_tv",
           "holdout", "mean_throughput", "q1", "median", "q3", "min",
           "max"}};
  for (const SpecializationEntry& e : report.entries) {
    t.rows.push_back({Cell::Text(e.phase_name), Cell::Ratio(e.drift.factor),
                      Cell::Ratio(e.drift.key_ks), Cell::Ratio(e.drift.key_mmd),
                      Cell::Ratio(e.drift.key_overlap),
                      Cell::Ratio(e.drift.op_mix_tv), Cell::Flag(e.holdout),
                      Cell::Rate(e.mean_throughput),
                      Cell::Rate(e.throughput_box.q1),
                      Cell::Rate(e.throughput_box.median),
                      Cell::Rate(e.throughput_box.q3),
                      Cell::Rate(e.throughput_box.min),
                      Cell::Rate(e.throughput_box.max)});
  }
  return t;
}

Table CumulativeTable(const std::vector<CumulativePoint>& curve) {
  Table t{"cumulative", {"t_seconds", "completed"}, {}, /*chart=*/true};
  for (const CumulativePoint& p : curve) {
    t.rows.push_back({Cell::Seconds(static_cast<double>(p.t_nanos) * 1e-9),
                      Cell::Count(p.completed)});
  }
  return t;
}

Table BandsTable(const std::vector<LatencyBand>& bands) {
  Table t{"bands", {"start_seconds", "within_sla", "violated"}, {},
          /*chart=*/true};
  for (const LatencyBand& b : bands) {
    t.rows.push_back(
        {Cell::Seconds(static_cast<double>(b.start_nanos) * 1e-9),
         Cell::Count(b.within_sla), Cell::Count(b.violated)});
  }
  return t;
}

Table CostCurveTable(
    const std::vector<std::pair<std::string, std::vector<CostPoint>>>&
        curves) {
  Table t{"cost", {"system", "training_dollars", "throughput"}, {},
          /*chart=*/true};
  for (const auto& [name, points] : curves) {
    for (const CostPoint& p : points) {
      // Dollars have no unit kind of their own; a ratio prints the number.
      t.rows.push_back({Cell::Text(name), Cell::Ratio(p.training_dollars),
                        Cell::Rate(p.throughput)});
    }
  }
  return t;
}

std::optional<Table> DriftTable(const DriftTrajectoryReport& report) {
  if (report.transitions.empty()) return std::nullopt;
  Table t{"drift",
          {"transition", "from_phase", "to_phase", "factor", "declared",
           "tolerance", "within_tolerance", "key_ks", "key_mmd",
           "key_overlap", "op_mix_tv"}};
  for (size_t i = 0; i < report.transitions.size(); ++i) {
    const DriftTransitionReport& tr = report.transitions[i];
    const bool declared = tr.declared >= 0.0;
    t.rows.push_back(
        {Cell::Count(static_cast<uint64_t>(i)), Cell::Text(tr.from_phase),
         Cell::Text(tr.to_phase), Cell::Ratio(tr.components.factor),
         declared ? Cell::Ratio(tr.declared) : Cell(),
         report.declared ? Cell::Ratio(report.tolerance) : Cell(),
         declared ? Cell::Flag(tr.within_tolerance) : Cell(),
         Cell::Ratio(tr.components.key_ks), Cell::Ratio(tr.components.key_mmd),
         Cell::Ratio(tr.components.key_overlap),
         Cell::Ratio(tr.components.op_mix_tv)});
  }
  return t;
}

Table ComparisonTable(const ComparisonReport& report) {
  Table t{"comparison",
          {"system", "mean_throughput", "p50_latency_ns", "p99_latency_ns",
           "sla_violations", "adjustment_excess_s", "area_vs_ideal",
           "train_s", "retrains", "memory_bytes", "best_throughput"}};
  const size_t best = report.BestThroughputIndex();
  for (size_t i = 0; i < report.rows.size(); ++i) {
    const ComparisonRow& r = report.rows[i];
    t.rows.push_back(
        {Cell::Text(r.sut_name), Cell::Rate(r.mean_throughput),
         Cell::Nanos(r.p50_latency_nanos), Cell::Nanos(r.p99_latency_nanos),
         Cell::Count(r.sla_violations),
         Cell::Seconds(r.adjustment_excess_seconds),
         Cell::Seconds(r.area_vs_ideal),
         Cell::Seconds(r.offline_train_seconds + r.online_train_seconds),
         Cell::Count(r.retrain_events),
         Cell::Count(static_cast<uint64_t>(r.memory_bytes)),
         Cell::Flag(i == best)});
  }
  return t;
}

std::vector<Table> RunTables(const RunResult& run,
                             const SpecializationReport& specialization,
                             const DriftTrajectoryReport& drift) {
  const RunMetrics& m = run.metrics;
  const MetricsSnapshot& registry = run.observability.metrics;
  std::optional<Table> sections[] = {
      PhasesTable(m),
      OpTypesTable(m),
      ServiceTable(m.service),
      ResilienceTable(m.resilience),
      StagesTable(run.observability.stages),
      MetricsTable(registry),
      HistogramsTable(registry),
      SpecializationTable(specialization),
      CumulativeTable(m.cumulative),
      BandsTable(m.bands),
      DriftTable(drift),
  };
  std::vector<Table> tables;
  for (std::optional<Table>& section : sections) {
    if (section) tables.push_back(std::move(*section));
  }
  return tables;
}

}  // namespace lsbench
