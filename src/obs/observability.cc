#include "obs/observability.h"

#include <cmath>
#include <sstream>

namespace lsbench {

std::string RenderTraceFile(const ObsReport& report,
                            const std::string& run_name,
                            const std::string& sut_name, uint32_t workers) {
  std::ostringstream out;
  out << "# lsbench-trace v1\n";
  out << "# run=" << run_name << " sut=" << sut_name << " workers=" << workers
      << "\n";
  out << "# spans are run-relative nanos: start end phase worker seq name\n";
  for (const TraceSpan& span : report.trace) {
    out << "span " << span.start_nanos << ' ' << span.end_nanos << ' '
        << span.phase << ' ' << span.worker << ' ' << span.seq << ' '
        << span.name << '\n';
  }
  for (const PhaseStageBreakdown& phase : report.stages) {
    for (size_t i = 0; i < kNumStages; ++i) {
      const StageAccum& accum = phase.stages[i];
      if (accum.samples == 0) continue;
      out << "stage " << phase.phase << ' '
          << StageName(static_cast<Stage>(i)) << ' ' << accum.total_nanos
          << ' ' << accum.samples << '\n';
    }
  }
  for (const auto& [name, value] : report.metrics.counters) {
    out << "counter " << name << ' ' << value << '\n';
  }
  for (const auto& [name, value] : report.metrics.gauges) {
    out << "gauge " << name << ' ' << value << '\n';
  }
  for (const auto& [name, hist] : report.metrics.histograms) {
    // Recorded values are integer nanoseconds, so count, sum, min and max
    // print exactly; the interpolated quantiles round to the nearest one.
    out << "hist " << name << " count=" << hist.count()
        << " sum=" << static_cast<int64_t>(hist.sum());
    if (hist.count() > 0) {
      out << " min=" << static_cast<int64_t>(hist.min())
          << " max=" << static_cast<int64_t>(hist.max())
          << " p50=" << std::llround(hist.Median())
          << " p99=" << std::llround(hist.P99());
    }
    out << '\n';
  }
  return out.str();
}

}  // namespace lsbench
