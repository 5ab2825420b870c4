#ifndef LSBENCH_REPORT_HTML_H_
#define LSBENCH_REPORT_HTML_H_

#include <string>

#include "core/drift.h"
#include "core/driver.h"
#include "core/specialization.h"

namespace lsbench {

/// Self-contained HTML report for one run: the text headline, every
/// section of RunTables as a table, and inline SVG renderings of the
/// paper's Figure-1 charts (specialization box plots, cumulative curve, SLA
/// bands). No external assets or scripts — the file can be archived next to
/// the CSVs and opened anywhere. Pass `drift` to include the drift
/// trajectory section.
std::string RenderHtmlReport(const RunResult& result,
                             const SpecializationReport& specialization,
                             const DriftTrajectoryReport& drift = {});

}  // namespace lsbench

#endif  // LSBENCH_REPORT_HTML_H_
