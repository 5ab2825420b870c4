#include "report/html.h"

#include <algorithm>
#include <sstream>

#include "report/report.h"
#include "report/table.h"
#include "util/string_util.h"

namespace lsbench {

namespace {

constexpr int kChartWidth = 720;
constexpr int kChartHeight = 240;
constexpr int kMarginLeft = 60;
constexpr int kMarginBottom = 28;
constexpr int kMarginTop = 12;

/// Maps a value into pixel space.
double ScaleX(double v, double lo, double hi) {
  if (hi <= lo) return kMarginLeft;
  return kMarginLeft +
         (v - lo) / (hi - lo) * (kChartWidth - kMarginLeft - 10);
}

double ScaleY(double v, double lo, double hi) {
  if (hi <= lo) return kChartHeight - kMarginBottom;
  return (kChartHeight - kMarginBottom) -
         (v - lo) / (hi - lo) *
             (kChartHeight - kMarginBottom - kMarginTop);
}

void OpenSvg(std::ostringstream* os, const std::string& title) {
  (*os) << "<h2>" << title << "</h2>\n";
  (*os) << "<svg width=\"" << kChartWidth << "\" height=\"" << kChartHeight
        << "\" style=\"background:#fafafa;border:1px solid #ddd\">\n";
}

void CloseSvg(std::ostringstream* os) { (*os) << "</svg>\n"; }

void Axes(std::ostringstream* os, const std::string& x_label,
          const std::string& y_lo, const std::string& y_hi) {
  (*os) << "<line x1=\"" << kMarginLeft << "\" y1=\"" << kMarginTop
        << "\" x2=\"" << kMarginLeft << "\" y2=\""
        << (kChartHeight - kMarginBottom)
        << "\" stroke=\"#999\"/>\n";
  (*os) << "<line x1=\"" << kMarginLeft << "\" y1=\""
        << (kChartHeight - kMarginBottom) << "\" x2=\"" << (kChartWidth - 10)
        << "\" y2=\"" << (kChartHeight - kMarginBottom)
        << "\" stroke=\"#999\"/>\n";
  (*os) << "<text x=\"" << (kChartWidth / 2) << "\" y=\""
        << (kChartHeight - 8) << "\" font-size=\"11\" text-anchor=\"middle\">"
        << x_label << "</text>\n";
  (*os) << "<text x=\"4\" y=\"" << (kChartHeight - kMarginBottom)
        << "\" font-size=\"10\">" << y_lo << "</text>\n";
  (*os) << "<text x=\"4\" y=\"" << (kMarginTop + 10)
        << "\" font-size=\"10\">" << y_hi << "</text>\n";
}

void CumulativeSvg(std::ostringstream* os,
                   const std::vector<CumulativePoint>& curve) {
  OpenSvg(os, "Cumulative queries over time (Fig. 1b)");
  if (curve.size() >= 2) {
    const double t_hi = static_cast<double>(curve.back().t_nanos) * 1e-9;
    const double q_hi = static_cast<double>(curve.back().completed);
    // Ideal constant-throughput reference line.
    (*os) << "<line x1=\"" << ScaleX(0, 0, t_hi) << "\" y1=\""
          << ScaleY(0, 0, q_hi) << "\" x2=\"" << ScaleX(t_hi, 0, t_hi)
          << "\" y2=\"" << ScaleY(q_hi, 0, q_hi)
          << "\" stroke=\"#bbb\" stroke-dasharray=\"4 3\"/>\n";
    (*os) << "<polyline fill=\"none\" stroke=\"#2563eb\" stroke-width=\"2\" "
             "points=\"";
    for (const CumulativePoint& p : curve) {
      (*os) << ScaleX(static_cast<double>(p.t_nanos) * 1e-9, 0, t_hi) << ","
            << ScaleY(static_cast<double>(p.completed), 0, q_hi) << " ";
    }
    (*os) << "\"/>\n";
    Axes(os, "seconds", "0", HumanCount(q_hi));
  }
  CloseSvg(os);
}

void BandsSvg(std::ostringstream* os, const std::vector<LatencyBand>& bands) {
  OpenSvg(os, "SLA violation bands (Fig. 1c)");
  if (!bands.empty()) {
    double max_total = 1.0;
    for (const LatencyBand& b : bands) {
      max_total = std::max(max_total, static_cast<double>(b.Total()));
    }
    const double band_width =
        static_cast<double>(kChartWidth - kMarginLeft - 10) /
        static_cast<double>(bands.size());
    for (size_t i = 0; i < bands.size(); ++i) {
      const double x =
          kMarginLeft + band_width * static_cast<double>(i);
      const double within = static_cast<double>(bands[i].within_sla);
      const double violated = static_cast<double>(bands[i].violated);
      const double y_within = ScaleY(within, 0, max_total);
      const double y_top = ScaleY(within + violated, 0, max_total);
      const double base = kChartHeight - kMarginBottom;
      (*os) << "<rect x=\"" << x << "\" y=\"" << y_within << "\" width=\""
            << std::max(1.0, band_width - 1) << "\" height=\""
            << (base - y_within) << "\" fill=\"#22c55e\"/>\n";
      if (violated > 0) {
        (*os) << "<rect x=\"" << x << "\" y=\"" << y_top << "\" width=\""
              << std::max(1.0, band_width - 1) << "\" height=\""
              << (y_within - y_top) << "\" fill=\"#ef4444\"/>\n";
      }
    }
    Axes(os, "interval (green=within SLA, red=violated)", "0",
         HumanCount(max_total));
  }
  CloseSvg(os);
}

void BoxPlotsSvg(std::ostringstream* os, const SpecializationReport& report) {
  OpenSvg(os, "Throughput per workload/data distribution (Fig. 1a)");
  if (!report.entries.empty()) {
    double t_hi = 1.0;
    for (const SpecializationEntry& e : report.entries) {
      t_hi = std::max(t_hi, e.throughput_box.max);
    }
    const double slot =
        static_cast<double>(kChartWidth - kMarginLeft - 10) /
        static_cast<double>(report.entries.size());
    for (size_t i = 0; i < report.entries.size(); ++i) {
      const BoxPlotSummary& box = report.entries[i].throughput_box;
      const double cx =
          kMarginLeft + slot * (static_cast<double>(i) + 0.5);
      const double half = std::max(4.0, slot * 0.2);
      auto y = [&](double v) { return ScaleY(v, 0, t_hi); };
      // Whiskers, box, median.
      (*os) << "<line x1=\"" << cx << "\" y1=\"" << y(box.whisker_low)
            << "\" x2=\"" << cx << "\" y2=\"" << y(box.whisker_high)
            << "\" stroke=\"#555\"/>\n";
      (*os) << "<rect x=\"" << (cx - half) << "\" y=\"" << y(box.q3)
            << "\" width=\"" << (2 * half) << "\" height=\""
            << std::max(1.0, y(box.q1) - y(box.q3))
            << "\" fill=\"#93c5fd\" stroke=\"#2563eb\"/>\n";
      (*os) << "<line x1=\"" << (cx - half) << "\" y1=\"" << y(box.median)
            << "\" x2=\"" << (cx + half) << "\" y2=\"" << y(box.median)
            << "\" stroke=\"#1d4ed8\" stroke-width=\"2\"/>\n";
      for (double o : box.outliers) {
        (*os) << "<circle cx=\"" << cx << "\" cy=\"" << y(o)
              << "\" r=\"2\" fill=\"#ef4444\"/>\n";
      }
      // Phi label.
      (*os) << "<text x=\"" << cx << "\" y=\"" << (kChartHeight - 14)
            << "\" font-size=\"10\" text-anchor=\"middle\">"
            << FormatDouble(report.entries[i].drift.factor, 2)
            << (report.entries[i].holdout ? "*" : "") << "</text>\n";
    }
    Axes(os, "phi (ascending; * = hold-out)", "0", HumanCount(t_hi));
  }
  CloseSvg(os);
}

}  // namespace

std::string RenderHtmlReport(const RunResult& result,
                             const SpecializationReport& specialization,
                             const DriftTrajectoryReport& drift) {
  std::ostringstream os;
  os << "<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\">\n<title>"
     << HtmlEscape(result.run_name) << " — " << HtmlEscape(result.sut_name)
     << "</title>\n"
     << "<style>body{font-family:sans-serif;max-width:780px;margin:24px "
        "auto}table{border-collapse:collapse}td,th{border:1px solid "
        "#ccc;padding:4px 8px;font-size:13px}</style></head><body>\n";
  os << "<h1>LSBench run &quot;" << HtmlEscape(result.run_name)
     << "&quot; on " << HtmlEscape(result.sut_name) << "</h1>\n";

  os << "<pre>"
     << HtmlEscape(RenderRunSummary(result) + RenderDriftReport(drift))
     << "</pre>\n";
  for (const Table& table : RunTables(result, specialization, drift)) {
    if (!table.chart) os << TableHtml(table);
  }
  BoxPlotsSvg(&os, specialization);
  CumulativeSvg(&os, result.metrics.cumulative);
  BandsSvg(&os, result.metrics.bands);

  os << "</body></html>\n";
  return os.str();
}

}  // namespace lsbench
