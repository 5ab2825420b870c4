#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/comparison.h"
#include "core/drift.h"
#include "core/driver.h"
#include "core/spec_text.h"
#include "core/specialization.h"
#include "data/dataset.h"
#include "stats/ascii_chart.h"
#include "report/html.h"
#include "report/report.h"
#include "report/table.h"
#include "sut/systems.h"
#include "util/csv.h"
#include "util/string_util.h"

namespace lsbench {
namespace {

// ---------------------------------------------------------------------------
// ASCII chart primitives
// ---------------------------------------------------------------------------

TEST(AsciiChartTest, BoxPlotRendersMarkers) {
  BoxPlotSummary box = ComputeBoxPlot({1, 2, 3, 4, 5, 6, 7, 8, 9, 100});
  const std::string chart = RenderBoxPlotChart({{"mybox", box}});
  EXPECT_NE(chart.find("mybox"), std::string::npos);
  EXPECT_NE(chart.find('['), std::string::npos);
  EXPECT_NE(chart.find(']'), std::string::npos);
  EXPECT_NE(chart.find('o'), std::string::npos);  // The outlier at 100.
}

TEST(AsciiChartTest, BoxPlotHandlesEmpty) {
  EXPECT_NE(RenderBoxPlotChart({}).find("no data"), std::string::npos);
  BoxPlotSummary empty;
  EXPECT_NE(RenderBoxPlotChart({{"x", empty}}).find("empty"),
            std::string::npos);
}

TEST(AsciiChartTest, LineChartPlotsAllSeries) {
  Series a{"alpha", {0, 1, 2, 3}, {0, 1, 2, 3}};
  Series b{"beta", {0, 1, 2, 3}, {3, 2, 1, 0}};
  const std::string chart = RenderLineChart({a, b});
  EXPECT_NE(chart.find('*'), std::string::npos);
  EXPECT_NE(chart.find('+'), std::string::npos);
  EXPECT_NE(chart.find("alpha"), std::string::npos);
  EXPECT_NE(chart.find("beta"), std::string::npos);
}

TEST(AsciiChartTest, LineChartEmpty) {
  EXPECT_NE(RenderLineChart({}).find("no data"), std::string::npos);
}

TEST(AsciiChartTest, BandChartStacksViolations) {
  std::vector<BandColumn> columns = {{10, 0}, {5, 5}, {0, 10}};
  const std::string chart = RenderBandChart(columns);
  EXPECT_NE(chart.find('#'), std::string::npos);
  EXPECT_NE(chart.find('X'), std::string::npos);
}

TEST(AsciiChartTest, TableAlignsColumns) {
  const std::string table =
      RenderTable({"name", "value"}, {{"a", "1"}, {"longer", "22"}});
  EXPECT_NE(table.find("| name"), std::string::npos);
  EXPECT_NE(table.find("longer"), std::string::npos);
  // Header separator present.
  EXPECT_NE(table.find("|--"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Tables: cells, the three views, and golden CSV pins
// ---------------------------------------------------------------------------

TEST(TableTest, CellsShowHumanUnitsAndPrintRawValues) {
  EXPECT_EQ(Cell().Human(), "-");
  EXPECT_EQ(Cell().Raw(), "");
  EXPECT_EQ(Cell::Text("a,b").Human(), "a,b");
  EXPECT_EQ(Cell::Flag(true).Human(), "yes");
  EXPECT_EQ(Cell::Flag(false).Raw(), "0");
  EXPECT_EQ(Cell::Count(uint64_t{1234567}).Human(), "1234567");
  EXPECT_EQ(Cell::Count(int64_t{-1}).Raw(), "-1");
  EXPECT_EQ(Cell::Nanos(1500.0).Human(), "1.50us");
  EXPECT_EQ(Cell::Nanos(int64_t{12345678}).Raw(), "12345678");
  EXPECT_EQ(Cell::Nanos(12345678.0).Raw(), "1.23457e+07");
  EXPECT_EQ(Cell::Seconds(1.77123).Human(), "1.7712");
  EXPECT_EQ(Cell::Rate(8047.17).Human(), "8.05K");
  EXPECT_EQ(Cell::Rate(8047.17).Raw(), "8047.17");
  EXPECT_EQ(Cell::Ratio(0.349542).Human(), "0.3495");

  const Table table{"t<1>", {"name"}, {{Cell::Text("a&b")}}};
  EXPECT_EQ(TableCsv(table), "name\na&b\n");
  EXPECT_NE(TableHtml(table).find("<h2>t&lt;1&gt;</h2>"), std::string::npos);
  EXPECT_NE(TableHtml(table).find("<td>a&amp;b</td>"), std::string::npos);
  EXPECT_NE(TableText(table).find("--- t<1> ---"), std::string::npos);
}

/// A shipped spec run the way `lsbench_cli --sim` runs it.
struct ShippedRun {
  RunResult run;
  SpecializationReport specialization;
  DriftTrajectoryReport drift;
};

/// `observed` turns on the [observability] switches, as --trace-out does.
ShippedRun RunShippedSpec(const std::string& file, const std::string& sut,
                          bool observed) {
  Result<RunSpec> loaded =
      LoadRunSpecFile(std::string(LSBENCH_SPEC_DIR) + "/" + file);
  EXPECT_TRUE(loaded.ok()) << file << ": " << loaded.status().ToString();
  RunSpec spec = std::move(loaded).value();
  if (observed) {
    spec.observability.trace = true;
    spec.observability.profile = true;
    spec.observability.metrics = true;
  }
  VirtualClock clock;
  DriverOptions options;
  options.virtual_clock = &clock;
  options.enforce_holdout_once = false;
  BTreeSystem btree;
  LearnedKvSystem rmi(LearnedSystemOptions(), &clock);
  LearnedSystemOptions pgm_options;
  pgm_options.index_kind = LearnedSystemOptions::IndexKind::kPgm;
  LearnedKvSystem pgm(pgm_options, &clock);
  SystemUnderTest* system = &btree;
  if (sut == "rmi") system = &rmi;
  if (sut == "pgm") system = &pgm;
  ShippedRun shipped;
  shipped.drift = MeasureDriftTrajectory(spec);
  shipped.run = BenchmarkDriver(&clock, options).Run(spec, system).value();
  shipped.specialization =
      BuildSpecializationReport(spec, shipped.run, shipped.drift);
  return shipped;
}

/// Rows and columns one view of a table renders; a ragged view has none.
struct Shape {
  size_t rows = 0;
  size_t columns = 0;
  bool operator==(const Shape& o) const {
    return rows == o.rows && columns == o.columns;
  }
};

std::ostream& operator<<(std::ostream& os, const Shape& shape) {
  return os << shape.rows << "x" << shape.columns;
}

size_t Occurrences(const std::string& text, const std::string& needle) {
  size_t count = 0;
  for (size_t pos = text.find(needle); pos != std::string::npos;
       pos = text.find(needle, pos + 1)) {
    ++count;
  }
  return count;
}

/// "--- name ---", a header line, a separator line, then one line per row.
Shape TextShape(const std::string& text) {
  std::vector<std::string> lines = Split(text, '\n');
  if (lines.size() < 4 || !lines.back().empty()) return {};
  lines.pop_back();
  const size_t bars = Occurrences(lines[1], "|");
  for (size_t i = 1; i < lines.size(); ++i) {
    if (Occurrences(lines[i], "|") != bars) return {};
  }
  return {lines.size() - 3, bars - 1};
}

Shape CsvShape(const std::string& csv) {
  const auto parsed = ParseCsv(csv);
  if (!parsed.ok() || parsed.value().empty()) return {};
  for (const auto& row : parsed.value()) {
    if (row.size() != parsed.value()[0].size()) return {};
  }
  return {parsed.value().size() - 1, parsed.value()[0].size()};
}

Shape HtmlShape(const std::string& html) {
  const std::vector<std::string> lines = Split(html, '\n');
  const size_t columns = Occurrences(html, "<th>");
  size_t rows = 0;
  for (const std::string& line : lines) {
    if (line.rfind("<tr><td>", 0) != 0) continue;
    if (Occurrences(line, "<td>") != columns) return {};
    ++rows;
  }
  if (Occurrences(html, "<tr>") != rows + 1) return {};
  return {rows, columns};
}

uint64_t Fnv1a64(const std::string& bytes) {
  uint64_t hash = 0xcbf29ce484222325ull;
  for (const unsigned char c : bytes) {
    hash ^= c;
    hash *= 0x100000001b3ull;
  }
  return hash;
}

/// Pins the CSV every shipped spec printed under `lsbench_cli --sim --csv`
/// before the report's text, CSV and HTML views were rendered from one
/// table declaration; the hashes were captured from the per-section CSV
/// emitters those tables replaced. Each hash covers "## <name>.csv\n" plus
/// the CSV for those blocks in their old order (specialization, cumulative,
/// bands, phases, op_types, then service, stages and drift when present).
/// stages.csv has since gained a trailing share column, so it is hashed
/// without it. specialization.csv has since measured Φ as the drift factor
/// against phase 0 and shows its four components, so its pins were
/// re-recorded; every other block hashed as before.
struct CsvGolden {
  const char* file;
  const char* sut;
  uint64_t plain_hash;     ///< The spec as shipped.
  uint64_t observed_hash;  ///< With the [observability] switches on.
};

constexpr CsvGolden kCsvGoldens[] = {
    {"batch_demo.lsb", "btree", 0x97e44b510d80b77full,
     0x19e4950ffdec2de5ull},
    {"batch_demo.lsb", "rmi", 0x97e44b510d80b77full,
     0x19e4950ffdec2de5ull},
    {"concurrent_demo.lsb", "btree", 0x1c1069b9fbb2af82ull,
     0xd16896851dcacba2ull},
    {"concurrent_demo.lsb", "rmi", 0x1c1069b9fbb2af82ull,
     0xd16896851dcacba2ull},
    {"demo_shift.lsb", "btree", 0xff7b84595ec02581ull,
     0xea36434e315211abull},
    {"demo_shift.lsb", "rmi", 0xff7b84595ec02581ull,
     0xea36434e315211abull},
    {"holdout_eval.lsb", "btree", 0x7fe0cb66df567939ull,
     0xab1735b7af14478full},
    {"holdout_eval.lsb", "rmi", 0x7fe0cb66df567939ull,
     0xab1735b7af14478full},
    {"resilience_demo.lsb", "btree", 0xf67bb2c00ccdc7d1ull,
     0x2ca1628cd8db550bull},
    {"resilience_demo.lsb", "rmi", 0xf67bb2c00ccdc7d1ull,
     0x2ca1628cd8db550bull},
    {"scenarios/diurnal_burst.lsb", "btree", 0xa66662d5ebf20daaull,
     0x65cfd5445a045e16ull},
    {"scenarios/diurnal_burst.lsb", "rmi", 0xa66662d5ebf20daaull,
     0x65cfd5445a045e16ull},
    {"scenarios/flash_crowd.lsb", "btree", 0x94fc9649e77f2427ull,
     0x540f5bb34a7c09fcull},
    {"scenarios/flash_crowd.lsb", "rmi", 0x94fc9649e77f2427ull,
     0x540f5bb34a7c09fcull},
    {"scenarios/hotspot_migration.lsb", "btree", 0xffbdf6822ceca7b4ull,
     0x82cffcb1ef6ae21aull},
    {"scenarios/hotspot_migration.lsb", "rmi", 0xffbdf6822ceca7b4ull,
     0x82cffcb1ef6ae21aull},
    {"scenarios/repeating_session.lsb", "btree", 0x09dc30311ccf52afull,
     0xbc3ba82019cf4397ull},
    {"scenarios/repeating_session.lsb", "rmi", 0x09dc30311ccf52afull,
     0xbc3ba82019cf4397ull},
    {"service_overload_demo.lsb", "btree", 0xbc7fef189c100ff4ull,
     0x89aaa70a0d6376acull},
    {"service_overload_demo.lsb", "rmi", 0xbc7fef189c100ff4ull,
     0x89aaa70a0d6376acull},
};

/// The blocks the pins cover, in their old order.
const char* const kPinnedBlocks[] = {"specialization", "cumulative", "bands",
                                     "phases", "op_types", "service",
                                     "stages", "drift"};

std::string DropLastColumn(const std::string& csv) {
  std::string out;
  for (const std::string& line : Split(csv, '\n')) {
    if (line.empty()) continue;
    out += line.substr(0, line.rfind(',')) + "\n";
  }
  return out;
}

class ReportGoldenTest : public ::testing::TestWithParam<CsvGolden> {};

TEST_P(ReportGoldenTest, CsvBlocksMatchThePins) {
  const CsvGolden& golden = GetParam();
  for (const bool observed : {false, true}) {
    const ShippedRun shipped =
        RunShippedSpec(golden.file, golden.sut, observed);
    const std::vector<Table> tables =
        RunTables(shipped.run, shipped.specialization, shipped.drift);
    std::string blocks;
    for (const char* name : kPinnedBlocks) {
      for (const Table& table : tables) {
        if (table.name != name) continue;
        const std::string csv = TableCsv(table);
        blocks += "## " + table.name + ".csv\n" +
                  (table.name == "stages" ? DropLastColumn(csv) : csv);
      }
    }
    EXPECT_EQ(Fnv1a64(blocks),
              observed ? golden.observed_hash : golden.plain_hash)
        << (observed ? "observed" : "plain") << " run, actual 0x" << std::hex
        << Fnv1a64(blocks) << "\n"
        << blocks;
  }
}

INSTANTIATE_TEST_SUITE_P(
    ShippedSpecs, ReportGoldenTest, ::testing::ValuesIn(kCsvGoldens),
    [](const ::testing::TestParamInfo<CsvGolden>& param_info) {
      std::string name =
          std::string(param_info.param.file) + "_" + param_info.param.sut;
      for (char& c : name) {
        if (c == '.' || c == '/') c = '_';
      }
      return name;
    });

/// The CSV pins carry no SUT internals, so they read the same for btree and
/// rmi. This pins what a learned SUT reports of itself after demo_shift's
/// --sim run: its final stats and the work of its offline training.
struct LearnedStatsGolden {
  const char* sut;
  uint64_t retrain_events;
  uint64_t offline_train_items;
  uint64_t model_error_bits;
  size_t memory_bytes;
  uint64_t first_train_work_items;
};

TEST(LearnedSutStatsGoldenTest, DemoShiftStatsMatchThePins) {
  constexpr LearnedStatsGolden kGoldens[] = {
      {"rmi", 4, 268746, 0x4026f60000000000ull, 1134392, 50000},
      {"pgm", 4, 268746, 0x403b000000000000ull, 1130136, 50000},
  };
  for (const LearnedStatsGolden& golden : kGoldens) {
    SCOPED_TRACE(golden.sut);
    const ShippedRun shipped =
        RunShippedSpec("demo_shift.lsb", golden.sut, /*observed=*/false);
    const SutStats& stats = shipped.run.final_sut_stats;
    uint64_t error_bits = 0;
    std::memcpy(&error_bits, &stats.model_error, sizeof(error_bits));
    EXPECT_EQ(stats.retrain_events, golden.retrain_events);
    EXPECT_EQ(stats.offline_train_items, golden.offline_train_items);
    EXPECT_EQ(error_bits, golden.model_error_bits)
        << "model_error " << stats.model_error << " = 0x" << std::hex
        << error_bits;
    EXPECT_EQ(stats.memory_bytes, golden.memory_bytes);
    ASSERT_FALSE(shipped.run.train_events.empty());
    EXPECT_EQ(shipped.run.train_events[0].work_items,
              golden.first_train_work_items);
  }
}

// ---------------------------------------------------------------------------
// Fig. 1a's phi is each phase's drift factor against phase 0
// ---------------------------------------------------------------------------

/// Every shipped spec (specs/ and its subdirectories) with two or more
/// phases, built, in path order.
std::vector<std::pair<std::string, RunSpec>> MultiPhaseShippedSpecs() {
  std::vector<std::string> paths;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(LSBENCH_SPEC_DIR)) {
    if (entry.path().extension() == ".lsb") {
      paths.push_back(entry.path().string());
    }
  }
  std::sort(paths.begin(), paths.end());
  std::vector<std::pair<std::string, RunSpec>> specs;
  for (const std::string& path : paths) {
    std::ifstream in(path);
    std::stringstream text;
    text << in.rdbuf();
    // Parsing generates no keys, so single-phase specs cost nothing here.
    Result<ParsedSpec> parsed = ParseRunSpecText(text.str());
    EXPECT_TRUE(parsed.ok()) << path << ": " << parsed.status().ToString();
    if (!parsed.ok() || parsed.value().phases.size() < 2) continue;
    Result<RunSpec> built = BuildDatasets(std::move(parsed).value());
    EXPECT_TRUE(built.ok()) << path << ": " << built.status().ToString();
    if (built.ok()) specs.emplace_back(path, std::move(built).value());
  }
  return specs;
}

/// Φ per phase index, read back from the sorted report.
std::vector<double> PhiByPhase(const SpecializationReport& report) {
  std::vector<double> phi(report.entries.size(), -1.0);
  for (const SpecializationEntry& e : report.entries) {
    phi[static_cast<size_t>(e.phase)] = e.drift.factor;
  }
  return phi;
}

TEST(SpecializationPhiTest, PhiIsTheDriftFactorFromPhaseZero) {
  const auto specs = MultiPhaseShippedSpecs();
  EXPECT_GE(specs.size(), 12u);
  for (const auto& [path, spec] : specs) {
    SCOPED_TRACE(path);
    const DriftTrajectoryReport drift = MeasureDriftTrajectory(spec);
    const std::vector<double> phi =
        PhiByPhase(BuildSpecializationReport(spec, RunResult(), drift));
    ASSERT_EQ(phi.size(), spec.phases.size());
    ASSERT_FALSE(drift.transitions.empty());
    EXPECT_EQ(phi[0], 0.0);
    EXPECT_EQ(phi[1], drift.transitions[0].components.factor);
  }
}

TEST(SpecializationPhiTest, HotspotMovesReadAsDissimilar) {
  // Every phase reads the same dataset; only the hot key range moves. A
  // measure over stored keys reads 0 here, the touched keys do not.
  Result<RunSpec> spec = LoadRunSpecFile(
      std::string(LSBENCH_SPEC_DIR) + "/scenarios/hotspot_migration.lsb");
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  const SpecializationReport report = BuildSpecializationReport(
      spec.value(), RunResult(), MeasureDriftTrajectory(spec.value()));
  ASSERT_EQ(report.entries.size(), 4u);
  for (const SpecializationEntry& e : report.entries) {
    if (e.phase == 0) {
      EXPECT_EQ(e.phase_name, "hot_low");
      EXPECT_EQ(e.drift.factor, 0.0);
    } else {
      EXPECT_GE(e.drift.factor, 0.5) << e.phase_name;
    }
  }
}

// ---------------------------------------------------------------------------
// Full report rendering over a real simulated run
// ---------------------------------------------------------------------------

class ReportRenderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    BenchmarkDriver::ResetHoldoutRegistryForTesting();
    spec_.name = "report_test";
    DatasetOptions options;
    options.num_keys = 3000;
    spec_.datasets.push_back(GenerateDataset(UniformUnit(), options));
    PhaseSpec phase;
    phase.name = "p0";
    phase.mix = OperationMix::ReadMostly();
    phase.num_operations = 1000;
    spec_.phases.push_back(phase);
    phase.name = "p1";
    phase.holdout = true;
    spec_.phases.push_back(phase);
    spec_.interval_nanos = 50000000;
    spec_.boxplot_sample_nanos = 5000000;

    DriverOptions driver_options;
    driver_options.virtual_clock = &clock_;
    BenchmarkDriver driver(&clock_, driver_options);
    BTreeSystem sut;
    run_ = driver.Run(spec_, &sut).value();
  }

  VirtualClock clock_;
  RunSpec spec_;
  RunResult run_;
};

TEST_F(ReportRenderTest, RunSummaryMentionsEverything) {
  const std::string summary = RenderRunSummary(run_);
  EXPECT_NE(summary.find("report_test"), std::string::npos);
  EXPECT_NE(summary.find("btree_system"), std::string::npos);
  EXPECT_NE(summary.find("operations: 2000"), std::string::npos);
  EXPECT_NE(summary.find("SLA"), std::string::npos);
  // The service line's rates count elements, not requests: a batch request
  // carries many.
  RunResult served = run_;
  served.metrics.service.enabled = true;
  served.metrics.service.offered_qps = 498300.0;
  served.metrics.service.achieved_qps = 120000.0;
  const std::string service_summary = RenderRunSummary(served);
  EXPECT_NE(service_summary.find("offered=498.30K elements/s"),
            std::string::npos)
      << service_summary;
  EXPECT_NE(service_summary.find("goodput=120.00K elements/s"),
            std::string::npos)
      << service_summary;
  EXPECT_EQ(service_summary.find(" qps"), std::string::npos);
  // The per-phase numbers are the phases table's.
  const std::vector<Table> tables =
      RunTables(run_,
                BuildSpecializationReport(spec_, run_,
                                          MeasureDriftTrajectory(spec_)),
                {});
  ASSERT_FALSE(tables.empty());
  EXPECT_EQ(tables[0].name, "phases");
  EXPECT_EQ(tables[0].rows.size(), 2u);
}

TEST_F(ReportRenderTest, SpecializationReportMarksHoldout) {
  const SpecializationReport report =
      BuildSpecializationReport(spec_, run_, MeasureDriftTrajectory(spec_));
  const std::string text = RenderSpecializationReport(report);
  EXPECT_NE(text.find("[holdout]"), std::string::npos);
  EXPECT_NE(text.find("phi"), std::string::npos);

  const std::string csv = TableCsv(SpecializationTable(report));
  const auto parsed = ParseCsv(csv);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().size(), 3u);  // Header + 2 phases.
  EXPECT_EQ(parsed.value()[0][0], "phase");
}

TEST_F(ReportRenderTest, CumulativeComparisonIncludesArea) {
  const std::string text = RenderCumulativeComparison(
      {{"sys_a", run_.metrics.cumulative},
       {"sys_b", run_.metrics.cumulative}});
  EXPECT_NE(text.find("area vs ideal"), std::string::npos);
  EXPECT_NE(text.find("area between systems"), std::string::npos);
  EXPECT_NE(text.find("sys_a"), std::string::npos);
}

TEST_F(ReportRenderTest, SlaBandsRendersTotals) {
  const std::string text =
      RenderSlaBands(run_.metrics.bands, run_.metrics.sla_nanos);
  EXPECT_NE(text.find("total completions: 2000"), std::string::npos);
}

// Every table of a run with service, fault, drift and observability
// sections, plus the comparison and cost tables: each view is rectangular
// and renders the table's rows and columns, no more and no fewer.
TEST_F(ReportRenderTest, CsvEmittersRoundTrip) {
  const ShippedRun shipped =
      RunShippedSpec("service_overload_demo.lsb", "btree", /*observed=*/true);
  std::vector<Table> tables = RunTables(shipped.run, shipped.specialization,
                                        shipped.drift);
  std::vector<std::string> names;
  for (const Table& table : tables) names.push_back(table.name);
  EXPECT_EQ(names, (std::vector<std::string>{
                       "phases", "op_types", "service", "resilience",
                       "stages", "metrics", "histograms", "specialization",
                       "cumulative", "bands", "drift"}));
  ComparisonReport comparison;
  comparison.rows.push_back(MakeComparisonRow(shipped.run));
  tables.push_back(ComparisonTable(comparison));
  tables.push_back(CostCurveTable({{"learned_cpu", {{1, 500}, {50, 1200}}}}));

  for (const Table& table : tables) {
    SCOPED_TRACE(table.name);
    ASSERT_FALSE(table.rows.empty());
    const Shape want{table.rows.size(), table.columns.size()};
    EXPECT_EQ(TextShape(TableText(table)), want);
    EXPECT_EQ(CsvShape(TableCsv(table)), want);
    EXPECT_EQ(HtmlShape(TableHtml(table)), want);
  }

  // The HTML report holds every non-chart table.
  const std::string html = RenderHtmlReport(
      shipped.run, shipped.specialization, shipped.drift);
  for (const Table& table : RunTables(shipped.run, shipped.specialization,
                                      shipped.drift)) {
    EXPECT_EQ(html.find(TableHtml(table)) != std::string::npos, !table.chart)
        << table.name;
  }
}

TEST_F(ReportRenderTest, CostReportShowsCrossover) {
  const DbaCostModel dba = DbaCostModel::Default();
  std::vector<CostPoint> points = {{1, 500}, {50, 1200}, {500, 2500}};
  const std::string text =
      RenderCostReport({{"learned_cpu", points}}, 1000.0, dba);
  EXPECT_NE(text.find("training cost to outperform"), std::string::npos);
  EXPECT_NE(text.find("learned_cpu"), std::string::npos);
  EXPECT_NE(text.find("$"), std::string::npos);

  const std::string csv = TableCsv(CostCurveTable({{"learned_cpu", points}}));
  const auto parsed = ParseCsv(csv);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().size(), 4u);
}

TEST_F(ReportRenderTest, CostReportNeverCase) {
  const DbaCostModel dba = DbaCostModel::Default();
  const std::string text = RenderCostReport(
      {{"weak_system", {{1, 10}, {1000, 20}}}}, 1000.0, dba);
  EXPECT_NE(text.find("never"), std::string::npos);
}

}  // namespace
}  // namespace lsbench
