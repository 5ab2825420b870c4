#include <gtest/gtest.h>

#include "core/drift.h"
#include "core/driver.h"
#include "core/specialization.h"
#include "data/dataset.h"
#include "report/html.h"
#include "sut/systems.h"

namespace lsbench {
namespace {

class HtmlReportTest : public ::testing::Test {
 protected:
  void SetUp() override {
    BenchmarkDriver::ResetHoldoutRegistryForTesting();
    spec_.name = "html_test <run>";  // Angle brackets must be escaped.
    DatasetOptions options;
    options.num_keys = 2000;
    spec_.datasets.push_back(GenerateDataset(UniformUnit(), options));
    PhaseSpec phase;
    phase.name = "p0";
    phase.mix = OperationMix::ReadMostly();
    phase.num_operations = 800;
    spec_.phases.push_back(phase);
    phase.name = "p1";
    phase.holdout = true;
    spec_.phases.push_back(phase);
    spec_.interval_nanos = 20000000;
    spec_.boxplot_sample_nanos = 2000000;

    DriverOptions driver_options;
    driver_options.virtual_clock = &clock_;
    BenchmarkDriver driver(&clock_, driver_options);
    BTreeSystem sut;
    run_ = driver.Run(spec_, &sut).value();
    specialization_ =
        BuildSpecializationReport(spec_, run_, MeasureDriftTrajectory(spec_));
  }

  VirtualClock clock_;
  RunSpec spec_;
  RunResult run_;
  SpecializationReport specialization_;
};

TEST_F(HtmlReportTest, ContainsStructureAndCharts) {
  const std::string html = RenderHtmlReport(run_, specialization_);
  EXPECT_NE(html.find("<!DOCTYPE html>"), std::string::npos);
  EXPECT_NE(html.find("</html>"), std::string::npos);
  // Three SVG charts.
  size_t svg_count = 0;
  for (size_t pos = html.find("<svg"); pos != std::string::npos;
       pos = html.find("<svg", pos + 1)) {
    ++svg_count;
  }
  EXPECT_EQ(svg_count, 3u);
  EXPECT_NE(html.find("Fig. 1a"), std::string::npos);
  EXPECT_NE(html.find("Fig. 1b"), std::string::npos);
  EXPECT_NE(html.find("Fig. 1c"), std::string::npos);
  EXPECT_NE(html.find("polyline"), std::string::npos);
  EXPECT_NE(html.find("btree_system"), std::string::npos);
}

TEST_F(HtmlReportTest, EscapesHtmlInNames) {
  const std::string html = RenderHtmlReport(run_, specialization_);
  EXPECT_NE(html.find("html_test &lt;run&gt;"), std::string::npos);
  EXPECT_EQ(html.find("html_test <run>"), std::string::npos);
}

}  // namespace
}  // namespace lsbench
