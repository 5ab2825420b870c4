// The scenario matrix: every spec in specs/scenarios/ is discovered and
// swept in simulation mode. Each scenario must (a) declare a full [drift]
// trajectory, (b) measure within its declared tolerance transition by
// transition, (c) be byte-deterministic at workers = 1 and workers = 4, and
// (d) — for the migration scenario — make a learned SUT visibly respond to
// the drift (more retrains than a drift-free control). This is the CTest
// face of the quantified-drift tentpole: a new scenario dropped into
// specs/scenarios/ is picked up and held to the same bar automatically.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/drift.h"
#include "core/driver.h"
#include "core/event_sink.h"
#include "core/spec_text.h"
#include "data/dataset.h"
#include "obs/observability.h"
#include "report/report.h"
#include "sut/systems.h"

namespace lsbench {
namespace {

std::vector<std::string> ScenarioFiles() {
  std::vector<std::string> files;
  const std::filesystem::path dir =
      std::filesystem::path(LSBENCH_SPEC_DIR) / "scenarios";
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() == ".lsb") {
      files.push_back(entry.path().filename().string());
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

RunSpec LoadScenario(const std::string& name) {
  const std::string path =
      std::string(LSBENCH_SPEC_DIR) + "/scenarios/" + name;
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "missing scenario spec: " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  Result<RunSpec> parsed = ParseRunSpecText(buffer.str());
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  return std::move(parsed).value();
}

/// One full simulation run with observability on (the determinism bar).
RunResult RunScenarioOnce(RunSpec spec, uint32_t workers) {
  spec.execution.workers = workers;
  spec.observability.trace = true;
  spec.observability.profile = true;
  spec.observability.metrics = true;
  VirtualClock clock;
  DriverOptions options;
  options.virtual_clock = &clock;
  BenchmarkDriver driver(&clock, options);
  LearnedKvSystem sut(LearnedSystemOptions(), &clock);
  Result<RunResult> result = driver.Run(spec, &sut);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return std::move(result).value();
}

class ScenarioMatrixTest : public ::testing::TestWithParam<std::string> {};

TEST_P(ScenarioMatrixTest, DeclaresAFullDriftTrajectory) {
  const RunSpec spec = LoadScenario(GetParam());
  EXPECT_TRUE(spec.Validate().ok()) << spec.Validate().ToString();
  ASSERT_TRUE(spec.drift.declared)
      << GetParam() << " ships without a [drift] section";
  ASSERT_GE(spec.phases.size(), 2u);
  EXPECT_EQ(spec.drift.trajectory.size(), spec.phases.size() - 1)
      << "one declared factor per phase transition";
  EXPECT_GT(spec.drift.tolerance, 0.0);
}

TEST_P(ScenarioMatrixTest, MeasuredDriftMatchesDeclaredTrajectory) {
  const RunSpec spec = LoadScenario(GetParam());
  const DriftTrajectoryReport report = MeasureDriftTrajectory(spec);
  ASSERT_TRUE(report.declared);
  ASSERT_EQ(report.transitions.size(), spec.phases.size() - 1);
  for (size_t i = 0; i < report.transitions.size(); ++i) {
    const DriftTransitionReport& t = report.transitions[i];
    EXPECT_TRUE(t.within_tolerance)
        << GetParam() << " transition " << i << " (" << t.from_phase
        << " -> " << t.to_phase << "): measured "
        << t.components.factor << ", declared " << t.declared
        << ", tolerance " << report.tolerance;
  }
  EXPECT_TRUE(report.AllWithinTolerance());
}

TEST_P(ScenarioMatrixTest, DriftMeasurementIsByteDeterministic) {
  const RunSpec spec = LoadScenario(GetParam());
  const std::optional<Table> a = DriftTable(MeasureDriftTrajectory(spec));
  const std::optional<Table> b = DriftTable(MeasureDriftTrajectory(spec));
  ASSERT_TRUE(a.has_value() && b.has_value());
  EXPECT_EQ(TableCsv(*a), TableCsv(*b));
}

TEST_P(ScenarioMatrixTest, ByteDeterministicAtWorkers1And4) {
  for (const uint32_t workers : {1u, 4u}) {
    const RunResult a = RunScenarioOnce(LoadScenario(GetParam()), workers);
    const RunResult b = RunScenarioOnce(LoadScenario(GetParam()), workers);
    EXPECT_EQ(SerializeEventStream(a.events), SerializeEventStream(b.events))
        << GetParam() << " workers=" << workers;
    EXPECT_EQ(
        RenderTraceFile(a.observability, a.run_name, a.sut_name, workers),
        RenderTraceFile(b.observability, b.run_name, b.sut_name, workers))
        << GetParam() << " workers=" << workers;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Scenarios, ScenarioMatrixTest, ::testing::ValuesIn(ScenarioFiles()),
    [](const ::testing::TestParamInfo<std::string>& param_info) {
      std::string name = param_info.param;
      for (char& c : name) {
        if (c == '.') c = '_';
      }
      return name;
    });

// ---------------------------------------------------------------------------
// Learned-SUT response: drift must be visible in SUT behaviour, not just in
// the meter.
// ---------------------------------------------------------------------------

/// Transparent wrapper that snapshots the inner SUT's stats at every phase
/// boundary, giving the test a per-phase retrain/error timeline.
class PhaseStatsSut final : public SystemUnderTest {
 public:
  explicit PhaseStatsSut(SystemUnderTest* inner) : inner_(inner) {}

  std::string name() const override { return inner_->name(); }
  SutConcurrency concurrency() const override {
    return inner_->concurrency();
  }
  Status Load(const std::vector<KeyValue>& sorted_pairs) override {
    return inner_->Load(sorted_pairs);
  }
  TrainReport Train() override { return inner_->Train(); }
  OpResult Execute(const Operation& op) override {
    return inner_->Execute(op);
  }
  void ExecuteBatch(const Operation& op, OpResult* results) override {
    inner_->ExecuteBatch(op, results);
  }
  void OnPhaseStart(int phase_index, bool holdout) override {
    at_phase_start_.push_back(inner_->GetStats());
    inner_->OnPhaseStart(phase_index, holdout);
  }
  SutStats GetStats() const override { return inner_->GetStats(); }
  void BindObservability(MetricsRegistry* registry) override {
    inner_->BindObservability(registry);
  }

  const std::vector<SutStats>& at_phase_start() const {
    return at_phase_start_;
  }

 private:
  SystemUnderTest* inner_;
  std::vector<SutStats> at_phase_start_;
};

/// The same spec with the drift removed: every phase becomes a copy of the
/// first (names and op counts preserved), so the SUT sees the same load
/// shape with a flat trajectory.
RunSpec FlattenToControl(RunSpec spec) {
  for (size_t i = 1; i < spec.phases.size(); ++i) {
    PhaseSpec flat = spec.phases[0];
    flat.name = spec.phases[i].name;
    flat.num_operations = spec.phases[i].num_operations;
    flat.transition_in = spec.phases[i].transition_in;
    flat.transition_operations = spec.phases[i].transition_operations;
    spec.phases[i] = flat;
  }
  spec.drift = DriftSpec();
  return spec;
}

struct LearnedRunOutcome {
  std::vector<SutStats> at_phase_start;
  SutStats final_stats;
};

LearnedRunOutcome RunLearned(const RunSpec& spec) {
  VirtualClock clock;
  DriverOptions options;
  options.virtual_clock = &clock;
  BenchmarkDriver driver(&clock, options);
  LearnedKvSystem learned(LearnedSystemOptions(), &clock);
  PhaseStatsSut wrapper(&learned);
  const Result<RunResult> result = driver.Run(spec, &wrapper);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return {wrapper.at_phase_start(), wrapper.GetStats()};
}

TEST(ScenarioLearnedResponseTest, MigrationDriftTriggersMoreRetrains) {
  // hotspot_migration holds the op mix fixed and moves only the touched-key
  // distribution — exactly the signal a drift-triggered learned SUT chases.
  // Against a flattened control (same phases, hotspot never moves), the
  // drifting run must retrain strictly more.
  const RunSpec drifting = LoadScenario("hotspot_migration.lsb");
  const RunSpec control = FlattenToControl(drifting);

  const LearnedRunOutcome moved = RunLearned(drifting);
  const LearnedRunOutcome flat = RunLearned(control);

  EXPECT_GT(moved.final_stats.retrain_events, flat.final_stats.retrain_events)
      << "hotspot migration did not provoke extra retraining (drifting="
      << moved.final_stats.retrain_events
      << ", control=" << flat.final_stats.retrain_events << ")";

  // The response tracks the trajectory per phase: retraining keeps
  // happening after later boundaries, not just once at warm-up.
  ASSERT_EQ(moved.at_phase_start.size(), drifting.phases.size());
  EXPECT_GT(moved.final_stats.retrain_events,
            moved.at_phase_start.back().retrain_events)
      << "no retrains inside the final migrated phase";
}

TEST(ScenarioLearnedResponseTest, RepeatedPhasePrefixStaysQuiet) {
  // repeating_session opens with the same phase twice (declared drift 0).
  // The learned SUT must see no extra drift signal across that boundary:
  // retrains during the repeat phase are no more frequent than during the
  // initial phase.
  const RunSpec spec = LoadScenario("repeating_session.lsb");
  const LearnedRunOutcome outcome = RunLearned(spec);
  ASSERT_GE(outcome.at_phase_start.size(), 3u);
  const uint64_t during_first = outcome.at_phase_start[1].retrain_events -
                                outcome.at_phase_start[0].retrain_events;
  const uint64_t during_repeat = outcome.at_phase_start[2].retrain_events -
                                 outcome.at_phase_start[1].retrain_events;
  EXPECT_LE(during_repeat, during_first + 1)
      << "identical repeated phase provoked disproportionate retraining";
}

}  // namespace
}  // namespace lsbench
