#include <gtest/gtest.h>

#include <algorithm>

#include "data/dataset.h"
#include "data/synthesizer.h"
#include "stats/drift.h"
#include "stats/similarity.h"
#include "workload/generator.h"
#include "workload/trace.h"

namespace lsbench {
namespace {

// ---------------------------------------------------------------------------
// Dataset synthesis
// ---------------------------------------------------------------------------

class SynthesizeDatasetTest
    : public ::testing::TestWithParam<
          std::function<std::unique_ptr<UnitDistribution>()>> {};

TEST_P(SynthesizeDatasetTest, MatchesSourceDistribution) {
  DatasetOptions options;
  options.num_keys = 30000;
  options.seed = 11;
  const Dataset original = GenerateDataset(*GetParam()(), options);
  const Dataset synthetic = SynthesizeDatasetLike(original);

  EXPECT_EQ(synthetic.size(), original.size());
  EXPECT_TRUE(std::is_sorted(synthetic.keys.begin(), synthetic.keys.end()));

  // Distributionally close (this is the whole point)...
  const double ks =
      KolmogorovSmirnov(Subsample(original.NormalizedKeys(), 4096),
                        Subsample(synthetic.NormalizedKeys(), 4096))
          .statistic;
  EXPECT_LT(ks, 0.05) << original.name;

  // ...while sharing almost no actual keys (privacy property).
  size_t shared = 0;
  for (Key k : synthetic.keys) {
    if (std::binary_search(original.keys.begin(), original.keys.end(), k)) {
      ++shared;
    }
  }
  EXPECT_LT(static_cast<double>(shared) / static_cast<double>(synthetic.size()),
            0.02);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SynthesizeDatasetTest,
    ::testing::Values([] { return MakeUniform(); },
                      [] { return MakeLognormal(0.0, 1.5); },
                      [] { return MakeClustered(10, 0.004, 3); },
                      [] { return MakePareto(1.3); }));

TEST(SynthesizeDatasetTest, RespectsRequestedCardinality) {
  DatasetOptions options;
  options.num_keys = 5000;
  const Dataset original = GenerateDataset(UniformUnit(), options);
  SynthesizeOptions synth;
  synth.num_keys = 1234;
  EXPECT_EQ(SynthesizeDatasetLike(original, synth).size(), 1234u);
}

// The jitter added to each inverse-CDF key must not push it past the
// original's domain: a narrow original whose domain the synthesis saturates,
// and a dense 2n domain whose largest keys sit at its edge.
TEST(SynthesizeDatasetTest, KeysStayInsideTheDomain) {
  DatasetOptions capped;
  capped.num_keys = 200;
  capped.domain_max = 400;
  capped.seed = 5;
  DatasetOptions dense;
  dense.num_keys = 5000;
  dense.domain_max = 2 * dense.num_keys;
  for (const DatasetOptions& options : {capped, dense}) {
    const Dataset original = GenerateDataset(UniformUnit(), options);
    SynthesizeOptions synth;
    synth.num_keys = 5000;
    synth.seed = 6;
    const Dataset synthetic = SynthesizeDatasetLike(original, synth);
    ASSERT_FALSE(synthetic.empty());
    EXPECT_LT(synthetic.keys.back(), options.domain_max)
        << "domain " << options.domain_max;
  }
}

TEST(SynthesizeDatasetTest, DeterministicBySeed) {
  DatasetOptions options;
  options.num_keys = 2000;
  const Dataset original = GenerateDataset(LognormalUnit(0, 1), options);
  const Dataset a = SynthesizeDatasetLike(original);
  const Dataset b = SynthesizeDatasetLike(original);
  EXPECT_EQ(a.keys, b.keys);
  SynthesizeOptions other;
  other.seed = 2;
  EXPECT_NE(SynthesizeDatasetLike(original, other).keys, a.keys);
}

// ---------------------------------------------------------------------------
// Workload fitting
// ---------------------------------------------------------------------------

OperationTrace TraceFor(const PhaseSpec& phase, const Dataset& ds,
                        size_t count) {
  return RecordTrace(ds, phase, count, 77).value();
}

TEST(FitPhaseSpecTest, RecoversMixAndSkew) {
  DatasetOptions options;
  options.num_keys = 5000;
  const Dataset ds = GenerateDataset(UniformUnit(), options);
  PhaseSpec truth;
  truth.mix.get = 0.6;
  truth.mix.insert = 0.25;
  truth.mix.scan = 0.15;
  truth.access = AccessPattern::kZipfian;
  truth.scan_length = 64;
  const OperationTrace trace = TraceFor(truth, ds, 20000);

  const FittedWorkload fitted = FitPhaseSpecFromTrace(trace, ds.domain_max);
  EXPECT_NEAR(fitted.phase.mix.get, 0.6, 0.02);
  EXPECT_NEAR(fitted.phase.mix.insert, 0.25, 0.02);
  EXPECT_NEAR(fitted.phase.mix.scan, 0.15, 0.02);
  EXPECT_EQ(fitted.phase.access, AccessPattern::kZipfian);
  EXPECT_GT(fitted.hot10_mass, 0.6);
  // Scan length within the generator's +/-50% dithering of the true value.
  EXPECT_NEAR(fitted.phase.scan_length, 64u, 16u);
}

TEST(FitPhaseSpecTest, DetectsUniformAccess) {
  DatasetOptions options;
  options.num_keys = 5000;
  const Dataset ds = GenerateDataset(UniformUnit(), options);
  PhaseSpec truth;
  truth.mix.get = 1.0;
  truth.access = AccessPattern::kUniform;
  const FittedWorkload fitted =
      FitPhaseSpecFromTrace(TraceFor(truth, ds, 20000), ds.domain_max);
  EXPECT_EQ(fitted.phase.access, AccessPattern::kUniform);
  EXPECT_LT(fitted.hot10_mass, 0.2);
}

TEST(FitPhaseSpecTest, RecoversRangeSelectivity) {
  DatasetOptions options;
  options.num_keys = 5000;
  const Dataset ds = GenerateDataset(UniformUnit(), options);
  PhaseSpec truth;
  truth.mix.get = 0.0;
  truth.mix.range_count = 1.0;
  truth.range_selectivity = 0.02;
  const FittedWorkload fitted =
      FitPhaseSpecFromTrace(TraceFor(truth, ds, 5000), ds.domain_max);
  EXPECT_NEAR(fitted.phase.range_selectivity, 0.02, 0.005);
}

TEST(FitPhaseSpecTest, EmptyTrace) {
  const FittedWorkload fitted =
      FitPhaseSpecFromTrace(OperationTrace(), 1000);
  EXPECT_EQ(fitted.distinct_keys, 0u);
}

TEST(FitPhaseSpecTest, RoundTripProducesSimilarWorkloadSignature) {
  // Fit a spec from a trace, generate fresh operations from it, and bound
  // the drift factor between the original and the fitted workload.
  DatasetOptions options;
  options.num_keys = 5000;
  const Dataset ds = GenerateDataset(LognormalUnit(0, 1), options);
  PhaseSpec truth;
  truth.mix.get = 0.7;
  truth.mix.scan = 0.2;
  truth.mix.insert = 0.1;
  truth.access = AccessPattern::kZipfian;
  const OperationTrace trace = TraceFor(truth, ds, 10000);
  const FittedWorkload fitted = FitPhaseSpecFromTrace(trace, ds.domain_max);

  const DriftMeter meter;
  const DriftComponents drift =
      meter.Measure(meter.SamplePhase(ds, truth),
                    meter.SamplePhase(ds, fitted.phase));
  EXPECT_LT(drift.factor, 0.05) << "key_ks=" << drift.key_ks
                                << " key_overlap=" << drift.key_overlap
                                << " op_mix_tv=" << drift.op_mix_tv;
}

}  // namespace
}  // namespace lsbench
