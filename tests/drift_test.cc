// DriftMeter: the quantified "changing workloads" axis. The meter's metric
// properties (identity, symmetry, bounds, monotonicity) are what make a
// declared trajectory meaningful.

#include <gtest/gtest.h>

#include "data/dataset.h"
#include "stats/drift.h"
#include "workload/spec.h"

namespace lsbench {
namespace {

Dataset MakeDataset(size_t num_keys = 20000, uint64_t seed = 7) {
  DatasetOptions options;
  options.num_keys = num_keys;
  options.seed = seed;
  return GenerateDataset(UniformUnit(), options);
}

PhaseSpec HotspotPhase(double hot_start, double get = 0.8,
                       double update = 0.2) {
  PhaseSpec phase;
  phase.name = std::string(1, 'p');  // `= "p"` trips GCC 12 -Wrestrict
  phase.mix.get = get;
  phase.mix.update = update;
  phase.access = AccessPattern::kHotSpot;
  phase.access_param = 0.1;
  phase.access_param2 = hot_start;
  phase.num_operations = 4096;
  return phase;
}

// ---------------------------------------------------------------------------
// DriftMeter metric properties
// ---------------------------------------------------------------------------

TEST(DriftMeterTest, IdenticalPhasesMeasureExactlyZero) {
  const Dataset dataset = MakeDataset();
  const DriftMeter meter;
  const PhaseDistributionSample s =
      meter.SamplePhase(dataset, HotspotPhase(0.0));
  const DriftComponents d = meter.Measure(s, s);
  EXPECT_DOUBLE_EQ(d.factor, 0.0);
  EXPECT_DOUBLE_EQ(d.key_ks, 0.0);
  EXPECT_DOUBLE_EQ(d.op_mix_tv, 0.0);
  EXPECT_DOUBLE_EQ(d.key_overlap, 1.0);
}

TEST(DriftMeterTest, TwoSamplesOfTheSamePhaseSpecAreIdentical) {
  // SamplePhase is seeded by the options, not by any global state: the same
  // (dataset, phase) pair distills to the same sample, so a repeated phase
  // in a spec (repeating_session.lsb's A, A prefix) measures drift 0.
  const Dataset dataset = MakeDataset();
  const DriftMeter meter;
  const PhaseDistributionSample a =
      meter.SamplePhase(dataset, HotspotPhase(0.3));
  const PhaseDistributionSample b =
      meter.SamplePhase(dataset, HotspotPhase(0.3));
  EXPECT_EQ(a.normalized_keys, b.normalized_keys);
  EXPECT_DOUBLE_EQ(meter.Measure(a, b).factor, 0.0);
}

TEST(DriftMeterTest, MeasureIsSymmetric) {
  const Dataset dataset = MakeDataset();
  const DriftMeter meter;
  const PhaseDistributionSample a =
      meter.SamplePhase(dataset, HotspotPhase(0.0));
  const PhaseDistributionSample b =
      meter.SamplePhase(dataset, HotspotPhase(0.5, /*get=*/0.5, 0.5));
  const DriftComponents ab = meter.Measure(a, b);
  const DriftComponents ba = meter.Measure(b, a);
  EXPECT_DOUBLE_EQ(ab.factor, ba.factor);
  EXPECT_DOUBLE_EQ(ab.key_ks, ba.key_ks);
  EXPECT_DOUBLE_EQ(ab.key_mmd, ba.key_mmd);
  EXPECT_DOUBLE_EQ(ab.key_overlap, ba.key_overlap);
  EXPECT_DOUBLE_EQ(ab.op_mix_tv, ba.op_mix_tv);
}

TEST(DriftMeterTest, ComponentsAndFactorStayInBounds) {
  const Dataset dataset = MakeDataset();
  const DriftMeter meter;
  const PhaseDistributionSample base =
      meter.SamplePhase(dataset, HotspotPhase(0.0));
  for (const double start : {0.0, 0.05, 0.2, 0.5, 0.9}) {
    PhaseSpec other = HotspotPhase(start, /*get=*/0.4, /*update=*/0.3);
    other.mix.insert = 0.3;
    const DriftComponents d =
        meter.Measure(base, meter.SamplePhase(dataset, other));
    EXPECT_GE(d.factor, 0.0) << "start=" << start;
    EXPECT_LE(d.factor, 1.0) << "start=" << start;
    EXPECT_GE(d.key_ks, 0.0);
    EXPECT_LE(d.key_ks, 1.0);
    EXPECT_GE(d.key_mmd, 0.0);
    EXPECT_LE(d.key_mmd, 1.0);
    EXPECT_GE(d.key_overlap, 0.0);
    EXPECT_LE(d.key_overlap, 1.0);
    EXPECT_GE(d.op_mix_tv, 0.0);
    EXPECT_LE(d.op_mix_tv, 1.0);
  }
}

TEST(DriftMeterTest, FartherHotspotMoveMeasuresMoreDrift) {
  // Moving a 10%-wide hot region by 5% overlaps half of it; moving it by
  // 40% makes the hot sets disjoint. The factor must order accordingly.
  const Dataset dataset = MakeDataset();
  const DriftMeter meter;
  const PhaseDistributionSample base =
      meter.SamplePhase(dataset, HotspotPhase(0.0));
  const double near =
      meter.Measure(base, meter.SamplePhase(dataset, HotspotPhase(0.05)))
          .factor;
  const double far =
      meter.Measure(base, meter.SamplePhase(dataset, HotspotPhase(0.4)))
          .factor;
  EXPECT_GT(near, 0.0);
  EXPECT_LT(near, far);
}

TEST(DriftMeterTest, OpMixShiftAloneIsVisible) {
  // Same access distribution, different mix: the op-mix component must
  // carry the drift even though the touched-key distribution barely moves.
  const Dataset dataset = MakeDataset();
  const DriftMeter meter;
  const DriftComponents d = meter.Measure(
      meter.SamplePhase(dataset,
                        HotspotPhase(0.0, /*get=*/0.9, /*update=*/0.1)),
      meter.SamplePhase(dataset,
                        HotspotPhase(0.0, /*get=*/0.3, /*update=*/0.7)));
  EXPECT_NEAR(d.op_mix_tv, 0.6, 0.05);
  EXPECT_GT(d.factor, 0.1);
  EXPECT_LT(d.key_ks, 0.2);
}

TEST(DriftMeterTest, MeasurementIsBitDeterministic) {
  const Dataset dataset = MakeDataset();
  const DriftMeter meter;
  auto measure = [&] {
    return meter.Measure(meter.SamplePhase(dataset, HotspotPhase(0.0)),
                         meter.SamplePhase(dataset, HotspotPhase(0.35)));
  };
  const DriftComponents a = measure();
  const DriftComponents b = measure();
  EXPECT_EQ(a.factor, b.factor);
  EXPECT_EQ(a.key_ks, b.key_ks);
  EXPECT_EQ(a.key_mmd, b.key_mmd);
  EXPECT_EQ(a.key_overlap, b.key_overlap);
  EXPECT_EQ(a.op_mix_tv, b.op_mix_tv);
}

}  // namespace
}  // namespace lsbench
