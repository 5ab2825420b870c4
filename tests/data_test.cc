#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "data/distinct_draws.h"
#include "data/distribution.h"
#include "data/quality.h"
#include "data/synthesizer.h"
#include "index/kv_index.h"
#include "stats/descriptive.h"
#include "stats/similarity.h"

namespace lsbench {
namespace {

// ---------------------------------------------------------------------------
// Distributions
// ---------------------------------------------------------------------------

class DistributionTest
    : public ::testing::TestWithParam<
          std::function<std::unique_ptr<UnitDistribution>()>> {};

TEST_P(DistributionTest, SamplesStayInUnitInterval) {
  const auto dist = GetParam()();
  Rng rng(101);
  for (int i = 0; i < 20000; ++i) {
    const double v = dist->Sample(&rng);
    ASSERT_GE(v, 0.0) << dist->name();
    ASSERT_LT(v, 1.0) << dist->name();
  }
}

TEST_P(DistributionTest, HasDescriptiveName) {
  EXPECT_FALSE(GetParam()()->name().empty());
}

INSTANTIATE_TEST_SUITE_P(
    AllDistributions, DistributionTest,
    ::testing::Values(
        [] { return MakeUniform(); }, [] { return MakeGaussian(0.5, 0.1); },
        [] { return MakeLognormal(0.0, 1.0); }, [] { return MakePareto(1.5); },
        [] { return MakeClustered(5, 0.02, 3); }));

TEST(DistributionTest, GaussianConcentratesAroundMean) {
  GaussianUnit g(0.5, 0.05);
  Rng rng(103);
  StreamingStats s;
  for (int i = 0; i < 20000; ++i) s.Add(g.Sample(&rng));
  EXPECT_NEAR(s.mean(), 0.5, 0.01);
  EXPECT_LT(s.StdDev(), 0.1);
}

TEST(DistributionTest, UniformIsFlat) {
  UniformUnit u;
  Rng rng(107);
  StreamingStats s;
  for (int i = 0; i < 20000; ++i) s.Add(u.Sample(&rng));
  EXPECT_NEAR(s.mean(), 0.5, 0.01);
  EXPECT_NEAR(s.StdDev(), std::sqrt(1.0 / 12.0), 0.01);
}

TEST(DistributionTest, ParetoIsRightSkewed) {
  ParetoUnit p(1.2);
  Rng rng(109);
  std::vector<double> samples;
  for (int i = 0; i < 20000; ++i) samples.push_back(p.Sample(&rng));
  // Median far below mean: heavy right tail.
  const double median = Quantile(samples, 0.5);
  double mean = 0;
  for (double v : samples) mean += v;
  mean /= static_cast<double>(samples.size());
  EXPECT_LT(median, mean * 0.5);
}

TEST(DistributionTest, BlendInterpolates) {
  UniformUnit a;
  GaussianUnit b(0.9, 0.01);
  Rng rng(113);
  BlendUnit pure_a(&a, &b, 0.0);
  BlendUnit pure_b(&a, &b, 1.0);
  StreamingStats sa, sb;
  for (int i = 0; i < 10000; ++i) {
    sa.Add(pure_a.Sample(&rng));
    sb.Add(pure_b.Sample(&rng));
  }
  EXPECT_NEAR(sa.mean(), 0.5, 0.02);
  EXPECT_NEAR(sb.mean(), 0.9, 0.02);
}

TEST(DistributionTest, MixtureRespectsWeights) {
  std::vector<std::unique_ptr<UnitDistribution>> comps;
  comps.push_back(MakeGaussian(0.1, 0.001));
  comps.push_back(MakeGaussian(0.9, 0.001));
  MixtureUnit mix(std::move(comps), {0.8, 0.2});
  Rng rng(127);
  int low = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    if (mix.Sample(&rng) < 0.5) ++low;
  }
  EXPECT_NEAR(static_cast<double>(low) / n, 0.8, 0.02);
}

// Skip must move the Rng exactly as Sample does, from either Box–Muller
// phase: GenerateDataset's draw blocks start where a Skip walk ends. Where
// the walk leaves nothing pending, the next Sample is the serial one.
TEST(DistributionTest, SkipMovesTheRngAsSampleDoes) {
  const UniformUnit uniform;
  const GaussianUnit gaussian(0.5, 0.1);
  const LognormalUnit lognormal(0.0, 1.5);
  const ParetoUnit pareto(1.2);
  const ClusteredUnit clustered(6, 0.004, 3);
  std::vector<std::unique_ptr<UnitDistribution>> components;
  components.push_back(MakeLognormal(0.0, 1.0));
  components.push_back(MakeGaussian(0.3, 0.05));
  components.push_back(MakeUniform());
  const MixtureUnit mixture(std::move(components), {0.5, 0.3, 0.2});
  const BlendUnit blend(&uniform, &lognormal, 0.5);
  const UnitDistribution* const dists[] = {
      &uniform, &pareto, &gaussian, &lognormal, &clustered, &mixture, &blend};
  for (const UnitDistribution* dist : dists) {
    for (uint64_t seed = 1; seed <= 200; ++seed) {
      for (const bool pending : {false, true}) {
        SCOPED_TRACE(dist->name() + " seed=" + std::to_string(seed) +
                     (pending ? " pending" : ""));
        Rng sampled(seed);
        if (pending) sampled.NextGaussian();
        Rng skipped = sampled;
        for (int i = 0; i < 9; ++i) {
          dist->Sample(&sampled);
          dist->Skip(&skipped);
          ASSERT_TRUE(sampled.SamePosition(skipped)) << "after " << i + 1;
        }
        if (!skipped.GaussianPending()) {
          ASSERT_EQ(dist->Sample(&sampled), dist->Sample(&skipped));
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Dataset generation
// ---------------------------------------------------------------------------

TEST(DatasetTest, ExactSizeSortedUnique) {
  DatasetOptions options;
  options.num_keys = 5000;
  const Dataset ds = GenerateDataset(UniformUnit(), options);
  EXPECT_EQ(ds.size(), 5000u);
  EXPECT_TRUE(std::is_sorted(ds.keys.begin(), ds.keys.end()));
  const std::set<Key> unique(ds.keys.begin(), ds.keys.end());
  EXPECT_EQ(unique.size(), ds.keys.size());
  for (Key k : ds.keys) EXPECT_LT(k, options.domain_max);
}

TEST(DatasetTest, DeterministicBySeed) {
  DatasetOptions options;
  options.num_keys = 1000;
  options.seed = 77;
  const Dataset a = GenerateDataset(LognormalUnit(0, 1), options);
  const Dataset b = GenerateDataset(LognormalUnit(0, 1), options);
  EXPECT_EQ(a.keys, b.keys);
  options.seed = 78;
  const Dataset c = GenerateDataset(LognormalUnit(0, 1), options);
  EXPECT_NE(a.keys, c.keys);
}

TEST(DatasetTest, NormalizedKeysInUnitInterval) {
  DatasetOptions options;
  options.num_keys = 100;
  const Dataset ds = GenerateDataset(UniformUnit(), options);
  for (double v : ds.NormalizedKeys()) {
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(DatasetTest, DistributionShapesAreDistinguishable) {
  DatasetOptions options;
  options.num_keys = 5000;
  const Dataset uniform = GenerateDataset(UniformUnit(), options);
  const Dataset skewed = GenerateDataset(LognormalUnit(0, 2), options);
  const double ks =
      KolmogorovSmirnov(uniform.NormalizedKeys(), skewed.NormalizedKeys())
          .statistic;
  EXPECT_GT(ks, 0.3);
}

TEST(DriftSequenceTest, EndpointsMatchSourcesAndDriftIsGradual) {
  DatasetOptions options;
  options.num_keys = 3000;
  const UniformUnit from;
  const GaussianUnit to(0.2, 0.02);
  const auto seq = GenerateDriftSequence(from, to, 5, options);
  ASSERT_EQ(seq.size(), 5u);

  // Consecutive steps are closer than the endpoints.
  const double end_to_end =
      KolmogorovSmirnov(seq.front().NormalizedKeys(),
                        seq.back().NormalizedKeys())
          .statistic;
  for (size_t i = 1; i < seq.size(); ++i) {
    const double step = KolmogorovSmirnov(seq[i - 1].NormalizedKeys(),
                                          seq[i].NormalizedKeys())
                            .statistic;
    EXPECT_LT(step, end_to_end);
  }
  EXPECT_GT(end_to_end, 0.4);
}

// ---------------------------------------------------------------------------
// Generation golden pins. The keys every generator returns are pinned by
// FNV-1a hash, so any rewrite of the generation loop must reproduce the
// original hash-set loop byte for byte: the same keys, and the same stop at
// the draw that fills the target or at the draw cap.
// ---------------------------------------------------------------------------

uint64_t HashKeys(const std::vector<Key>& keys) {
  uint64_t h = 14695981039346656037ull;
  for (const Key k : keys) {
    for (int b = 0; b < 8; ++b) {
      h ^= (k >> (8 * b)) & 0xff;
      h *= 1099511628211ull;
    }
  }
  return h;
}

struct KeysPin {
  std::string name;
  size_t size;
  uint64_t hash;
};

/// Compares `actual` to `pins` row by row; a mismatch prints the actual
/// rows in source form.
void ExpectPins(const std::vector<KeysPin>& actual,
                const std::vector<KeysPin>& pins) {
  bool all_equal = actual.size() == pins.size();
  for (size_t i = 0; i < actual.size() && i < pins.size(); ++i) {
    EXPECT_EQ(actual[i].name, pins[i].name);
    EXPECT_EQ(actual[i].size, pins[i].size) << actual[i].name;
    EXPECT_EQ(actual[i].hash, pins[i].hash) << actual[i].name;
    all_equal = all_equal && actual[i].name == pins[i].name &&
                actual[i].size == pins[i].size &&
                actual[i].hash == pins[i].hash;
  }
  EXPECT_EQ(actual.size(), pins.size());
  if (!all_equal) {
    for (const KeysPin& a : actual) {
      std::printf("      {\"%s\", %zu, 0x%016llxull},\n", a.name.c_str(),
                  a.size, static_cast<unsigned long long>(a.hash));
    }
  }
}

TEST(GenerationPinTest, GenerateDatasetKeysArePinned) {
  const UniformUnit uniform;
  const LognormalUnit lognormal(0.0, 1.5);
  const ClusteredUnit clustered(6, 0.004, 3);
  const BlendUnit blend(&uniform, &lognormal, 0.5);
  // A vanishing spread puts every draw on a handful of keys, so generation
  // stops at the draw cap with far fewer keys than asked for.
  const LognormalUnit degenerate(0.0, 1e-9);
  const std::pair<const char*, const UnitDistribution*> dists[] = {
      {"uniform", &uniform},     {"lognormal", &lognormal},
      {"clustered", &clustered}, {"blend", &blend},
      {"degenerate", &degenerate}};

  std::vector<KeysPin> actual;
  for (const size_t n : {size_t{3000}, size_t{40000}}) {
    const std::pair<const char*, uint64_t> domains[] = {
        {"2^48", uint64_t{1} << 48}, {"2n", 2 * n}, {"4n+3", 4 * n + 3}};
    for (const auto& [dist_name, dist] : dists) {
      for (const auto& [domain_name, domain] : domains) {
        for (const uint64_t seed : {uint64_t{1}, uint64_t{9}}) {
          DatasetOptions options;
          options.num_keys = n;
          options.domain_max = domain;
          options.seed = seed;
          const Dataset ds = GenerateDataset(*dist, options);
          actual.push_back({std::string(dist_name) + "/n=" +
                                std::to_string(n) + "/" + domain_name +
                                "/seed=" + std::to_string(seed),
                            ds.size(), HashKeys(ds.keys)});
        }
      }
    }
  }
  ExpectPins(actual, {
      {"uniform/n=3000/2^48/seed=1", 3000, 0x709a5961accc22f7ull},
      {"uniform/n=3000/2^48/seed=9", 3000, 0x04729b2fb2af6f5bull},
      {"uniform/n=3000/2n/seed=1", 3000, 0x3775221007a82cd2ull},
      {"uniform/n=3000/2n/seed=9", 3000, 0x3cc8ee3436c61ddfull},
      {"uniform/n=3000/4n+3/seed=1", 3000, 0xf5f9192f14ae2ad4ull},
      {"uniform/n=3000/4n+3/seed=9", 3000, 0x4bd0cea82ec5b45cull},
      {"lognormal/n=3000/2^48/seed=1", 3000, 0xa34f988628aea4c8ull},
      {"lognormal/n=3000/2^48/seed=9", 3000, 0x856e8f1ee7ae316full},
      {"lognormal/n=3000/2n/seed=1", 1341, 0x28b0facf0d593047ull},
      {"lognormal/n=3000/2n/seed=9", 1339, 0x58c774bffdabc205ull},
      {"lognormal/n=3000/4n+3/seed=1", 2141, 0xfbb8e0f54605e9aaull},
      {"lognormal/n=3000/4n+3/seed=9", 2147, 0xa4bb074163f36543ull},
      {"clustered/n=3000/2^48/seed=1", 3000, 0x746599eb69a43a81ull},
      {"clustered/n=3000/2^48/seed=9", 3000, 0x3c9c4019893e4379ull},
      {"clustered/n=3000/2n/seed=1", 1037, 0xfd1a0c8d4921a384ull},
      {"clustered/n=3000/2n/seed=9", 1027, 0xe9be3869075588c3ull},
      {"clustered/n=3000/4n+3/seed=1", 1991, 0xa6b44ebd7d0bb33cull},
      {"clustered/n=3000/4n+3/seed=9", 1972, 0xd3668b8ff1f3722eull},
      {"blend/n=3000/2^48/seed=1", 3000, 0x944e5e119f055e68ull},
      {"blend/n=3000/2^48/seed=9", 3000, 0xb1567ee57c5a00f3ull},
      {"blend/n=3000/2n/seed=1", 3000, 0x51cace1fed3e00daull},
      {"blend/n=3000/2n/seed=9", 3000, 0x826df94bb24100a4ull},
      {"blend/n=3000/4n+3/seed=1", 3000, 0x2b02e1e1926706ebull},
      {"blend/n=3000/4n+3/seed=9", 3000, 0xfe78543fad72064cull},
      {"degenerate/n=3000/2^48/seed=1", 3000, 0x8cf5cc07999d04bfull},
      {"degenerate/n=3000/2^48/seed=9", 3000, 0x3625041e7d259442ull},
      {"degenerate/n=3000/2n/seed=1", 1, 0xf3429a28064fa493ull},
      {"degenerate/n=3000/2n/seed=9", 1, 0xf3429a28064fa493ull},
      {"degenerate/n=3000/4n+3/seed=1", 1, 0x39195fdec403b869ull},
      {"degenerate/n=3000/4n+3/seed=9", 1, 0x39195fdec403b869ull},
      {"uniform/n=40000/2^48/seed=1", 40000, 0x10067ff82da761f8ull},
      {"uniform/n=40000/2^48/seed=9", 40000, 0x15ad7447e208c6b8ull},
      {"uniform/n=40000/2n/seed=1", 40000, 0x63af1780b06824e1ull},
      {"uniform/n=40000/2n/seed=9", 40000, 0x40f58f35260cdd98ull},
      {"uniform/n=40000/4n+3/seed=1", 40000, 0x8f3e46eaffe87a3dull},
      {"uniform/n=40000/4n+3/seed=9", 40000, 0x6663ddae3744c0cbull},
      {"lognormal/n=40000/2^48/seed=1", 40000, 0xa6505d5ba404fa98ull},
      {"lognormal/n=40000/2^48/seed=9", 40000, 0xa25226352d507a45ull},
      {"lognormal/n=40000/2n/seed=1", 17629, 0x8554fa1d9e93e63eull},
      {"lognormal/n=40000/2n/seed=9", 17740, 0x06bf6804ae50e861ull},
      {"lognormal/n=40000/4n+3/seed=1", 28067, 0x2017df3a0e6d71e3ull},
      {"lognormal/n=40000/4n+3/seed=9", 28172, 0x008a6cfd8f3bcf64ull},
      {"clustered/n=40000/2^48/seed=1", 40000, 0x628e751770bdc4c6ull},
      {"clustered/n=40000/2^48/seed=9", 40000, 0x3c2cf91a89d62a20ull},
      {"clustered/n=40000/2n/seed=1", 13812, 0x96cd972afc50d3d7ull},
      {"clustered/n=40000/2n/seed=9", 13817, 0x51fcd2f5cd3ff8e3ull},
      {"clustered/n=40000/4n+3/seed=1", 26391, 0xdd87aacfe2cab20bull},
      {"clustered/n=40000/4n+3/seed=9", 26362, 0xf7dd1fb3f365b852ull},
      {"blend/n=40000/2^48/seed=1", 40000, 0x9fc1f76d4a16712full},
      {"blend/n=40000/2^48/seed=9", 40000, 0x5bfbb0677466b09bull},
      {"blend/n=40000/2n/seed=1", 40000, 0x981dad98effd60baull},
      {"blend/n=40000/2n/seed=9", 40000, 0x11cd0064edbf46f0ull},
      {"blend/n=40000/4n+3/seed=1", 40000, 0x0e82446e82aaf21dull},
      {"blend/n=40000/4n+3/seed=9", 40000, 0xf0f7cef10d7b7ec0ull},
      {"degenerate/n=40000/2^48/seed=1", 40000, 0xd382317d43d3c075ull},
      {"degenerate/n=40000/2^48/seed=9", 40000, 0xa7f8acc6ba26a4ceull},
      {"degenerate/n=40000/2n/seed=1", 1, 0x6f8dfc4cadba944bull},
      {"degenerate/n=40000/2n/seed=9", 1, 0x6f8dfc4cadba944bull},
      {"degenerate/n=40000/4n+3/seed=1", 1, 0x85701a7aaacb59eeull},
      {"degenerate/n=40000/4n+3/seed=9", 1, 0x85701a7aaacb59eeull},
  });
}

TEST(GenerationPinTest, DriftAndSynthesizedKeysArePinned) {
  const UniformUnit uniform;
  const LognormalUnit lognormal(0.0, 1.5);
  std::vector<KeysPin> actual;
  for (const uint64_t domain : {uint64_t{1} << 48, uint64_t{40000}}) {
    DatasetOptions options;
    options.num_keys = 20000;
    options.domain_max = domain;
    options.seed = 5;
    const std::vector<Dataset> seq =
        GenerateDriftSequence(uniform, lognormal, 4, options);
    for (size_t i = 0; i < seq.size(); ++i) {
      actual.push_back({"drift/domain=" + std::to_string(domain) +
                            "/step=" + std::to_string(i),
                        seq[i].size(), HashKeys(seq[i].keys)});
    }
  }

  DatasetOptions options;
  options.num_keys = 20000;
  options.seed = 5;
  const Dataset original = GenerateDataset(lognormal, options);
  SynthesizeOptions synth;
  synth.seed = 6;
  Dataset ds = SynthesizeDatasetLike(original, synth);
  actual.push_back({"synthesize/like", ds.size(), HashKeys(ds.keys)});

  // A narrow original leaves fewer distinct keys than asked for, so
  // synthesis stops at its attempt cap, with every key below the original's
  // domain_max of 400.
  options.num_keys = 200;
  options.domain_max = 400;
  const Dataset narrow = GenerateDataset(uniform, options);
  synth.num_keys = 5000;
  ds = SynthesizeDatasetLike(narrow, synth);
  actual.push_back({"synthesize/capped", ds.size(), HashKeys(ds.keys)});
  ExpectPins(actual, {
      {"drift/domain=281474976710656/step=0", 20000, 0x109fad700d9699b8ull},
      {"drift/domain=281474976710656/step=1", 20000, 0x2a29232fab6124a0ull},
      {"drift/domain=281474976710656/step=2", 20000, 0x64db2afabc0aeb76ull},
      {"drift/domain=281474976710656/step=3", 20000, 0x070cff737a81cdd0ull},
      {"drift/domain=40000/step=0", 20000, 0xcc5a87e256e3abcaull},
      {"drift/domain=40000/step=1", 20000, 0x9b19a287154e3ed2ull},
      {"drift/domain=40000/step=2", 20000, 0xc77adb3af7a87b8dull},
      {"drift/domain=40000/step=3", 8850, 0x889d31b65055ad2aull},
      {"synthesize/like", 20000, 0xa664c225e8fdb17cull},
      {"synthesize/capped", 398, 0xf439f256babfa6b4ull},
  });
}

// Sizes large enough that generation's sorts split across threads (on a
// host with more than one): the lognormal case stays in the halving rounds,
// the clustered case at a 2n domain runs into the draw-ahead tail. Pinned
// before the sorts were parallel, so they hold the serial sort's bytes.
TEST(GenerationPinTest, LargeGenerationKeysArePinned) {
  const LognormalUnit lognormal(0.0, 1.5);
  const ClusteredUnit clustered(6, 0.004, 3);
  constexpr size_t kKeys = 300000;
  std::vector<KeysPin> actual;
  DatasetOptions options;
  options.num_keys = kKeys;
  options.seed = 1;
  options.domain_max = uint64_t{1} << 48;
  Dataset ds = GenerateDataset(lognormal, options);
  actual.push_back({"lognormal/n=300000/2^48", ds.size(), HashKeys(ds.keys)});
  options.domain_max = 2 * kKeys;
  ds = GenerateDataset(clustered, options);
  actual.push_back({"clustered/n=300000/2n", ds.size(), HashKeys(ds.keys)});
  ExpectPins(actual, {
      {"lognormal/n=300000/2^48", 300000, 0x53c4eed82776e6e7ull},
      {"clustered/n=300000/2n", 103482, 0x53ee79eeca5b774full},
  });
}

/// Exactly `reachable` keys of the domain can be drawn, so a target above
/// that count is only given up at the draw cap, with every reachable key
/// found.
class FiniteSupportUnit final : public UnitDistribution {
 public:
  FiniteSupportUnit(uint64_t reachable, uint64_t domain_max)
      : reachable_(reachable), domain_max_(domain_max) {}
  double Sample(Rng* rng) const override {
    // The half-key offset keeps u * domain_max clear of a key boundary.
    return (static_cast<double>(rng->NextBounded(reachable_)) + 0.5) /
           static_cast<double>(domain_max_);
  }
  std::string name() const override { return "finite_support"; }

 private:
  uint64_t reachable_;
  uint64_t domain_max_;
};

TEST(GenerationPinTest, SaturatedSupportReturnsEveryReachableKey) {
  constexpr size_t kKeys = 200000;
  DatasetOptions options;
  options.num_keys = kKeys;
  options.domain_max = 2 * kKeys;
  options.seed = 3;
  const Dataset ds =
      GenerateDataset(FiniteSupportUnit(kKeys - 5, 2 * kKeys), options);
  ASSERT_EQ(ds.size(), kKeys - 5);
  for (size_t i = 0; i < ds.size(); ++i) ASSERT_EQ(ds.keys[i], i);
}

/// Forwards only Sample to `inner`, so Skip is UnitDistribution's default:
/// a distribution written before Skip existed.
class SampleOnlyUnit final : public UnitDistribution {
 public:
  explicit SampleOnlyUnit(const UnitDistribution* inner) : inner_(inner) {}
  double Sample(Rng* rng) const override { return inner_->Sample(rng); }
  std::string name() const override { return "sample_only"; }

 private:
  const UnitDistribution* inner_;
};

// Sizes at which generation splits its draws into blocks (a call of at
// least 2 * kMinBlockKeys draws), at part counts 1 to 8, so a one-core host
// covers the split too. Pinned before the draws were split, so they hold
// the serial draw's keys. Most cases split into at most two blocks, whose
// boundary falls after an odd draw, so a gaussian-based one moves past a
// pending Box–Muller value. Lognormal, dram_read's distribution, also
// splits into three and four blocks. The saturated case's support is an
// eighth larger than its target, so its rounds stall and the rest is drawn
// in tail chunks long enough to split; it and sample_only keep the default
// Skip.
TEST(GenerationPinTest, SplitDrawKeysArePinned) {
  constexpr size_t kTwoBlocks = (size_t{1} << 19) + 4099;
  constexpr size_t kFourBlocks = (size_t{1} << 20) + 4099;
  constexpr uint64_t kDomain = uint64_t{1} << 48;
  const UniformUnit uniform;
  const GaussianUnit gaussian(0.5, 0.1);
  const LognormalUnit lognormal(0.0, 1.5);
  const ParetoUnit pareto(1.2);
  const ClusteredUnit clustered(6, 0.004, 3);
  std::vector<std::unique_ptr<UnitDistribution>> components;
  components.push_back(MakeLognormal(0.0, 1.0));
  components.push_back(MakeGaussian(0.3, 0.05));
  components.push_back(MakeUniform());
  const MixtureUnit mixture(std::move(components), {0.5, 0.3, 0.2});
  const BlendUnit blend(&uniform, &lognormal, 0.5);
  const SampleOnlyUnit sample_only(&lognormal);
  const FiniteSupportUnit saturated(kFourBlocks + kFourBlocks / 8,
                                    2 * kFourBlocks);
  struct Case {
    const char* name;
    const UnitDistribution* dist;
    size_t keys;
    uint64_t domain;
  };
  const Case cases[] = {
      {"uniform", &uniform, kTwoBlocks, kDomain},
      {"gaussian", &gaussian, kTwoBlocks, kDomain},
      {"lognormal", &lognormal, kFourBlocks, kDomain},
      {"pareto", &pareto, kTwoBlocks, kDomain},
      {"clustered", &clustered, kTwoBlocks, kDomain},
      {"mixture", &mixture, kTwoBlocks, kDomain},
      {"blend", &blend, kTwoBlocks, kDomain},
      {"sample_only", &sample_only, kTwoBlocks, kDomain},
      {"saturated", &saturated, kFourBlocks, 2 * kFourBlocks}};
  for (const size_t parts : {1, 2, 3, 4, 8}) {
    SCOPED_TRACE("parts=" + std::to_string(parts));
    std::vector<KeysPin> actual;
    for (const Case& c : cases) {
      DatasetOptions options;
      options.num_keys = c.keys;
      options.domain_max = c.domain;
      options.seed = 11;
      const Dataset ds = GenerateDataset(*c.dist, options, parts);
      actual.push_back({c.name, ds.size(), HashKeys(ds.keys)});
    }
    ExpectPins(actual, {
        {"uniform", 528387, 0x3e615b8ea0eea949ull},
        {"gaussian", 528387, 0x9bbd8cb64fbe78fbull},
        {"lognormal", 1052675, 0x90b89e4b8cc74d32ull},
        {"pareto", 528387, 0xf7ba1ff9dae2eddcull},
        {"clustered", 528387, 0x3b26fae658a91c82ull},
        {"mixture", 528387, 0x30236efacca9c9acull},
        {"blend", 528387, 0x914eaf92ac229de7ull},
        {"sample_only", 528387, 0x00862fa7750416c0ull},
        {"saturated", 1052675, 0x7438ccd9a5b2614eull},
    });
  }
}

/// A lognormal whose Skip draws one uniform per key instead of a
/// Box–Muller pair per two keys: a Skip that does not move the Rng as its
/// Sample does.
class MisskippingUnit final : public UnitDistribution {
 public:
  double Sample(Rng* rng) const override { return lognormal_.Sample(rng); }
  void Skip(Rng* rng) const override { rng->Next(); }
  std::string name() const override { return "misskipping"; }

 private:
  LognormalUnit lognormal_{0.0, 1.5};
};

TEST(GenerationPinTest, SplitDrawRejectsSkipThatMovesTheRngElsewhere) {
  // Two blocks of an odd number of draws: the first ends with a value
  // pending, where the walk's one uniform per key left none. (At an even
  // boundary this Skip lands where Sample does.)
  DatasetOptions options;
  options.num_keys = 2 * kMinBlockKeys + 2;
  const MisskippingUnit misskipping;
  // One block has no Skip walk to check.
  EXPECT_EQ(GenerateDataset(misskipping, options, 1).size(), options.num_keys);
  EXPECT_DEATH(GenerateDataset(misskipping, options, 2),
               "misskipping: block 0 \\(draws 0 to 262145 of 524290\\) ends "
               "elsewhere than Skip put the next block's start");
}

// ---------------------------------------------------------------------------
// Email generator
// ---------------------------------------------------------------------------

TEST(EmailGeneratorTest, ProducesPlausibleAddresses) {
  EmailGenerator gen(1);
  for (int i = 0; i < 100; ++i) {
    const std::string email = gen.Next();
    const size_t at = email.find('@');
    ASSERT_NE(at, std::string::npos) << email;
    EXPECT_GT(at, 0u);
    EXPECT_NE(email.find(".example"), std::string::npos) << email;
  }
}

TEST(EmailGeneratorTest, DeterministicBySeed) {
  EmailGenerator a(9), b(9), c(10);
  EXPECT_EQ(a.Next(), b.Next());
  // Different seeds diverge quickly (not necessarily on the first draw).
  bool diverged = false;
  EmailGenerator a2(9);
  for (int i = 0; i < 20 && !diverged; ++i) {
    diverged = a2.Next() != c.Next();
  }
  EXPECT_TRUE(diverged);
}

TEST(EmailGeneratorTest, ToKeyIsPrefixOrderPreserving) {
  EXPECT_LT(EmailGenerator::ToKey("aaa@x.example"),
            EmailGenerator::ToKey("bbb@x.example"));
  EXPECT_EQ(EmailGenerator::ToKey("abcdefgh-tail-1"),
            EmailGenerator::ToKey("abcdefgh-tail-2"));  // Same 8-byte prefix.
}

TEST(EmailGeneratorTest, DatasetIsSortedUniqueNonUniform) {
  const Dataset ds = GenerateEmailDataset(2000, 42);
  EXPECT_GT(ds.size(), 1000u);  // Prefix collisions may trim a few.
  EXPECT_TRUE(std::is_sorted(ds.keys.begin(), ds.keys.end()));
  // Email keys are clustered by first letter: far from uniform.
  const DataQualityReport report = ScoreDataset(ds);
  EXPECT_GT(report.skew_score, 30.0);
}

// ---------------------------------------------------------------------------
// Quality scorer (the paper's §V-C tool)
// ---------------------------------------------------------------------------

TEST(QualityTest, UniformDataGetsLowMarks) {
  DatasetOptions options;
  options.num_keys = 20000;
  const Dataset ds = GenerateDataset(UniformUnit(), options);
  const DataQualityReport report = ScoreDataset(ds);
  EXPECT_LT(report.overall, 20.0);
  EXPECT_LT(report.skew_score, 10.0);
  EXPECT_NE(report.summary.find("poor"), std::string::npos);
}

TEST(QualityTest, SkewedDataScoresHigherThanUniform) {
  DatasetOptions options;
  options.num_keys = 20000;
  const Dataset uniform = GenerateDataset(UniformUnit(), options);
  const Dataset skewed = GenerateDataset(ClusteredUnit(8, 0.005, 5), options);
  EXPECT_GT(ScoreDataset(skewed).overall, ScoreDataset(uniform).overall + 15);
}

TEST(QualityTest, DriftRaisesSequenceScore) {
  DatasetOptions options;
  options.num_keys = 5000;
  const UniformUnit from;
  const GaussianUnit to(0.1, 0.01);
  const auto drifting = GenerateDriftSequence(from, to, 4, options);
  // A static sequence: same distribution four times.
  const auto same = GenerateDriftSequence(from, from, 4, options);
  const DataQualityReport drift_report = ScoreDatasetSequence(drifting);
  const DataQualityReport static_report = ScoreDatasetSequence(same);
  EXPECT_GT(drift_report.drift_score, static_report.drift_score + 20);
  EXPECT_GT(drift_report.overall, static_report.overall);
}

TEST(QualityTest, EmptySequence) {
  EXPECT_EQ(ScoreDatasetSequence({}).overall, 0.0);
}

TEST(QualityTest, WorkloadScorerPrefersVariedSkewedTraces) {
  // Flat arrivals, uniform access: poor.
  const std::vector<double> flat(50, 100.0);
  const std::vector<double> uniform_access(1000, 5.0);
  const WorkloadQualityReport poor =
      ScoreWorkloadTrace(flat, uniform_access);
  EXPECT_LT(poor.overall, 15.0);

  // Bursty arrivals, zipf-ish access: good.
  std::vector<double> bursty;
  for (int i = 0; i < 50; ++i) bursty.push_back(i % 10 == 0 ? 1000.0 : 50.0);
  std::vector<double> skewed_access;
  for (int i = 0; i < 1000; ++i) {
    skewed_access.push_back(i < 50 ? 500.0 : 1.0);
  }
  const WorkloadQualityReport good =
      ScoreWorkloadTrace(bursty, skewed_access);
  EXPECT_GT(good.overall, 50.0);
  EXPECT_GT(good.load_variation_score, 30.0);
  EXPECT_GT(good.access_skew_score, 50.0);
}

}  // namespace
}  // namespace lsbench
