#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include "core/spec_text.h"
#include "data/dataset.h"
#include "data/distribution.h"

namespace lsbench {
namespace {

constexpr char kGoodSpec[] = R"(
# full-featured spec
name = parse_me
seed = 99
interval_ms = 250
boxplot_sample_ms = 25
offline_training = false
sla_ms = 5
adjustment_window_ops = 123

[dataset]
kind = uniform
num_keys = 2000
seed = 1

[dataset]
kind = gaussian
num_keys = 3000
seed = 2
param1 = 0.4
param2 = 0.05

[phase]
name = first
dataset = 0
ops = 1000
mix = get:0.5,insert:0.3,scan:0.2
access = hotspot
access_param = 0.2
arrival = poisson
arrival_qps = 5000
scan_length = 42

[phase]
name = second
dataset = 1
ops = 2000
mix = range_count:0.9,update:0.1
access = uniform
transition = cosine
transition_ops = 500
holdout = true
range_selectivity = 0.01
)";

TEST(SpecTextTest, ParsesFullSpec) {
  const Result<ParsedSpec> result = ParseRunSpecText(kGoodSpec);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const ParsedSpec& spec = result.value();
  EXPECT_EQ(spec.name, "parse_me");
  EXPECT_EQ(spec.seed, 99u);
  EXPECT_EQ(spec.interval_nanos, 250000000);
  EXPECT_EQ(spec.boxplot_sample_nanos, 25000000);
  EXPECT_FALSE(spec.offline_training);
  EXPECT_EQ(spec.sla.threshold_nanos, 5000000);
  EXPECT_EQ(spec.adjustment_window_ops, 123u);

  // Parsing describes the datasets; a ParsedSpec holds no keys.
  ASSERT_EQ(spec.datasets.size(), 2u);
  EXPECT_EQ(spec.datasets[0].kind, "uniform");
  EXPECT_EQ(spec.datasets[0].num_keys, 2000u);
  EXPECT_EQ(spec.datasets[1].kind, "gaussian");
  EXPECT_EQ(spec.datasets[1].seed, 2u);
  EXPECT_DOUBLE_EQ(spec.datasets[1].param2, 0.05);

  ASSERT_EQ(spec.phases.size(), 2u);
  const PhaseSpec& p0 = spec.phases[0];
  EXPECT_EQ(p0.name, "first");
  EXPECT_EQ(p0.dataset_index, 0);
  EXPECT_EQ(p0.num_operations, 1000u);
  EXPECT_DOUBLE_EQ(p0.mix.get, 0.5);
  EXPECT_DOUBLE_EQ(p0.mix.insert, 0.3);
  EXPECT_DOUBLE_EQ(p0.mix.scan, 0.2);
  EXPECT_EQ(p0.access, AccessPattern::kHotSpot);
  EXPECT_DOUBLE_EQ(p0.access_param, 0.2);
  EXPECT_EQ(p0.arrival, ArrivalPattern::kPoisson);
  EXPECT_DOUBLE_EQ(p0.arrival_rate_qps, 5000.0);
  EXPECT_EQ(p0.scan_length, 42u);

  const PhaseSpec& p1 = spec.phases[1];
  EXPECT_EQ(p1.dataset_index, 1);
  EXPECT_DOUBLE_EQ(p1.mix.range_count, 0.9);
  EXPECT_EQ(p1.transition_in, TransitionKind::kCosine);
  EXPECT_EQ(p1.transition_operations, 500u);
  EXPECT_TRUE(p1.holdout);
  EXPECT_DOUBLE_EQ(p1.range_selectivity, 0.01);
}

TEST(SpecTextTest, ParsedSpecValidates) {
  const Result<ParsedSpec> result = ParseRunSpecText(kGoodSpec);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.value().Validate().ok());
}

TEST(SpecTextTest, BuildDatasetsGeneratesWhatTheSectionsDescribe) {
  const ParsedSpec parsed = ParseRunSpecText(kGoodSpec).value();
  const Result<RunSpec> built = BuildDatasets(parsed);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  const RunSpec& spec = built.value();
  ASSERT_EQ(spec.datasets.size(), 2u);
  EXPECT_EQ(spec.datasets[0].size(), 2000u);
  EXPECT_EQ(spec.datasets[0].seed, 1u);
  EXPECT_EQ(spec.datasets[1].size(), 3000u);
  EXPECT_EQ(spec.datasets[1].name, MakeGaussian(0.4, 0.05)->name());
  EXPECT_TRUE(spec.Validate().ok());
  // The plan passes through as parsed.
  EXPECT_EQ(spec.name, parsed.name);
  EXPECT_EQ(spec.seed, parsed.seed);
  ASSERT_EQ(spec.phases.size(), parsed.phases.size());
  EXPECT_EQ(spec.phases[1].name, parsed.phases[1].name);

  // Another description, other keys.
  ParsedSpec reseeded = parsed;
  reseeded.datasets[0].seed = 7;
  EXPECT_NE(BuildDatasets(reseeded).value().datasets[0].keys,
            spec.datasets[0].keys);
}

TEST(SpecTextTest, HugeDatasetsParseAndFailToBuild) {
  // 2^40 keys would be 8 TiB: the description parses, and BuildDatasets
  // refuses it before allocating anything.
  const ParsedSpec huge =
      ParseRunSpecText(
          "[dataset]\nnum_keys = 1099511627776\n[phase]\nops = 10\n")
          .value();
  EXPECT_EQ(huge.datasets[0].num_keys, uint64_t{1} << 40);
  const Status too_big = BuildDatasets(huge).status();
  EXPECT_TRUE(too_big.IsInvalidArgument());
  for (const char* part : {"dataset 0 ", "uniform", "268435456-byte bound"}) {
    EXPECT_NE(too_big.message().find(part), std::string::npos)
        << part << " -> " << too_big.message();
  }

  // The bound is on the sum: two datasets of 2^24 + 1 keys are each under
  // 256 MiB and together over it. The second is named.
  const ParsedSpec pair = ParseRunSpecText(
                              "[dataset]\nnum_keys = 16777217\n"
                              "[dataset]\nkind = pareto\nnum_keys = 16777217\n"
                              "[phase]\nops = 10\n")
                              .value();
  const Status sum_too_big = BuildDatasets(pair).status();
  EXPECT_TRUE(sum_too_big.IsInvalidArgument());
  EXPECT_EQ(sum_too_big.message().rfind("dataset 1 (pareto): ", 0), 0u)
      << sum_too_big.message();
}

TEST(SpecTextTest, BuildErrorsNameTheirDataset) {
  // Errors that only generation can find name the dataset's ordinal and
  // kind rather than a line.
  struct Case {
    std::string text;
    const char* prefix;
    const char* names;
  };
  const Case kCases[] = {
      {"[dataset]\nnum_keys = 99999999\n[phase]\n", "dataset 0 (uniform): ",
       "num_keys 99999999"},
      // A distribution too narrow for num_keys distinct keys fails instead
      // of sampling forever.
      {"[dataset]\n[dataset]\nkind = gaussian\nparam1 = 1e20\n[phase]\n",
       "dataset 1 (gaussian): ", "too few distinct keys"},
      // An emails key is an 8-byte address prefix, with only about 4k
      // distinct values: 100000 keys cannot be delivered.
      {"[dataset]\nkind = emails\nnum_keys = 100000\n[phase]\n",
       "dataset 0 (emails): ", "too few distinct keys"},
  };
  for (const Case& c : kCases) {
    const Result<ParsedSpec> parsed = ParseRunSpecText(c.text + "ops = 10\n");
    ASSERT_TRUE(parsed.ok()) << c.text << " -> " << parsed.status().ToString();
    const Status status = BuildDatasets(parsed.value()).status();
    EXPECT_TRUE(status.IsInvalidArgument()) << c.text;
    EXPECT_EQ(status.message().rfind(c.prefix, 0), 0u)
        << c.text << " -> " << status.message();
    EXPECT_NE(status.message().find(c.names), std::string::npos)
        << c.text << " -> " << status.message();
  }
}

TEST(SpecTextTest, RejectsUnknownKeys) {
  EXPECT_TRUE(ParseRunSpecText("bogus_key = 1\n[dataset]\n[phase]\nops = 1\n")
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(ParseRunSpecText("[dataset]\nshape = zipf\n")
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(ParseRunSpecText("[phase]\npriority = high\n")
                  .status()
                  .IsInvalidArgument());
}

TEST(SpecTextTest, RejectsBadValues) {
  EXPECT_TRUE(
      ParseRunSpecText("seed = banana\n").status().IsInvalidArgument());
  EXPECT_TRUE(ParseRunSpecText("[dataset]\nkind = pyramid\nnum_keys = 10\n")
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(ParseRunSpecText("[phase]\nmix = fly:1.0\n")
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(ParseRunSpecText("[phase]\naccess = psychic\n")
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(ParseRunSpecText("[bogus_section]\n")
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(ParseRunSpecText("just some text\n")
                  .status()
                  .IsInvalidArgument());
}

TEST(SpecTextTest, RejectsStructurallyInvalidSpecs) {
  // No datasets / phases -> Validate() fails.
  EXPECT_FALSE(ParseRunSpecText("name = empty\n").ok());
  // Phase referencing a missing dataset.
  EXPECT_FALSE(ParseRunSpecText(
                   "[dataset]\nnum_keys = 100\n[phase]\ndataset = 5\n"
                   "ops = 10\nmix = get:1\n")
                   .ok());
}

TEST(SpecTextTest, CommentsAndWhitespaceIgnored) {
  const Result<ParsedSpec> result = ParseRunSpecText(
      "  name =  spaced   # trailing comment\n"
      "# full-line comment\n"
      "\n"
      "[dataset]\n"
      "  num_keys = 100   \n"
      "[phase]\n"
      "ops = 10\n"
      "mix = get:1.0\n");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.value().name, "spaced");
  EXPECT_EQ(result.value().datasets[0].num_keys, 100u);
}

TEST(SpecTextTest, EmailDatasetKind) {
  const Result<ParsedSpec> parsed = ParseRunSpecText(
      "[dataset]\nkind = emails\nnum_keys = 500\nseed = 3\n"
      "[phase]\nops = 10\nmix = get:1.0\n");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const Result<RunSpec> result = BuildDatasets(parsed.value());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.value().datasets[0].name, "emails");
  EXPECT_EQ(result.value().datasets[0].size(), 500u);
}

// ---------------------------------------------------------------------------
// [faults] / [resilience]
// ---------------------------------------------------------------------------

constexpr char kFaultedSpec[] = R"(
name = faulted

[dataset]
num_keys = 500

[phase]
name = healthy
ops = 100
mix = get:1.0

[phase]
name = stormy
ops = 100
mix = get:1.0

[faults]
seed = 777
fail_load = true
phase = -1
latency_spike_rate = 0.01
latency_spike_us = 1500

[faults]
phase = 1
execute_fail_rate = 0.25
execute_fail_code = resource_exhausted
stall_rate = 0.001
stall_us = 50000
fail_train = true
train_hang_us = 2000

[resilience]
op_timeout_us = 10000
max_retries = 3
backoff_initial_us = 500
backoff_multiplier = 1.5
backoff_max_us = 100000
backoff_jitter = 0.2
breaker_enabled = true
breaker_window_ops = 50
breaker_threshold = 0.4
breaker_cooldown_us = 250000
breaker_halfopen_probes = 6
)";

TEST(SpecTextTest, ParsesFaultsAndResilience) {
  const Result<ParsedSpec> result = ParseRunSpecText(kFaultedSpec);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const ParsedSpec& spec = result.value();

  EXPECT_EQ(spec.faults.seed, 777u);
  EXPECT_TRUE(spec.faults.fail_load);
  ASSERT_EQ(spec.faults.windows.size(), 2u);
  const FaultWindow& wildcard = spec.faults.windows[0];
  EXPECT_EQ(wildcard.phase, -1);
  EXPECT_DOUBLE_EQ(wildcard.latency_spike_rate, 0.01);
  EXPECT_EQ(wildcard.latency_spike_nanos, 1500000);
  const FaultWindow& stormy = spec.faults.windows[1];
  EXPECT_EQ(stormy.phase, 1);
  EXPECT_DOUBLE_EQ(stormy.execute_fail_rate, 0.25);
  EXPECT_EQ(stormy.execute_fail_code, StatusCode::kResourceExhausted);
  EXPECT_EQ(stormy.stall_nanos, 50000000);
  EXPECT_TRUE(stormy.fail_train);
  EXPECT_EQ(stormy.train_hang_nanos, 2000000);

  const ResilienceSpec& r = spec.resilience;
  EXPECT_EQ(r.op_timeout_nanos, 10000000);
  EXPECT_EQ(r.max_retries, 3u);
  EXPECT_EQ(r.backoff_initial_nanos, 500000);
  EXPECT_DOUBLE_EQ(r.backoff_multiplier, 1.5);
  EXPECT_EQ(r.backoff_max_nanos, 100000000);
  EXPECT_DOUBLE_EQ(r.backoff_jitter, 0.2);
  EXPECT_TRUE(r.breaker_enabled);
  EXPECT_EQ(r.breaker_window_ops, 50u);
  EXPECT_DOUBLE_EQ(r.breaker_failure_threshold, 0.4);
  EXPECT_EQ(r.breaker_cooldown_nanos, 250000000);
  EXPECT_EQ(r.breaker_half_open_probes, 6u);
}

TEST(SpecTextTest, FaultsRoundTripLosslessly) {
  const ParsedSpec parsed = ParseRunSpecText(kFaultedSpec).value();
  const Result<std::string> rendered = RenderRunSpecText(parsed);
  ASSERT_TRUE(rendered.ok()) << rendered.status().ToString();
  EXPECT_NE(rendered.value().find("[faults]"), std::string::npos);
  EXPECT_NE(rendered.value().find("[resilience]"), std::string::npos);
  const Result<ParsedSpec> reparsed = ParseRunSpecText(rendered.value());
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  EXPECT_TRUE(reparsed.value().faults == parsed.faults);
  EXPECT_TRUE(reparsed.value().resilience == parsed.resilience);

  // Rendering the reparsed spec reproduces the same text (fixed point).
  EXPECT_EQ(RenderRunSpecText(reparsed.value()).value(), rendered.value());
}

TEST(SpecTextTest, PlanKeysWithoutWindowsRoundTrip) {
  // Plan-level keys in an otherwise empty [faults] section record no
  // window, and render back into a [faults] section of their own.
  const ParsedSpec parsed =
      ParseRunSpecText(
          "[dataset]\nnum_keys = 100\n[phase]\nops = 10\n"
          "[faults]\nseed = 5\nfail_load = true\n")
          .value();
  EXPECT_TRUE(parsed.faults.windows.empty());
  EXPECT_EQ(parsed.faults.seed, 5u);
  const std::string rendered = RenderRunSpecText(parsed).value();
  EXPECT_NE(rendered.find("\n[faults]\nseed = 5\nfail_load = true\n"),
            std::string::npos)
      << rendered;
  EXPECT_TRUE(ParseRunSpecText(rendered).value().faults == parsed.faults);
}

TEST(SpecTextTest, DefaultSectionsAreNotRendered) {
  const ParsedSpec plain =
      ParseRunSpecText(
          "[dataset]\nnum_keys = 100\n[phase]\nops = 10\nmix = get:1\n")
          .value();
  const std::string rendered = RenderRunSpecText(plain).value();
  for (const char* header : {"[faults]", "[resilience]", "[service]",
                             "[execution]", "[observability]", "[drift]"}) {
    EXPECT_EQ(rendered.find(header), std::string::npos) << header;
  }
  EXPECT_EQ(rendered.find("sla_ms"), std::string::npos);
}

TEST(SpecTextTest, RejectsBadFaultValues) {
  const std::string base =
      "[dataset]\nnum_keys = 100\n[phase]\nops = 10\nmix = get:1\n";
  EXPECT_TRUE(ParseRunSpecText(base + "[faults]\nexecute_fail_code = maybe\n")
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(ParseRunSpecText(base + "[faults]\nblast_radius = 3\n")
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(ParseRunSpecText(base + "[resilience]\nshields = up\n")
                  .status()
                  .IsInvalidArgument());
  // The retired load-failure count names the key that replaced it.
  EXPECT_EQ(ParseRunSpecText(base + "[faults]\nload_failures = 1\n")
                .status()
                .message(),
            "line 7: unknown [faults] key 'load_failures'; use fail_load = "
            "true|false");
  EXPECT_TRUE(ParseRunSpecText(base + "[faults]\nfail_load = 2\n")
                  .status()
                  .IsInvalidArgument());
  // Validate() rejects out-of-range rates and windows for missing phases.
  EXPECT_FALSE(ParseRunSpecText(base + "[faults]\nexecute_fail_rate = 1.5\n")
                   .ok());
  EXPECT_FALSE(ParseRunSpecText(base + "[faults]\nphase = 9\n").ok());
}

TEST(SpecTextTest, ParsesExecutionSection) {
  const std::string base =
      "[dataset]\nnum_keys = 100\n[phase]\nops = 10\nmix = get:1\n";
  const Result<ParsedSpec> parsed =
      ParseRunSpecText(base + "[execution]\nworkers = 4\n");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed.value().execution.workers, 4u);

  // Absent section -> the serial default.
  EXPECT_EQ(ParseRunSpecText(base).value().execution.workers, 1u);
}

TEST(SpecTextTest, RejectsBadExecutionValues) {
  const std::string base =
      "[dataset]\nnum_keys = 100\n[phase]\nops = 10\nmix = get:1\n";
  EXPECT_TRUE(ParseRunSpecText(base + "[execution]\nthreads = 4\n")
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(ParseRunSpecText(base + "[execution]\nworkers = banana\n")
                  .status()
                  .IsInvalidArgument());
  // Validate() rejects a zero worker count.
  EXPECT_FALSE(ParseRunSpecText(base + "[execution]\nworkers = 0\n").ok());
}

TEST(SpecTextTest, ErrorsNameTheirLine) {
  // Key errors point at the key's line and name the key; errors found when
  // a dataset section closes point at its header (or at the parameter at
  // fault), and an open-loop phase without a rate at its last arrival key.
  const std::string base =
      "[dataset]\nnum_keys = 100\n[phase]\nops = 10\n";  // Lines 1-4.
  struct Case {
    std::string text;
    const char* prefix;
    const char* names;
  };
  const Case kCases[] = {
      {"seed = banana\n", "line 1: ", "seed"},
      {"\n[dataset]\nkind = pyramid\nnum_keys = 10\n", "line 2: ",
       "pyramid"},
      {"\n[dataset]\nnum_keys = 0\n", "line 2: ", "num_keys"},
      {"\n[dataset]\nkind = clustered\nparam1 = 65537\n", "line 2: ",
       "cluster count"},
      // Negative parameters are errors, not a silent default; so is a
      // parameter the kind does not take.
      {"[dataset]\nkind = gaussian\nparam2 = -0.2\nseed = 1\n", "line 3: ",
       "param2"},
      {"[dataset]\nparam2 = -1\nkind = lognormal\n", "line 2: ", "param2"},
      {"[dataset]\nkind = pareto\nparam1 = -2\n", "line 3: ", "param1"},
      {"[dataset]\nkind = pareto\nparam2 = 1\n", "line 3: ", "param2"},
      {"[dataset]\nkind = gaussian\nparam1 = -0.5\n", "line 3: ",
       "param1"},
      {"[dataset]\nkind = clustered\nparam1 = -4\n", "line 3: ",
       "param1"},
      {"[dataset]\nkind = clustered\nparam2 = -0.01\n", "line 3: ",
       "param2"},
      {"[dataset]\nparam1 = 0.5\nnum_keys = 10\n", "line 2: ", "param1"},
      {"[dataset]\nkind = emails\nparam2 = 3\n", "line 3: ", "param2"},
      {"[phase]\naccess = psychic\n", "line 2: ", "access"},
      {base + "[faults]\nexecute_fail_code = maybe\n", "line 6: ",
       "execute_fail_code"},
      {base + "[phase]\nops = 10\n[drift]\ntrajectory = 0.3,,0.8\n",
       "line 8: ", "trajectory"},
      {base + "mix = get:2,insert:-1\n", "line 5: ", "mix"},
      {base + "mix = get:1.5,update:-0.5\n", "line 5: ", "mix"},
      {base + "mix = fly:1.0\n", "line 5: ", "fly"},
      {base + "batch_mix = batch_put:-0.5\n", "line 5: ", "batch_mix"},
      {base + "batch_size = 0\n", "line 5: ", "batch_size"},
      {base + "arrival_qps = -1\n", "line 5: ", "arrival_qps"},
      {base + "arrival = poisson\nname = p\n", "line 5: ", "arrival_qps"},
      {base + "priority = high\n", "line 5: ", "priority"},
      {"bogus_key = 1\n", "line 1: ", "bogus_key"},
      {"\n\n[bogus_section]\n", "line 3: ", "[bogus_section]"},
      {"just some text\n", "line 1: ", "key = value"},
  };
  for (const Case& c : kCases) {
    const Status status = ParseRunSpecText(c.text).status();
    EXPECT_TRUE(status.IsInvalidArgument()) << c.text;
    EXPECT_EQ(status.message().rfind(c.prefix, 0), 0u)
        << c.text << " -> " << status.message();
    EXPECT_NE(status.message().find(c.names), std::string::npos)
        << c.text << " -> " << status.message();
  }
}

TEST(RunSpecTest, ValidateRejectsNegativeOrNonFiniteMixFractions) {
  RunSpec spec;
  DatasetOptions options;
  options.num_keys = 100;
  spec.datasets.push_back(GenerateDataset(UniformUnit(), options));
  spec.phases.emplace_back();
  spec.phases[0].num_operations = 10;
  ASSERT_TRUE(spec.Validate().ok());

  double OperationMix::*const kFractions[] = {
      &OperationMix::get,    &OperationMix::scan,
      &OperationMix::insert, &OperationMix::update,
      &OperationMix::del,    &OperationMix::range_count,
      &OperationMix::batch_get, &OperationMix::batch_put};
  for (double OperationMix::*fraction : kFractions) {
    for (const double bad : {-1.0, std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity()}) {
      RunSpec copy = spec;
      copy.phases[0].mix.get = 2.0;  // The mix stays non-empty overall.
      copy.phases[0].mix.*fraction = bad;
      EXPECT_TRUE(copy.Validate().IsInvalidArgument()) << bad;
    }
  }
  // The two mixes that used to crash or silently run as all-gets.
  spec.phases[0].mix.get = 2.0;
  spec.phases[0].mix.insert = -1.0;
  EXPECT_FALSE(spec.Validate().ok());
  spec.phases[0].mix = OperationMix();
  spec.phases[0].mix.get = 1.5;
  spec.phases[0].mix.update = -0.5;
  EXPECT_FALSE(spec.Validate().ok());
}

// A unit's retry count is 16 bits wide, so a larger bound never ends the
// retry loop of an always-failing op; it must be refused before any run.
TEST(RunSpecTest, ValidateBoundsMaxRetriesToTheRetryCounter) {
  RunSpec spec;
  DatasetOptions options;
  options.num_keys = 100;
  spec.datasets.push_back(GenerateDataset(UniformUnit(), options));
  spec.phases.emplace_back();
  spec.phases[0].num_operations = 1;
  spec.resilience.max_retries = 65535;
  EXPECT_TRUE(spec.Validate().ok());
  spec.resilience.max_retries = 65536;
  const Status status = spec.Validate();
  EXPECT_TRUE(status.IsInvalidArgument());
  EXPECT_NE(status.message().find("max_retries"), std::string::npos)
      << status.message();
}

}  // namespace
}  // namespace lsbench
