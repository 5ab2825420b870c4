// Spec-parser robustness: (1) every spec under specs/ round-trips through
// parse -> print -> parse with a render fixpoint, identical dataset
// descriptions and an identical structural hash, and its rendering, built
// structural hash and generated keys match golden hashes; (2)
// seeded byte- and line-level mutation fuzzing of those specs, verbatim,
// must never crash the parser — every outcome is either a parsed spec or
// an error Status; (3) every (section, key) pair the renderer emits,
// crossed with adversarial values, yields a parsed spec that re-renders
// identically or a located error. The fuzzers stop at parse and render,
// so they never generate a dataset. Failures report the mutation seed or
// the key and value so the case can be replayed.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/spec_text.h"
#include "util/env.h"
#include "util/random.h"

namespace lsbench {
namespace {

/// Every `.lsb` file under specs/, as a path relative to it, sorted.
std::vector<std::string> SpecFiles() {
  const std::filesystem::path root(LSBENCH_SPEC_DIR);
  std::vector<std::string> files;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(root)) {
    if (entry.path().extension() == ".lsb") {
      files.push_back(entry.path().lexically_relative(root).generic_string());
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

std::string ReadSpecFile(const std::string& name) {
  const std::string path = std::string(LSBENCH_SPEC_DIR) + "/" + name;
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "missing spec file: " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

uint64_t Fnv1a64(const void* data, size_t size,
                 uint64_t hash = 0xcbf29ce484222325ull) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < size; ++i) {
    hash ^= bytes[i];
    hash *= 0x100000001b3ull;
  }
  return hash;
}

/// A spec's identity once its datasets are built.
struct BuiltHashes {
  uint64_t structural;  ///< RunSpec::StructuralHash.
  uint64_t keys;        ///< FNV-1a over every dataset's keys, in order.
};

/// Builds `spec`'s datasets and hashes the result. The keys are freed on
/// return.
BuiltHashes BuildAndHash(const ParsedSpec& spec) {
  const Result<RunSpec> built = BuildDatasets(spec);
  EXPECT_TRUE(built.ok()) << built.status().ToString();
  if (!built.ok()) return {0, 0};
  uint64_t keys_hash = Fnv1a64(nullptr, 0);
  for (const Dataset& ds : built.value().datasets) {
    keys_hash = Fnv1a64(ds.keys.data(), ds.keys.size() * sizeof(uint64_t),
                        keys_hash);
  }
  return {built.value().StructuralHash(), keys_hash};
}

/// RunSpec::StructuralHash of `spec`'s plan alone, with no datasets: its
/// name, seed, phases, faults, resilience, service and execution.
uint64_t PlanHash(const ParsedSpec& spec) {
  return RunSpec{spec, {}}.StructuralHash();
}

/// Checks that `reparsed`, the parse of `parsed`'s rendering, is the same
/// spec: every plan field and every dataset description. The plan fields
/// PlanHash leaves out are compared one by one.
void ExpectSameSpec(const ParsedSpec& parsed, const ParsedSpec& reparsed,
                    const std::string& where) {
  EXPECT_EQ(PlanHash(reparsed), PlanHash(parsed)) << where;
  EXPECT_TRUE(reparsed.datasets == parsed.datasets)
      << where << ": dataset descriptions diverged";
  EXPECT_EQ(reparsed.sla.threshold_nanos, parsed.sla.threshold_nanos)
      << where;
  EXPECT_EQ(reparsed.sla.auto_percentile, parsed.sla.auto_percentile)
      << where;
  EXPECT_EQ(reparsed.sla.auto_margin, parsed.sla.auto_margin) << where;
  EXPECT_EQ(reparsed.interval_nanos, parsed.interval_nanos) << where;
  EXPECT_EQ(reparsed.boxplot_sample_nanos, parsed.boxplot_sample_nanos)
      << where;
  EXPECT_EQ(reparsed.adjustment_window_ops, parsed.adjustment_window_ops)
      << where;
  EXPECT_EQ(reparsed.offline_training, parsed.offline_training) << where;
  EXPECT_TRUE(reparsed.observability == parsed.observability) << where;
  EXPECT_TRUE(reparsed.drift == parsed.drift) << where;
}

/// Pins what a shipped spec means, so a parser or renderer change that
/// still round-trips cannot silently change a spec's rendering, identity or
/// data.
struct SpecGolden {
  const char* file;
  uint64_t render_hash;      ///< FNV-1a of RenderRunSpecText.
  uint64_t structural_hash;  ///< BuiltHashes::structural.
  uint64_t keys_hash;        ///< BuiltHashes::keys.
};

constexpr SpecGolden kGoldens[] = {
    {"batch_demo.lsb", 0xf182f8b24ea01253ull, 0xd3f9de2f810a341cull,
     0x42e22ac80984b0a8ull},
    {"bench/cached_batch.lsb", 0x9c422d09c39a90b8ull, 0x71a4ddeb5a85c257ull,
     0xc752b115eef2e9aeull},
    {"bench/dispatch.lsb", 0x61300a6c9aa4e7eull, 0x2e1c4a693c16b93eull,
     0x17a234bf5b4e651dull},
    {"bench/dram_read.lsb", 0xf1041196dc8a9fb0ull, 0xef612057da9ce974ull,
     0x3b7946641c492c18ull},
    {"bench/scaling.lsb", 0x4468157a2042fca6ull, 0x1c64a7803cdeda44ull,
     0x67aa73af0d5022d3ull},
    {"concurrent_demo.lsb", 0xec728db0780357f6ull, 0x994913fe341df960ull,
     0xdba006df70423667ull},
    {"demo_shift.lsb", 0x6cc48114131fa231ull, 0x1a766eef7e26cb3eull,
     0x4465451473c82d16ull},
    {"holdout_eval.lsb", 0x3eba9c276bb48da7ull, 0xfc91f468d6b84734ull,
     0x4f551a4236740dc4ull},
    {"resilience_demo.lsb", 0x8d03c11ffb4fd350ull, 0x92f0ad81d4728d9cull,
     0x4465451473c82d16ull},
    {"scenarios/diurnal_burst.lsb", 0x7ba61dff6839bb3aull,
     0xd83405ec7ebbaf09ull, 0x7c673d6276bd81b0ull},
    {"scenarios/flash_crowd.lsb", 0xe73084107de6fd74ull,
     0xc0828fa6d31e9272ull, 0x997176f47b2c76aaull},
    {"scenarios/hotspot_migration.lsb", 0x459d28c5e24a38aaull,
     0xe94a69fbde9593f2ull, 0x997176f47b2c76aaull},
    {"scenarios/repeating_session.lsb", 0x14190232b3d6ebd8ull,
     0x7eab179b8ce01351ull, 0x997176f47b2c76aaull},
    {"service_overload_demo.lsb", 0x1f9c8f9f582c5cd4ull,
     0x90b6c13833c497f3ull, 0x2083dbecaae00636ull},
};

class SpecRoundTripTest : public ::testing::TestWithParam<std::string> {};

TEST_P(SpecRoundTripTest, ParsePrintParseIsIdentity) {
  const std::string text = ReadSpecFile(GetParam());
  const Result<ParsedSpec> first = ParseRunSpecText(text);
  ASSERT_TRUE(first.ok()) << first.status().ToString();

  const Result<std::string> rendered = RenderRunSpecText(first.value());
  ASSERT_TRUE(rendered.ok()) << rendered.status().ToString();

  const Result<ParsedSpec> second = ParseRunSpecText(rendered.value());
  ASSERT_TRUE(second.ok()) << "re-parse of rendered spec failed: "
                           << second.status().ToString() << "\n"
                           << rendered.value();

  // Semantically the same run: the same plan and the same dataset
  // descriptions (BuildDatasets is deterministic, so the same keys).
  ExpectSameSpec(first.value(), second.value(), GetParam());

  // Printing is a fixpoint: render(parse(render(spec))) == render(spec).
  const Result<std::string> rendered_again =
      RenderRunSpecText(second.value());
  ASSERT_TRUE(rendered_again.ok()) << rendered_again.status().ToString();
  EXPECT_EQ(rendered.value(), rendered_again.value());

  const BuiltHashes built = BuildAndHash(first.value());
  const SpecGolden actual{
      nullptr, Fnv1a64(rendered.value().data(), rendered.value().size()),
      built.structural, built.keys};
  const SpecGolden* golden = nullptr;
  for (const SpecGolden& g : kGoldens) {
    if (GetParam() == g.file) golden = &g;
  }
  std::ostringstream pin;
  pin << std::hex << "{\"" << GetParam() << "\", 0x" << actual.render_hash
      << "ull, 0x" << actual.structural_hash << "ull, 0x" << actual.keys_hash
      << "ull},";
  ASSERT_NE(golden, nullptr) << "no golden for this spec; add " << pin.str();
  EXPECT_EQ(actual.render_hash, golden->render_hash) << pin.str();
  EXPECT_EQ(actual.structural_hash, golden->structural_hash) << pin.str();
  EXPECT_EQ(actual.keys_hash, golden->keys_hash) << pin.str();
}

INSTANTIATE_TEST_SUITE_P(ShippedSpecs, SpecRoundTripTest,
                         ::testing::ValuesIn(SpecFiles()),
                         [](const ::testing::TestParamInfo<std::string>&
                                param_info) {
                           std::string name = param_info.param;
                           for (char& c : name) {
                             if (c == '.' || c == '/') c = '_';
                           }
                           return name;
                         });

/// Applies one seeded mutation to `text`.
std::string Mutate(const std::string& text, Rng* rng) {
  std::string out = text;
  if (out.empty()) out = "x";
  switch (rng->NextBounded(6)) {
    case 0: {  // Flip one byte to a random printable-or-not value.
      out[rng->NextBounded(out.size())] =
          static_cast<char>(rng->NextBounded(256));
      break;
    }
    case 1: {  // Insert a random byte.
      out.insert(out.begin() + static_cast<ptrdiff_t>(
                                   rng->NextBounded(out.size() + 1)),
                 static_cast<char>(rng->NextBounded(256)));
      break;
    }
    case 2: {  // Delete a random byte.
      out.erase(out.begin() +
                static_cast<ptrdiff_t>(rng->NextBounded(out.size())));
      break;
    }
    case 3: {  // Truncate at a random point.
      out.resize(rng->NextBounded(out.size() + 1));
      break;
    }
    case 4: {  // Delete one whole line.
      std::vector<std::string> lines;
      std::istringstream in(out);
      for (std::string line; std::getline(in, line);) lines.push_back(line);
      if (!lines.empty()) {
        lines.erase(lines.begin() +
                    static_cast<ptrdiff_t>(rng->NextBounded(lines.size())));
      }
      std::ostringstream joined;
      for (const std::string& line : lines) joined << line << "\n";
      out = joined.str();
      break;
    }
    default: {  // Duplicate one whole line somewhere else.
      std::vector<std::string> lines;
      std::istringstream in(out);
      for (std::string line; std::getline(in, line);) lines.push_back(line);
      if (!lines.empty()) {
        const std::string dup = lines[rng->NextBounded(lines.size())];
        lines.insert(lines.begin() +
                         static_cast<ptrdiff_t>(
                             rng->NextBounded(lines.size() + 1)),
                     dup);
      }
      std::ostringstream joined;
      for (const std::string& line : lines) joined << line << "\n";
      out = joined.str();
      break;
    }
  }
  return out;
}

TEST(SpecFuzzTest, MutatedSpecsNeverCrashTheParser) {
  const int iterations = EnvFlagEnabled("LSBENCH_QUICK") ? 150 : 600;
  for (const std::string& file : SpecFiles()) {
    const std::string base = ReadSpecFile(file);
    for (int i = 0; i < iterations; ++i) {
      const uint64_t seed = 0xf022eedULL + static_cast<uint64_t>(i);
      Rng rng(seed);
      std::string mutated = base;
      // Stack 1-3 mutations so errors compound.
      const uint64_t rounds = 1 + rng.NextBounded(3);
      for (uint64_t r = 0; r < rounds; ++r) mutated = Mutate(mutated, &rng);

      const Result<ParsedSpec> parsed = ParseRunSpecText(mutated);
      if (!parsed.ok()) {
        // Errors must be real statuses with a message, never a crash.
        EXPECT_FALSE(parsed.status().ToString().empty())
            << file << " seed=" << seed;
        continue;
      }
      // A mutated spec that still parses has passed validation, so it must
      // render, and the rendering must re-parse.
      const Result<std::string> rendered = RenderRunSpecText(parsed.value());
      ASSERT_TRUE(rendered.ok()) << file << " seed=" << seed << ": "
                                 << rendered.status().ToString();
      const Result<ParsedSpec> reparsed = ParseRunSpecText(rendered.value());
      ASSERT_TRUE(reparsed.ok())
          << file << " seed=" << seed
          << ": rendered spec failed to re-parse: "
          << reparsed.status().ToString();
      ExpectSameSpec(parsed.value(), reparsed.value(),
                     file + " seed=" + std::to_string(seed));
    }
  }
}

/// Every section present and non-default, so its rendering names every
/// (section, key) pair of the text format.
constexpr char kEverySectionSpec[] = R"(
name = key_fuzz
seed = 3
interval_ms = 500
boxplot_sample_ms = 50
offline_training = false
sla_ms = 5
adjustment_window_ops = 100

[dataset]
kind = gaussian
num_keys = 200
seed = 1
param1 = 0.5
param2 = 0.1

[dataset]
num_keys = 100
seed = 2

[phase]
name = a
ops = 20
mix = get:0.8,insert:0.2
batch_mix = batch_get:0.5
batch_size = 4
arrival = poisson
arrival_qps = 1000

[phase]
name = b
dataset = 1
ops = 20
access = zipfian
access_param = 0.9
arrival = diurnal
arrival_qps = 2000
transition = linear
transition_ops = 10

[service]
enabled = true
queue_capacity = 64
policy = slo_shed
slo_p99_ms = 5
max_shed_fraction = 0.5

[execution]
workers = 2

[observability]
trace = true

[drift]
trajectory = 0.3
tolerance = 0.2
sample_ops = 64
seed = 9

[faults]
seed = 11
fail_load = true
phase = 0
execute_fail_rate = 0.01
execute_fail_code = timeout

[resilience]
max_retries = 2
)";

TEST(SpecFuzzTest, EveryKeyWithAdversarialValues) {
  const Result<ParsedSpec> base_spec = ParseRunSpecText(kEverySectionSpec);
  ASSERT_TRUE(base_spec.ok()) << base_spec.status().ToString();
  const Result<std::string> base_text = RenderRunSpecText(base_spec.value());
  ASSERT_TRUE(base_text.ok()) << base_text.status().ToString();
  std::vector<std::string> lines;
  std::istringstream in(base_text.value());
  for (std::string line; std::getline(in, line);) lines.push_back(line);

  // The (section, key) pairs, each at its first key line. Lines are
  // 1-based; a section spans its header line through `section_end`.
  struct KeyLine {
    std::string section;
    std::string key;
    size_t line;
    size_t header_line;
    size_t section_end;
  };
  std::vector<KeyLine> key_lines;
  std::set<std::pair<std::string, std::string>> seen;
  std::string section = "top-level";
  size_t header_line = 0;
  for (size_t i = 0; i < lines.size(); ++i) {
    if (!lines[i].empty() && lines[i].front() == '[') {
      for (KeyLine& k : key_lines) {
        if (k.header_line == header_line) k.section_end = i;
      }
      section = lines[i];
      header_line = i + 1;
      continue;
    }
    const size_t eq = lines[i].find(" = ");
    if (eq == std::string::npos) continue;
    const std::string key = lines[i].substr(0, eq);
    if (seen.insert({section, key}).second) {
      key_lines.push_back({section, key, i + 1, header_line, lines.size()});
    }
  }
  ASSERT_EQ(seen.size(), 67u) << base_text.value();

  const char* const kValues[] = {
      "",          "0",          "-1",          "1",
      "0.5",       "1.5",        "-0.25",       "4096",
      "4097",      "4294967296", "99999999999999999999",
      "nan",       "inf",        "-inf",        "1e309",
      "true",      "false",      "yes",         "banana",
      "=",         ",",          ":",           "drop_newest",
      "drop_oldest",             "slo_shed",    "0.3, 0.8",
      "0.3,0.8,",  "0.3,,0.8",   "0.0, -0.2",   "0.1, 0.2, 0.3, 0.4, 0.5",
      "get:0.9",   "get:2,insert:-1",           "get:1.5,update:-0.5",
      "batch_get:0.9,batch_put:0.1",            "batch_get:1",
      "batch_put:-0.5",          "batch_get:nan",
      "batch_get:0.9,batch_put", "batch_get:0.9,,",
      "batch_get:inf",
  };
  for (const KeyLine& k : key_lines) {
    for (const char* value : kValues) {
      std::string text;
      for (size_t i = 0; i < lines.size(); ++i) {
        text += i + 1 == k.line ? k.key + " = " + value : lines[i];
        text += '\n';
      }
      const std::string where = k.section + " " + k.key + " = " + value;
      const Result<ParsedSpec> parsed = ParseRunSpecText(text);
      if (!parsed.ok()) {
        const std::string& message = parsed.status().message();
        size_t at = 0;
        if (std::sscanf(message.c_str(), "line %zu:", &at) != 1) {
          // Unlocated errors come only from whole-spec validation, after
          // every key parsed.
          EXPECT_EQ(message.find("bad "), std::string::npos) << where;
          EXPECT_EQ(message.find("unknown "), std::string::npos) << where;
          continue;
        }
        EXPECT_GE(at, std::max<size_t>(k.header_line, 1)) << where << ": "
                                                          << message;
        EXPECT_LE(at, k.section_end) << where << ": " << message;
        if (at == k.line) {
          EXPECT_NE(message.find(k.key), std::string::npos)
              << where << ": " << message;
        }
        continue;
      }
      // Anything that parses (and so validated) renders, and re-parses to
      // the same spec.
      const Result<std::string> rendered = RenderRunSpecText(parsed.value());
      ASSERT_TRUE(rendered.ok()) << where << ": "
                                 << rendered.status().ToString();
      const Result<ParsedSpec> reparsed = ParseRunSpecText(rendered.value());
      ASSERT_TRUE(reparsed.ok()) << where << ": rendered spec failed to "
                                 << "re-parse: "
                                 << reparsed.status().ToString();
      EXPECT_EQ(RenderRunSpecText(reparsed.value()).value(),
                rendered.value())
          << where;
      ExpectSameSpec(parsed.value(), reparsed.value(), where);
    }
  }
}

TEST(SpecFuzzTest, SemanticErrorsNameTheirLine) {
  // Whole-spec validation runs after every key parsed, yet each of its
  // errors names the line of the key that set the bad value, and the key,
  // or the header of the section at fault when no key set it.
  const std::string base =
      "[dataset]\nnum_keys = 100\n[phase]\nops = 10\n";  // Lines 1-4.
  const std::string open_loop =
      base + "arrival = poisson\narrival_qps = 100\n";  // Lines 5-6.
  struct Case {
    std::string text;
    const char* prefix;
    const char* names;
  };
  const Case kCases[] = {
      // Resilience.
      {base + "[resilience]\nbackoff_jitter = 0.1\nmax_retries = 65536\n",
       "line 7: max_retries: ", "<= 65535"},
      {base + "[resilience]\nbackoff_multiplier = 0.5\n",
       "line 6: backoff_multiplier: ", "multiplier must be >= 1"},
      {base + "[resilience]\nbreaker_enabled = true\n"
              "breaker_window_ops = 0\n",
       "line 7: breaker_window_ops: ", "non-empty"},
      // Service.
      {open_loop + "[service]\nenabled = true\nqueue_capacity = 0\n",
       "line 9: queue_capacity: ", "[1, 2^20]"},
      {open_loop + "[service]\nenabled = true\npolicy = slo_shed\n",
       "line 9: policy: ", "requires slo_p99_ms > 0"},
      {base + "[service]\nenabled = true\n", "line 3: ",
       "closed-loop arrivals"},
      // Drift.
      {base + "[phase]\nops = 5\n[drift]\ntrajectory = 0.3, 0.8\n",
       "line 8: trajectory: ", "1 expected, 2 declared"},
      {base + "[phase]\nops = 5\n[drift]\ntrajectory = 0.3\n"
              "tolerance = 0\n",
       "line 9: tolerance: ", "tolerance must be in (0, 1]"},
      {base + "[phase]\nops = 5\n\n[drift]\n", "line 8: ",
       "0 declared"},
      // Phases.
      {"[dataset]\nnum_keys = 100\n[phase]\nops = 0\n",
       "line 4: ops: ", "phase 0 has zero operations"},
      {base + "[phase]\nops = 5\ntransition_ops = 6\n",
       "line 7: transition_ops: ", "phase 1 transition is longer"},
      {base + "mix = get:0\n", "line 5: mix: ", "empty operation mix"},
      {base + "dataset = 3\n", "line 5: dataset: ", "missing dataset"},
      {base + "arrival = poisson\nname = p\n", "line 5: arrival: ",
       "positive arrival rate"},
      // A fault window, the top level, and an error about no one line.
      {base + "[faults]\nstall_rate = 2\n", "line 6: stall_rate: ",
       "fault window 0 has a rate outside [0, 1]"},
      {"interval_ms = 0\n" + base, "line 1: interval_ms: ",
       "reporting intervals must be positive"},
      {"[dataset]\nnum_keys = 100\n", "run spec has no phases", ""},
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

TEST(SpecFuzzTest, DuplicateSingleSectionsAreRefused) {
  // Datasets, phases and fault windows repeat; a second header of any
  // other section would merge into the first, so it is refused at its line.
  const std::string base =
      "[dataset]\nnum_keys = 100\n[phase]\nops = 10\n";  // Lines 1-4.
  for (const char* header : {"[resilience]", "[service]", "[execution]",
                             "[observability]", "[drift]"}) {
    const std::string text =
        base + header + "\n\n[phase]\nops = 5\n" + header + "\n";
    const Status status = ParseRunSpecText(text).status();
    EXPECT_TRUE(status.IsInvalidArgument()) << text;
    EXPECT_EQ(status.message(), std::string("line 9: duplicate ") + header +
                                    " (first at line 5)")
        << text;
  }
}

}  // namespace
}  // namespace lsbench
