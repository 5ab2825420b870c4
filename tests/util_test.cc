#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "util/atomic.h"
#include "util/clock.h"
#include "util/csv.h"
#include "util/env.h"
#include "util/fan_out.h"
#include "util/file.h"
#include "util/histogram.h"
#include "util/random.h"
#include "util/status.h"
#include "util/string_util.h"

namespace lsbench {
namespace {

// ---------------------------------------------------------------------------
// Status / Result
// ---------------------------------------------------------------------------

TEST(StatusTest, DefaultIsOk) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kOk);
  EXPECT_EQ(st.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  const Status st = Status::NotFound("missing key");
  EXPECT_FALSE(st.ok());
  EXPECT_TRUE(st.IsNotFound());
  EXPECT_EQ(st.message(), "missing key");
  EXPECT_EQ(st.ToString(), "NotFound: missing key");
}

TEST(StatusTest, AllFactoriesProduceMatchingCodes) {
  EXPECT_TRUE(Status::InvalidArgument("x").IsInvalidArgument());
  EXPECT_TRUE(Status::AlreadyExists("x").IsAlreadyExists());
  EXPECT_TRUE(Status::OutOfRange("x").IsOutOfRange());
  EXPECT_TRUE(Status::FailedPrecondition("x").IsFailedPrecondition());
  EXPECT_TRUE(Status::Unimplemented("x").IsUnimplemented());
  EXPECT_TRUE(Status::Internal("x").IsInternal());
  EXPECT_TRUE(Status::IoError("x").IsIoError());
  EXPECT_TRUE(Status::Timeout("x").IsTimeout());
  EXPECT_TRUE(Status::Unavailable("x").IsUnavailable());
  EXPECT_TRUE(Status::ResourceExhausted("x").IsResourceExhausted());
}

TEST(StatusTest, TransientCodesAreExactlyTheRetriableOnes) {
  EXPECT_TRUE(Status::Timeout("x").IsTransient());
  EXPECT_TRUE(Status::Unavailable("x").IsTransient());
  EXPECT_TRUE(Status::ResourceExhausted("x").IsTransient());
  EXPECT_TRUE(IsTransientStatusCode(StatusCode::kTimeout));
  EXPECT_TRUE(IsTransientStatusCode(StatusCode::kUnavailable));
  EXPECT_TRUE(IsTransientStatusCode(StatusCode::kResourceExhausted));

  EXPECT_FALSE(Status::OK().IsTransient());
  EXPECT_FALSE(Status::NotFound("x").IsTransient());
  EXPECT_FALSE(Status::Internal("x").IsTransient());
  EXPECT_FALSE(Status::IoError("x").IsTransient());
  EXPECT_FALSE(IsTransientStatusCode(StatusCode::kOk));
  EXPECT_FALSE(IsTransientStatusCode(StatusCode::kInvalidArgument));
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::OK(), Status());
  EXPECT_EQ(Status::NotFound("a"), Status::NotFound("a"));
  EXPECT_FALSE(Status::NotFound("a") == Status::NotFound("b"));
}

TEST(StatusTest, StatusCodeToStringCoversAllCodes) {
  EXPECT_EQ(StatusCodeToString(StatusCode::kOk), "OK");
  EXPECT_EQ(StatusCodeToString(StatusCode::kInternal), "Internal");
  EXPECT_EQ(StatusCodeToString(StatusCode::kIoError), "IoError");
  EXPECT_EQ(StatusCodeToString(StatusCode::kTimeout), "Timeout");
  EXPECT_EQ(StatusCodeToString(StatusCode::kUnavailable), "Unavailable");
  EXPECT_EQ(StatusCodeToString(StatusCode::kResourceExhausted),
            "ResourceExhausted");
}

Status FailsWhenNegative(int x) {
  if (x < 0) return Status::InvalidArgument("negative");
  return Status::OK();
}

Status UsesReturnIfError(int x) {
  LSBENCH_RETURN_IF_ERROR(FailsWhenNegative(x));
  return Status::OK();
}

Status UsesLegacyReturnNotOk(int x) {
  LSBENCH_RETURN_NOT_OK(FailsWhenNegative(x));
  return Status::OK();
}

Status CountingFallible(int* calls) {
  ++*calls;
  return Status::OK();
}

TEST(StatusTest, ReturnIfErrorPropagates) {
  EXPECT_TRUE(UsesReturnIfError(1).ok());
  EXPECT_TRUE(UsesReturnIfError(-1).IsInvalidArgument());
}

TEST(StatusTest, LegacyReturnNotOkAliasStillWorks) {
  EXPECT_TRUE(UsesLegacyReturnNotOk(1).ok());
  EXPECT_TRUE(UsesLegacyReturnNotOk(-1).IsInvalidArgument());
}

TEST(StatusTest, ReturnIfErrorEvaluatesExpressionOnce) {
  int calls = 0;
  const Status st = [&]() -> Status {
    LSBENCH_RETURN_IF_ERROR(CountingFallible(&calls));
    return Status::OK();
  }();
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(calls, 1);
}

TEST(EnvTest, GetEnvReadsAndMisses) {
  ::setenv("LSBENCH_UTIL_TEST_VAR", "hello", 1);
  EXPECT_EQ(GetEnv("LSBENCH_UTIL_TEST_VAR").value_or(""), "hello");
  ::unsetenv("LSBENCH_UTIL_TEST_VAR");
  EXPECT_FALSE(GetEnv("LSBENCH_UTIL_TEST_VAR").has_value());
}

TEST(EnvTest, EnvFlagEnabledRequiresLeadingOne) {
  ::setenv("LSBENCH_UTIL_TEST_FLAG", "1", 1);
  EXPECT_TRUE(EnvFlagEnabled("LSBENCH_UTIL_TEST_FLAG"));
  ::setenv("LSBENCH_UTIL_TEST_FLAG", "0", 1);
  EXPECT_FALSE(EnvFlagEnabled("LSBENCH_UTIL_TEST_FLAG"));
  ::setenv("LSBENCH_UTIL_TEST_FLAG", "", 1);
  EXPECT_FALSE(EnvFlagEnabled("LSBENCH_UTIL_TEST_FLAG"));
  ::unsetenv("LSBENCH_UTIL_TEST_FLAG");
  EXPECT_FALSE(EnvFlagEnabled("LSBENCH_UTIL_TEST_FLAG"));
}

TEST(WriteTextFileTest, ReplacesContents) {
  const std::string path = ::testing::TempDir() + "lsbench_write_test.txt";
  ASSERT_TRUE(WriteTextFile(path, "a longer first payload").ok());
  ASSERT_TRUE(WriteTextFile(path, "second").ok());
  std::ifstream in(path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  EXPECT_EQ(buffer.str(), "second");
  std::remove(path.c_str());
}

TEST(WriteTextFileTest, UnopenablePathIsIoError) {
  EXPECT_TRUE(WriteTextFile("/nonexistent/x.txt", "x").IsIoError());
}

// /dev/full accepts the open and the buffered write, then fails the flush
// at close: the error a full disk gives.
TEST(WriteTextFileTest, FullDeviceIsIoError) {
  if (!std::ifstream("/dev/full").good()) GTEST_SKIP() << "no /dev/full";
  EXPECT_TRUE(WriteTextFile("/dev/full", "x").IsIoError());
}

TEST(ResultTest, HoldsValue) {
  const Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(r.value_or(7), 42);
}

TEST(ResultTest, HoldsError) {
  const Result<int> r = Status::NotFound("gone");
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsNotFound());
  EXPECT_EQ(r.value_or(7), 7);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::vector<int>> r = std::vector<int>{1, 2, 3};
  ASSERT_TRUE(r.ok());
  const std::vector<int> v = std::move(r).value();
  EXPECT_EQ(v.size(), 3u);
}

Result<int> HalveEven(int x) {
  if (x % 2 != 0) return Status::InvalidArgument("odd");
  return x / 2;
}

Result<std::vector<int>> UsesAssignOrReturn(int x) {
  LSBENCH_ASSIGN_OR_RETURN(const int half, HalveEven(x));
  LSBENCH_ASSIGN_OR_RETURN(const int quarter, HalveEven(half));
  return std::vector<int>{half, quarter};
}

TEST(ResultTest, AssignOrReturnUnwrapsAndPropagates) {
  const Result<std::vector<int>> ok = UsesAssignOrReturn(8);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok.value(), (std::vector<int>{4, 2}));
  // Error at the first statement propagates.
  EXPECT_TRUE(UsesAssignOrReturn(3).status().IsInvalidArgument());
  // Error at the second statement propagates too.
  EXPECT_TRUE(UsesAssignOrReturn(6).status().IsInvalidArgument());
}

Result<std::string> MoveOnlyAssignOrReturn(bool fail) {
  auto make = [fail]() -> Result<std::unique_ptr<std::string>> {
    if (fail) return Status::NotFound("gone");
    return std::make_unique<std::string>("moved");
  };
  LSBENCH_ASSIGN_OR_RETURN(const std::unique_ptr<std::string> p, make());
  return *p;
}

TEST(ResultTest, AssignOrReturnHandlesMoveOnlyTypes) {
  const Result<std::string> ok = MoveOnlyAssignOrReturn(false);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok.value(), "moved");
  EXPECT_TRUE(MoveOnlyAssignOrReturn(true).status().IsNotFound());
}

// ---------------------------------------------------------------------------
// Rng
// ---------------------------------------------------------------------------

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(RngTest, NextBoundedStaysInRange) {
  Rng rng(7);
  for (uint64_t bound : {1ull, 2ull, 3ull, 10ull, 1000ull, 1ull << 40}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(rng.NextBounded(bound), bound);
    }
  }
}

TEST(RngTest, NextBoundedCoversSmallRangeUniformly) {
  Rng rng(11);
  std::vector<int> counts(10, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[rng.NextBounded(10)];
  for (int c : counts) {
    EXPECT_NEAR(c, n / 10, n / 10 * 0.1);
  }
}

TEST(RngTest, NextInRangeInclusiveBounds) {
  Rng rng(5);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    const uint64_t v = rng.NextInRange(3, 5);
    EXPECT_GE(v, 3u);
    EXPECT_LE(v, 5u);
    saw_lo |= v == 3;
    saw_hi |= v == 5;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(13);
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(RngTest, GaussianHasUnitMoments) {
  Rng rng(17);
  double sum = 0.0, sumsq = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const double g = rng.NextGaussian();
    sum += g;
    sumsq += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sumsq / n, 1.0, 0.05);
}

TEST(RngTest, SkipGaussianMovesLikeNextGaussian) {
  for (uint64_t seed = 1; seed <= 500; ++seed) {
    Rng drawn(seed);
    Rng skipped(seed);
    for (int i = 0; i < 7; ++i) {
      drawn.NextGaussian();
      skipped.SkipGaussian();
      ASSERT_TRUE(drawn.SamePosition(skipped)) << seed << " " << i;
      ASSERT_EQ(skipped.GaussianPending(), i % 2 == 0);
    }
    // The seventh call left a value pending; the eighth takes it, and the
    // two then draw the same values.
    drawn.NextGaussian();
    skipped.SkipGaussian();
    ASSERT_EQ(drawn.NextGaussian(), skipped.NextGaussian()) << seed;
  }
}

TEST(RngTest, SamePositionComparesStateAndPhase) {
  Rng a(29);
  Rng b(29);
  EXPECT_TRUE(a.SamePosition(b));
  EXPECT_FALSE(a.SamePosition(Rng(30)));
  a.Next();
  EXPECT_FALSE(a.SamePosition(b));
  b.Next();
  EXPECT_TRUE(a.SamePosition(b));
  // One pair drawn by both: the same xoshiro state, but `a` has taken one
  // value of it and `b` both.
  a.NextGaussian();
  b.NextGaussian();
  b.NextGaussian();
  EXPECT_FALSE(a.SamePosition(b));
  a.NextGaussian();
  EXPECT_TRUE(a.SamePosition(b));
}

TEST(RngTest, ExponentialHasExpectedMean) {
  Rng rng(19);
  double sum = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) sum += rng.NextExponential(4.0);
  EXPECT_NEAR(sum / n, 0.25, 0.01);
}

TEST(RngTest, ForkProducesIndependentStreams) {
  Rng base(23);
  Rng f1 = base.Fork(1);
  Rng f2 = base.Fork(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (f1.Next() == f2.Next()) ++same;
  }
  EXPECT_LT(same, 3);
  // Forking is deterministic.
  Rng f1b = base.Fork(1);
  Rng f1c = base.Fork(1);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(f1b.Next(), f1c.Next());
}

TEST(RngTest, NextBoolRespectsProbability) {
  Rng rng(29);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.NextBool(0.2) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.2, 0.01);
}

// ---------------------------------------------------------------------------
// Clocks
// ---------------------------------------------------------------------------

TEST(ClockTest, RealClockAdvances) {
  RealClock clock;
  const int64_t a = clock.NowNanos();
  double sink = 0.0;
  for (int i = 0; i < 100000; ++i) sink += static_cast<double>(i);
  volatile double keep = sink;
  (void)keep;
  const int64_t b = clock.NowNanos();
  EXPECT_GE(b, a);
}

TEST(ClockTest, VirtualClockStartsAtZeroAndAdvances) {
  VirtualClock clock;
  EXPECT_EQ(clock.NowNanos(), 0);
  clock.AdvanceNanos(500);
  EXPECT_EQ(clock.NowNanos(), 500);
  clock.AdvanceSeconds(1.0);
  EXPECT_EQ(clock.NowNanos(), 1000000500);
  clock.SetNanos(2000000000);
  EXPECT_EQ(clock.NowNanos(), 2000000000);
}

TEST(ClockTest, StopwatchMeasuresVirtualTime) {
  VirtualClock clock;
  Stopwatch watch(&clock);
  clock.AdvanceNanos(1500);
  EXPECT_EQ(watch.ElapsedNanos(), 1500);
  EXPECT_DOUBLE_EQ(watch.ElapsedSeconds(), 1.5e-6);
  watch.Restart();
  EXPECT_EQ(watch.ElapsedNanos(), 0);
}

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

TEST(HistogramTest, EmptyIsZero) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.Mean(), 0.0);
  EXPECT_EQ(h.Quantile(0.5), 0.0);
}

TEST(HistogramTest, SingleValue) {
  Histogram h;
  h.Record(42.0);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_DOUBLE_EQ(h.Mean(), 42.0);
  EXPECT_DOUBLE_EQ(h.min(), 42.0);
  EXPECT_DOUBLE_EQ(h.max(), 42.0);
  EXPECT_NEAR(h.Median(), 42.0, 42.0 * 0.06);
}

TEST(HistogramTest, QuantilesApproximateExactOnUniformData) {
  Histogram h;
  std::vector<double> exact;
  Rng rng(31);
  for (int i = 0; i < 20000; ++i) {
    const double v = rng.NextDoubleInRange(100.0, 10000.0);
    h.Record(v);
    exact.push_back(v);
  }
  std::sort(exact.begin(), exact.end());
  for (double q : {0.1, 0.5, 0.9, 0.99}) {
    const double approx = h.Quantile(q);
    const double truth =
        exact[static_cast<size_t>(q * static_cast<double>(exact.size() - 1))];
    EXPECT_NEAR(approx, truth, truth * 0.06) << "q=" << q;
  }
}

TEST(HistogramTest, MeanAndStdDevExact) {
  Histogram h;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) h.Record(v);
  EXPECT_DOUBLE_EQ(h.Mean(), 5.0);
  EXPECT_NEAR(h.StdDev(), 2.0, 1e-9);
}

TEST(HistogramTest, NegativeValuesClampToZero) {
  Histogram h;
  h.Record(-5.0);
  EXPECT_DOUBLE_EQ(h.min(), 0.0);
  EXPECT_EQ(h.count(), 1u);
}

TEST(HistogramTest, RecordRepeatedMatchesSeparateRecordsBitForBit) {
  Histogram repeated;
  Histogram separate;
  Rng rng(38);
  for (int unit = 0; unit < 400; ++unit) {
    // Fractional latencies, so the running sums round; zero repeats and
    // negative (clamped) values too.
    const double v = unit % 50 == 0 ? -3.0 : rng.NextDoubleInRange(0, 1e7);
    const uint64_t k = unit % 7 == 0 ? 0 : 1 + rng.NextBounded(256);
    const int bucket = Histogram::BucketFor(v);
    repeated.RecordRepeated(v, bucket, k);
    for (uint64_t i = 0; i < k; ++i) separate.RecordInBucket(v, bucket);
  }
  EXPECT_EQ(repeated.count(), separate.count());
  const auto bits = [](double x) {
    uint64_t b = 0;
    std::memcpy(&b, &x, sizeof b);
    return b;
  };
  EXPECT_EQ(bits(repeated.sum()), bits(separate.sum()));
  EXPECT_EQ(bits(repeated.StdDev()), bits(separate.StdDev()));
  EXPECT_EQ(bits(repeated.min()), bits(separate.min()));
  EXPECT_EQ(bits(repeated.max()), bits(separate.max()));
  for (const double q : {0.0, 0.25, 0.5, 0.9, 0.99, 1.0}) {
    EXPECT_EQ(bits(repeated.Quantile(q)), bits(separate.Quantile(q)))
        << "q=" << q;
  }
}

TEST(HistogramTest, MergeEqualsCombinedRecording) {
  Histogram a, b, combined;
  Rng rng(37);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.NextDoubleInRange(0, 1e6);
    if (i % 2 == 0) {
      a.Record(v);
    } else {
      b.Record(v);
    }
    combined.Record(v);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), combined.count());
  // Summation order differs between the two paths: compare within ulps.
  EXPECT_NEAR(a.sum(), combined.sum(), combined.sum() * 1e-12);
  EXPECT_DOUBLE_EQ(a.min(), combined.min());
  EXPECT_DOUBLE_EQ(a.max(), combined.max());
  EXPECT_NEAR(a.Quantile(0.5), combined.Quantile(0.5), 1e-9);
}

TEST(HistogramTest, ClearResets) {
  Histogram h;
  h.Record(10);
  h.Clear();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.max(), 0.0);
}

TEST(HistogramTest, ToStringMentionsCount) {
  Histogram h;
  h.Record(1.0);
  EXPECT_NE(h.ToString().find("count=1"), std::string::npos);
}

// ---------------------------------------------------------------------------
// String utilities
// ---------------------------------------------------------------------------

TEST(StringUtilTest, FormatDouble) {
  EXPECT_EQ(FormatDouble(3.14159, 2), "3.14");
  EXPECT_EQ(FormatDouble(2.0, 0), "2");
}

TEST(StringUtilTest, HumanCount) {
  EXPECT_EQ(HumanCount(999), "999");
  EXPECT_EQ(HumanCount(1500), "1.50K");
  EXPECT_EQ(HumanCount(2500000), "2.50M");
  EXPECT_EQ(HumanCount(3100000000.0), "3.10B");
}

TEST(StringUtilTest, HumanDuration) {
  EXPECT_EQ(HumanDuration(125), "125ns");
  EXPECT_EQ(HumanDuration(3200), "3.20us");
  EXPECT_EQ(HumanDuration(1500000), "1.50ms");
  EXPECT_EQ(HumanDuration(2300000000.0), "2.30s");
}

TEST(StringUtilTest, JoinAndSplitRoundTrip) {
  const std::vector<std::string> parts = {"a", "bb", "", "ccc"};
  const std::string joined = Join(parts, ",");
  EXPECT_EQ(joined, "a,bb,,ccc");
  EXPECT_EQ(Split(joined, ','), parts);
}

TEST(StringUtilTest, Padding) {
  EXPECT_EQ(PadLeft("x", 3), "  x");
  EXPECT_EQ(PadRight("x", 3), "x  ");
  EXPECT_EQ(PadLeft("xyz", 2), "xyz");
}

TEST(StringUtilTest, StartsWith) {
  EXPECT_TRUE(StartsWith("hello", "he"));
  EXPECT_FALSE(StartsWith("hello", "lo"));
  EXPECT_TRUE(StartsWith("hello", ""));
  EXPECT_FALSE(StartsWith("he", "hello"));
}

// ---------------------------------------------------------------------------
// CSV
// ---------------------------------------------------------------------------

TEST(CsvTest, WritesSimpleRows) {
  std::ostringstream out;
  CsvWriter csv(&out);
  csv.WriteRow({"a", "b"});
  csv.WriteRow({"1", "2"});
  EXPECT_EQ(out.str(), "a,b\n1,2\n");
  EXPECT_EQ(csv.rows_written(), 2u);
}

TEST(CsvTest, EscapesSpecialCharacters) {
  std::ostringstream out;
  CsvWriter csv(&out);
  csv.WriteRow({"has,comma", "has\"quote", "has\nnewline"});
  EXPECT_EQ(out.str(), "\"has,comma\",\"has\"\"quote\",\"has\nnewline\"\n");
}

TEST(CsvTest, ParseSimple) {
  const auto rows = ParseCsv("a,b\n1,2\n");
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows.value().size(), 2u);
  EXPECT_EQ(rows.value()[0], (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(rows.value()[1], (std::vector<std::string>{"1", "2"}));
}

TEST(CsvTest, ParseRejectsUnterminatedQuote) {
  EXPECT_FALSE(ParseCsv("\"abc").ok());
}

TEST(CsvTest, RoundTripPreservesArbitraryFields) {
  const std::vector<std::vector<std::string>> rows = {
      {"plain", "with,comma", "with\"quote\""},
      {"", "multi\nline", "trailing "},
  };
  std::ostringstream out;
  CsvWriter csv(&out);
  for (const auto& row : rows) csv.WriteRow(row);
  const auto parsed = ParseCsv(out.str());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value(), rows);
}

TEST(CsvTest, FieldFormatters) {
  EXPECT_EQ(CsvWriter::Field(static_cast<int64_t>(-12)), "-12");
  EXPECT_EQ(CsvWriter::Field(static_cast<uint64_t>(12)), "12");
  EXPECT_EQ(CsvWriter::Field(1.5), "1.5");
}

// ---------------------------------------------------------------------------
// ForEachBlock
// ---------------------------------------------------------------------------

TEST(ForEachBlockTest, RunsEveryBlockOnceAndBlockZeroOnTheCaller) {
  const std::thread::id caller = std::this_thread::get_id();
  for (const size_t blocks : {1, 2, 3, 8}) {
    SCOPED_TRACE("blocks=" + std::to_string(blocks));
    // Each block writes only its own slots, read after the join.
    std::vector<int> runs(blocks, 0);
    std::vector<std::thread::id> ran_on(blocks);
    const size_t on_caller = ForEachBlock(blocks, [&](size_t b) {
      ++runs[b];
      ran_on[b] = std::this_thread::get_id();
    });
    EXPECT_EQ(on_caller, 0u);
    EXPECT_EQ(runs, std::vector<int>(blocks, 1));
    EXPECT_EQ(ran_on[0], caller);
    for (size_t b = 1; b < blocks; ++b) EXPECT_NE(ran_on[b], caller);
  }
}

// The process's threads, one entry each under /proc/self/task.
size_t ThreadCount() {
  const std::filesystem::directory_iterator tasks("/proc/self/task");
  return static_cast<size_t>(std::distance(
      std::filesystem::begin(tasks), std::filesystem::end(tasks)));
}

TEST(ForEachBlockTest, OneBlockStartsNoThread) {
  const size_t before = ThreadCount();
  size_t during = 0;
  const size_t on_caller =
      ForEachBlock(1, [&](size_t) { during = ThreadCount(); });
  EXPECT_EQ(on_caller, 0u);
  EXPECT_EQ(during, before);
  // The count does see a started thread: block 1's is alive, waiting,
  // while block 0 counts.
  Atomic<bool> counted{false};
  size_t during_two = 0;
  ForEachBlock(2, [&](size_t b) {
    if (b == 0) {
      during_two = ThreadCount();
      counted.StoreRelease(true);
    } else {
      while (!counted.LoadAcquire()) std::this_thread::yield();
    }
  });
  EXPECT_EQ(during_two, before + 1);
}

}  // namespace
}  // namespace lsbench
