// Property test: the post-run shard merges are permutation-invariant. The
// repo's reproducibility contract says the merged event stream, trace,
// metrics snapshot, and stage breakdown are pure functions of the shards'
// CONTENTS — never of the order workers happened to finish (which is the
// order the driver collects them in). lsbench-sched proves this under every
// interleaving for small pipelines (tests/sched_model_test.cc); this test
// attacks the same invariant from the other side, feeding every permutation
// of synthetic shards through the real merge functions and requiring
// byte-identical serialized output.

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <regex>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/driver.h"
#include "core/event_sink.h"
#include "core/events.h"
#include "core/run_spec.h"
#include "data/dataset.h"
#include "obs/metrics_registry.h"
#include "obs/observability.h"
#include "obs/profile.h"
#include "obs/trace.h"
#include "sut/concurrent_kv.h"
#include "util/atomic.h"
#include "util/clock.h"
#include "util/random.h"

namespace lsbench {
namespace {

// Runs `body(perm)` for every permutation of {0, ..., n-1}.
void ForEachPermutation(size_t n,
                        const std::function<void(const std::vector<size_t>&)>&
                            body) {
  std::vector<size_t> perm(n);
  std::iota(perm.begin(), perm.end(), 0);
  do {
    body(perm);
  } while (std::next_permutation(perm.begin(), perm.end()));
}

// --- Event shards -----------------------------------------------------------

// One worker's shard: seqs ascend per shard (the sink contract), timestamps
// overlap across shards and deliberately collide so the (timestamp, worker,
// seq) tie-break is exercised, not just the timestamp sort.
EventStream MakeEventShard(uint32_t worker, size_t n) {
  Rng rng(1000 + worker);
  EventStream shard;
  shard.reserve(n);
  int64_t ts = 0;
  for (size_t i = 0; i < n; ++i) {
    // Step 0 half the time: equal timestamps within AND across shards.
    ts += static_cast<int64_t>(rng.NextBounded(2) * 100);
    OpEvent e;
    e.timestamp_nanos = ts;
    e.latency_nanos = static_cast<int64_t>(rng.NextBounded(1000));
    e.issue_nanos = ts - e.latency_nanos;
    e.phase = static_cast<int32_t>(rng.NextBounded(2));
    e.ok = rng.NextBounded(4) != 0;
    e.rows = rng.NextBounded(8);
    e.retries = static_cast<uint16_t>(rng.NextBounded(3));
    e.worker = worker;
    e.seq = i;
    shard.push_back(e);
  }
  return shard;
}

TEST(MergePermutation, EventShardsMergeByteIdentically) {
  constexpr size_t kShards = 4;
  std::vector<EventStream> shards;
  for (size_t w = 0; w < kShards; ++w) {
    shards.push_back(MakeEventShard(static_cast<uint32_t>(w), 16));
  }
  const std::string reference = SerializeEventStream(
      MergeEventShards(shards));
  ASSERT_FALSE(reference.empty());

  ForEachPermutation(kShards, [&](const std::vector<size_t>& perm) {
    std::vector<EventStream> permuted;
    for (size_t idx : perm) permuted.push_back(shards[idx]);
    const EventStream merged = MergeEventShards(std::move(permuted));
    EXPECT_EQ(reference, SerializeEventStream(merged))
        << "shard order changed the merged event stream";
  });
}

TEST(MergePermutation, MergedEventStreamIsProvenanceOrdered) {
  std::vector<EventStream> shards;
  for (size_t w = 0; w < 3; ++w) {
    shards.push_back(MakeEventShard(static_cast<uint32_t>(w), 12));
  }
  const EventStream merged = MergeEventShards(std::move(shards));
  for (size_t i = 1; i < merged.size(); ++i) {
    const OpEvent& a = merged[i - 1];
    const OpEvent& b = merged[i];
    const auto key = [](const OpEvent& e) {
      return std::make_tuple(e.timestamp_nanos, e.worker, e.seq);
    };
    EXPECT_LT(key(a), key(b)) << "merge order violated at index " << i;
  }
}

// --- k-way merge against the sort it replaced ------------------------------

// What MergeEventShards did before it became a k-way merge: concatenate the
// shards and sort by (timestamp, worker, seq). Kept as the oracle.
EventStream SortMerge(const std::vector<EventStream>& shards) {
  if (shards.size() == 1) return shards[0];
  EventStream merged;
  for (const EventStream& s : shards) {
    merged.insert(merged.end(), s.begin(), s.end());
  }
  std::sort(merged.begin(), merged.end(),
            [](const OpEvent& a, const OpEvent& b) {
              if (a.timestamp_nanos != b.timestamp_nanos) {
                return a.timestamp_nanos < b.timestamp_nanos;
              }
              if (a.worker != b.worker) return a.worker < b.worker;
              return a.seq < b.seq;
            });
  return merged;
}

// A shard whose timestamps start in [0, 4) and step by 0 or 1, so shards tie
// with each other on most timestamps, and runs of equal timestamps inside a
// shard stand in for a batch's elements.
EventStream MakeTiedShard(Rng* rng, uint32_t worker, size_t n) {
  EventStream shard;
  int64_t ts = static_cast<int64_t>(rng->NextBounded(4));
  for (size_t i = 0; i < n; ++i) {
    ts += static_cast<int64_t>(rng->NextBounded(2));
    OpEvent e;
    e.timestamp_nanos = ts;
    e.latency_nanos = static_cast<int64_t>(rng->NextBounded(50));
    e.rows = rng->NextBounded(8);
    e.worker = worker;
    e.seq = i;
    shard.push_back(e);
  }
  return shard;
}

TEST(MergePermutation, KWayMergeEqualsSortMerge) {
  Rng rng(5000);
  for (uint32_t k = 1; k <= 8; ++k) {
    for (int trial = 0; trial < 40; ++trial) {
      std::vector<EventStream> shards;
      for (uint32_t w = 0; w < k; ++w) {
        // A quarter of the shards are empty.
        const size_t n = rng.NextBounded(4) == 0 ? 0 : rng.NextBounded(64);
        shards.push_back(MakeTiedShard(&rng, w, n));
      }
      EXPECT_EQ(SerializeEventStream(SortMerge(shards)),
                SerializeEventStream(MergeEventShards(shards)))
          << "k=" << k << " trial " << trial;
    }
  }
}

// --- Unit shards, merged then expanded ------------------------------------

// Records request units into `units` -- scalar units, executed batch units
// (some failed) and queue-shed batch units, with timestamps that tie within
// and across workers, and with a third of the batch elements' rows too wide
// for an outcome's byte -- and writes by hand the per-element shard they
// stand for into `elements`: one event per element, consecutive seqs, each
// with its own ok/rows.
void RecordUnits(Rng* rng, uint32_t worker, size_t n, EventSink* units,
                 EventStream* elements) {
  std::vector<OpResult> results(32);
  int64_t ts = static_cast<int64_t>(rng->NextBounded(4));
  const auto append = [&](OpEvent e, bool ok, uint64_t rows) {
    e.ok = ok;
    e.rows = rows;
    e.worker = worker;
    e.seq = elements->size();
    elements->push_back(e);
  };
  for (size_t i = 0; i < n; ++i) {
    ts += static_cast<int64_t>(rng->NextBounded(2));
    OpEvent proto;
    proto.timestamp_nanos = ts;
    proto.latency_nanos = static_cast<int64_t>(rng->NextBounded(50));
    proto.issue_nanos = ts - proto.latency_nanos;
    proto.phase = static_cast<int32_t>(rng->NextBounded(2));
    proto.retries = static_cast<uint16_t>(rng->NextBounded(3));
    const uint64_t kind = rng->NextBounded(4);
    if (kind == 0) {
      proto.ok = rng->NextBounded(2) == 0;
      proto.rows = rng->NextBounded(8);
      units->Record(proto);
      append(proto, proto.ok, proto.rows);
      continue;
    }
    proto.type = OpType::kBatchGet;
    proto.batch = 2 + static_cast<uint32_t>(rng->NextBounded(31));
    if (kind == 1) {
      units->RecordQueueShed(proto);
      proto.failed = true;
      proto.queue_shed = true;
      for (uint32_t j = 0; j < proto.batch; ++j) append(proto, false, 0);
      continue;
    }
    proto.failed = kind == 2 && rng->NextBounded(2) == 0;
    for (uint32_t j = 0; j < proto.batch; ++j) {
      results[j].ok = rng->NextBounded(3) != 0;
      results[j].rows = rng->NextBounded(3) == 0 ? rng->Next() >> (j % 64)
                                                 : rng->NextBounded(127);
    }
    units->RecordBatch(proto, results.data(), proto.batch);
    for (uint32_t j = 0; j < proto.batch; ++j) {
      append(proto, !proto.failed && results[j].ok, results[j].rows);
    }
  }
}

TEST(MergePermutation, UnitShardsExpandToTheMergedElementShards) {
  constexpr uint32_t kShards = 4;
  Rng rng(5002);
  std::vector<UnitShard> unit_shards;
  std::vector<EventStream> element_shards;
  uint64_t elements = 0;
  for (uint32_t w = 0; w < kShards; ++w) {
    EventSink units(w);
    EventStream per_element;
    // Worker 2 records nothing: an empty shard merges too.
    RecordUnits(&rng, w, w == 2 ? 0 : 24, &units, &per_element);
    elements += units.recorded();
    ASSERT_EQ(units.recorded(), per_element.size());
    unit_shards.push_back(units.TakeUnits());
    element_shards.push_back(std::move(per_element));
  }
  ASSERT_GT(elements, 4u * 24u);
  const std::string reference =
      SerializeEventStream(MergeEventShards(element_shards));

  ForEachPermutation(kShards, [&](const std::vector<size_t>& perm) {
    std::vector<EventStream> permuted;
    for (size_t idx : perm) permuted.push_back(unit_shards[idx].units);
    const EventStream expanded = ExpandUnits(
        MergeEventShards(std::move(permuted)), unit_shards, elements);
    EXPECT_EQ(reference, SerializeEventStream(expanded))
        << "merging units then expanding changed the element stream";
  });
}

// Expands merged units out of place, front to back, as ExpandUnits did
// before it wrote in place: the oracle for the in-place expansion.
EventStream ExpandOutOfPlace(const EventStream& units,
                             const std::vector<UnitShard>& shards) {
  std::vector<size_t> outcome(shards.size());
  std::vector<size_t> wide(shards.size());
  EventStream events;
  for (const OpEvent& unit : units) {
    if (unit.batch <= 1) {
      events.push_back(unit);
      continue;
    }
    for (uint32_t j = 0; j < unit.batch; ++j) {
      OpEvent element = unit;
      element.seq = unit.seq + j;
      if (!unit.queue_shed) {
        const UnitShard& own = shards[unit.worker];
        const ElementOutcome result = own.outcomes[outcome[unit.worker]++];
        element.ok = !unit.failed && result.ok;
        element.rows = result.rows == kRowsEscape
                           ? own.wide_rows[wide[unit.worker]++]
                           : result.rows;
      }
      events.push_back(element);
    }
  }
  return events;
}

TEST(MergePermutation, InPlaceExpansionEqualsOutOfPlaceExpansion) {
  // Random shard counts, sizes and orders, with queue-shed units, failed
  // batch units and escaped rows: merged with room for every element,
  // the units expand inside the merged buffer, to the same bytes as the
  // out-of-place oracle. Merged without that room, they expand the same.
  Rng rng(5003);
  uint64_t total_escapes = 0;
  for (int trial = 0; trial < 60; ++trial) {
    const uint32_t k = 1 + static_cast<uint32_t>(rng.NextBounded(6));
    std::vector<UnitShard> shards;
    uint64_t elements = 0;
    uint64_t escapes = 0;
    for (uint32_t w = 0; w < k; ++w) {
      EventSink sink(w);
      EventStream unused;
      RecordUnits(&rng, w, rng.NextBounded(40), &sink, &unused);
      elements += sink.recorded();
      shards.push_back(sink.TakeUnits());
      escapes += shards.back().wide_rows.size();
    }
    std::vector<EventStream> order;
    for (const UnitShard& shard : shards) order.push_back(shard.units);
    for (size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[rng.NextBounded(i)]);
    }
    const EventStream merged = MergeEventShards(order);
    const std::string reference =
        SerializeEventStream(ExpandOutOfPlace(merged, shards));
    SCOPED_TRACE("trial " + std::to_string(trial) + ": " + std::to_string(k) +
                 " shards, " + std::to_string(elements) + " elements, " +
                 std::to_string(escapes) + " escaped rows");

    EventStream roomy = MergeEventShards(order, elements);
    ASSERT_EQ(SerializeEventStream(roomy), SerializeEventStream(merged));
    ASSERT_GE(roomy.capacity(), elements);
    const OpEvent* buffer = roomy.data();
    const EventStream in_place =
        ExpandUnits(std::move(roomy), shards, elements);
    EXPECT_EQ(in_place.data(), buffer);
    EXPECT_EQ(SerializeEventStream(in_place), reference);
    EXPECT_EQ(SerializeEventStream(ExpandUnits(merged, shards, elements)),
              reference);
    total_escapes += escapes;
  }
  EXPECT_GT(total_escapes, 0u);
}

TEST(MergePermutation, OutOfOrderShardAbortsTheMerge) {
  Rng rng(5001);
  std::vector<EventStream> shards;
  shards.push_back(MakeTiedShard(&rng, 0, 16));
  shards.push_back(MakeTiedShard(&rng, 1, 16));
  std::swap(shards[1][3], shards[1][9]);
  EXPECT_DEATH(MergeEventShards(shards), "not in \\(timestamp, seq\\) order");
}

// A clock that, every seventh read, reads half a millisecond early -- the
// kind of step backwards that leaves a worker's shard out of order.
class DippingClock final : public Clock {
 public:
  int64_t NowNanos() const override {
    const int64_t n = reads_.Add(1);
    return n % 7 == 6 ? n * 1000 - 500000 : n * 1000;
  }

 private:
  mutable Atomic<int64_t> reads_{1000};
};

RunSpec SmallSpec(uint32_t workers) {
  RunSpec spec;
  spec.name = "dipping_clock_w" + std::to_string(workers);
  DatasetOptions options;
  options.num_keys = 1000;
  spec.datasets.push_back(GenerateDataset(UniformUnit(), options));
  PhaseSpec phase;
  phase.num_operations = 400;
  phase.mix = OperationMix::ReadMostly();
  spec.phases.push_back(phase);
  spec.execution.workers = workers;
  return spec;
}

TEST(MergePermutation, DriverRejectsOutOfOrderShard) {
  const std::regex located(
      "worker [0-9]+ shard: event out of order: worker [0-9]+ seq [0-9]+ "
      "at t=-?[0-9]+ ns follows worker [0-9]+ seq [0-9]+ at t=-?[0-9]+ ns");
  for (const uint32_t workers : {1u, 2u}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    DippingClock clock;
    PartitionedKvSystem sut(4);
    BenchmarkDriver driver(&clock);
    const Result<RunResult> run = driver.Run(SmallSpec(workers), &sut);
    ASSERT_FALSE(run.ok());
    EXPECT_TRUE(std::regex_search(run.status().message(), located))
        << run.status().ToString();
  }
}

// --- Trace shards -----------------------------------------------------------

TraceStream MakeTraceShard(uint32_t worker, size_t n) {
  static const char* const kNames[] = {"generate", "pace", "execute",
                                       "record"};
  Rng rng(2000 + worker);
  TraceStream shard;
  shard.reserve(n);
  int64_t start = 0;
  for (size_t i = 0; i < n; ++i) {
    start += static_cast<int64_t>(rng.NextBounded(2) * 50);
    TraceSpan span;
    span.name = kNames[rng.NextBounded(4)];
    span.start_nanos = start;
    span.end_nanos = start + static_cast<int64_t>(rng.NextBounded(500));
    span.phase = static_cast<int32_t>(rng.NextBounded(2));
    span.worker = worker;
    span.seq = i;
    shard.push_back(span);
  }
  return shard;
}

// The span lines of a --trace-out file holding the merged shards.
std::string RenderMergedTrace(std::vector<TraceStream> shards) {
  ObsReport report;
  report.trace = MergeTraceShards(std::move(shards));
  return RenderTraceFile(report, "merge", "none", 4);
}

TEST(MergePermutation, TraceShardsMergeByteIdentically) {
  constexpr size_t kShards = 4;
  std::vector<TraceStream> shards;
  for (size_t w = 0; w < kShards; ++w) {
    shards.push_back(MakeTraceShard(static_cast<uint32_t>(w), 12));
  }
  // Driver-level spans sort after all workers at equal timestamps.
  shards.push_back(MakeTraceShard(kDriverTraceWorker, 6));

  const std::string reference = RenderMergedTrace(shards);
  ASSERT_NE(reference.find("span "), std::string::npos);

  ForEachPermutation(shards.size(), [&](const std::vector<size_t>& perm) {
    std::vector<TraceStream> permuted;
    for (size_t idx : perm) permuted.push_back(shards[idx]);
    EXPECT_EQ(reference, RenderMergedTrace(std::move(permuted)))
        << "shard order changed the merged trace";
  });
}

// --- Metrics shards ---------------------------------------------------------

// Canonical text form of a snapshot: MetricsSnapshot has no serializer of
// its own (reports consume it structurally), so byte-identity here means
// identity of this exhaustive stringification.
std::string StringifySnapshot(const MetricsSnapshot& snap) {
  std::ostringstream out;
  for (const auto& [name, value] : snap.counters) {
    out << "counter " << name << " " << value << "\n";
  }
  for (const auto& [name, value] : snap.gauges) {
    out << "gauge " << name << " " << value << "\n";
  }
  // Histogram hides its buckets; a quantile at every percent, printed at
  // full precision, pins their contents.
  out.precision(17);
  for (const auto& [name, h] : snap.histograms) {
    out << "hist " << name << " count=" << h.count() << " sum=" << h.sum()
        << " min=" << h.min() << " max=" << h.max()
        << " stddev=" << h.StdDev() << " quantiles=";
    for (int q = 0; q <= 100; ++q) out << h.Quantile(q / 100.0) << ",";
    out << "\n";
  }
  return out.str();
}

// Shards with overlapping AND disjoint instrument sets: merge must sum the
// shared names and pass the rest through, independent of shard order.
MetricsSnapshot MakeMetricsShard(uint32_t worker) {
  MetricsRegistry registry;
  Rng rng(3000 + worker);
  registry.GetCounter("ops.total")->Increment(rng.NextBounded(100));
  registry.GetCounter("worker." + std::to_string(worker) + ".ops")
      ->Increment(worker + 1);
  registry.GetGauge("queue.depth")->Add(
      static_cast<int64_t>(rng.NextBounded(16)));
  LockedHistogram* hist = registry.GetHistogram("latency");
  for (int i = 0; i < 32; ++i) {
    hist->Record(static_cast<int64_t>(rng.NextBounded(4000000)));
  }
  return registry.Snapshot();
}

TEST(MergePermutation, MetricsShardsMergeByteIdentically) {
  constexpr size_t kShards = 4;
  std::vector<MetricsSnapshot> shards;
  for (size_t w = 0; w < kShards; ++w) {
    shards.push_back(MakeMetricsShard(static_cast<uint32_t>(w)));
  }
  const std::string reference_text =
      StringifySnapshot(MergeMetricsShards(shards));
  ASSERT_FALSE(reference_text.empty());

  ForEachPermutation(kShards, [&](const std::vector<size_t>& perm) {
    std::vector<MetricsSnapshot> permuted;
    for (size_t idx : perm) permuted.push_back(shards[idx]);
    EXPECT_EQ(reference_text, StringifySnapshot(MergeMetricsShards(permuted)))
        << "shard order changed the merged metrics snapshot";
  });
}

// --- Stage breakdown shards -------------------------------------------------

std::string StringifyBreakdown(const StageBreakdown& breakdown) {
  std::ostringstream out;
  for (const PhaseStageBreakdown& phase : breakdown) {
    out << "phase " << phase.phase << ":";
    for (size_t s = 0; s < kNumStages; ++s) {
      out << " " << phase.stages[s].total_nanos << "/"
          << phase.stages[s].samples;
    }
    out << "\n";
  }
  return out.str();
}

// Shards cover overlapping phase sets (worker 0 has the run-level phase,
// later workers only their own); the accumulate must stay phase-aligned.
StageBreakdown MakeStageShard(uint32_t worker) {
  Rng rng(4000 + worker);
  StageBreakdown shard;
  const int32_t first_phase =
      worker == 0 ? PhaseStageBreakdown::kRunLevelPhase : 0;
  for (int32_t phase = first_phase; phase <= 1; ++phase) {
    PhaseStageBreakdown p;
    p.phase = phase;
    for (size_t s = 0; s < kNumStages; ++s) {
      p.stages[s].total_nanos = static_cast<int64_t>(rng.NextBounded(100000));
      p.stages[s].samples = rng.NextBounded(50);
    }
    shard.push_back(p);
  }
  return shard;
}

TEST(MergePermutation, StageBreakdownMergesByteIdentically) {
  constexpr size_t kShards = 4;
  std::vector<StageBreakdown> shards;
  for (size_t w = 0; w < kShards; ++w) {
    shards.push_back(MakeStageShard(static_cast<uint32_t>(w)));
  }
  StageBreakdown reference;
  for (const StageBreakdown& shard : shards) {
    MergeStageBreakdown(&reference, shard);
  }
  const std::string reference_text = StringifyBreakdown(reference);
  ASSERT_FALSE(reference_text.empty());

  ForEachPermutation(kShards, [&](const std::vector<size_t>& perm) {
    StageBreakdown merged;
    for (size_t idx : perm) MergeStageBreakdown(&merged, shards[idx]);
    EXPECT_EQ(reference_text, StringifyBreakdown(merged))
        << "accumulation order changed the stage breakdown";
  });
}

}  // namespace
}  // namespace lsbench
