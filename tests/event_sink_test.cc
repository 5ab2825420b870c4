// Pins the packed per-element records (core/events.h, whose static_asserts
// pin their sizes): OpEvent keeps every field exactly through EventSink's
// Record/RecordBatch, TakeEvents and SerializeEventStream, and a batch
// element's rows come back exact at every value: inline in its one-byte
// outcome below kRowsEscape, through the sink's wide rows from it up.

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/event_sink.h"
#include "core/events.h"
#include "sut/sut.h"

namespace lsbench {
namespace {

TEST(EventSinkTest, EveryFieldSurvivesRecordAndSerialize) {
  EventSink sink(5);
  OpEvent base;
  base.timestamp_nanos = 100;
  base.latency_nanos = 40;
  base.issue_nanos = 70;
  base.phase = 3;

  // Each op type, as a scalar unit with its own ok/rows.
  for (int t = 0; t < kNumOpTypes; ++t) {
    OpEvent e = base;
    e.type = static_cast<OpType>(t);
    e.ok = true;
    e.rows = static_cast<uint64_t>(t);
    sink.Record(e);
  }
  // Each flag set alone.
  for (int flag = 0; flag < 6; ++flag) {
    OpEvent e = base;
    e.ok = flag == 0;
    e.failed = flag == 1;
    e.timed_out = flag == 2;
    e.shed = flag == 3;
    e.queue_shed = flag == 4;
    e.open_loop = flag == 5;
    sink.Record(e);
  }
  // Every wide field at its largest value; a scalar unit keeps all 64
  // bits of its rows.
  OpEvent wide = base;
  wide.timestamp_nanos = INT64_MAX;
  wide.latency_nanos = INT64_MAX;
  wide.issue_nanos = INT64_MAX;
  wide.phase = INT32_MAX;
  wide.retries = 65535;
  wide.rows = UINT64_MAX;
  sink.Record(wide);
  const OpResult scalar{true, UINT64_MAX, Status::OK()};
  sink.RecordBatch(base, &scalar, 1);

  // An executed batch: its elements keep their rows exactly, the ones too
  // wide for an outcome's byte included.
  OpEvent batch = base;
  batch.timestamp_nanos = 200;
  batch.type = OpType::kBatchPut;
  batch.retries = 2;
  constexpr uint64_t kTop = uint64_t{1} << 63;
  const OpResult results[4] = {{true, kTop - 1, Status::OK()},
                               {true, UINT64_MAX, Status::OK()},
                               {true, kTop, Status::OK()},
                               {false, 7, Status::OK()}};
  sink.RecordBatch(batch, results, 4);
  // A failed batch: no element is ok, whatever the SUT said.
  batch.failed = true;
  batch.timed_out = true;
  sink.RecordBatch(batch, results, 2);
  // A queue-shed batch: no element was executed.
  batch.failed = false;
  batch.timed_out = false;
  batch.queue_shed = true;
  batch.open_loop = true;
  sink.RecordBatch(batch, results, 2);

  EXPECT_EQ(sink.recorded(), 24u);
  EXPECT_EQ(SerializeEventStream(sink.TakeEvents()),
            "# lsbench-events v3 events=24\n"
            // timestamp latency issue phase type ok rows retries failed
            // timed_out shed queue_shed open_loop batch worker seq
            "100 40 70 3 0 1 0 0 0 0 0 0 0 1 5 0\n"
            "100 40 70 3 1 1 1 0 0 0 0 0 0 1 5 1\n"
            "100 40 70 3 2 1 2 0 0 0 0 0 0 1 5 2\n"
            "100 40 70 3 3 1 3 0 0 0 0 0 0 1 5 3\n"
            "100 40 70 3 4 1 4 0 0 0 0 0 0 1 5 4\n"
            "100 40 70 3 5 1 5 0 0 0 0 0 0 1 5 5\n"
            "100 40 70 3 6 1 6 0 0 0 0 0 0 1 5 6\n"
            "100 40 70 3 7 1 7 0 0 0 0 0 0 1 5 7\n"
            "100 40 70 3 0 1 0 0 0 0 0 0 0 1 5 8\n"
            "100 40 70 3 0 0 0 0 1 0 0 0 0 1 5 9\n"
            "100 40 70 3 0 0 0 0 0 1 0 0 0 1 5 10\n"
            "100 40 70 3 0 0 0 0 0 0 1 0 0 1 5 11\n"
            "100 40 70 3 0 0 0 0 0 0 0 1 0 1 5 12\n"
            "100 40 70 3 0 0 0 0 0 0 0 0 1 1 5 13\n"
            "9223372036854775807 9223372036854775807 9223372036854775807 "
            "2147483647 0 0 18446744073709551615 65535 0 0 0 0 0 1 5 14\n"
            "100 40 70 3 0 1 18446744073709551615 0 0 0 0 0 0 1 5 15\n"
            "200 40 70 3 7 1 9223372036854775807 2 0 0 0 0 0 4 5 16\n"
            "200 40 70 3 7 1 18446744073709551615 2 0 0 0 0 0 4 5 17\n"
            "200 40 70 3 7 1 9223372036854775808 2 0 0 0 0 0 4 5 18\n"
            "200 40 70 3 7 0 7 2 0 0 0 0 0 4 5 19\n"
            "200 40 70 3 7 0 9223372036854775807 2 1 1 0 0 0 2 5 20\n"
            "200 40 70 3 7 0 18446744073709551615 2 1 1 0 0 0 2 5 21\n"
            "200 40 70 3 7 0 0 2 1 0 0 1 1 2 5 22\n"
            "200 40 70 3 7 0 0 2 1 0 0 1 1 2 5 23\n");
}

TEST(EventSinkTest, BatchElementRowsComeBackExact) {
  // Rows below kRowsEscape fit in an outcome's byte; from it up they
  // escape to the sink's wide rows. Every value comes back exact whether
  // the outcome arena had room (the fast path) or had to grow first (the
  // overflow path), with escapes in batches recorded both ways.
  constexpr uint32_t kCount = 7;
  const uint64_t rows[kCount] = {0,   1,   126, 127, 128, uint64_t{1} << 63,
                                 UINT64_MAX};
  static_assert(kRowsEscape == 127);
  OpResult results[kCount];
  for (uint32_t i = 0; i < kCount; ++i) {
    results[i] = {i % 2 == 0, rows[i], Status::OK()};
  }
  // Three units of all seven values, each followed by one of the three
  // values that fit: 30 elements, 12 of them escaped.
  const auto record = [&](EventSink* sink) {
    OpEvent proto;
    proto.type = OpType::kBatchGet;
    for (int64_t unit = 0; unit < 3; ++unit) {
      proto.timestamp_nanos = unit;
      sink->RecordBatch(proto, results, kCount);
      sink->RecordBatch(proto, results, 3);
    }
  };
  constexpr size_t kElements = 3 * (kCount + 3);
  // 30 reserves every outcome; the others overflow before the first, the
  // second, the third and the fifth batch.
  for (const size_t reserved : {size_t{30}, size_t{0}, size_t{7}, size_t{10},
                                size_t{20}}) {
    SCOPED_TRACE("reserved " + std::to_string(reserved));
    EventSink units(2);
    units.Reserve(6, reserved);
    record(&units);
    const UnitShard shard = units.TakeUnits();
    ASSERT_EQ(shard.outcomes.size(), kElements);
    EXPECT_EQ(shard.wide_rows,
              (std::vector<uint64_t>{127, 128, uint64_t{1} << 63, UINT64_MAX,
                                     127, 128, uint64_t{1} << 63, UINT64_MAX,
                                     127, 128, uint64_t{1} << 63,
                                     UINT64_MAX}));
    EXPECT_EQ(shard.outcomes[3].rows, kRowsEscape);
    EXPECT_EQ(shard.outcomes[2].rows, 126u);

    EventSink elements(2);
    elements.Reserve(6, reserved);
    record(&elements);
    const EventStream events = elements.TakeEvents();
    ASSERT_EQ(events.size(), kElements);
    size_t e = 0;
    for (int unit = 0; unit < 3; ++unit) {
      for (const uint32_t count : {kCount, 3u}) {
        for (uint32_t i = 0; i < count; ++i, ++e) {
          EXPECT_EQ(events[e].rows, rows[i]) << "element " << e;
          EXPECT_EQ(events[e].ok, i % 2 == 0) << "element " << e;
          EXPECT_EQ(events[e].seq, e);
        }
      }
    }
  }
}

}  // namespace
}  // namespace lsbench
