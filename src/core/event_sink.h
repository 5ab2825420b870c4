#ifndef LSBENCH_CORE_EVENT_SINK_H_
#define LSBENCH_CORE_EVENT_SINK_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/events.h"
#include "obs/metrics_registry.h"
#include "obs/profile.h"
#include "sut/sut.h"
#include "util/annotate.h"

namespace lsbench {

/// Stage 3 of the execution core: one worker's event shard. Each worker
/// records into its own sink with no synchronization; the sink stamps the
/// worker id and a per-shard issue sequence number so shards can later be
/// merged into one deterministic stream regardless of thread scheduling.
///
/// The sink keeps one event per request unit, not per element. A unit's
/// event carries everything its elements share (timestamps, phase, type,
/// resilience outcome); its `batch` is its element count and its `seq` the
/// first element's seq, so the elements keep consecutive seqs. A scalar
/// unit keeps its own ok/rows. An executed batch unit also keeps one
/// one-byte ElementOutcome (ok, rows) per element, in a second arena; an
/// element whose rows do not fit in the byte's 7 bits stores kRowsEscape
/// there and its exact rows in a third, unreserved vector of wide rows,
/// so every element's expanded `rows` is exact. A queue-shed unit is one
/// event: its elements all failed unexecuted. TakeUnits hands out the
/// units, outcomes and wide rows as they are; TakeEvents expands them into
/// one event per element, the bytes a per-element sink would have
/// recorded.
class EventSink {
 public:
  explicit EventSink(uint32_t worker) : worker_(worker) {}

  /// Sizes the arenas for `units` more request units whose elements keep
  /// `outcomes` more ElementOutcomes. All allocation happens here, off the
  /// measured loop; the record calls then fill slots by index.
  void Reserve(size_t units, size_t outcomes) {
    units_.resize(used_units_ + units);
    outcomes_.resize(used_outcomes_ + outcomes);
  }

  /// Sizes the arenas for `elements` more elements, however they group
  /// into request units.
  void Reserve(size_t elements) { Reserve(elements, elements); }

  /// Records one completed scalar operation as a request unit of one
  /// element, stamping provenance. An element of a larger unit is recorded
  /// with its siblings through RecordBatch; a `batch` above 1 here is
  /// recorded as 1. Allocation-free while the arena has room (the steady
  /// state — the driver reserves every unit up front); growth is delegated
  /// to the cold slow path.
  LSBENCH_HOT_PATH
  LSBENCH_DETERMINISTIC
  void Record(OpEvent event) {
    LSBENCH_PROFILE_STAGE(profiler_, Stage::kRecord);
    if (events_recorded_ != nullptr) events_recorded_->Increment();
    if (event.batch > 1) event.batch = 1;
    AppendUnit(event, 1);
  }

  /// Records one executed request unit of `count` elements (a batch op, or
  /// a scalar op as a unit of one) as one event. `proto` carries the
  /// outcome every element shares (timestamp, latency, issue, phase, type,
  /// retries, failure flags); element i's data-level ok/rows come from
  /// `results[i]`. A unit of one takes them into its event; a larger unit
  /// keeps them as ElementOutcomes and records `batch = count`. A unit
  /// whose `proto` is queue-shed keeps none (see RecordQueueShed).
  LSBENCH_HOT_PATH
  LSBENCH_DETERMINISTIC
  void RecordBatch(const OpEvent& proto, const OpResult* results,
                   uint32_t count) {
    if (count <= 1) {
      if (count == 0) return;
      OpEvent event = proto;
      event.ok = !proto.failed && results[0].ok;
      event.rows = results[0].rows;
      Record(event);
      return;
    }
    OpEvent unit = proto;
    unit.batch = count;
    if (unit.queue_shed) {
      RecordQueueShed(unit);
      return;
    }
    LSBENCH_PROFILE_STAGE(profiler_, Stage::kRecord);
    if (events_recorded_ != nullptr) events_recorded_->Increment(count);
    AppendUnit(unit, count);
    if (used_outcomes_ + count > outcomes_.size()) GrowOutcomes(count);
    ElementOutcome* out = outcomes_.data() + used_outcomes_;
    for (uint32_t i = 0; i < count; ++i) {
      const uint64_t rows = results[i].rows;
      out[i] = MakeOutcome(results[i].ok, rows);
      if (rows >= kRowsEscape) RecordWideRows(rows);
    }
    used_outcomes_ += count;
  }

  /// Records one request unit the admission queue shed: one event for its
  /// UnitElements(proto) elements, which all failed unexecuted (ok = false,
  /// rows = 0). No SUT work happened, so no outcomes are kept. The record
  /// stage counts one profile sample per shed element, as it did when each
  /// was recorded alone.
  LSBENCH_HOT_PATH
  LSBENCH_DETERMINISTIC
  void RecordQueueShed(OpEvent proto) {
    const uint32_t elements = UnitElements(proto);
    const StageTimer record_timer(profiler_, Stage::kRecord, elements);
    if (events_recorded_ != nullptr) events_recorded_->Increment(elements);
    proto.ok = false;
    proto.rows = 0;
    proto.failed = true;
    proto.queue_shed = true;
    AppendUnit(proto, elements);
  }

  /// Arms the append profiling hook (Stage::kRecord) and the record
  /// counter, which counts elements. Either pointer may be null; observing
  /// the sink never changes what it records.
  void BindObservability(StageProfiler* profiler, Counter* events_recorded) {
    profiler_ = profiler;
    events_recorded_ = events_recorded;
  }

  uint32_t worker() const { return worker_; }
  /// Elements recorded so far, summed over the units.
  size_t recorded() const { return elements_; }

  /// Moves the units, outcomes and wide rows out, trimmed to what was
  /// recorded (the sink is spent afterwards).
  UnitShard TakeUnits();

  /// Moves the shard out as one event per element, in record order: each
  /// unit expanded in place, its elements taking consecutive seqs and
  /// their own ok/rows (the sink is spent afterwards).
  EventStream TakeEvents();

 private:
  /// Stamps provenance on `unit`, which stands for `elements` elements,
  /// and appends it.
  void AppendUnit(OpEvent unit, uint32_t elements) {
    unit.worker = worker_;
    unit.seq = next_seq_;
    next_seq_ += elements;
    elements_ += elements;
    if (used_units_ < units_.size()) {
      units_[used_units_++] = unit;
    } else {
      RecordUnitSlow(unit);
    }
  }

  /// Cold paths: an arena is full, or an element's rows escape. They
  /// allocate; out of line so the hot-alloc frontier is these functions,
  /// not the record calls.
  void RecordUnitSlow(const OpEvent& unit);
  /// Makes room in the outcome arena for `count` more outcomes.
  void GrowOutcomes(uint32_t count);
  /// Keeps the exact `rows` of an element whose outcome escapes.
  void RecordWideRows(uint64_t rows);

  uint32_t worker_;
  uint64_t next_seq_ = 0;
  size_t elements_ = 0;
  /// Arenas: slots [0, used_) hold what was recorded; the rest is headroom
  /// created by Reserve.
  EventStream units_;
  size_t used_units_ = 0;
  std::vector<ElementOutcome> outcomes_;
  size_t used_outcomes_ = 0;
  /// Not an arena: holds exactly the escaped rows recorded, in order.
  std::vector<uint64_t> wide_rows_;

  // Observability hooks (null = disabled).
  StageProfiler* profiler_ = nullptr;
  Counter* events_recorded_ = nullptr;
};

/// Merges per-worker event shards into one stream ordered by
/// (timestamp, worker, seq) (MergeOrderLess). The tie-break on provenance
/// makes the merged order a pure function of the shards' contents — two
/// runs with identical shards merge identically no matter how threads
/// interleaved. The shards may hold elements or request units: a unit's
/// elements share its timestamp and worker and take consecutive seqs, so
/// they are contiguous in that order, and merging units then expanding
/// them (ExpandUnits) gives what merging expanded shards gives.
///
/// Precondition: every shard is already in that order, strictly, i.e. in
/// increasing (timestamp, seq) order, which an EventSink's shard is as
/// long as its clock never steps back. Two equal keys mean a unit recorded
/// twice. The merge is a k-way merge of the shards, not a sort; it
/// aborts (LSBENCH_ASSERT_MSG) on an out-of-order shard rather than
/// re-sorting it. The driver checks each shard's order first and fails the
/// run with a located error instead. A single shard passes through
/// unchanged and unchecked.
///
/// The result has room for at least `capacity` events, so that
/// ExpandUnits can expand merged units in place: pass the element count.
EventStream MergeEventShards(std::vector<EventStream> shards,
                             size_t capacity = 0);

/// Expands a stream of request units (merged by MergeEventShards, or one
/// worker's) into one event per element, in the same order. Each unit
/// that keeps outcomes reads them, and the wide rows of those that escape,
/// from `shards[unit.worker]`, whose units are not read. `elements` is the
/// stream's element count (the sum of UnitElements). When every unit is
/// one element, `units` itself is returned.
///
/// The elements are written in place, back to front, into `units`' own
/// buffer: unit i's elements start at an offset of at least i, so no unit
/// is overwritten before it is read. The shards' outcome and wide-row
/// arrays are the cursors: each unit takes its outcomes from the end of
/// its worker's array and shrinks it. When `units` has room for the
/// elements, nothing is allocated; otherwise its buffer is first grown to
/// the exact element count.
EventStream ExpandUnits(EventStream units, std::vector<UnitShard> shards,
                        uint64_t elements);

/// Canonical one-line-per-event text form of a merged stream. Two runs
/// produced identical event streams iff their serializations are
/// byte-identical — the representation the determinism tests hash.
std::string SerializeEventStream(const EventStream& events);

}  // namespace lsbench

#endif  // LSBENCH_CORE_EVENT_SINK_H_
