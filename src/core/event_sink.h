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
/// 8-byte ElementOutcome (ok, rows) per element, in a second arena; a
/// `rows` above kMaxOutcomeRows saturates there, so a batch element's
/// expanded `rows` does too (a scalar unit's stays exact). A queue-shed
/// unit is one event: its elements all failed unexecuted. TakeUnits hands
/// out the units and outcomes as they are; TakeEvents expands them into
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
    if (used_outcomes_ + count <= outcomes_.size()) {
      ElementOutcome* out = outcomes_.data() + used_outcomes_;
      for (uint32_t i = 0; i < count; ++i) {
        out[i] = MakeOutcome(results[i].ok, results[i].rows);
      }
      used_outcomes_ += count;
    } else {
      RecordOutcomesSlow(results, count);
    }
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

  /// Moves the units and outcomes out, trimmed to what was recorded (the
  /// sink is spent afterwards).
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

  /// Cold paths: an arena is full. They grow it (allocate); out of line so
  /// the hot-alloc frontier is these functions, not the record calls.
  void RecordUnitSlow(const OpEvent& unit);
  void RecordOutcomesSlow(const OpResult* results, uint32_t count);

  uint32_t worker_;
  uint64_t next_seq_ = 0;
  size_t elements_ = 0;
  /// Arenas: slots [0, used_) hold what was recorded; the rest is headroom
  /// created by Reserve.
  EventStream units_;
  size_t used_units_ = 0;
  std::vector<ElementOutcome> outcomes_;
  size_t used_outcomes_ = 0;

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
/// Precondition: every shard is already in that order, i.e. in (timestamp,
/// seq) order, which an EventSink's shard is as long as its clock never
/// steps back. The merge is a k-way merge of the shards, not a sort; it
/// aborts (LSBENCH_ASSERT_MSG) on an out-of-order shard rather than
/// re-sorting it. The driver checks each shard's order first and fails the
/// run with a located error instead. A single shard passes through
/// unchanged and unchecked.
EventStream MergeEventShards(std::vector<EventStream> shards);

/// Expands a stream of request units (merged by MergeEventShards, or one
/// worker's) into one event per element, in the same order. Each unit
/// that keeps outcomes reads them from `outcomes[unit.worker]`, where a
/// per-worker cursor moves on in that worker's record order. `elements` is
/// the stream's element count (the sum of UnitElements); the result is
/// written once at that exact size. When every unit is one element,
/// `units` itself is returned.
EventStream ExpandUnits(EventStream units,
                        const std::vector<std::vector<ElementOutcome>>& outcomes,
                        uint64_t elements);

/// Canonical one-line-per-event text form of a merged stream. Two runs
/// produced identical event streams iff their serializations are
/// byte-identical — the representation the determinism tests hash.
std::string SerializeEventStream(const EventStream& events);

}  // namespace lsbench

#endif  // LSBENCH_CORE_EVENT_SINK_H_
