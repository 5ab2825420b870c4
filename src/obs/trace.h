#ifndef LSBENCH_OBS_TRACE_H_
#define LSBENCH_OBS_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/annotate.h"
#include "util/clock.h"

namespace lsbench {

/// One completed span, as recorded by a per-worker Tracer. Spans carry the
/// same provenance as OpEvents — (timestamp, worker, seq) — so trace shards
/// merge into one deterministic stream with exactly the event-shard
/// discipline: the merged order is a pure function of shard contents, never
/// of thread scheduling. Under a VirtualClock every timestamp is virtual,
/// making the merged trace bit-reproducible run to run.
struct TraceSpan {
  /// Span site name. Must point at storage that outlives the trace stream
  /// (in practice: a string literal at the LSBENCH_TRACE_SPAN site).
  const char* name = "";
  int64_t start_nanos = 0;  ///< Run-relative span start.
  int64_t end_nanos = 0;    ///< Run-relative span end.
  int32_t phase = 0;
  uint32_t worker = 0;
  uint64_t seq = 0;  ///< Per-shard record order (spans close in this order).
};

using TraceStream = std::vector<TraceSpan>;

/// Worker id stamped on driver-level (non-worker) spans. Sorts after every
/// real worker at equal timestamps, so orchestrator spans never interleave
/// worker ties.
inline constexpr uint32_t kDriverTraceWorker = 0xffffffffu;

/// One worker's span shard. Like EventSink, a Tracer is single-writer: each
/// worker records into its own instance with no synchronization, and the
/// shards are merged deterministically afterwards. A Tracer starts disabled
/// (all recording no-ops) until Bind() points it at the worker's clock.
class Tracer {
 public:
  explicit Tracer(uint32_t worker = 0) : worker_(worker) {}

  /// Arms the tracer: spans are timed against `clock` (the worker's private
  /// virtual clock in simulation mode) and stored relative to
  /// `run_start_nanos`. `clock` must outlive the tracer.
  void Bind(const Clock* clock, int64_t run_start_nanos) {
    clock_ = clock;
    run_start_nanos_ = run_start_nanos;
  }

  bool enabled() const { return clock_ != nullptr; }
  uint32_t worker() const { return worker_; }

  /// Current run-relative time. Requires enabled().
  int64_t NowRelNanos() const { return clock_->NowNanos() - run_start_nanos_; }

  /// Phase stamped on subsequently recorded spans.
  void set_phase(int32_t phase) { phase_ = phase; }

  /// Sizes the span arena for `n` more spans. All allocation happens here,
  /// off the measured loop; Record then fills slots by index.
  void Reserve(size_t n) { spans_.resize(used_ + n); }

  /// Records one completed span (run-relative endpoints), stamping
  /// provenance. No-op while disabled; allocation-free while the arena has
  /// room (growth is delegated to the cold slow path).
  LSBENCH_HOT_PATH
  LSBENCH_DETERMINISTIC
  void Record(const char* name, int64_t start_rel_nanos,
              int64_t end_rel_nanos) {
    if (!enabled()) return;
    TraceSpan span;
    span.name = name;
    span.start_nanos = start_rel_nanos;
    span.end_nanos = end_rel_nanos;
    span.phase = phase_;
    span.worker = worker_;
    span.seq = next_seq_++;
    if (used_ < spans_.size()) {
      spans_[used_++] = span;
    } else {
      RecordSlow(span);
    }
  }

  size_t recorded() const { return used_; }

  /// Moves the shard out, trimmed to what was actually recorded (the
  /// tracer is spent afterwards).
  TraceStream TakeSpans() {
    spans_.resize(used_);
    used_ = 0;
    return std::move(spans_);
  }

 private:
  /// Cold path: the arena is full. Grows the shard (allocates); out of
  /// line so the hot-alloc frontier is this function, not Record.
  void RecordSlow(const TraceSpan& span);

  uint32_t worker_;
  const Clock* clock_ = nullptr;
  int64_t run_start_nanos_ = 0;
  int32_t phase_ = 0;
  uint64_t next_seq_ = 0;
  /// Arena: slots [0, used_) hold recorded spans; the rest is headroom
  /// created by Reserve.
  TraceStream spans_;
  size_t used_ = 0;
};

/// RAII span: stamps the start on construction and records on destruction.
/// A null or unbound tracer makes both ends a branch and nothing else.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name)
      : tracer_(tracer != nullptr && tracer->enabled() ? tracer : nullptr),
        name_(name),
        start_rel_(tracer_ != nullptr ? tracer_->NowRelNanos() : 0) {}

  ~ScopedSpan() {
    if (tracer_ != nullptr) {
      tracer_->Record(name_, start_rel_, tracer_->NowRelNanos());
    }
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  const char* name_;
  int64_t start_rel_;
};

/// Merges per-worker span shards into one stream ordered by
/// (start, worker, seq) — the event-shard merge discipline applied to
/// traces. A single already-ordered shard passes through unchanged.
TraceStream MergeTraceShards(std::vector<TraceStream> shards);

}  // namespace lsbench

// The span macro. `tracer` is a `Tracer*` (may be null); `name` must be a
// string literal.
#define LSBENCH_TRACE_SPAN_CONCAT2(a, b) a##b
#define LSBENCH_TRACE_SPAN_CONCAT(a, b) LSBENCH_TRACE_SPAN_CONCAT2(a, b)
#define LSBENCH_TRACE_SPAN(tracer, name)                             \
  ::lsbench::ScopedSpan LSBENCH_TRACE_SPAN_CONCAT(lsbench_span_,     \
                                                  __LINE__)((tracer), \
                                                            (name))

#endif  // LSBENCH_OBS_TRACE_H_
