#include "core/workload_stream.h"

#include <utility>

#include "util/assert.h"
#include "workload/trace.h"

namespace lsbench {

WorkloadStream::WorkloadStream(const RunSpec* spec, Rng root,
                               double rate_scale, uint32_t worker,
                               uint32_t workers)
    : spec_(spec),
      root_(root),
      rate_scale_(rate_scale),
      worker_(worker),
      workers_(workers) {
  LSBENCH_ASSERT(spec != nullptr);
  LSBENCH_ASSERT(rate_scale > 0.0);
  LSBENCH_ASSERT(worker < workers);
}

void WorkloadStream::BeginPhase(size_t phase_idx, uint64_t num_operations,
                                uint64_t transition_operations,
                                int64_t now_rel_nanos) {
  LSBENCH_ASSERT(phase_idx < spec_->phases.size());
  const PhaseSpec& phase = spec_->phases[phase_idx];

  phase_idx_ = phase_idx;
  phase_ops_ = num_operations;
  transition_ops_ = transition_operations;
  issued_ = 0;

  prev_generator_ = std::move(generator_);
  trace_ = phase.trace.get();
  LSBENCH_ASSERT(trace_ == nullptr || num_operations == 0 ||
                 worker_ + (num_operations - 1) * workers_ < trace_->size());
  // Batch-key arena sizing: a batch op's keys stay valid until the
  // generator reuses the slot's ring entry. Inline and service paths keep
  // at most one drawn-ahead issue (Peek) live, but the admission queue
  // stores issues by value up to its capacity — so in [service] mode the
  // ring must outlast queue_capacity in-flight batches (+ the popped issue
  // and the peeked one).
  const size_t batch_arena_slots =
      spec_->service.enabled
          ? static_cast<size_t>(spec_->service.queue_capacity) + 2
          : size_t{4};
  if (trace_ == nullptr) {
    generator_ = std::make_unique<OperationGenerator>(
        &spec_->datasets[phase.dataset_index], phase,
        root_.Fork(phase_idx * 2 + 1).Next(), batch_arena_slots);
  }
  mix_rng_ = root_.Fork(phase_idx * 2 + 2);
  arrival_ = MakeArrivalProcess(phase.arrival,
                                phase.arrival_rate_qps * rate_scale_,
                                phase.arrival_amplitude,
                                phase.arrival_period_seconds);
  LSBENCH_ASSERT(!pending_.has_value());

  blend_ = phase_idx > 0 && prev_generator_ != nullptr &&
           transition_ops_ > 0 &&
           phase.transition_in != TransitionKind::kAbrupt;

  intended_rel_ = now_rel_nanos;
}

WorkloadStream::Issue WorkloadStream::Next() {
  if (ops_issued_ != nullptr) ops_issued_->Increment();
  LSBENCH_ASSERT(HasNext());
  if (pending_.has_value()) {
    Issue issue = *std::move(pending_);
    pending_.reset();
    return issue;
  }
  return Draw();
}

const WorkloadStream::Issue& WorkloadStream::Peek() {
  LSBENCH_ASSERT(HasNext());
  if (!pending_.has_value()) pending_ = Draw();
  return *pending_;
}

WorkloadStream::Issue WorkloadStream::Draw() {
  LSBENCH_PROFILE_STAGE(profiler_, Stage::kGenerate);
  const PhaseSpec& phase = spec_->phases[phase_idx_];
  const uint64_t op_idx = issued_++;

  // Pick the source: a trace phase replays this worker's stride of its
  // entries. Otherwise it is the phase's generator, except that during a
  // transition window the old phase's stream fades out per the ramp.
  OperationGenerator* source = generator_.get();
  if (blend_ && op_idx < transition_ops_) {
    const double progress =
        static_cast<double>(op_idx) / static_cast<double>(transition_ops_);
    const double new_fraction =
        TransitionMixFraction(phase.transition_in, progress);
    if (!mix_rng_.NextBool(new_fraction)) source = prev_generator_.get();
  }

  Issue issue;
  issue.op = trace_ != nullptr
                 ? trace_->operations()[worker_ + op_idx * workers_]
                 : source->Next();

  // Arrival pacing: open-loop streams fix the intended arrival times;
  // closed-loop issues immediately after the previous completion.
  const double inter = arrival_->NextInterarrivalSeconds(
      &mix_rng_, static_cast<double>(intended_rel_) * 1e-9);
  if (inter <= 0.0) {
    issue.arrival_rel_nanos = last_completion_rel_;
    issue.open_loop = false;
  } else {
    intended_rel_ += static_cast<int64_t>(inter * 1e9);
    issue.arrival_rel_nanos = intended_rel_;
    issue.open_loop = true;
  }
  return issue;
}

}  // namespace lsbench
