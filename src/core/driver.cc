#include "core/driver.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <string>
#include <unordered_set>
#include <utility>

#include "core/event_sink.h"
#include "core/executor.h"
#include "core/service.h"
#include "core/workload_stream.h"
#include "obs/observability.h"
#include "sut/concurrent_kv.h"
#include "sut/serializing.h"
#include "sut/systems.h"
#include "util/assert.h"
#include "util/fan_out.h"
#include "util/sync.h"

namespace lsbench {

namespace {

/// Process-wide registry of spec hashes whose hold-out phases have already
/// executed (§V-A: hold-out distributions may only run once). Heap-allocated
/// and never destroyed (trivial-destruction rule for statics). Its mutex
/// lets drivers on different threads check and insert without a race.
struct HoldoutRegistry {
  Mutex mu;
  std::unordered_set<uint64_t> executed LSBENCH_GUARDED_BY(mu);
};

HoldoutRegistry& Holdouts() {
  static auto* registry = new HoldoutRegistry();
  return *registry;
}

/// Atomically records `hash` as executed; returns false if it already was
/// (the spec must be rejected).
bool TryClaimHoldout(uint64_t hash) {
  HoldoutRegistry& registry = Holdouts();
  MutexLock lock(registry.mu);
  return registry.executed.insert(hash).second;
}

/// Stream tag for per-worker RNG roots. Worker 0's root is the master
/// itself, so enabling fan-out never perturbs the single-worker stream.
constexpr uint64_t kWorkerStreamTag = 0x3077ab5cULL;

/// Stream tag for the backoff-jitter fork (historical constant — worker 0
/// must reproduce the monolithic driver's backoff sequence).
constexpr uint64_t kBackoffStreamTag = 0x0ba2c0ffULL;

/// Headroom of each worker's outcome arena over its expected batch-element
/// count, in binomial standard deviations of the batch-unit count
/// (ExpectedBatchElements). A worker that draws past it records through
/// EventSink's allocating overflow path, recording the same events.
constexpr double kArenaMarginSigmas = 6.0;

/// What a phase's transition window can draw: batch units of up to
/// `batch_size` elements, each draw a batch with at most `probability`.
struct PhaseBatchDraws {
  double probability = 0.0;
  uint64_t batch_size = 1;
};

/// Phase `i`'s draws: transition blending can carry the previous phase's
/// batch class into this phase's window, so a phase can draw the larger of
/// the two phases' batch sizes, with the larger of their batch
/// probabilities. Trace phases are scalar-only.
PhaseBatchDraws BatchDrawsOfPhase(const RunSpec& spec, size_t i) {
  const auto batch_probability = [](const PhaseSpec& p) {
    const double total = p.mix.Total();
    if (p.trace != nullptr || total <= 0.0) return 0.0;
    return (p.mix.batch_get + p.mix.batch_put) / total;
  };
  double prob = batch_probability(spec.phases[i]);
  uint64_t size = prob > 0.0 ? spec.phases[i].batch_size : 1;
  if (i > 0) {
    const double prev_prob = batch_probability(spec.phases[i - 1]);
    prob = std::max(prob, prev_prob);
    if (prev_prob > 0.0) {
      size = std::max<uint64_t>(size, spec.phases[i - 1].batch_size);
    }
  }
  return {prob, size};
}

/// One worker's slice of the staged execution core: its workload stream,
/// resilient executor (with its fault lane), event shard and clocks.
struct WorkerContext {
  const Clock* clock = nullptr;
  /// The virtual clock this worker paces against in simulation mode: the
  /// driver's own clock at workers == 1, a private per-worker clock under
  /// fan-out, nullptr on the real clock.
  VirtualClock* sim_clock = nullptr;
  std::optional<VirtualClock> private_clock;  ///< Simulation fan-out only.
  std::optional<WorkloadStream> stream;
  std::optional<ResilientExecutor> executor;
  /// Per-element result arena for every request unit, sized once (off the
  /// measured loop) to the run's largest batch so the hot loop never
  /// allocates.
  std::vector<OpResult> batch_results;
  /// Armed only in [service] mode; persists across phases (the shed budget
  /// and the smoothed service time are run-scoped, like the breaker).
  std::optional<AdmissionQueue> admission;
  EventSink sink{0};
  int32_t current_phase = 0;
  /// Armed only when the spec enables observability (and the build keeps
  /// hooks). Heap-held: WorkerObs is immovable (it owns a Mutex) while
  /// WorkerContext lives in a resizable vector.
  std::unique_ptr<WorkerObs> obs;
};

/// The event builder: records one request unit as one event. Every element
/// shares the unit's timestamps and outcome; a batch unit's elements keep
/// their own data-level ok/rows from `results` beside it (a scalar op is a
/// unit of one). The issue time is `issue_rel` clamped to the completion:
/// inline pacing issues a unit the moment its arrival is due, so that is
/// the intended arrival; the admission step issues it when it pops from
/// the queue.
///
/// `results == nullptr` records a queue shed: no SUT work happened, so it
/// completes at its decision point, and its response time still counts
/// from the intended arrival — a dropped request is a served-badly request,
/// not a missing sample.
void RecordUnit(WorkerContext* ctx, const WorkloadStream::Issue& issue,
                int64_t issue_rel, int64_t completion_rel,
                const ExecOutcome& outcome, const OpResult* results) {
  OpEvent proto;
  proto.timestamp_nanos = completion_rel;
  proto.latency_nanos =
      std::max<int64_t>(0, completion_rel - issue.arrival_rel_nanos);
  proto.issue_nanos = std::min(issue_rel, completion_rel);
  proto.phase = ctx->current_phase;
  proto.type = issue.op.type;
  proto.retries = outcome.retries;
  proto.failed = outcome.failed;
  proto.timed_out = outcome.timed_out;
  proto.shed = outcome.shed;
  proto.open_loop = issue.open_loop;
  proto.batch = OpResultCount(issue.op);
  if (results != nullptr) {
    ctx->sink.RecordBatch(proto, results, proto.batch);
  } else {
    ctx->sink.RecordQueueShed(proto);
  }
}

/// Drains one worker's current phase: obtain the next request unit, execute
/// it resiliently, record its events. Every worker runs this one loop, for
/// every arrival mode and op class.
///
/// Only obtaining the next unit depends on the mode:
///   - inline (closed loop, or open loop without [service]): draw the next
///     issue after the previous completion, then pace to its arrival;
///   - [service]: fire every due arrival into the bounded admission queue
///     (the overload policy sheds what cannot be served), pace only while
///     the queue is empty, and pop. A unit's issue time can then lag its
///     intended arrival — the queue wait coordinated-omission-correct
///     latency must include.
///
/// The loop is a template over the executor's attempt-dispatch policy: the
/// driver selects — once per run — either the generic VirtualExec engine
/// or a MonoExec<SutT> instantiation with the proven final SUT type baked
/// in, so the steady state makes zero virtual calls per operation.
template <typename Exec>
void RunWorkerPhaseT(WorkerContext* ctx, int64_t run_start_nanos,
                     const Exec exec) {
  WorkloadStream& stream = *ctx->stream;
  ResilientExecutor& executor = *ctx->executor;
  AdmissionQueue* queue = ctx->admission ? &*ctx->admission : nullptr;
  const Pacer pacer(ctx->clock, ctx->sim_clock);
  StageProfiler* profiler =
      ctx->obs != nullptr ? &ctx->obs->profiler : nullptr;
  OpResult* results = ctx->batch_results.data();

  WorkloadStream::Issue issue;
  int64_t issue_rel = 0;
  const auto next_unit = [&]() -> bool {
    if (queue == nullptr) {
      if (!stream.HasNext()) return false;
      issue = stream.Next();
      {
        LSBENCH_PROFILE_STAGE(profiler, Stage::kPace);
        // A closed-loop arrival is the previous completion, already past.
        if (issue.open_loop) {
          pacer.PaceUntil(run_start_nanos + issue.arrival_rel_nanos);
        }
      }
      issue_rel = issue.arrival_rel_nanos;
      return true;
    }
    while (stream.HasNext() || !queue->empty()) {
      const int64_t now_rel = ctx->clock->NowNanos() - run_start_nanos;
      // Fire every arrival that is due. Admission consults the breaker: a
      // non-closed state means the SUT is degraded and the SLO-aware
      // policy sheds more eagerly. Sheds do not advance the virtual clock
      // (that keeps overload schedules hand-computable).
      while (stream.HasNext() &&
             stream.Peek().arrival_rel_nanos <= now_rel) {
        const CircuitBreaker* breaker = executor.breaker();
        const bool degraded =
            breaker != nullptr &&
            breaker->state() != CircuitBreaker::State::kClosed;
        const WorkloadStream::Issue arrival = stream.Next();
        const AdmissionQueue::Admission admission =
            queue->Offer(arrival, now_rel, degraded);
        if (admission.shed.has_value()) {
          RecordUnit(ctx, *admission.shed, now_rel, now_rel, ExecOutcome{},
                     nullptr);
        }
      }
      if (!queue->empty()) {
        issue = queue->PopFront(now_rel);
        issue_rel = now_rel;
        return true;
      }
      if (!stream.HasNext()) break;
      LSBENCH_PROFILE_STAGE(profiler, Stage::kPace);
      pacer.PaceUntil(run_start_nanos + stream.Peek().arrival_rel_nanos);
    }
    return false;
  };

  while (next_unit()) {
    const ExecOutcome outcome =
        executor.Execute(exec, issue.op, issue.arrival_rel_nanos, results);
    const int64_t completion_rel = ctx->clock->NowNanos() - run_start_nanos;
    if (queue != nullptr) queue->RecordServiceTime(completion_rel - issue_rel);
    RecordUnit(ctx, issue, issue_rel, completion_rel, outcome, results);
    stream.RecordCompletion(completion_rel);
  }
}

// ---- Engine selection ----
// One worker-loop entry point per engine, all of one signature, so a phase
// calls a plain function pointer. The mono entry's static_cast is reached
// only after SelectEngine proved the runtime type via dynamic_cast.

using PhaseFn = void (*)(WorkerContext*, SystemUnderTest*, int64_t);

void RunWorkerPhaseVirtual(WorkerContext* ctx, SystemUnderTest* sut,
                           int64_t run_start_nanos) {
  RunWorkerPhaseT(ctx, run_start_nanos, VirtualExec{sut});
}

template <typename SutT>
void RunWorkerPhaseMono(WorkerContext* ctx, SystemUnderTest* sut,
                        int64_t run_start_nanos) {
  RunWorkerPhaseT(ctx, run_start_nanos,
                  MonoExec<SutT>{static_cast<SutT*>(sut)});
}

/// Picks the execution engine for the run. Monomorphization
/// is sound only on a proven exact runtime type — all cases below are
/// final classes, so a successful dynamic_cast is such a proof. The
/// driver's own SerializingSut wrapper is itself in the chain: the mono
/// engine binds the *wrapper's* Execute/ExecuteBatch statically (the lock
/// still guards every call; only the outer virtual dispatch is removed),
/// so serial SUTs under fan-out keep a monomorphized loop. User-supplied
/// SUTs and decorators fail every cast and fall back to the generic virtual
/// engine, preserving their must-see-every-call semantics.
PhaseFn SelectEngine(SystemUnderTest* target) {
  if (dynamic_cast<BTreeSystem*>(target) != nullptr) {
    return &RunWorkerPhaseMono<BTreeSystem>;
  }
  if (dynamic_cast<LearnedKvSystem*>(target) != nullptr) {
    return &RunWorkerPhaseMono<LearnedKvSystem>;
  }
  if (dynamic_cast<PartitionedKvSystem*>(target) != nullptr) {
    return &RunWorkerPhaseMono<PartitionedKvSystem>;
  }
  if (dynamic_cast<SerializingSut*>(target) != nullptr) {
    return &RunWorkerPhaseMono<SerializingSut>;
  }
  return &RunWorkerPhaseVirtual;
}

}  // namespace

double RunResult::OfflineTrainSeconds() const {
  double total = 0.0;
  for (const TrainEvent& t : train_events) total += t.Seconds();
  return total;
}

uint64_t ExpectedBatchElements(uint64_t ops, double batch_probability,
                               uint64_t batch_size, double margin_sigmas) {
  LSBENCH_ASSERT(margin_sigmas >= 0.0);
  if (batch_size <= 1 || batch_probability <= 0.0) return 0;
  const uint64_t worst = ops * batch_size;
  const double units = static_cast<double>(ops) * batch_probability;
  const double spread =
      std::sqrt(units * std::max(0.0, 1.0 - batch_probability));
  const double bound =
      (units + margin_sigmas * spread) * static_cast<double>(batch_size);
  return bound < static_cast<double>(worst)
             ? static_cast<uint64_t>(std::ceil(bound))
             : worst;
}

void ReserveWorkerSink(const RunSpec& spec, uint32_t worker,
                       EventSink* sink) {
  const uint32_t workers = spec.execution.workers;
  uint64_t units = 0;
  uint64_t outcomes = 0;
  for (size_t i = 0; i < spec.phases.size(); ++i) {
    const uint64_t ops =
        WorkerShare(spec.phases[i].num_operations, workers, worker);
    const PhaseBatchDraws draws = BatchDrawsOfPhase(spec, i);
    units += ops;
    outcomes += ExpectedBatchElements(ops, draws.probability,
                                      draws.batch_size, kArenaMarginSigmas);
  }
  sink->Reserve(units, outcomes);
}

Status AuditUnitAccounting(const std::vector<ShardAccumulation>& worker_folds,
                           const RunMetrics& metrics) {
  const uint32_t workers = static_cast<uint32_t>(worker_folds.size());
  if (workers == 0) return Status::OK();
  const std::vector<PhaseBoundary>& boundaries = worker_folds[0].boundaries;
  for (size_t p = 0; p < boundaries.size(); ++p) {
    const std::string phase = "phase " + std::to_string(boundaries[p].phase);
    uint64_t elements = 0;
    for (uint32_t w = 0; w < workers; ++w) {
      const PhaseAccumulation& fold = worker_folds[w].phases[p];
      const uint64_t share = WorkerShare(boundaries[p].operations, workers, w);
      if (fold.units != share) {
        return Status::Internal(
            phase + " worker " + std::to_string(w) + ": recorded " +
            std::to_string(fold.units) + " request units, but its share of "
            "the phase's " + std::to_string(boundaries[p].operations) +
            " is " + std::to_string(share));
      }
      elements += fold.operations;
    }
    if (p >= metrics.phases.size() ||
        metrics.phases[p].operations != elements) {
      return Status::Internal(
          phase + ": the workers' units carry " + std::to_string(elements) +
          " elements, but the phase's metrics count " +
          (p < metrics.phases.size()
               ? std::to_string(metrics.phases[p].operations)
               : std::string("none")));
    }
  }
  return Status::OK();
}

Status AuditRegistryCounters(const MetricsSnapshot& metrics,
                             const ShardAccumulation& run_fold,
                             const ServiceSpec& service) {
  const auto check = [&metrics](const std::string& name, uint64_t folded,
                                const char* what) {
    uint64_t counted = 0;
    for (const auto& [metric, value] : metrics.counters) {
      if (metric == name) counted = value;
    }
    if (counted == folded) return Status::OK();
    return Status::Internal("counter " + name + " = " +
                            std::to_string(counted) + ", but the folds count " +
                            std::to_string(folded) + " " + what);
  };
  uint64_t units = 0;
  for (const PhaseAccumulation& phase : run_fold.phases) units += phase.units;
  LSBENCH_RETURN_IF_ERROR(check("stream.ops_issued", units, "request units"));
  LSBENCH_RETURN_IF_ERROR(
      check("sink.events_recorded", run_fold.operations, "elements"));
  LSBENCH_RETURN_IF_ERROR(
      check("executor.attempts", run_fold.attempts, "attempts"));
  LSBENCH_RETURN_IF_ERROR(check("service.shed", run_fold.queue_shed_units,
                                "queue-shed request units"));
  if (!service.enabled) return Status::OK();
  // Every unit of a service run is offered to its worker's queue once.
  // Drop-newest and SLO sheds refuse the arrival; drop-oldest admits every
  // arrival and sheds a unit it admitted earlier.
  const uint64_t refused = service.policy == OverloadPolicy::kDropOldest
                               ? 0
                               : run_fold.queue_shed_units;
  return check("service.admitted", units - refused,
               "offered request units not shed on arrival");
}

uint64_t WorkerShare(uint64_t total, uint32_t workers, uint32_t worker) {
  LSBENCH_ASSERT(workers > 0 && worker < workers);
  return total / workers + (worker < total % workers ? 1 : 0);
}

namespace {

/// One BenchmarkDriver::Run: SetUp claims the hold-out, loads and trains
/// the SUT and builds the workers; RunPhase runs a phase to its barrier;
/// Finish folds, merges and audits. Each returns the run's first error.
class RunSession {
 public:
  RunSession(const RunSpec& spec, SystemUnderTest* sut, const Clock* clock,
             const DriverOptions& options)
      : spec_(spec), sut_(sut), clock_(clock), options_(options) {}

  Status SetUp();
  Status RunPhase(size_t phase_idx);
  Result<RunResult> Finish();

 private:
  Status LoadAndTrain();
  void ArmWorkerObs(WorkerContext* ctx, uint32_t w, uint64_t total_ops) const;
  Status CollectObservability(const ShardAccumulation& run_fold);

  const RunSpec& spec_;
  SystemUnderTest* sut_;  ///< Behind `serializer_` once SetUp adds one.
  const Clock* const clock_;
  const DriverOptions& options_;
  const uint32_t workers_ = spec_.execution.workers;
  std::optional<SerializingSut> serializer_;
  std::unique_ptr<WorkerObs> driver_obs_;  ///< Null with observability off.
  RunResult result_;
  int64_t run_start_ = 0;  ///< What run-relative times count from.
  std::vector<WorkerContext> contexts_;
  PhaseFn run_worker_ = nullptr;
};

Status RunSession::SetUp() {
  if (spec_.HasHoldout() && options_.enforce_holdout_once &&
      !TryClaimHoldout(spec_.StructuralHash())) {
    return Status::FailedPrecondition(
        "spec '" + spec_.name +
        "' contains hold-out phases and has already executed once");
  }
  result_.sut_name = sut_->name();
  result_.run_name = spec_.name;

  // ---- SUT concurrency contract ----
  // Serial systems keep working under fan-out behind a driver-side lock;
  // thread-safe systems run bare.
  if (workers_ > 1 && sut_->concurrency() == SutConcurrency::kSerial) {
    serializer_.emplace(sut_);
    sut_ = &*serializer_;
  }

  // ---- Observability arming (driver level) ----
  // The driver's shard times load/train and merge/metrics, and holds the
  // SUT's registry instruments (thread-safe, as every worker shares the
  // SUT). Workers get private shards below.
  const ObservabilitySpec& obs_spec = spec_.observability;
  if (obs_spec.Enabled()) {
    driver_obs_ = std::make_unique<WorkerObs>(kDriverTraceWorker);
    if (obs_spec.profile) driver_obs_->profiler.Bind(clock_);
    if (obs_spec.metrics) sut_->BindObservability(&driver_obs_->registry);
  }
  LSBENCH_RETURN_IF_ERROR(LoadAndTrain());

  // ---- Execution ----
  run_start_ = clock_->NowNanos();
  if (driver_obs_ != nullptr && obs_spec.trace) {
    driver_obs_->tracer.Bind(clock_, run_start_);
  }
  const Rng master(spec_.seed);

  ResilientExecutor::Options exec_options;
  exec_options.run_start_nanos = run_start_;
  exec_options.virtual_service_nanos = options_.virtual_service_nanos;
  if (!spec_.faults.windows.empty()) exec_options.faults = &spec_.faults;

  contexts_ = std::vector<WorkerContext>(workers_);
  uint64_t total_ops = 0;
  for (const PhaseSpec& p : spec_.phases) total_ops += p.num_operations;
  uint64_t max_batch = 1;
  for (size_t i = 0; i < spec_.phases.size(); ++i) {
    max_batch = std::max(max_batch, BatchDrawsOfPhase(spec_, i).batch_size);
  }

  for (uint32_t w = 0; w < workers_; ++w) {
    WorkerContext& ctx = contexts_[w];
    ctx.sink = EventSink(w);
    ReserveWorkerSink(spec_, w, &ctx.sink);
    ctx.batch_results.resize(max_batch);

    // Clocks: a single worker shares the driver's; simulated fan-out gives
    // each worker a private virtual clock, synchronized at phase barriers.
    if (workers_ > 1 && options_.virtual_clock != nullptr) {
      ctx.private_clock.emplace();
      ctx.private_clock->SetNanos(run_start_);
      ctx.clock = &*ctx.private_clock;
      ctx.sim_clock = &*ctx.private_clock;
    } else {
      ctx.clock = clock_;
      ctx.sim_clock = options_.virtual_clock;  // nullptr on the real clock.
    }

    // RNG roots: worker 0 IS the master stream (bit-identity), workers
    // w > 0 fork disjoint streams.
    const Rng root = w == 0 ? master : master.Fork(kWorkerStreamTag + w);
    ctx.stream.emplace(&spec_, root, 1.0 / static_cast<double>(workers_), w,
                       workers_);

    exec_options.worker = w;
    ctx.executor.emplace(sut_, spec_.resilience,
                         Pacer(ctx.clock, ctx.sim_clock),
                         root.Fork(kBackoffStreamTag).Next(), exec_options);
    if (spec_.service.enabled) ctx.admission.emplace(spec_.service);
    if (obs_spec.Enabled()) ArmWorkerObs(&ctx, w, total_ops);
  }

  run_worker_ = SelectEngine(sut_);  // Once per run.
  return Status::OK();
}

Status RunSession::LoadAndTrain() {
  // ---- Load ----
  // The SUT loads phase 0's dataset from its keys, key i holding value i.
  // The driver calls LoadKeys once and never retries it, so any injected
  // load failure fails the run.
  if (spec_.faults.fail_load) {
    return Status::IoError("injected fault: load I/O error");
  }
  const Stopwatch load_watch(clock_);
  LSBENCH_RETURN_IF_ERROR(
      sut_->LoadKeys(spec_.datasets[spec_.phases[0].dataset_index].keys));
  result_.load_seconds = load_watch.ElapsedSeconds();
  if (driver_obs_ != nullptr) {
    driver_obs_->profiler.Add(Stage::kLoad, load_watch.ElapsedNanos());
  }

  // ---- Offline training (timed, first-class) ----
  // Phase 0's fault window may hang training (paced on the driver's clock)
  // and fail it before it reaches the SUT.
  if (!spec_.offline_training) return Status::OK();
  const FaultWindow* train_faults = spec_.faults.WindowForPhase(0);
  TrainEvent te;
  te.start_nanos = clock_->NowNanos();
  TrainReport report;
  if (train_faults != nullptr && train_faults->train_hang_nanos > 0) {
    ++result_.fault_stats.hung_trains;
    Pacer(clock_, options_.virtual_clock)
        .PaceUntil(te.start_nanos + train_faults->train_hang_nanos);
  }
  if (train_faults != nullptr && train_faults->fail_train) {
    ++result_.fault_stats.failed_trains;
    report.status = Status::Unavailable("injected fault: training failed");
  } else {
    report = sut_->Train();
  }
  te.end_nanos = clock_->NowNanos();
  te.work_items = report.work_items;
  te.ok = report.status.ok();
  if (report.trained || !te.ok) result_.train_events.push_back(te);
  if (driver_obs_ != nullptr) {
    driver_obs_->profiler.Add(Stage::kTrain, te.end_nanos - te.start_nanos);
  }
  return Status::OK();
}

/// Arms worker `ctx`'s observability shard. The hooks only *read* the
/// worker's clock — they never advance it or draw randomness — so arming
/// them cannot perturb the operation stream (pinned by test).
void RunSession::ArmWorkerObs(WorkerContext* ctx, uint32_t w,
                              uint64_t total_ops) const {
  const ObservabilitySpec& obs_spec = spec_.observability;
  ctx->obs = std::make_unique<WorkerObs>(w);
  Tracer* tracer = obs_spec.trace ? &ctx->obs->tracer : nullptr;
  StageProfiler* profiler = obs_spec.profile ? &ctx->obs->profiler : nullptr;
  MetricsRegistry* registry = obs_spec.metrics ? &ctx->obs->registry : nullptr;
  if (tracer != nullptr) {
    tracer->Bind(ctx->clock, run_start_);
    tracer->Reserve(static_cast<size_t>(std::min<uint64_t>(
        WorkerShare(total_ops, workers_, w), uint64_t{1} << 20)));
  }
  if (profiler != nullptr) profiler->Bind(ctx->clock);
  const auto counter = [registry](const std::string& name) {
    return registry != nullptr ? registry->GetCounter(name) : nullptr;
  };
  ctx->stream->BindObservability(profiler, counter("stream.ops_issued"));
  ctx->sink.BindObservability(profiler, counter("sink.events_recorded"));
  ctx->executor->BindObservability(tracer, profiler, registry);
  if (ctx->admission.has_value() && registry != nullptr) {
    ctx->admission->BindObservability(
        registry->GetGauge("service.queue_depth"),
        registry->GetGauge("service.queue_peak_depth"),
        registry->GetCounter("service.admitted"),
        registry->GetCounter("service.shed"),
        registry->GetHistogram("service.queue_wait"));
  }
}

Status RunSession::RunPhase(size_t phase_idx) {
  const PhaseSpec& phase = spec_.phases[phase_idx];
  const int32_t phase_id = static_cast<int32_t>(phase_idx);

  PhaseBoundary boundary;
  boundary.phase = phase_id;
  boundary.holdout = phase.holdout;
  boundary.start_nanos = clock_->NowNanos() - run_start_;

  // Exactly one notification per phase, through the full wrapper chain.
  sut_->OnPhaseStart(phase_id, phase.holdout);

  for (uint32_t w = 0; w < workers_; ++w) {
    WorkerContext& ctx = contexts_[w];
    ctx.current_phase = phase_id;
    ctx.executor->BeginPhase(phase_id);
    if (ctx.obs != nullptr) {
      ctx.obs->tracer.set_phase(phase_id);
      ctx.obs->profiler.set_phase(phase_id);
    }
    ctx.stream->BeginPhase(
        phase_idx, WorkerShare(phase.num_operations, workers_, w),
        WorkerShare(phase.transition_operations, workers_, w),
        ctx.clock->NowNanos() - run_start_);
  }

  if (options_.virtual_clock != nullptr) {
    // Simulated fan-out: the workers run one after another, each on its
    // own virtual clock, then a *virtual barrier* advances every clock to
    // the latest (a single worker's clock is the driver's: nothing moves).
    int64_t barrier = options_.virtual_clock->NowNanos();
    for (WorkerContext& ctx : contexts_) {
      run_worker_(&ctx, sut_, run_start_);
      barrier = std::max(barrier, ctx.sim_clock->NowNanos());
    }
    const auto advance = [barrier](VirtualClock* clock) {
      if (clock->NowNanos() < barrier) clock->SetNanos(barrier);
    };
    for (WorkerContext& ctx : contexts_) advance(ctx.sim_clock);
    advance(options_.virtual_clock);
  } else {
    // Real-clock fan-out: worker 0 runs on this thread and each other
    // worker on a thread of its own; ForEachBlock's join is the barrier.
    const size_t on_caller = ForEachBlock(workers_, [this](size_t w) {
      run_worker_(&contexts_[w], sut_, run_start_);
    });
    if (on_caller != 0) {
      return Status::ResourceExhausted(
          "phase " + std::to_string(phase_idx) + ": " +
          std::to_string(on_caller) + " of " + std::to_string(workers_) +
          " worker threads failed to start, so workers ran one at a time");
    }
  }

  boundary.end_nanos = clock_->NowNanos() - run_start_;
  boundary.operations = phase.num_operations;
  result_.boundaries.push_back(boundary);

  // The driver's phase span, from the measured boundary (no-op unbound).
  if (driver_obs_ != nullptr) {
    driver_obs_->tracer.set_phase(phase_id);
    driver_obs_->tracer.Record("phase", boundary.start_nanos,
                               boundary.end_nanos);
  }
  return Status::OK();
}

Result<RunResult> RunSession::Finish() {
  // ---- Fold metrics per worker, then merge and expand the units ----
  // Every figure but the adjustment-window excess is an order-free fold,
  // weighted by element counts, so each worker's units fold in a block of
  // ForEachBlock (a block run on the calling thread folds the same) and
  // the folds merge exactly. A fold fails the run on an out-of-order
  // shard. The units then merge into (timestamp, worker, seq) order and
  // expand into the per-element stream once, in that order.
  Stopwatch metrics_watch(clock_);
  const MetricsOptions metrics_options = MetricsOptions::FromSpec(spec_);
  std::vector<UnitShard> shards;
  std::vector<const EventStream*> unit_ptrs;
  shards.reserve(workers_);
  for (WorkerContext& ctx : contexts_) shards.push_back(ctx.sink.TakeUnits());
  for (const UnitShard& shard : shards) unit_ptrs.push_back(&shard.units);
  const ShardAccumulation empty_fold(
      result_.boundaries, metrics_options,
      ResolveSla(unit_ptrs, metrics_options, EventGrain::kUnit));
  std::vector<ShardAccumulation> folds(workers_, empty_fold);
  std::vector<Status> fold_status(workers_);
  ForEachBlock(workers_, [&folds, &fold_status, &shards](size_t w) {
    fold_status[w] = folds[w].AccumulateUnits(shards[w]);
  });
  ShardAccumulation run_fold = empty_fold;
  for (uint32_t w = 0; w < workers_; ++w) {
    if (!fold_status[w].ok()) {
      return Status::Internal("worker " + std::to_string(w) +
                              " shard: " + fold_status[w].message());
    }
    run_fold.Merge(folds[w]);
  }
  int64_t metrics_nanos = metrics_watch.ElapsedNanos();

  // The merged units get room for every element, so ExpandUnits writes
  // them in place instead of beside a copy of the units.
  Stopwatch merge_watch(clock_);
  std::vector<EventStream> unit_shards;
  unit_shards.reserve(workers_);
  for (UnitShard& shard : shards) unit_shards.push_back(std::move(shard.units));
  EventStream units =
      MergeEventShards(std::move(unit_shards), run_fold.operations);
  int64_t merge_nanos = merge_watch.ElapsedNanos();

  metrics_watch.Restart();
  result_.metrics = FinalizeRunMetrics(run_fold, units, metrics_options,
                                       EventGrain::kUnit);
  LSBENCH_RETURN_IF_ERROR(AuditUnitAccounting(folds, result_.metrics));
  metrics_nanos += metrics_watch.ElapsedNanos();

  merge_watch.Restart();
  result_.events = ExpandUnits(std::move(units), std::move(shards),
                               run_fold.operations);
  merge_nanos += merge_watch.ElapsedNanos();
  if (driver_obs_ != nullptr) {
    driver_obs_->profiler.set_phase(PhaseStageBreakdown::kRunLevelPhase);
    driver_obs_->profiler.Add(Stage::kMerge, merge_nanos);
    driver_obs_->profiler.Add(Stage::kMetrics, metrics_nanos);
  }
  // Driver-owned resilience state the metric layer cannot derive from the
  // event stream alone. A breaker still open at run end was degraded until
  // the last phase ended, not through the harness work after it.
  const int64_t run_end = run_start_ + result_.boundaries.back().end_nanos;
  for (const TrainEvent& te : result_.train_events) {
    result_.metrics.resilience.failed_trains += te.ok ? 0 : 1;
  }
  for (const WorkerContext& ctx : contexts_) {
    if (const FaultLane* lane = ctx.executor->faults()) {
      result_.fault_stats.injected_failures += lane->stats().injected_failures;
      result_.fault_stats.injected_spikes += lane->stats().injected_spikes;
      result_.fault_stats.injected_stalls += lane->stats().injected_stalls;
    }
    const CircuitBreaker* breaker = ctx.executor->breaker();
    if (breaker == nullptr) continue;
    result_.metrics.resilience.breaker_opens += breaker->open_count();
    result_.metrics.resilience.degraded_seconds +=
        static_cast<double>(breaker->DegradedNanos(run_end)) * 1e-9;
  }
  result_.final_sut_stats = sut_->GetStats();
  LSBENCH_RETURN_IF_ERROR(CollectObservability(run_fold));
  return std::move(result_);
}

/// Worker shards plus the driver's own shard merge exactly like event
/// shards: the result is a pure function of shard contents.
Status RunSession::CollectObservability(const ShardAccumulation& run_fold) {
  const ObservabilitySpec& obs_spec = spec_.observability;
  result_.observability.spec = obs_spec;
  if (!obs_spec.Enabled()) return Status::OK();
  std::vector<TraceStream> trace_shards;
  std::vector<MetricsSnapshot> metric_shards;
  for (WorkerContext& ctx : contexts_) {
    if (ctx.obs == nullptr) continue;
    trace_shards.push_back(ctx.obs->tracer.TakeSpans());
    MergeStageBreakdown(&result_.observability.stages,
                        ctx.obs->profiler.Breakdown());
    metric_shards.push_back(ctx.obs->registry.Snapshot());
  }
  if (driver_obs_ != nullptr) {
    trace_shards.push_back(driver_obs_->tracer.TakeSpans());
    MergeStageBreakdown(&result_.observability.stages,
                        driver_obs_->profiler.Breakdown());
    metric_shards.push_back(driver_obs_->registry.Snapshot());
  }
  if (obs_spec.trace) {
    result_.observability.trace = MergeTraceShards(std::move(trace_shards));
  }
  if (!obs_spec.metrics) return Status::OK();
  LSBENCH_ASSIGN_OR_RETURN(result_.observability.metrics,
                           MergeMetricsShards(metric_shards));
  return AuditRegistryCounters(result_.observability.metrics, run_fold,
                               spec_.service);
}

}  // namespace

BenchmarkDriver::BenchmarkDriver(const Clock* clock, DriverOptions options)
    : clock_(clock != nullptr ? clock : &default_clock_), options_(options) {
  if (options_.virtual_clock != nullptr) {
    LSBENCH_ASSERT_MSG(clock == options_.virtual_clock,
                       "simulation mode requires clock == virtual_clock");
  }
}

void BenchmarkDriver::ResetHoldoutRegistryForTesting() {
  HoldoutRegistry& registry = Holdouts();
  MutexLock lock(registry.mu);
  registry.executed.clear();
}

Result<RunResult> BenchmarkDriver::Run(const RunSpec& spec,
                                       SystemUnderTest* sut) {
  LSBENCH_ASSERT(sut != nullptr);
  LSBENCH_RETURN_IF_ERROR(spec.Validate());
  RunSession session(spec, sut, clock_, options_);
  LSBENCH_RETURN_IF_ERROR(session.SetUp());
  for (size_t i = 0; i < spec.phases.size(); ++i) {
    LSBENCH_RETURN_IF_ERROR(session.RunPhase(i));
  }
  return session.Finish();
}

}  // namespace lsbench
