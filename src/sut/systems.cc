#include "sut/systems.h"

#include <algorithm>
#include <variant>

#include "util/assert.h"

namespace lsbench {

namespace {
constexpr size_t kScanChunk = 1024;
// KS drift checks sort reference+window samples (~30 us); amortize them.
constexpr uint64_t kDriftCheckEvery = 512;

/// The per-element batch loop of every KvIndex-backed system. Over a final
/// class (BTree, RmiIndex, PgmIndex) the Get/Insert calls devirtualize and
/// inline, which is where the native batch paths shed the per-element
/// KvIndex virtual dispatch; over KvIndex itself they stay virtual.
template <typename IndexT>
void ExecuteBatchDirect(IndexT* idx, const Operation& op, OpResult* results) {
  if (op.type == OpType::kBatchGet) {
    for (uint32_t i = 0; i < op.batch_size; ++i) {
      OpResult& r = results[i];
      r.status = Status::OK();
      r.ok = idx->Get(op.batch_keys[i]).has_value();
      r.rows = r.ok ? 1 : 0;
    }
  } else {
    for (uint32_t i = 0; i < op.batch_size; ++i) {
      idx->Insert(op.batch_keys[i], op.batch_values[i]);
      OpResult& r = results[i];
      r.status = Status::OK();
      r.ok = true;
      r.rows = 1;
    }
  }
}

/// The keys of (key, value) pairs, for the estimators built at load time.
std::vector<Key> KeysOf(const std::vector<KeyValue>& pairs) {
  std::vector<Key> keys;
  keys.reserve(pairs.size());
  for (const auto& [k, v] : pairs) {
    (void)v;
    keys.push_back(k);
  }
  return keys;
}
}  // namespace

// ---------------------------------------------------------------------------
// KvSystemBase
// ---------------------------------------------------------------------------

uint64_t KvSystemBase::CountByProbe(Key lo, Key hi, uint64_t* touched) {
  uint64_t count = 0;
  Key cursor = lo;
  while (true) {
    scratch_.clear();
    const size_t got = index()->Scan(cursor, kScanChunk, &scratch_);
    if (got == 0) break;
    *touched += got;
    bool done = false;
    for (const auto& [k, v] : scratch_) {
      (void)v;
      if (k > hi) {
        done = true;
        break;
      }
      ++count;
    }
    if (done || got < kScanChunk) break;
    const Key last = scratch_.back().first;
    if (last == ~Key{0}) break;
    cursor = last + 1;
  }
  return count;
}

uint64_t KvSystemBase::CountByScan(Key lo, Key hi, uint64_t* touched) {
  uint64_t count = 0;
  Key cursor = 0;
  while (true) {
    scratch_.clear();
    const size_t got = index()->Scan(cursor, kScanChunk, &scratch_);
    if (got == 0) break;
    *touched += got;
    for (const auto& [k, v] : scratch_) {
      (void)v;
      if (k >= lo && k <= hi) ++count;
    }
    if (got < kScanChunk) break;
    const Key last = scratch_.back().first;
    if (last == ~Key{0}) break;
    cursor = last + 1;
  }
  return count;
}

OpResult KvSystemBase::Execute(const Operation& op) {
  OpResult result;
  switch (op.type) {
    case OpType::kGet: {
      const auto v = index()->Get(op.key);
      result.ok = v.has_value();
      result.rows = result.ok ? 1 : 0;
      break;
    }
    case OpType::kScan: {
      scratch_.clear();
      const size_t got = index()->Scan(op.key, op.scan_length, &scratch_);
      result.ok = true;
      result.rows = got;
      break;
    }
    case OpType::kInsert:
    case OpType::kUpdate: {
      index()->Insert(op.key, op.value);
      result.ok = true;
      result.rows = 1;
      break;
    }
    case OpType::kDelete: {
      result.ok = index()->Erase(op.key);
      result.rows = result.ok ? 1 : 0;
      break;
    }
    case OpType::kRangeCount: {
      const double table_rows = static_cast<double>(index()->size());
      const double estimate =
          estimator_ != nullptr
              ? estimator_->EstimateRange(op.key, op.range_end)
              : table_rows;
      const AccessPath path =
          cost_model_ != nullptr
              ? cost_model_->Choose(estimate, table_rows)
              : AccessPath::kIndexProbe;
      uint64_t touched = 0;
      const uint64_t count =
          path == AccessPath::kIndexProbe
              ? CountByProbe(op.key, op.range_end, &touched)
              : CountByScan(op.key, op.range_end, &touched);
      result.ok = true;
      result.rows = count;
      // Execution feedback closes the learning loop (§IV: ground truth can
      // be collected during query execution).
      if (estimator_ != nullptr) {
        estimator_->Feedback(op.key, op.range_end,
                             static_cast<double>(count));
      }
      if (cost_model_ != nullptr) {
        cost_model_->Feedback(path, static_cast<double>(count), table_rows,
                              static_cast<double>(touched));
      }
      break;
    }
    case OpType::kBatchGet:
    case OpType::kBatchPut:
      LSBENCH_ASSERT_MSG(false, "batch ops go to ExecuteBatch, not Execute");
      break;
  }
  OnExecuted(op);
  return result;
}

void KvSystemBase::ExecuteBatch(const Operation& op, OpResult* results) {
  ExecuteBatchDirect(index(), op, results);
  OnExecuted(op);
}

SutStats KvSystemBase::GetStats() const {
  SutStats stats;
  stats.memory_bytes = index()->MemoryBytes();
  if (estimator_ != nullptr) stats.memory_bytes += estimator_->MemoryBytes();
  return stats;
}

// ---------------------------------------------------------------------------
// BTreeSystem
// ---------------------------------------------------------------------------

BTreeSystem::BTreeSystem(int fanout, int histogram_buckets)
    : btree_(fanout), histogram_buckets_(histogram_buckets) {
  cost_model_ = std::make_unique<StaticCostModel>();
}

Status BTreeSystem::Load(const std::vector<KeyValue>& sorted_pairs) {
  btree_.BulkLoad(sorted_pairs);
  // ANALYZE-style statistics collection at load time: part of normal
  // traditional-system operation, not "training".
  estimator_ = std::make_unique<EquiDepthHistogram>(KeysOf(sorted_pairs),
                                                    histogram_buckets_);
  return Status::OK();
}

Status BTreeSystem::LoadKeys(std::span<const Key> sorted_keys) {
  btree_.BulkLoadKeys(sorted_keys, 0);
  estimator_ =
      std::make_unique<EquiDepthHistogram>(sorted_keys, histogram_buckets_);
  return Status::OK();
}

void BTreeSystem::ExecuteBatch(const Operation& op, OpResult* results) {
  ExecuteBatchDirect(&btree_, op, results);
}

// ---------------------------------------------------------------------------
// LsmKvSystem
// ---------------------------------------------------------------------------

LsmKvSystem::LsmKvSystem(LsmOptions options, int histogram_buckets)
    : lsm_(options), histogram_buckets_(histogram_buckets) {
  cost_model_ = std::make_unique<StaticCostModel>();
}

Status LsmKvSystem::Load(const std::vector<KeyValue>& sorted_pairs) {
  lsm_.BulkLoad(sorted_pairs);
  estimator_ = std::make_unique<EquiDepthHistogram>(KeysOf(sorted_pairs),
                                                    histogram_buckets_);
  return Status::OK();
}

Status LsmKvSystem::LoadKeys(std::span<const Key> sorted_keys) {
  lsm_.BulkLoadKeys(sorted_keys, 0);
  estimator_ =
      std::make_unique<EquiDepthHistogram>(sorted_keys, histogram_buckets_);
  return Status::OK();
}

SutStats LsmKvSystem::GetStats() const {
  SutStats stats = KvSystemBase::GetStats();
  // Compaction is maintenance, not training, but its magnitude is reported
  // through the same work-item channel for cost comparisons.
  stats.offline_train_items = lsm_.compaction_work();
  stats.model_error = static_cast<double>(lsm_.level_count());
  return stats;
}

// ---------------------------------------------------------------------------
// LearnedKvSystem
// ---------------------------------------------------------------------------

std::string RetrainPolicyToString(RetrainPolicy policy) {
  switch (policy) {
    case RetrainPolicy::kNever:
      return "never";
    case RetrainPolicy::kOnPhaseStart:
      return "on_phase_start";
    case RetrainPolicy::kDeltaThreshold:
      return "delta_threshold";
    case RetrainPolicy::kDriftTriggered:
      return "drift_triggered";
  }
  return "unknown";
}

LearnedKvSystem::LearnedKvSystem(LearnedSystemOptions options,
                                 const Clock* clock)
    : options_(options),
      clock_(clock != nullptr ? clock : &default_clock_),
      index_(options.index_kind == LearnedSystemOptions::IndexKind::kRmi
                 ? LearnedIndex(std::in_place_type<RmiIndex>, options.rmi)
                 : LearnedIndex(std::in_place_type<PgmIndex>,
                                options.pgm_epsilon)),
      drift_(options.drift) {}

std::string LearnedKvSystem::name() const {
  const std::string base =
      options_.index_kind == LearnedSystemOptions::IndexKind::kRmi
          ? "learned_rmi_system"
          : "learned_pgm_system";
  return base + "(" + RetrainPolicyToString(options_.retrain_policy) + ")";
}

KvIndex* LearnedKvSystem::index() {
  return std::visit([](auto& idx) -> KvIndex* { return &idx; }, index_);
}

const KvIndex* LearnedKvSystem::index() const {
  return std::visit([](const auto& idx) -> const KvIndex* { return &idx; },
                    index_);
}

size_t LearnedKvSystem::delta_size() const {
  return std::visit([](const auto& idx) { return idx.delta_size(); }, index_);
}

const std::vector<Key>& LearnedKvSystem::TrainedKeys() const {
  LSBENCH_ASSERT_MSG(delta_size() == 0, "trained keys read after a write");
  return std::visit(
      [](const auto& idx) -> const std::vector<Key>& {
        return idx.static_keys();
      },
      index_);
}

// Both loads fill the index's arrays and fit nothing: Train is the one fit.
Status LearnedKvSystem::Load(const std::vector<KeyValue>& sorted_pairs) {
  std::visit([&](auto& idx) { idx.LoadUnfitted(sorted_pairs); }, index_);
  ResetRunState();
  return Status::OK();
}

Status LearnedKvSystem::LoadKeys(std::span<const Key> sorted_keys) {
  std::visit([&](auto& idx) { idx.LoadUnfitted(sorted_keys, 0); }, index_);
  ResetRunState();
  return Status::OK();
}

void LearnedKvSystem::ResetRunState() {
  trained_ = false;
  retrain_events_ = 0;
  online_train_seconds_ = 0.0;
  offline_train_items_ = 0;
  ops_since_drift_check_ = 0;
}

size_t LearnedKvSystem::model_builds() const {
  return std::visit([](const auto& idx) { return idx.model().builds(); },
                    index_);
}

TrainReport LearnedKvSystem::Train() {
  TrainReport report;
  report.trained = true;
  report.work_items = RefitIndex();

  const std::vector<Key>& keys = TrainedKeys();
  estimator_ = std::make_unique<LearnedCardinalityEstimator>(
      keys, options_.estimator);
  cost_model_ = std::make_unique<OnlineCostModel>();

  // Freeze the drift reference on the trained distribution.
  drift_ = DriftDetector(options_.drift);
  for (Key k : keys) drift_.Observe(static_cast<double>(k));
  drift_.Freeze();
  trained_ = true;
  return report;
}

size_t LearnedKvSystem::RefitIndex() {
  // Work items = points the model fitted over (RMI can subsample its fit;
  // PGM's shrinking cone always visits every key).
  const size_t fitted = std::visit(
      [](auto& idx) {
        idx.Retrain();
        return idx.model().fit_work();
      },
      index_);
  offline_train_items_ += fitted;
  if (train_items_counter_ != nullptr) train_items_counter_->Increment(fitted);
  return fitted;
}

void LearnedKvSystem::RetrainNow() {
  Stopwatch watch(clock_);
  RefitIndex();
  if (estimator_ != nullptr) {
    auto* learned =
        static_cast<LearnedCardinalityEstimator*>(estimator_.get());
    learned->Retrain(TrainedKeys());
  }
  drift_.Rebase();
  ++retrain_events_;
  online_train_seconds_ += watch.ElapsedSeconds();
  if (retrains_counter_ != nullptr) retrains_counter_->Increment();
  if (retrain_nanos_ != nullptr) retrain_nanos_->Record(watch.ElapsedNanos());
}

void LearnedKvSystem::BindObservability(MetricsRegistry* registry) {
  if (registry == nullptr) return;
  retrains_counter_ = registry->GetCounter("sut.retrains");
  train_items_counter_ = registry->GetCounter("sut.train_items");
  retrain_nanos_ = registry->GetHistogram("sut.retrain_nanos");
}

void LearnedKvSystem::MaybeRetrain() {
  switch (options_.retrain_policy) {
    case RetrainPolicy::kNever:
    case RetrainPolicy::kOnPhaseStart:
      return;
    case RetrainPolicy::kDeltaThreshold: {
      const size_t static_n = std::visit(
          [](const auto& idx) { return idx.static_size(); }, index_);
      const size_t threshold = std::max<size_t>(
          64, static_cast<size_t>(options_.delta_threshold_fraction *
                                  static_cast<double>(static_n)));
      if (delta_size() >= threshold) RetrainNow();
      return;
    }
    case RetrainPolicy::kDriftTriggered: {
      if (++ops_since_drift_check_ < kDriftCheckEvery) return;
      ops_since_drift_check_ = 0;
      if (drift_.DriftDetected()) RetrainNow();
      return;
    }
  }
}

void LearnedKvSystem::ExecuteBatch(const Operation& op, OpResult* results) {
  std::visit([&](auto& idx) { ExecuteBatchDirect(&idx, op, results); },
             index_);
  OnExecuted(op);
}

void LearnedKvSystem::OnExecuted(const Operation& op) {
  if (!trained_) return;
  // Track the key distribution the workload touches/creates.
  if (IsBatchOp(op.type)) {
    // Every batch key feeds the drift window: a batch is one request but
    // batch_size distribution samples.
    for (uint32_t i = 0; i < op.batch_size; ++i) {
      drift_.Observe(static_cast<double>(op.batch_keys[i]));
    }
  } else if (op.type == OpType::kInsert || op.type == OpType::kGet ||
             op.type == OpType::kUpdate) {
    drift_.Observe(static_cast<double>(op.key));
  }
  MaybeRetrain();
}

void LearnedKvSystem::OnPhaseStart(int phase_index, bool holdout) {
  (void)phase_index;
  if (holdout) return;  // Out-of-sample: no retraining allowed.
  if (options_.retrain_policy == RetrainPolicy::kOnPhaseStart && trained_) {
    RetrainNow();
  }
}

SutStats LearnedKvSystem::GetStats() const {
  SutStats stats = KvSystemBase::GetStats();
  stats.offline_train_items = offline_train_items_;
  stats.online_train_seconds = online_train_seconds_;
  stats.retrain_events = retrain_events_;
  stats.model_error = std::visit(
      [](const auto& idx) { return idx.model().model_error(); }, index_);
  return stats;
}

// ---------------------------------------------------------------------------
// AdaptiveKvSystem
// ---------------------------------------------------------------------------

AdaptiveKvSystem::AdaptiveKvSystem(
    AdaptiveOptions options,
    LearnedCardinalityEstimator::Options estimator_options)
    : alex_(options), estimator_options_(estimator_options) {
  cost_model_ = std::make_unique<OnlineCostModel>();
}

Status AdaptiveKvSystem::Load(const std::vector<KeyValue>& sorted_pairs) {
  alex_.BulkLoad(sorted_pairs);
  estimator_ = std::make_unique<LearnedCardinalityEstimator>(
      KeysOf(sorted_pairs), estimator_options_);
  return Status::OK();
}

Status AdaptiveKvSystem::LoadKeys(std::span<const Key> sorted_keys) {
  alex_.BulkLoadKeys(sorted_keys, 0);
  estimator_ = std::make_unique<LearnedCardinalityEstimator>(
      sorted_keys, estimator_options_);
  return Status::OK();
}

SutStats AdaptiveKvSystem::GetStats() const {
  SutStats stats = KvSystemBase::GetStats();
  stats.retrain_events = alex_.retrain_count();
  stats.offline_train_items = alex_.retrain_work();
  stats.model_error = static_cast<double>(alex_.segment_count());
  return stats;
}

}  // namespace lsbench
