#ifndef LSBENCH_SUT_SYSTEMS_H_
#define LSBENCH_SUT_SYSTEMS_H_

#include <memory>
#include <span>
#include <string>
#include <variant>
#include <vector>

#include "index/btree.h"
#include "index/kv_index.h"
#include "index/lsm.h"
#include "learned/access_path.h"
#include "learned/adaptive.h"
#include "learned/cardinality.h"
#include "learned/drift_detector.h"
#include "learned/pgm.h"
#include "learned/rmi.h"
#include "sut/sut.h"
#include "util/annotate.h"
#include "util/clock.h"

namespace lsbench {

/// Shared execution engine: turns Operations into KvIndex calls and routes
/// range-count queries through a cardinality estimator + cost model (the
/// optimizer substrate). Subclasses provide the index and the estimator
/// flavor.
class KvSystemBase : public SystemUnderTest {
 public:
  LSBENCH_DETERMINISTIC
  OpResult Execute(const Operation& op) override;
  /// Hoists the virtual index() lookup out of the per-element loop; one
  /// OnExecuted notification per batch (the batch is one request unit).
  LSBENCH_DETERMINISTIC
  void ExecuteBatch(const Operation& op, OpResult* results) override;
  SutStats GetStats() const override;

 protected:
  KvSystemBase() = default;

  /// The index all operations run against.
  virtual KvIndex* index() = 0;
  virtual const KvIndex* index() const = 0;

  /// Hook invoked on every executed operation (drift tracking etc.).
  virtual void OnExecuted(const Operation& op) { (void)op; }

  /// Counts keys in [lo, hi] by walking the index from lo. Returns rows
  /// counted; `touched` reports entries visited (the observed cost).
  uint64_t CountByProbe(Key lo, Key hi, uint64_t* touched);
  /// Counts keys in [lo, hi] by scanning everything.
  uint64_t CountByScan(Key lo, Key hi, uint64_t* touched);

  std::unique_ptr<CardinalityEstimator> estimator_;
  std::unique_ptr<CostModel> cost_model_;

 private:
  std::vector<KeyValue> scratch_;
};

/// The traditional baseline: a B+-tree with an equi-depth histogram and a
/// static cost model. No training; "tuning" happens outside the system (the
/// DBA step function of Fig. 1d).
class BTreeSystem final : public KvSystemBase {
 public:
  explicit BTreeSystem(int fanout = 64, int histogram_buckets = 64);

  std::string name() const override { return "btree_system"; }
  Status Load(const std::vector<KeyValue>& sorted_pairs) override;
  Status LoadKeys(std::span<const Key> sorted_keys) override;
  /// Native batch path: per-element calls go straight to the concrete
  /// BTree (devirtualized and inlinable), not through KvIndex.
  LSBENCH_DETERMINISTIC
  void ExecuteBatch(const Operation& op, OpResult* results) override;

 protected:
  KvIndex* index() override { return &btree_; }
  const KvIndex* index() const override { return &btree_; }

 private:
  BTree btree_;
  int histogram_buckets_;
};

/// The write-optimized traditional baseline: an LSM tree with Bloom
/// filters and an equi-depth histogram. Like the B+-tree system it never
/// trains; unlike it, compaction gives it background-maintenance dynamics
/// of its own, a useful contrast in adaptability experiments.
class LsmKvSystem final : public KvSystemBase {
 public:
  explicit LsmKvSystem(LsmOptions options = {}, int histogram_buckets = 64);

  std::string name() const override { return "lsm_system"; }
  Status Load(const std::vector<KeyValue>& sorted_pairs) override;
  Status LoadKeys(std::span<const Key> sorted_keys) override;
  SutStats GetStats() const override;

 protected:
  KvIndex* index() override { return &lsm_; }
  const KvIndex* index() const override { return &lsm_; }

 private:
  LsmTree lsm_;
  int histogram_buckets_;
};

/// When a static learned system refreshes its models.
enum class RetrainPolicy {
  kNever,           ///< Train once, never again (pure specialization).
  kOnPhaseStart,    ///< Retrain at every (non-holdout) phase boundary.
  kDeltaThreshold,  ///< Retrain when the delta buffer outgrows a fraction
                    ///< of the static data.
  kDriftTriggered,  ///< Retrain when the KS drift detector fires.
};

std::string RetrainPolicyToString(RetrainPolicy policy);

/// Configuration of the learned KV system.
struct LearnedSystemOptions {
  enum class IndexKind { kRmi, kPgm };
  IndexKind index_kind = IndexKind::kRmi;
  RmiOptions rmi;             ///< Used when index_kind == kRmi.
  uint32_t pgm_epsilon = 64;  ///< Used when index_kind == kPgm.
  RetrainPolicy retrain_policy = RetrainPolicy::kDriftTriggered;
  double delta_threshold_fraction = 0.1;
  DriftDetector::Options drift;
  LearnedCardinalityEstimator::Options estimator;
};

/// Learned system with an explicit training phase: an RMI or PGM index plus
/// a learned cardinality estimator and an online cost model. Retraining is
/// synchronous and blocks the operation that triggers it — the mechanism
/// that produces the transition stalls and SLA violations of Fig. 1b/1c.
class LearnedKvSystem final : public KvSystemBase {
 public:
  /// `clock` times online retraining; pass a VirtualClock in tests. Must
  /// outlive the system; nullptr selects an internal RealClock.
  explicit LearnedKvSystem(LearnedSystemOptions options = {},
                           const Clock* clock = nullptr);

  std::string name() const override;
  /// Load and LoadKeys fill the index's key and value arrays and fit no
  /// model: until Train, the index binary-searches all of its keys. A load
  /// starts a new run, so it also clears the last run's training tallies.
  Status Load(const std::vector<KeyValue>& sorted_pairs) override;
  Status LoadKeys(std::span<const Key> sorted_keys) override;
  /// Timed offline training, the one model fit of set-up: fits the index
  /// model, samples the learned estimator and feeds the drift reference,
  /// all from the keys the index holds in place. It copies no key set
  /// (merging an empty delta touches nothing), so set-up memory peaks
  /// during LoadKeys at dataset + index, and this call adds only the
  /// models.
  TrainReport Train() override;
  void OnPhaseStart(int phase_index, bool holdout) override;
  SutStats GetStats() const override;
  /// Publishes the ad-hoc training tallies as registry instruments:
  /// "sut.retrains" / "sut.train_items" counters and a "sut.retrain_nanos"
  /// latency histogram over synchronous retrain stalls.
  void BindObservability(MetricsRegistry* registry) override;
  /// Native batch path: resolves RMI-vs-PGM once per batch, then loops on
  /// the concrete final index type; drift observes every batch key.
  LSBENCH_DETERMINISTIC
  void ExecuteBatch(const Operation& op, OpResult* results) override;

  uint64_t retrain_events() const { return retrain_events_; }
  size_t delta_size() const;
  /// Fits of the index model since construction: one per Train and one
  /// per online retrain.
  size_t model_builds() const;

 protected:
  KvIndex* index() override;
  const KvIndex* index() const override;
  void OnExecuted(const Operation& op) override;

 private:
  void MaybeRetrain();
  /// Marks the index untrained and zeroes the training tallies.
  void ResetRunState();
  /// Synchronous retrain: refits index models and the estimator.
  void RetrainNow();
  /// Merges the delta buffer, refits the index model and adds the model's
  /// fit work (the points it fitted over, fewer than the keys when RMI
  /// samples its fit) to the train-item tallies. Returns that work.
  size_t RefitIndex();
  /// The keys the index was just fitted over, read in place. Valid only
  /// right after a Retrain, while the delta buffer is empty.
  const std::vector<Key>& TrainedKeys() const;

  LearnedSystemOptions options_;
  RealClock default_clock_;
  const Clock* clock_;
  using LearnedIndex = std::variant<RmiIndex, PgmIndex>;
  LearnedIndex index_;
  DriftDetector drift_;
  bool trained_ = false;
  uint64_t retrain_events_ = 0;
  double online_train_seconds_ = 0.0;
  uint64_t offline_train_items_ = 0;
  uint64_t ops_since_drift_check_ = 0;
  Counter* retrains_counter_ = nullptr;
  Counter* train_items_counter_ = nullptr;
  LockedHistogram* retrain_nanos_ = nullptr;
};

/// Continuously adaptive learned system: the ALEX-style index adapts inside
/// every insert, so there is no separate training phase; online training
/// effort is reported as retrain events/work (the paper's §V-D3 fallback of
/// measuring overhead for online learners).
class AdaptiveKvSystem final : public KvSystemBase {
 public:
  explicit AdaptiveKvSystem(AdaptiveOptions options = {},
                            LearnedCardinalityEstimator::Options
                                estimator_options = {});

  std::string name() const override { return "adaptive_system"; }
  Status Load(const std::vector<KeyValue>& sorted_pairs) override;
  Status LoadKeys(std::span<const Key> sorted_keys) override;
  SutStats GetStats() const override;

 protected:
  KvIndex* index() override { return &alex_; }
  const KvIndex* index() const override { return &alex_; }

 private:
  AdaptiveLearnedIndex alex_;
  LearnedCardinalityEstimator::Options estimator_options_;
};

}  // namespace lsbench

#endif  // LSBENCH_SUT_SYSTEMS_H_
