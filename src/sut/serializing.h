#ifndef LSBENCH_SUT_SERIALIZING_H_
#define LSBENCH_SUT_SERIALIZING_H_

#include <span>
#include <string>
#include <vector>

#include "sut/sut.h"
#include "util/annotate.h"
#include "util/assert.h"
#include "util/sync.h"

namespace lsbench {

/// Decorator that makes a serial SystemUnderTest safe to drive from many
/// workers by serializing every entry point behind one mutex — the
/// driver-side "external lock" fallback of the SUT concurrency contract.
/// Every pre-existing (serial) SUT keeps running under `workers > 1`
/// unchanged; it just cannot scale, which is itself a faithful measurement
/// of a serial system under concurrent offered load. The inner pointer is
/// GUARDED_BY the mutex, so Thread Safety Analysis proves no entry point
/// can reach the serial system without holding the lock.
class SerializingSut final : public SystemUnderTest {
 public:
  /// `inner` must outlive the wrapper.
  explicit SerializingSut(SystemUnderTest* inner) : inner_(inner) {
    LSBENCH_ASSERT(inner != nullptr);
  }

  std::string name() const override {
    MutexLock lock(mu_);
    return inner_->name();
  }

  SutConcurrency concurrency() const override {
    return SutConcurrency::kThreadSafe;
  }

  Status Load(const std::vector<KeyValue>& sorted_pairs) override {
    MutexLock lock(mu_);
    return inner_->Load(sorted_pairs);
  }

  Status LoadKeys(std::span<const Key> sorted_keys) override {
    MutexLock lock(mu_);
    return inner_->LoadKeys(sorted_keys);
  }

  TrainReport Train() override {
    MutexLock lock(mu_);
    return inner_->Train();
  }

  LSBENCH_HOT_PATH
  LSBENCH_DETERMINISTIC
  OpResult Execute(const Operation& op) override {
    MutexLock lock(mu_);
    return inner_->Execute(op);
  }

  /// Forwards the whole batch under ONE lock acquisition — the batch stays
  /// one request unit, and the serialized system still amortizes its
  /// per-batch costs across elements.
  LSBENCH_HOT_PATH
  LSBENCH_DETERMINISTIC
  void ExecuteBatch(const Operation& op, OpResult* results) override {
    MutexLock lock(mu_);
    inner_->ExecuteBatch(op, results);
  }

  void OnPhaseStart(int phase_index, bool holdout) override {
    MutexLock lock(mu_);
    inner_->OnPhaseStart(phase_index, holdout);
  }

  SutStats GetStats() const override {
    MutexLock lock(mu_);
    return inner_->GetStats();
  }

  void BindObservability(MetricsRegistry* registry) override {
    MutexLock lock(mu_);
    inner_->BindObservability(registry);
  }

 private:
  mutable Mutex mu_;
  SystemUnderTest* const inner_ LSBENCH_PT_GUARDED_BY(mu_);
};

}  // namespace lsbench

#endif  // LSBENCH_SUT_SERIALIZING_H_
