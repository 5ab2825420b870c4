#ifndef LSBENCH_UTIL_SCHED_HOOKS_H_
#define LSBENCH_UTIL_SCHED_HOOKS_H_

// Preemption-point hooks for lsbench-sched, the schedule-exploration
// checker (tools/sched/).
//
// The sanctioned concurrency primitives — lsbench::Mutex / CondVar
// (util/sync.h) and lsbench::Atomic<T> (util/atomic.h) — are the only ways
// LSBench code shares state between threads (enforced by lsbench-lint rules
// no-raw-mutex / no-bare-atomic). That closed set is what makes exhaustive
// interleaving exploration possible: every cross-thread visible operation
// funnels through one of these wrappers, and each wrapper consults this
// header before performing the operation.
//
// In a normal run the hook is a single thread-local pointer test that reads
// null and falls through to the plain std:: operation — no locks, no
// allocation, no measurable cost on the hot path. Under exploration the
// lsbench-sched controller (tools/sched/sched.cc) installs a SchedObserver
// on each task thread it manages; the wrappers then *defer the operation to
// the model*: mutexes and condition variables are simulated by the
// controller (so a blocked task never wedges the single-threaded
// cooperative scheduler), and atomics announce themselves as visible
// operations so the controller can branch the schedule around them.
//
// The observer is thread-local on purpose. Only threads spawned by the
// controller are managed; any other thread in the process (including the
// test main thread during setup/teardown) sees a null hook and uses the
// real primitives.
//
// This header is the complete util-layer surface of lsbench-sched: the
// interface lives at the bottom of the layer DAG so util/sync.h and
// util/atomic.h may include it, while the controller implementing it lives
// in tools/ (above every band). See docs/STATIC_ANALYSIS.md § lsbench-sched.

#include <cstdint>

namespace lsbench {

/// Kind of visible (cross-thread) operation a preemption point announces.
/// The explorer's independence relation is defined over these: two
/// operations commute unless they target the same object and at least one
/// writes (two kAtomicLoads of one object are independent; everything else
/// on a shared object conflicts).
enum class SchedOp : uint8_t {
  kAtomicLoad,   ///< Atomic<T>::Load / LoadAcquire.
  kAtomicStore,  ///< Atomic<T>::Store / StoreRelease.
  kAtomicRmw,    ///< Atomic<T>::Add / Sub / Exchange / CompareExchange.
  kMutexLock,    ///< Mutex::Lock (modeled; may disable the task).
  kMutexUnlock,  ///< Mutex::Unlock.
  kCondWait,     ///< CondVar::Wait (releases + reacquires the mutex).
  kCondSignal,   ///< CondVar::Signal / SignalAll.
  kYield,        ///< A preemption point with no shared operation.
};

/// The controller's view of one managed task thread. Implemented by
/// tools/sched/sched.cc; every method is called on the task's own thread
/// and may block it (that is the point — control returns when the
/// scheduler picks this task again).
class SchedObserver {
 public:
  virtual ~SchedObserver() = default;

  /// Announces a visible atomic operation (or explicit yield) on `obj`,
  /// *before* it executes. The controller may run other tasks first; when
  /// this returns, the caller performs the operation while it still holds
  /// the schedule token.
  virtual void SchedPoint(SchedOp op, const void* obj) = 0;

  /// Modeled mutex acquire: blocks (in the model) until the controller
  /// grants ownership of `mu` to this task. The real std::mutex inside the
  /// wrapper is NOT locked.
  virtual void MutexLock(void* mu) = 0;
  /// Modeled release; a schedule decision point (some waiter may run next).
  virtual void MutexUnlock(void* mu) = 0;

  /// Modeled condition wait: atomically releases `mu`, blocks this task
  /// until a signal reaches it, then reacquires `mu` before returning.
  /// Spurious wakeups are legal per CondVar's contract; the model wakes
  /// every waiter on Signal and SignalAll alike (a sound over-approximation
  /// under predicate-loop usage — see tools/sched/sched.h).
  virtual void CondWait(void* cv, void* mu) = 0;
  /// Modeled notify: wakes waiters on `cv` (they re-contend for their
  /// mutex).
  virtual void CondSignal(void* cv, bool all) = 0;
};

namespace sched_internal {
/// Per-thread hook. Null (the default) = unmanaged thread, real primitives.
/// Only tools/sched/sched.cc writes this, on threads it owns.
inline thread_local SchedObserver* t_observer = nullptr;
}  // namespace sched_internal

/// The current thread's observer, or null when it is not a managed task.
/// The wrappers call this once per operation; keep it trivially inlinable.
inline SchedObserver* SchedHook() { return sched_internal::t_observer; }

/// Installs (or clears, with null) the current thread's observer. Called
/// only by the lsbench-sched controller on its task threads.
inline void SetSchedHook(SchedObserver* observer) {
  sched_internal::t_observer = observer;
}

}  // namespace lsbench

#endif  // LSBENCH_UTIL_SCHED_HOOKS_H_
