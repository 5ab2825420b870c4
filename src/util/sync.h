#ifndef LSBENCH_UTIL_SYNC_H_
#define LSBENCH_UTIL_SYNC_H_

// Capability-annotated synchronization primitives.
//
// LSBench's concurrency claims (deterministic multi-worker fan-out, shared
// circuit breakers, serialized SUT fallback) rest on lock discipline that
// TSan can only spot-check on the interleavings a test happens to execute.
// Clang Thread Safety Analysis proves the discipline at compile time: every
// shared field is declared GUARDED_BY its mutex, every internal helper
// declares the lock it REQUIRES, and an access outside the lock is a build
// error under -Wthread-safety (promoted to -Werror by -DLSBENCH_WERROR=ON).
//
// Usage:
//   class Counter {
//    public:
//     void Add(int n) {
//       MutexLock lock(mu_);
//       total_ += n;
//     }
//    private:
//     mutable Mutex mu_;
//     int total_ LSBENCH_GUARDED_BY(mu_) = 0;
//   };
//
// The annotations compile to nothing off-Clang (GCC builds are unaffected),
// and the wrappers are near-zero-cost: Mutex is a std::mutex plus one
// thread-local null test, MutexLock exactly a std::lock_guard. Raw
// std::mutex / std::lock_guard outside this header are banned by
// lsbench-lint (no-raw-mutex / no-raw-lock) so new concurrent state cannot
// silently opt out of the proof.
//
// These wrappers are also lsbench-sched preemption points
// (util/sched_hooks.h): on a thread managed by the schedule-exploration
// controller, Lock/Unlock/Wait/Signal are *modeled* by the controller
// instead of touching the real std primitives — a task blocking on a
// modeled mutex yields to the scheduler rather than wedging the cooperative
// run. Unmanaged threads (the normal case: the hook is a thread-local null)
// take the plain std:: path.
//
// See docs/STATIC_ANALYSIS.md for the annotation how-to and the
// lsbench-sched exploration workflow.

#include <condition_variable>
#include <mutex>

#include "util/sched_hooks.h"

#if defined(__clang__)
#define LSBENCH_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define LSBENCH_THREAD_ANNOTATION(x)  // No-op: GCC/MSVC have no TSA.
#endif

/// Marks a type as a lockable capability ("mutex" names the capability kind
/// in diagnostics).
#define LSBENCH_CAPABILITY(x) LSBENCH_THREAD_ANNOTATION(capability(x))

/// Marks an RAII type that acquires in its constructor and releases in its
/// destructor.
#define LSBENCH_SCOPED_CAPABILITY LSBENCH_THREAD_ANNOTATION(scoped_lockable)

/// Declares that a field/variable may only be accessed while holding `x`.
#define LSBENCH_GUARDED_BY(x) LSBENCH_THREAD_ANNOTATION(guarded_by(x))

/// As GUARDED_BY, but for the pointee of a pointer/smart-pointer field.
#define LSBENCH_PT_GUARDED_BY(x) LSBENCH_THREAD_ANNOTATION(pt_guarded_by(x))

/// Declares that a function acquires / releases the given capabilities.
#define LSBENCH_ACQUIRE(...) \
  LSBENCH_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define LSBENCH_RELEASE(...) \
  LSBENCH_THREAD_ANNOTATION(release_capability(__VA_ARGS__))

/// Declares that the caller must already hold the given capabilities.
#define LSBENCH_REQUIRES(...) \
  LSBENCH_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))

/// Declares that the caller must NOT hold the given capabilities (the
/// function acquires them itself; catches self-deadlock).
#define LSBENCH_EXCLUDES(...) \
  LSBENCH_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

/// Declares a static lock-acquisition order between mutexes.
#define LSBENCH_ACQUIRED_BEFORE(...) \
  LSBENCH_THREAD_ANNOTATION(acquired_before(__VA_ARGS__))
#define LSBENCH_ACQUIRED_AFTER(...) \
  LSBENCH_THREAD_ANNOTATION(acquired_after(__VA_ARGS__))

/// Declares that a function returns a reference to the given capability.
#define LSBENCH_RETURN_CAPABILITY(x) \
  LSBENCH_THREAD_ANNOTATION(lock_returned(x))

/// Escape hatch: disables the analysis for one function. Every use needs a
/// comment explaining why the proof cannot be expressed.
#define LSBENCH_NO_THREAD_SAFETY_ANALYSIS \
  LSBENCH_THREAD_ANNOTATION(no_thread_safety_analysis)

namespace lsbench {

/// Exclusive mutex: a std::mutex the analysis can see. Prefer MutexLock
/// over manual Lock/Unlock pairs.
class LSBENCH_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() LSBENCH_ACQUIRE() {
    if (SchedObserver* s = SchedHook()) {
      s->MutexLock(this);
      return;
    }
    mu_.lock();
  }
  void Unlock() LSBENCH_RELEASE() {
    if (SchedObserver* s = SchedHook()) {
      s->MutexUnlock(this);
      return;
    }
    mu_.unlock();
  }

 private:
  friend class CondVar;
  std::mutex mu_;
};

/// RAII lock; the only sanctioned way to hold a Mutex across a scope.
class LSBENCH_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) LSBENCH_ACQUIRE(mu) : mu_(mu) { mu_.Lock(); }
  ~MutexLock() LSBENCH_RELEASE() { mu_.Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

/// Condition variable paired with lsbench::Mutex. Wait atomically releases
/// the mutex and reacquires it before returning, so the caller's capability
/// set is unchanged across the call — which is exactly what REQUIRES
/// expresses.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Blocks until notified. Spurious wakeups happen; callers loop on their
  /// predicate (or use the predicate overload).
  void Wait(Mutex& mu) LSBENCH_REQUIRES(mu) {
    if (SchedObserver* s = SchedHook()) {
      s->CondWait(this, &mu);
      return;
    }
    std::unique_lock<std::mutex> lock(mu.mu_, std::adopt_lock);
    cv_.wait(lock);
    lock.release();
  }

  /// Blocks until `pred()` holds (evaluated with the mutex held).
  template <typename Predicate>
  void Wait(Mutex& mu, Predicate pred) LSBENCH_REQUIRES(mu) {
    while (!pred()) Wait(mu);
  }

  void Signal() {
    if (SchedObserver* s = SchedHook()) {
      s->CondSignal(this, /*all=*/false);
      return;
    }
    cv_.notify_one();
  }
  void SignalAll() {
    if (SchedObserver* s = SchedHook()) {
      s->CondSignal(this, /*all=*/true);
      return;
    }
    cv_.notify_all();
  }

 private:
  std::condition_variable cv_;
};

}  // namespace lsbench

#endif  // LSBENCH_UTIL_SYNC_H_
