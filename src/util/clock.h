#ifndef LSBENCH_UTIL_CLOCK_H_
#define LSBENCH_UTIL_CLOCK_H_

#include <chrono>
#include <cstdint>
#include <thread>

#include "util/assert.h"

namespace lsbench {

/// Monotonic time source used by the benchmark driver. Nanosecond ticks from
/// an arbitrary epoch. Two implementations: RealClock (steady_clock) for
/// measured runs and VirtualClock for deterministic tests and simulations.
class Clock {
 public:
  virtual ~Clock() = default;

  /// Current time in nanoseconds since an arbitrary but fixed epoch.
  virtual int64_t NowNanos() const = 0;
};

/// Wall-clock time via std::chrono::steady_clock.
class RealClock final : public Clock {
 public:
  int64_t NowNanos() const override {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }
};

/// Manually advanced clock for deterministic tests. Starts at zero.
class VirtualClock final : public Clock {
 public:
  int64_t NowNanos() const override { return now_nanos_; }

  /// Advances time by `delta_nanos` (must be non-negative).
  void AdvanceNanos(int64_t delta_nanos) {
    LSBENCH_ASSERT(delta_nanos >= 0);
    now_nanos_ += delta_nanos;
  }

  void AdvanceSeconds(double seconds) {
    AdvanceNanos(static_cast<int64_t>(seconds * 1e9));
  }

  /// Jumps to an absolute time (must not move backwards).
  void SetNanos(int64_t now_nanos) {
    LSBENCH_ASSERT(now_nanos >= now_nanos_);
    now_nanos_ = now_nanos;
  }

 private:
  int64_t now_nanos_ = 0;
};

/// Blocks until `clock.NowNanos() >= target_abs_nanos` without burning a
/// full core: while more than `spin_tail_nanos` remain the thread sleeps
/// (undershooting by the spin tail so scheduler wake-up jitter lands inside
/// the spin window), then busy-waits the tail for sub-microsecond accuracy.
/// This is the only sanctioned blocking-wait primitive — raw sleep_for
/// outside util/ is banned by lsbench-lint (no-raw-sleep).
inline void SleepSpinUntil(const Clock& clock, int64_t target_abs_nanos,
                           int64_t spin_tail_nanos = 100000) {
  for (;;) {
    const int64_t remaining = target_abs_nanos - clock.NowNanos();
    if (remaining <= spin_tail_nanos) break;
    std::this_thread::sleep_for(
        std::chrono::nanoseconds(remaining - spin_tail_nanos));
  }
  while (clock.NowNanos() < target_abs_nanos) {
    // Spin the tail: pacing needs sub-microsecond resolution.
  }
}

/// Measures elapsed time against a Clock. Restartable.
class Stopwatch {
 public:
  explicit Stopwatch(const Clock* clock) : clock_(clock), start_(clock->NowNanos()) {}

  void Restart() { start_ = clock_->NowNanos(); }

  int64_t ElapsedNanos() const { return clock_->NowNanos() - start_; }
  double ElapsedSeconds() const {
    return static_cast<double>(ElapsedNanos()) * 1e-9;
  }

 private:
  const Clock* clock_;
  int64_t start_;
};

}  // namespace lsbench

#endif  // LSBENCH_UTIL_CLOCK_H_
