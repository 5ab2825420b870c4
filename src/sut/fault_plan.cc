#include "sut/fault_plan.h"

namespace lsbench {

bool operator==(const FaultWindow& a, const FaultWindow& b) {
  return a.phase == b.phase && a.execute_fail_rate == b.execute_fail_rate &&
         a.execute_fail_code == b.execute_fail_code &&
         a.latency_spike_rate == b.latency_spike_rate &&
         a.latency_spike_nanos == b.latency_spike_nanos &&
         a.stall_rate == b.stall_rate && a.stall_nanos == b.stall_nanos &&
         a.fail_train == b.fail_train &&
         a.train_hang_nanos == b.train_hang_nanos;
}

bool operator==(const FaultPlan& a, const FaultPlan& b) {
  return a.seed == b.seed && a.load_failures == b.load_failures &&
         a.windows == b.windows;
}

const FaultWindow* FaultPlan::WindowForPhase(int phase) const {
  const FaultWindow* match = nullptr;
  const FaultWindow* wildcard = nullptr;
  for (const FaultWindow& w : windows) {
    if (w.phase == phase) match = &w;
    if (w.phase < 0) wildcard = &w;
  }
  return match != nullptr ? match : wildcard;
}

}  // namespace lsbench
