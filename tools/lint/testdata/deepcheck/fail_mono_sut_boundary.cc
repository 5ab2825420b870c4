// Must-flag, for determinism only: a hot root reaching a SUT through the
// monomorphized engine. MonoExec:: is the SUT boundary for the hot rules,
// so the SUT's own allocation does not flag; the determinism rule has no
// boundary and still walks in, so the SUT's wall-clock read does.
// Expected: (determinism, lsbench::ClockSut::Execute, wall-clock)
#include <chrono>
#include <cstdint>
#include <vector>

#include "fixture_prelude.h"

namespace lsbench {

struct ClockSut {
  int64_t Execute() {
    log_.push_back(1);
    return std::chrono::system_clock::now().time_since_epoch().count();
  }
  std::vector<int> log_;
};

template <typename SutT>
struct MonoExec {
  SutT* sut;
  int64_t Execute() const { return sut->SutT::Execute(); }
};

LSBENCH_HOT_PATH
LSBENCH_DETERMINISTIC
int64_t HotMono(ClockSut* sut) { return MonoExec<ClockSut>{sut}.Execute(); }

}  // namespace lsbench
