#ifndef LSBENCH_UTIL_FAN_OUT_H_
#define LSBENCH_UTIL_FAN_OUT_H_

#include <cstddef>
#include <functional>
#include <system_error>
#include <thread>
#include <vector>

#include "util/assert.h"

namespace lsbench {

/// Runs body(b) once for every block b < blocks, blocks >= 1: block 0 on
/// the calling thread, the others on threads joined before this returns
/// (lsbench-lint: no-detached-thread), so one block starts no thread. This
/// is the one place the library starts threads.
///
/// A block whose thread fails to start runs on the calling thread instead;
/// the return value counts those blocks. A caller whose blocks must run at
/// the same time (the real-clock workers of a phase) refuses a nonzero
/// count; a caller that only wants the blocks' results ignores it. The
/// bodies must not throw, so nothing can throw between a thread's start
/// and its join.
template <typename Body>
size_t ForEachBlock(size_t blocks, const Body& body) {
  LSBENCH_ASSERT(blocks >= 1);
  std::vector<std::thread> threads;
  threads.reserve(blocks - 1);
  size_t on_caller = 0;
  for (size_t b = 1; b < blocks; ++b) {
    try {
      threads.emplace_back(std::cref(body), b);
    } catch (const std::system_error&) {
      ++on_caller;
      body(b);
    }
  }
  body(0);
  for (std::thread& thread : threads) thread.join();
  return on_caller;
}

}  // namespace lsbench

#endif  // LSBENCH_UTIL_FAN_OUT_H_
