#ifndef LSBENCH_UTIL_FILE_H_
#define LSBENCH_UTIL_FILE_H_

#include <string>
#include <string_view>

#include "util/status.h"

namespace lsbench {

/// Replaces the contents of `path` with `bytes`. Returns IoError when the
/// file cannot be opened, written or closed; a full disk often reports only
/// at close, when the buffered tail is flushed.
Status WriteTextFile(const std::string& path, std::string_view bytes);

}  // namespace lsbench

#endif  // LSBENCH_UTIL_FILE_H_
