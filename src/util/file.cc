#include "util/file.h"

#include <cstdio>

namespace lsbench {

Status WriteTextFile(const std::string& path, std::string_view bytes) {
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) {
    return Status::IoError("cannot open for write: " + path);
  }
  const bool written =
      std::fwrite(bytes.data(), 1, bytes.size(), file) == bytes.size();
  const bool closed = std::fclose(file) == 0;
  if (!written || !closed) return Status::IoError("write failed: " + path);
  return Status::OK();
}

}  // namespace lsbench
