#ifndef LSBENCH_UTIL_CSV_H_
#define LSBENCH_UTIL_CSV_H_

#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace lsbench {

/// Minimal RFC-4180-ish CSV writer used by report emitters. Fields containing
/// the separator, quotes, or newlines are quoted and inner quotes doubled.
class CsvWriter {
 public:
  /// Writes to `out`, which must outlive the writer.
  explicit CsvWriter(std::ostream* out, char sep = ',')
      : out_(out), sep_(sep) {}

  CsvWriter(const CsvWriter&) = delete;
  CsvWriter& operator=(const CsvWriter&) = delete;

  /// Emits one row. Each call produces exactly one line.
  void WriteRow(const std::vector<std::string>& fields);

  /// Convenience: formats doubles with 6 significant digits.
  static std::string Field(double value);
  static std::string Field(int64_t value);
  static std::string Field(uint64_t value);

  size_t rows_written() const { return rows_; }

 private:
  std::string Escape(std::string_view field) const;

  std::ostream* out_;
  char sep_;
  size_t rows_ = 0;
};

/// Parses CSV text produced by CsvWriter back into rows of fields. Handles
/// quoted fields with embedded separators/newlines and doubled quotes.
/// Errors name the 0-based row they occur in.
Result<std::vector<std::vector<std::string>>> ParseCsv(std::string_view text,
                                                       char sep = ',');

}  // namespace lsbench

#endif  // LSBENCH_UTIL_CSV_H_
