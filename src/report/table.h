#ifndef LSBENCH_REPORT_TABLE_H_
#define LSBENCH_REPORT_TABLE_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace lsbench {

/// One typed table cell. Its kind fixes how the text and HTML views show
/// the value (human units); the CSV view prints the raw value.
class Cell {
 public:
  Cell() = default;  ///< Empty: "-" in text and HTML, "" in CSV.
  static Cell Text(std::string text);
  static Cell Flag(bool on);  ///< yes/no; CSV 1/0.
  static Cell Count(uint64_t count);
  static Cell Count(int64_t count);
  static Cell Nanos(int64_t nanos);
  static Cell Nanos(double nanos);
  static Cell Seconds(double seconds);
  static Cell Rate(double per_second);
  static Cell Ratio(double ratio);

  /// Text and HTML form: durations, rates and ratios in human units.
  std::string Human() const;
  /// CSV form: the value through CsvWriter::Field, or the text as is.
  const std::string& Raw() const { return raw_; }

 private:
  enum class Kind : uint8_t {
    kEmpty,
    kText,
    kFlag,
    kCount,
    kNanos,
    kSeconds,
    kRate,
    kRatio,
  };

  Cell(Kind kind, std::string raw, double value)
      : kind_(kind), raw_(std::move(raw)), value_(value) {}

  Kind kind_ = Kind::kEmpty;
  std::string raw_;
  double value_ = 0.0;
};

/// One report section: every view (text, CSV, HTML) renders these columns
/// and rows, so the views cannot disagree about what a section holds.
struct Table {
  std::string name;  ///< Section name; its CSV block is "<name>.csv".
  std::vector<std::string> columns;
  std::vector<std::vector<Cell>> rows{};  ///< columns.size() cells each.
  /// The rows are a chart's series: the text and HTML reports draw the
  /// chart instead of listing them.
  bool chart = false;
};

/// "--- name ---" and a monospace table of the human forms.
std::string TableText(const Table& table);
/// Header row plus one line per row, through CsvWriter.
std::string TableCsv(const Table& table);
/// An <h2> heading and a <table> of the escaped human forms.
std::string TableHtml(const Table& table);

/// Escapes '<', '>' and '&' for HTML text.
std::string HtmlEscape(const std::string& text);

}  // namespace lsbench

#endif  // LSBENCH_REPORT_TABLE_H_
