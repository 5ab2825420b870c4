#include "report/table.h"

#include <sstream>
#include <utility>

#include "stats/ascii_chart.h"
#include "util/csv.h"
#include "util/string_util.h"

namespace lsbench {

Cell Cell::Text(std::string text) {
  return Cell(Kind::kText, std::move(text), 0.0);
}

Cell Cell::Flag(bool on) { return Cell(Kind::kFlag, on ? "1" : "0", on); }

Cell Cell::Count(uint64_t count) {
  return Cell(Kind::kCount, CsvWriter::Field(count), 0.0);
}

Cell Cell::Count(int64_t count) {
  return Cell(Kind::kCount, CsvWriter::Field(count), 0.0);
}

Cell Cell::Nanos(int64_t nanos) {
  return Cell(Kind::kNanos, CsvWriter::Field(nanos),
              static_cast<double>(nanos));
}

Cell Cell::Nanos(double nanos) {
  return Cell(Kind::kNanos, CsvWriter::Field(nanos), nanos);
}

Cell Cell::Seconds(double seconds) {
  return Cell(Kind::kSeconds, CsvWriter::Field(seconds), seconds);
}

Cell Cell::Rate(double per_second) {
  return Cell(Kind::kRate, CsvWriter::Field(per_second), per_second);
}

Cell Cell::Ratio(double ratio) {
  return Cell(Kind::kRatio, CsvWriter::Field(ratio), ratio);
}

std::string Cell::Human() const {
  switch (kind_) {
    case Kind::kEmpty:
      return "-";
    case Kind::kFlag:
      return value_ != 0.0 ? "yes" : "no";
    case Kind::kNanos:
      return HumanDuration(value_);
    case Kind::kSeconds:
    case Kind::kRatio:
      return FormatDouble(value_, 4);
    case Kind::kRate:
      return HumanCount(value_);
    case Kind::kText:
    case Kind::kCount:
      break;
  }
  return raw_;
}

std::string TableText(const Table& table) {
  std::vector<std::vector<std::string>> rows;
  for (const std::vector<Cell>& row : table.rows) {
    std::vector<std::string>& out = rows.emplace_back();
    for (const Cell& cell : row) out.push_back(cell.Human());
  }
  return "--- " + table.name + " ---\n" + RenderTable(table.columns, rows);
}

std::string TableCsv(const Table& table) {
  std::ostringstream out;
  CsvWriter csv(&out);
  csv.WriteRow(table.columns);
  for (const std::vector<Cell>& row : table.rows) {
    std::vector<std::string> fields;
    for (const Cell& cell : row) fields.push_back(cell.Raw());
    csv.WriteRow(fields);
  }
  return out.str();
}

std::string TableHtml(const Table& table) {
  std::ostringstream os;
  os << "<h2>" << HtmlEscape(table.name) << "</h2>\n<table><tr>";
  for (const std::string& column : table.columns) {
    os << "<th>" << HtmlEscape(column) << "</th>";
  }
  os << "</tr>\n";
  for (const std::vector<Cell>& row : table.rows) {
    os << "<tr>";
    for (const Cell& cell : row) {
      os << "<td>" << HtmlEscape(cell.Human()) << "</td>";
    }
    os << "</tr>\n";
  }
  os << "</table>\n";
  return os.str();
}

std::string HtmlEscape(const std::string& text) {
  std::string out;
  for (char c : text) {
    switch (c) {
      case '<':
        out += "&lt;";
        break;
      case '>':
        out += "&gt;";
        break;
      case '&':
        out += "&amp;";
        break;
      default:
        out += c;
    }
  }
  return out;
}

}  // namespace lsbench
