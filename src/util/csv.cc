#include "util/csv.h"

#include <cstdio>

namespace lsbench {

void CsvWriter::WriteRow(const std::vector<std::string>& fields) {
  for (size_t i = 0; i < fields.size(); ++i) {
    if (i > 0) (*out_) << sep_;
    (*out_) << Escape(fields[i]);
  }
  (*out_) << '\n';
  ++rows_;
}

std::string CsvWriter::Field(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", value);
  return buf;
}

std::string CsvWriter::Field(int64_t value) { return std::to_string(value); }
std::string CsvWriter::Field(uint64_t value) { return std::to_string(value); }

std::string CsvWriter::Escape(std::string_view field) const {
  bool needs_quotes = false;
  for (char c : field) {
    if (c == sep_ || c == '"' || c == '\n' || c == '\r') {
      needs_quotes = true;
      break;
    }
  }
  if (!needs_quotes) return std::string(field);
  std::string out = "\"";
  for (char c : field) {
    if (c == '"') out += "\"\"";
    else out += c;
  }
  out += '"';
  return out;
}

Result<std::vector<std::vector<std::string>>> ParseCsv(std::string_view text,
                                                       char sep) {
  std::vector<std::vector<std::string>> rows;
  std::vector<std::string> row;
  std::string field;
  bool in_quotes = false;
  bool field_started = false;

  auto end_field = [&]() {
    row.push_back(std::move(field));
    field.clear();
    field_started = false;
  };
  auto end_row = [&]() {
    end_field();
    rows.push_back(std::move(row));
    row.clear();
  };

  for (size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < text.size() && text[i + 1] == '"') {
          field += '"';
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        field += c;
      }
      continue;
    }
    if (c == '"') {
      if (field_started && !field.empty()) {
        return Status::InvalidArgument("row " + std::to_string(rows.size()) +
                                       ": quote inside unquoted field");
      }
      in_quotes = true;
      field_started = true;
    } else if (c == sep) {
      end_field();
    } else if (c == '\n') {
      end_row();
    } else if (c == '\r') {
      // Swallow CR in CRLF.
    } else {
      field += c;
      field_started = true;
    }
  }
  if (in_quotes) {
    return Status::InvalidArgument("row " + std::to_string(rows.size()) +
                                   ": unterminated quoted field");
  }
  if (field_started || !row.empty()) end_row();
  return rows;
}

}  // namespace lsbench
