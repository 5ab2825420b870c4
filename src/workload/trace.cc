#include "workload/trace.h"

#include <cerrno>
#include <cstdlib>
#include <limits>
#include <sstream>

#include "util/csv.h"
#include "workload/generator.h"

namespace lsbench {

namespace {

constexpr int kNumFields = 5;
const char* const kFieldNames[kNumFields] = {"type", "key", "range_end",
                                             "scan_length", "value"};

Status RowError(size_t row, const std::string& what) {
  return Status::InvalidArgument("trace row " + std::to_string(row) + ": " +
                                 what);
}

Status FieldError(size_t row, int field, const std::string& what) {
  return Status::InvalidArgument("trace row " + std::to_string(row) +
                                 ", field " + kFieldNames[field] + ": " +
                                 what);
}

/// Decimal digits only: strtoull alone would accept a sign (wrapping "-1")
/// and saturate on overflow, silently changing the replayed key.
Result<uint64_t> ParseU64(const std::string& text) {
  const bool digits_only =
      !text.empty() &&
      text.find_first_not_of("0123456789") == std::string::npos;
  if (!digits_only) return Status::InvalidArgument("not a number: " + text);
  errno = 0;
  const unsigned long long v = std::strtoull(text.c_str(), nullptr, 10);
  if (errno == ERANGE) return Status::InvalidArgument("out of range: " + text);
  return static_cast<uint64_t>(v);
}

}  // namespace

std::vector<uint64_t> OperationTrace::TypeHistogram() const {
  std::vector<uint64_t> counts(kNumOpTypes, 0);
  for (const Operation& op : operations_) {
    ++counts[static_cast<int>(op.type)];
  }
  return counts;
}

std::string OperationTrace::ToCsv() const {
  std::ostringstream out;
  CsvWriter csv(&out);
  csv.WriteRow(std::vector<std::string>(kFieldNames, kFieldNames + kNumFields));
  for (const Operation& op : operations_) {
    csv.WriteRow({OpTypeToString(op.type), CsvWriter::Field(op.key),
                  CsvWriter::Field(op.range_end),
                  CsvWriter::Field(static_cast<uint64_t>(op.scan_length)),
                  CsvWriter::Field(op.value)});
  }
  return out.str();
}

Result<OperationTrace> OperationTrace::FromCsv(const std::string& csv) {
  const Result<std::vector<std::vector<std::string>>> rows = ParseCsv(csv);
  if (!rows.ok()) {
    return Status::InvalidArgument("trace " + rows.status().message());
  }
  const auto& parsed = rows.value();
  if (parsed.empty() ||
      parsed[0] != std::vector<std::string>(kFieldNames,
                                            kFieldNames + kNumFields)) {
    return RowError(0, "missing header type,key,range_end,scan_length,value");
  }
  OperationTrace trace;
  for (size_t i = 1; i < parsed.size(); ++i) {
    const auto& row = parsed[i];
    if (row.size() != kNumFields) {
      return RowError(i, "expected " + std::to_string(kNumFields) +
                             " fields, got " + std::to_string(row.size()));
    }
    Operation op;
    bool known = false;
    for (int t = 0; t < kNumOpTypes && !known; ++t) {
      op.type = static_cast<OpType>(t);
      known = OpTypeToString(op.type) == row[0];
    }
    if (!known) return FieldError(i, 0, "unknown op type: " + row[0]);
    if (IsBatchOp(op.type)) {
      return FieldError(i, 0, row[0] + " rows are not supported; traces "
                                       "are scalar-only");
    }
    uint64_t values[kNumFields] = {};
    for (int f = 1; f < kNumFields; ++f) {
      const Result<uint64_t> v = ParseU64(row[f]);
      if (!v.ok()) return FieldError(i, f, v.status().message());
      values[f] = v.value();
    }
    if (values[3] > std::numeric_limits<uint32_t>::max()) {
      return FieldError(i, 3, "out of range: " + row[3]);
    }
    op.key = values[1];
    op.range_end = values[2];
    op.scan_length = static_cast<uint32_t>(values[3]);
    op.value = values[4];
    trace.Append(op);
  }
  return trace;
}

Result<OperationTrace> RecordTrace(const Dataset& dataset,
                                   const PhaseSpec& phase, size_t count,
                                   uint64_t seed) {
  if (phase.mix.batch_get > 0.0 || phase.mix.batch_put > 0.0) {
    return Status::InvalidArgument(
        "phase '" + phase.name +
        "' draws batch ops; traces are scalar-only");
  }
  OperationGenerator generator(&dataset, phase, seed);
  OperationTrace trace;
  for (size_t i = 0; i < count; ++i) trace.Append(generator.Next());
  return trace;
}

}  // namespace lsbench
