#ifndef LSBENCH_UTIL_STATUS_H_
#define LSBENCH_UTIL_STATUS_H_

#include <string>
#include <string_view>
#include <utility>

namespace lsbench {

/// Error categories used across the library. Modeled after the RocksDB /
/// Arrow convention: fallible library operations return a Status (or a
/// Result<T>) instead of throwing.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kAlreadyExists,
  kOutOfRange,
  kFailedPrecondition,
  kUnimplemented,
  kInternal,
  kIoError,
  kTimeout,
  kUnavailable,
  kResourceExhausted,
};

/// Returns a stable, human-readable name for a status code ("OK",
/// "InvalidArgument", ...).
std::string_view StatusCodeToString(StatusCode code);

/// Transient codes: failures that a retry with backoff may recover from
/// (the resilient driver's retry predicate). Everything else is permanent.
bool IsTransientStatusCode(StatusCode code);

/// A cheap, copyable success-or-error value. The OK status carries no
/// allocation; error statuses carry a code and a message.
///
/// [[nodiscard]] at the type level: any function returning Status by value
/// makes the caller handle (or explicitly (void)-discard) the result. A
/// silently dropped error from Load()/Train() would corrupt benchmark
/// results without failing a test.
class [[nodiscard]] Status {
 public:
  /// Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}

  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  Status(const Status&) = default;
  Status& operator=(const Status&) = default;
  Status(Status&&) = default;
  Status& operator=(Status&&) = default;

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status AlreadyExists(std::string msg) {
    return Status(StatusCode::kAlreadyExists, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status Unimplemented(std::string msg) {
    return Status(StatusCode::kUnimplemented, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status IoError(std::string msg) {
    return Status(StatusCode::kIoError, std::move(msg));
  }
  static Status Timeout(std::string msg) {
    return Status(StatusCode::kTimeout, std::move(msg));
  }
  static Status Unavailable(std::string msg) {
    return Status(StatusCode::kUnavailable, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  bool IsInvalidArgument() const {
    return code_ == StatusCode::kInvalidArgument;
  }
  bool IsNotFound() const { return code_ == StatusCode::kNotFound; }
  bool IsAlreadyExists() const { return code_ == StatusCode::kAlreadyExists; }
  bool IsOutOfRange() const { return code_ == StatusCode::kOutOfRange; }
  bool IsFailedPrecondition() const {
    return code_ == StatusCode::kFailedPrecondition;
  }
  bool IsUnimplemented() const { return code_ == StatusCode::kUnimplemented; }
  bool IsInternal() const { return code_ == StatusCode::kInternal; }
  bool IsIoError() const { return code_ == StatusCode::kIoError; }
  bool IsTimeout() const { return code_ == StatusCode::kTimeout; }
  bool IsUnavailable() const { return code_ == StatusCode::kUnavailable; }
  bool IsResourceExhausted() const {
    return code_ == StatusCode::kResourceExhausted;
  }

  /// True for codes a retry may recover from (see IsTransientStatusCode).
  bool IsTransient() const { return IsTransientStatusCode(code_); }

  /// "OK" or "<Code>: <message>".
  std::string ToString() const;

 private:
  StatusCode code_;
  std::string message_;
};

inline bool operator==(const Status& a, const Status& b) {
  return a.code() == b.code() && a.message() == b.message();
}

/// Propagates a non-OK status to the caller. Usable only in functions
/// returning Status. Replaces the hand-rolled
///   auto s = Fallible(); if (!s.ok()) return s;
#define LSBENCH_RETURN_IF_ERROR(expr)               \
  do {                                              \
    ::lsbench::Status _st = (expr);                 \
    if (!_st.ok()) return _st;                      \
  } while (false)

/// Older spelling of LSBENCH_RETURN_IF_ERROR, kept as an alias so in-flight
/// branches keep compiling. New code should use LSBENCH_RETURN_IF_ERROR.
#define LSBENCH_RETURN_NOT_OK(expr) LSBENCH_RETURN_IF_ERROR(expr)

#define LSBENCH_STATUS_CONCAT_IMPL(a, b) a##b
#define LSBENCH_STATUS_CONCAT(a, b) LSBENCH_STATUS_CONCAT_IMPL(a, b)

/// Evaluates `rexpr` (a Result<T>), propagating a non-OK status to the
/// caller; on success assigns the unwrapped value to `lhs`:
///   LSBENCH_ASSIGN_OR_RETURN(const ParsedSpec spec, ParseRunSpecText(text));
/// Usable in functions returning Status or Result<U>.
#define LSBENCH_ASSIGN_OR_RETURN(lhs, rexpr)                             \
  auto LSBENCH_STATUS_CONCAT(_lsb_result_, __LINE__) = (rexpr);          \
  if (!LSBENCH_STATUS_CONCAT(_lsb_result_, __LINE__).ok()) {             \
    return LSBENCH_STATUS_CONCAT(_lsb_result_, __LINE__).status();       \
  }                                                                      \
  lhs = std::move(LSBENCH_STATUS_CONCAT(_lsb_result_, __LINE__)).value()

/// Holds either a value of type T or an error Status. The value is only
/// accessible when ok(). [[nodiscard]] for the same reason as Status: a
/// dropped Result is a dropped error.
template <typename T>
class [[nodiscard]] Result {
 public:
  /// Implicit construction from a value or a Status keeps call sites terse:
  ///   Result<int> F() { return 42; }
  ///   Result<int> G() { return Status::NotFound("gone"); }
  Result(T value)  // NOLINT(google-explicit-constructor)
      : status_(Status::OK()), value_(std::move(value)), has_value_(true) {}
  Result(Status status)  // NOLINT(google-explicit-constructor)
      : status_(std::move(status)), value_(), has_value_(false) {}

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  /// Requires ok(). Asserted in debug builds.
  const T& value() const& { return value_; }
  T& value() & { return value_; }
  T&& value() && { return std::move(value_); }

  /// Returns the value if ok, otherwise `fallback`.
  T value_or(T fallback) const {
    return has_value_ ? value_ : std::move(fallback);
  }

 private:
  Status status_;
  T value_;
  bool has_value_;
};

}  // namespace lsbench

#endif  // LSBENCH_UTIL_STATUS_H_
