#ifndef VFLFIA_CORE_STATUS_H_
#define VFLFIA_CORE_STATUS_H_

#include <string>
#include <string_view>
#include <utility>
#include <variant>

#include "core/check.h"

namespace vfl::core {

/// Error categories for fallible library operations. Mirrors the
/// RocksDB-style status idiom: library code never throws; expected failures
/// travel through Status / StatusOr<T>.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kOutOfRange,
  kNotFound,
  kAlreadyExists,
  kFailedPrecondition,
  /// A quota the caller controls ran out (query budgets, auditor denials).
  kResourceExhausted,
  kInternal,
  kUnimplemented,
  kIoError,
  /// An operation's caller-supplied time budget expired (socket recv
  /// timeouts, scrape deadlines). Distinct from kIoError so callers can
  /// retry-or-degrade instead of treating the peer as broken.
  kDeadlineExceeded,
};

/// Returns a stable human-readable name for a StatusCode ("ok",
/// "invalid_argument", ...).
std::string_view StatusCodeName(StatusCode code);

/// Value-semantic success/error carrier for operations that can fail in ways
/// the caller is expected to handle (I/O, shape mismatches, bad user config).
///
/// Programmer errors (violated preconditions inside the library) use CHECK
/// instead; Status is reserved for failures a correct caller can trigger.
class Status {
 public:
  /// Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}

  Status(const Status&) = default;
  Status& operator=(const Status&) = default;
  Status(Status&&) noexcept = default;
  Status& operator=(Status&&) noexcept = default;

  /// Factory helpers, one per error category.
  static Status Ok() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status AlreadyExists(std::string msg) {
    return Status(StatusCode::kAlreadyExists, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status Unimplemented(std::string msg) {
    return Status(StatusCode::kUnimplemented, std::move(msg));
  }
  static Status IoError(std::string msg) {
    return Status(StatusCode::kIoError, std::move(msg));
  }
  static Status DeadlineExceeded(std::string msg) {
    return Status(StatusCode::kDeadlineExceeded, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// "ok" or "<code>: <message>".
  std::string ToString() const;

  friend bool operator==(const Status& a, const Status& b) {
    return a.code_ == b.code_ && a.message_ == b.message_;
  }

 private:
  Status(StatusCode code, std::string msg)
      : code_(code), message_(std::move(msg)) {}

  StatusCode code_;
  std::string message_;
};

/// StatusOr<T> holds either a T or an error Status (the CalicoDB/absl
/// value-or-error idiom). Accessors CHECK on misuse.
template <typename T>
class StatusOr {
 public:
  /// Implicit from value: allows `return value;` in functions returning
  /// StatusOr<T>.
  StatusOr(T value) : payload_(std::move(value)) {}  // NOLINT(runtime/explicit)

  /// Implicit from error status; CHECKs that the status is not OK (an OK
  /// StatusOr must carry a value).
  StatusOr(Status status) : payload_(std::move(status)) {  // NOLINT
    CHECK(!std::get<Status>(payload_).ok())
        << "StatusOr constructed from OK status without a value";
  }

  StatusOr(const StatusOr&) = default;
  StatusOr& operator=(const StatusOr&) = default;
  StatusOr(StatusOr&&) noexcept = default;
  StatusOr& operator=(StatusOr&&) noexcept = default;

  bool ok() const { return std::holds_alternative<T>(payload_); }
  bool has_value() const { return ok(); }

  /// Returns the error status (OK if a value is held).
  Status status() const {
    if (ok()) return Status::Ok();
    return std::get<Status>(payload_);
  }

  /// Value accessors; CHECK-fail when the StatusOr holds an error.
  const T& value() const& {
    CHECK(ok()) << "StatusOr::value() on error: " << status().ToString();
    return std::get<T>(payload_);
  }
  T& value() & {
    CHECK(ok()) << "StatusOr::value() on error: " << status().ToString();
    return std::get<T>(payload_);
  }
  T&& value() && {
    CHECK(ok()) << "StatusOr::value() on error: " << status().ToString();
    return std::get<T>(std::move(payload_));
  }

  /// Returns the held value, or `fallback` when this holds an error.
  T value_or(T fallback) const& { return ok() ? value() : std::move(fallback); }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  T&& operator*() && { return std::move(*this).value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

 private:
  std::variant<T, Status> payload_;
};

}  // namespace vfl::core

/// Propagates a non-OK Status from an expression, RocksDB style:
///   VFL_RETURN_IF_ERROR(DoThing());
#define VFL_RETURN_IF_ERROR(expr)                       \
  do {                                                  \
    ::vfl::core::Status vfl_status_tmp_ = (expr);       \
    if (!vfl_status_tmp_.ok()) return vfl_status_tmp_;  \
  } while (false)

/// Unwraps a StatusOr<T> into `lhs`, propagating the error status on failure:
///   VFL_ASSIGN_OR_RETURN(auto ds, LoadCsv(path));
#define VFL_ASSIGN_OR_RETURN(lhs, rexpr)                   \
  VFL_ASSIGN_OR_RETURN_IMPL_(                              \
      VFL_STATUS_CONCAT_(vfl_result_tmp_, __LINE__), lhs, rexpr)

#define VFL_STATUS_CONCAT_INNER_(a, b) a##b
#define VFL_STATUS_CONCAT_(a, b) VFL_STATUS_CONCAT_INNER_(a, b)
#define VFL_ASSIGN_OR_RETURN_IMPL_(tmp, lhs, rexpr) \
  auto tmp = (rexpr);                               \
  if (!tmp.ok()) return tmp.status();               \
  lhs = std::move(tmp).value()

#endif  // VFLFIA_CORE_STATUS_H_
