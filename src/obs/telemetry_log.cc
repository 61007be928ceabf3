#include "obs/telemetry_log.h"

#include <utility>

namespace vfl::obs {

TelemetryLog::TelemetryLog(std::unique_ptr<store::WalWriter> wal)
    : wal_(std::move(wal)) {}

core::StatusOr<std::unique_ptr<TelemetryLog>> TelemetryLog::Open(
    store::Env& env, std::string dir) {
  VFL_ASSIGN_OR_RETURN(auto wal,
                       store::WalWriter::Open(env, std::move(dir),
                                              store::kBatchedSyncWalOptions));
  return std::unique_ptr<TelemetryLog>(new TelemetryLog(std::move(wal)));
}

core::Status TelemetryLog::AppendTagged(char tag, std::string_view payload) {
  std::string record;
  record.reserve(payload.size() + 1);
  record.push_back(tag);
  record.append(payload);
  std::lock_guard<std::mutex> lock(mutex_);
  VFL_RETURN_IF_ERROR(wal_->Append(record));
  if (tag == 'F') {
    ++frames_appended_;
  } else {
    ++alerts_appended_;
  }
  return core::Status::Ok();
}

core::Status TelemetryLog::AppendFrame(const TimeseriesFrame& frame) {
  return AppendTagged('F', EncodeTimeseriesFrame(frame));
}

core::Status TelemetryLog::AppendAlert(const AlertTransition& transition) {
  return AppendTagged('A', EncodeAlertTransition(transition));
}

core::Status TelemetryLog::Sync() {
  std::lock_guard<std::mutex> lock(mutex_);
  return wal_->Sync();
}

const std::string& TelemetryLog::dir() const { return wal_->dir(); }

std::uint64_t TelemetryLog::frames_appended() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return frames_appended_;
}

std::uint64_t TelemetryLog::alerts_appended() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return alerts_appended_;
}

core::StatusOr<TelemetryReplay> ReplayTelemetry(
    store::Env& env, const std::string& dir, store::WalRecoveryStats* stats) {
  TelemetryReplay replay;
  VFL_ASSIGN_OR_RETURN(
      const store::WalRecoveryStats recovered,
      store::RecoverWal(
          env, dir, [&replay](std::string_view payload) -> core::Status {
            if (payload.empty()) {
              return core::Status::InvalidArgument(
                  "telemetry record: empty payload");
            }
            const char tag = payload.front();
            const std::string_view body = payload.substr(1);
            if (tag == 'F') {
              VFL_ASSIGN_OR_RETURN(auto frame, DecodeTimeseriesFrame(body));
              replay.frames.push_back(std::move(frame));
            } else if (tag == 'A') {
              VFL_ASSIGN_OR_RETURN(auto transition,
                                   DecodeAlertTransition(body));
              replay.alerts.push_back(std::move(transition));
            } else {
              return core::Status::InvalidArgument(
                  "telemetry record: unknown tag");
            }
            return core::Status::Ok();
          }));
  if (stats != nullptr) *stats = recovered;
  return replay;
}

}  // namespace vfl::obs
