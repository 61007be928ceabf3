#ifndef VFLFIA_OBS_TELEMETRY_LOG_H_
#define VFLFIA_OBS_TELEMETRY_LOG_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/status.h"
#include "obs/alert.h"
#include "obs/timeseries.h"
#include "store/wal.h"

namespace vfl::obs {

/// Durable, replayable telemetry history: timeseries frames and alert
/// transitions journaled through the segmented WAL. Each WAL record is one
/// tag byte ('F' frame / 'A' alert transition) followed by the record's
/// binary encoding, so the two streams interleave in true append order and
/// recovery inherits the WAL's longest-valid-prefix guarantee.
///
/// Thread-safe: the collector thread appends frames while the alert engine
/// appends transitions. Fsyncs batch like the audit trail's
/// (store::kBatchedSyncWalOptions).
class TelemetryLog {
 public:
  static core::StatusOr<std::unique_ptr<TelemetryLog>> Open(store::Env& env,
                                                            std::string dir);

  core::Status AppendFrame(const TimeseriesFrame& frame);
  core::Status AppendAlert(const AlertTransition& transition);

  /// Forces an fsync of pending records.
  core::Status Sync();

  const std::string& dir() const;
  std::uint64_t frames_appended() const;
  std::uint64_t alerts_appended() const;

 private:
  explicit TelemetryLog(std::unique_ptr<store::WalWriter> wal);

  core::Status AppendTagged(char tag, std::string_view payload);

  mutable std::mutex mutex_;
  std::unique_ptr<store::WalWriter> wal_;
  std::uint64_t frames_appended_ = 0;
  std::uint64_t alerts_appended_ = 0;
};

/// Everything an intact telemetry log prefix contained, in append order
/// within each stream.
struct TelemetryReplay {
  std::vector<TimeseriesFrame> frames;
  std::vector<AlertTransition> alerts;
};

/// Replays the telemetry WAL at `dir`, recovering the longest valid record
/// prefix (torn tails are truncated in place, WAL-style). A record that
/// passes the WAL CRC but fails the frame/transition codec aborts the replay
/// with the decode error — CRC-valid garbage means a writer bug, not a torn
/// write, and silently skipping it would hide that. A missing directory
/// replays empty.
core::StatusOr<TelemetryReplay> ReplayTelemetry(
    store::Env& env, const std::string& dir,
    store::WalRecoveryStats* stats = nullptr);

}  // namespace vfl::obs

#endif  // VFLFIA_OBS_TELEMETRY_LOG_H_
