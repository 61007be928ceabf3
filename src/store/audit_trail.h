#ifndef VFLFIA_STORE_AUDIT_TRAIL_H_
#define VFLFIA_STORE_AUDIT_TRAIL_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/query_auditor.h"
#include "store/wal.h"

namespace vfl::store {

/// Binary audit-event record persisted to the WAL (25 bytes: seq, client id,
/// count as fixed64 LE, then the event kind byte).
void EncodeAuditEvent(const serve::AuditEvent& event, std::string* out);
core::StatusOr<serve::AuditEvent> DecodeAuditEvent(std::string_view payload);

struct AuditLogWriterOptions {
  /// How often the background thread polls the auditor for new events.
  std::chrono::milliseconds poll_interval{10};
};

/// Drains a QueryAuditor's audit-event ring buffer to a write-ahead log on a
/// background thread — the upgrade from "capped in-memory ring that silently
/// evicts under load" to a compliance-grade replayable trail. Every drained
/// event is appended as one CRC-checksummed WAL record; fsyncs batch across
/// events (kBatchedSyncWalOptions); Stop() (and the destructor) performs a final drain + sync so no
/// event the ring still holds is lost on clean shutdown.
///
/// If the ring evicts events faster than the drain persists them, the gap is
/// detected from the seq numbers and counted in lost_events() (plus the
/// store.audit.lost_events counter) — loss is *observable*, never silent.
class AuditLogWriter {
 public:
  /// Opens the WAL under `dir` and starts the drain thread. The auditor must
  /// outlive this writer.
  static core::StatusOr<std::unique_ptr<AuditLogWriter>> Start(
      Env& env, const serve::QueryAuditor& auditor, std::string dir,
      AuditLogWriterOptions options = {});

  /// Stops the drain thread after a final drain + sync. Idempotent.
  void Stop();
  ~AuditLogWriter();

  AuditLogWriter(const AuditLogWriter&) = delete;
  AuditLogWriter& operator=(const AuditLogWriter&) = delete;

  /// Events appended to the WAL so far.
  std::uint64_t persisted_events() const;
  /// Events the ring evicted before the drain could read them.
  std::uint64_t lost_events() const;
  /// First WAL error, if any (sticky; the drain stops appending after it).
  core::Status status() const;

  const std::string& dir() const { return wal_->dir(); }

 private:
  AuditLogWriter(const serve::QueryAuditor& auditor,
                 std::unique_ptr<WalWriter> wal,
                 AuditLogWriterOptions options);

  /// One drain cycle: fetch events past last_seq_, append, sync. Returns the
  /// number of events persisted.
  std::size_t DrainOnce();

  void Loop();

  const serve::QueryAuditor& auditor_;
  std::unique_ptr<WalWriter> wal_;
  AuditLogWriterOptions options_;

  mutable std::mutex mu_;
  std::condition_variable wake_;
  bool stopping_ = false;
  bool stopped_ = false;
  std::uint64_t last_seq_ = 0;
  core::Status error_;

  obs::Counter persisted_;
  obs::Counter lost_;
  std::vector<obs::MetricsRegistry::Registration> registrations_;

  std::thread thread_;
};

/// Replays a persisted audit trail: every intact event in append order
/// (crash-recovered — a torn tail is truncated, see RecoverWal). `stats`,
/// when non-null, receives the underlying WAL recovery stats.
core::StatusOr<std::vector<serve::AuditEvent>> ReplayAuditTrail(
    Env& env, const std::string& dir, WalRecoveryStats* stats = nullptr);

}  // namespace vfl::store

#endif  // VFLFIA_STORE_AUDIT_TRAIL_H_
