#ifndef VFLFIA_STORE_WAL_H_
#define VFLFIA_STORE_WAL_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "obs/metrics.h"
#include "store/env.h"

namespace vfl::store {

/// Append-only segmented write-ahead log.
///
/// On-disk format (all integers little-endian):
///   segment file "wal-NNNNNN.log":
///     [8-byte magic "VFLWAL01"]
///     record*:  [u32 masked CRC-32C][u32 payload length][payload bytes]
/// The CRC covers the length field plus the payload (masked LevelDB-style so
/// payloads that contain CRCs stay collision-resistant), so a flipped length
/// byte is as detectable as a flipped payload byte.
///
/// Durability model: Append buffers into the OS via write(2); Sync is fsync.
/// `WalOptions.sync_bytes` batches fsyncs — 0 syncs every append (each
/// record is durable once Append returns), N > 0 syncs when at least N
/// unsynced bytes have accumulated (the throughput mode the audit drain
/// uses). Recovery replays the longest valid record prefix and truncates
/// whatever follows, so a crash between fsyncs loses at most the unsynced
/// suffix — never previously synced records, and never yields a corrupt
/// record.
struct WalOptions {
  /// Segment rotation threshold. A record never splits across segments; a
  /// segment may exceed this by at most one record.
  std::uint64_t segment_bytes = 4ull << 20;
  /// Unsynced-byte threshold that triggers an automatic fsync; 0 = fsync on
  /// every Append.
  std::uint64_t sync_bytes = 0;
};

/// The background journals' tuning (audit trail, telemetry log): default
/// segments, one fsync per 64 KiB of records. One fsync then covers hundreds
/// of audit events, which is what lets the audit drain keep up with the
/// auditor's ring under load.
inline constexpr WalOptions kBatchedSyncWalOptions{
    /*segment_bytes=*/4ull << 20, /*sync_bytes=*/64ull << 10};

/// Size cap on one record's payload; larger appends are rejected and larger
/// on-disk lengths are treated as corruption.
inline constexpr std::uint64_t kWalMaxRecordSize = 1ull << 28;

inline constexpr char kWalMagic[8] = {'V', 'F', 'L', 'W', 'A', 'L', '0', '1'};
inline constexpr std::size_t kWalHeaderSize = 8;
inline constexpr std::size_t kWalRecordOverhead = 8;  // crc + length

/// Path of segment `n` inside `dir` ("wal-000007.log").
std::string WalSegmentPath(const std::string& dir, std::uint64_t n);

/// Single-writer append handle. Not thread-safe — callers serialize (the
/// audit drain runs it on one background thread; the grid checkpoint wraps
/// it in a mutex).
///
/// Open() always starts a fresh segment numbered after the highest existing
/// one: the writer never appends to a possibly-torn tail, so the
/// longest-valid-prefix recovery invariant holds without reopening logic.
class WalWriter {
 public:
  /// Creates `dir` if needed and opens the next segment lazily (the segment
  /// file is created on the first Append, so a writer that never writes
  /// leaves no empty segment behind).
  static core::StatusOr<std::unique_ptr<WalWriter>> Open(
      Env& env, std::string dir, WalOptions options = {});

  ~WalWriter();
  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  /// Appends one record. After any failed append the writer is broken (every
  /// later Append fails with FailedPrecondition): a partially written record
  /// must stay the *last* thing in the segment for tail-truncation recovery
  /// to see it.
  core::Status Append(std::string_view payload);

  /// Forces an fsync of the current segment (no-op when nothing is pending).
  core::Status Sync();

  /// Records appended through this writer.
  std::uint64_t records_appended() const { return appends_.Value(); }
  /// Payload + framing bytes appended through this writer.
  std::uint64_t bytes_appended() const { return appended_bytes_.Value(); }
  std::uint64_t fsyncs() const { return fsyncs_.Value(); }
  std::uint64_t segments_opened() const { return rotations_.Value(); }

  const std::string& dir() const { return dir_; }

 private:
  WalWriter(Env& env, std::string dir, WalOptions options,
            std::uint64_t next_segment);

  /// Closes the current segment (final fsync) and opens segment
  /// `next_segment_`.
  core::Status RotateLocked();

  Env& env_;
  std::string dir_;
  WalOptions options_;

  std::unique_ptr<WritableFile> segment_;
  std::uint64_t next_segment_ = 1;
  std::uint64_t segment_size_ = 0;
  std::uint64_t unsynced_bytes_ = 0;
  bool broken_ = false;

  /// store.wal.* instruments (process-global registry; all writers sum).
  obs::Counter appends_;
  obs::Counter appended_bytes_;
  obs::Counter fsyncs_;
  obs::Counter rotations_;
  std::vector<obs::MetricsRegistry::Registration> registrations_;
};

/// What recovery found and did.
struct WalRecoveryStats {
  std::uint64_t segments_scanned = 0;
  std::uint64_t records_replayed = 0;
  /// Payload bytes handed to the replay callback.
  std::uint64_t bytes_replayed = 0;
  /// Bytes discarded: the corrupt/torn tail plus every byte of later
  /// segments (records after a corruption never replay, even if their own
  /// CRCs check out — the log's order contract would be violated).
  std::uint64_t truncated_bytes = 0;
  std::uint64_t segments_removed = 0;
  bool found_corruption = false;
  /// Human-readable description of the first corruption ("" when clean).
  std::string detail;
};

/// Replays every intact record of the log in append order, stopping at the
/// first corrupt or torn record. The on-disk log is repaired in place: the
/// corrupt segment is truncated to its longest valid prefix and later
/// segments are deleted, so a subsequent WalWriter::Open + replay sees
/// exactly the replayed prefix. A missing directory recovers as an empty log.
///
/// `replay` may return a non-OK status to abort (the error propagates and
/// the log is left un-repaired).
core::StatusOr<WalRecoveryStats> RecoverWal(
    Env& env, const std::string& dir,
    const std::function<core::Status(std::string_view payload)>& replay);

}  // namespace vfl::store

#endif  // VFLFIA_STORE_WAL_H_
