#include "store/audit_trail.h"

#include <utility>

#include "store/coding.h"

namespace vfl::store {

namespace {
constexpr std::size_t kAuditEventBytes = 8 + 8 + 8 + 1;
}  // namespace

void EncodeAuditEvent(const serve::AuditEvent& event, std::string* out) {
  out->reserve(out->size() + kAuditEventBytes);
  PutFixed64(out, event.seq);
  PutFixed64(out, event.client_id);
  PutFixed64(out, event.count);
  out->push_back(static_cast<char>(event.event));
}

core::StatusOr<serve::AuditEvent> DecodeAuditEvent(std::string_view payload) {
  if (payload.size() != kAuditEventBytes) {
    return core::Status::InvalidArgument(
        "audit event record has " + std::to_string(payload.size()) +
        " bytes, expected " + std::to_string(kAuditEventBytes));
  }
  serve::AuditEvent event;
  event.seq = DecodeFixed64(payload.data());
  event.client_id = DecodeFixed64(payload.data() + 8);
  event.count = DecodeFixed64(payload.data() + 16);
  const auto kind = static_cast<std::uint8_t>(payload[24]);
  if (kind > static_cast<std::uint8_t>(serve::AuditEventKind::kServed)) {
    return core::Status::InvalidArgument("unknown audit event kind " +
                                         std::to_string(kind));
  }
  event.event = static_cast<serve::AuditEventKind>(kind);
  return event;
}

AuditLogWriter::AuditLogWriter(const serve::QueryAuditor& auditor,
                               std::unique_ptr<WalWriter> wal,
                               AuditLogWriterOptions options)
    : auditor_(auditor), wal_(std::move(wal)), options_(options) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  registrations_.push_back(registry.RegisterCounter(
      "store.audit.persisted_events", "events", &persisted_));
  registrations_.push_back(
      registry.RegisterCounter("store.audit.lost_events", "events", &lost_));
  thread_ = std::thread([this] { Loop(); });
}

core::StatusOr<std::unique_ptr<AuditLogWriter>> AuditLogWriter::Start(
    Env& env, const serve::QueryAuditor& auditor, std::string dir,
    AuditLogWriterOptions options) {
  VFL_ASSIGN_OR_RETURN(std::unique_ptr<WalWriter> wal,
                       WalWriter::Open(env, std::move(dir),
                                       kBatchedSyncWalOptions));
  return std::unique_ptr<AuditLogWriter>(
      new AuditLogWriter(auditor, std::move(wal), options));
}

std::size_t AuditLogWriter::DrainOnce() {
  // The drain reads the ring without holding our own mutex (the auditor has
  // its own lock); only last_seq_/error_ updates synchronize with accessors.
  std::uint64_t after;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!error_.ok()) return 0;
    after = last_seq_;
  }
  const std::vector<serve::AuditEvent> events =
      auditor_.DrainEventsSince(after);
  if (events.empty()) return 0;

  // Eviction between drains shows as a seq jump: events (after, first.seq)
  // were lost from the ring before we could persist them.
  const std::uint64_t gap =
      events.front().seq > after + 1 ? events.front().seq - after - 1 : 0;
  if (gap > 0) lost_.Add(gap);

  std::string payload;
  core::Status status;
  std::size_t persisted = 0;
  for (const serve::AuditEvent& event : events) {
    payload.clear();
    EncodeAuditEvent(event, &payload);
    status = wal_->Append(payload);
    if (!status.ok()) break;
    ++persisted;
  }
  if (status.ok()) status = wal_->Sync();
  persisted_.Add(persisted);

  std::lock_guard<std::mutex> lock(mu_);
  if (persisted > 0) last_seq_ = events[persisted - 1].seq;
  if (!status.ok() && error_.ok()) error_ = status;
  return persisted;
}

void AuditLogWriter::Loop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (!stopping_) {
    wake_.wait_for(lock, options_.poll_interval,
                   [this] { return stopping_; });
    if (stopping_) break;
    lock.unlock();
    DrainOnce();
    lock.lock();
  }
}

void AuditLogWriter::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopped_) return;
    stopped_ = true;
    stopping_ = true;
  }
  wake_.notify_all();
  thread_.join();
  // Final drain on the caller's thread: everything still in the ring at
  // shutdown makes it to disk.
  while (DrainOnce() > 0) {
  }
}

AuditLogWriter::~AuditLogWriter() { Stop(); }

std::uint64_t AuditLogWriter::persisted_events() const {
  return persisted_.Value();
}

std::uint64_t AuditLogWriter::lost_events() const { return lost_.Value(); }

core::Status AuditLogWriter::status() const {
  std::lock_guard<std::mutex> lock(mu_);
  return error_;
}

core::StatusOr<std::vector<serve::AuditEvent>> ReplayAuditTrail(
    Env& env, const std::string& dir, WalRecoveryStats* stats) {
  std::vector<serve::AuditEvent> events;
  VFL_ASSIGN_OR_RETURN(
      const WalRecoveryStats recovered,
      RecoverWal(env, dir, [&](std::string_view payload) -> core::Status {
        VFL_ASSIGN_OR_RETURN(const serve::AuditEvent event,
                             DecodeAuditEvent(payload));
        events.push_back(event);
        return core::Status::Ok();
      }));
  if (stats != nullptr) *stats = recovered;
  return events;
}

}  // namespace vfl::store
