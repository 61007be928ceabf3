#include "serve/query_auditor.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "core/check.h"

namespace vfl::serve {

std::string_view AuditFlagReasonName(AuditFlagReason reason) {
  switch (reason) {
    case AuditFlagReason::kNone:
      return "none";
    case AuditFlagReason::kBudget:
      return "budget";
    case AuditFlagReason::kRate:
      return "rate";
  }
  return "unknown";
}

QueryAuditor::QueryAuditor(QueryAuditorConfig config)
    : config_(std::move(config)),
      window_ns_(static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              config_.rate_window)
              .count())) {
  CHECK_GT(window_ns_, 0u) << "rate_window must be positive";
  obs::MetricsRegistry& registry = obs::RegistryOr(config_.metrics);
  registrations_.push_back(registry.RegisterCounter(
      "serve.auditor.admitted", "queries", &admitted_total_));
  registrations_.push_back(registry.RegisterCounter("serve.auditor.denied",
                                                    "queries", &denied_total_));
  registrations_.push_back(registry.RegisterCounter("serve.auditor.served",
                                                    "queries", &served_total_));
  registrations_.push_back(registry.RegisterCounter(
      "serve.auditor.dropped_events", "events", &dropped_total_));
  registrations_.push_back(registry.RegisterCounter(
      "serve.auditor.flagged_clients", "clients", &flagged_total_));
  registrations_.push_back(registry.RegisterHistogram(
      "serve.auditor.window_rate", "qps", &window_rate_));
  registrations_.push_back(registry.RegisterGauge(
      "serve.auditor.peak_window_qps", "qps", &peak_window_qps_));
}

std::uint64_t QueryAuditor::RegisterClient(std::string name) {
  std::lock_guard<std::mutex> lock(mu_);
  ClientState state;
  state.name = std::move(name);
  state.budget = config_.default_query_budget;
  clients_.push_back(std::move(state));
  return clients_.size();
}

std::uint64_t QueryAuditor::RegisterClients(std::size_t count) {
  if (count == 0) return 0;
  std::lock_guard<std::mutex> lock(mu_);
  const std::uint64_t first_id = clients_.size() + 1;
  ClientState state;
  state.budget = config_.default_query_budget;
  clients_.resize(clients_.size() + count, state);
  return first_id;
}

void QueryAuditor::SetBudget(std::uint64_t client_id, std::uint64_t budget) {
  std::lock_guard<std::mutex> lock(mu_);
  ClientState* state = FindLocked(client_id);
  CHECK(state != nullptr) << "unknown client " << client_id;
  state->budget = budget;
}

void QueryAuditor::AddToWindowLocked(ClientState& state, std::uint64_t now_ns,
                                     std::uint64_t count) {
  const std::uint64_t bucket = now_ns / window_ns_;
  if (bucket == state.window_bucket) {
    state.window_cur += count;
  } else if (bucket == state.window_bucket + 1) {
    state.window_prev = state.window_cur;
    state.window_cur = count;
    state.window_bucket = bucket;
  } else {
    // More than a full window of silence: both buckets are stale.
    state.window_prev = 0;
    state.window_cur = count;
    state.window_bucket = bucket;
  }
}

double QueryAuditor::WindowQpsLocked(const ClientState& state,
                                     std::uint64_t now_ns) const {
  const std::uint64_t bucket = now_ns / window_ns_;
  std::uint64_t cur = state.window_cur;
  std::uint64_t prev = state.window_prev;
  if (bucket == state.window_bucket + 1) {
    prev = cur;
    cur = 0;
  } else if (bucket != state.window_bucket) {
    return 0.0;
  }
  // Weight the previous bucket by the fraction of the sliding window still
  // overlapping it: at the start of the current bucket the previous one
  // counts fully, at the end not at all.
  const double frac = static_cast<double>(now_ns % window_ns_) /
                      static_cast<double>(window_ns_);
  const double volume =
      static_cast<double>(prev) * (1.0 - frac) + static_cast<double>(cur);
  const double seconds = static_cast<double>(window_ns_) * 1e-9;
  return volume / seconds;
}

void QueryAuditor::FlagLocked(ClientState& state, AuditFlagReason reason,
                              std::uint64_t now_ns) {
  if (state.flag_reason != AuditFlagReason::kNone) return;
  state.flag_reason = reason;
  state.flagged_ns = now_ns;
  flagged_total_.Add();
}

template <typename Now>
core::Status QueryAuditor::AdmitLocked(std::uint64_t client_id,
                                       std::size_t count, const Now& now) {
  ClientState* state = FindLocked(client_id);
  if (state == nullptr) {
    return core::Status::NotFound("client " + std::to_string(client_id) +
                                  " is not registered with the server");
  }
  if (state->first_seen_ns == 0) state->first_seen_ns = now();
  if (state->budget != 0 && state->admitted + count > state->budget) {
    state->denied += count;
    denied_total_.Add(count);
    FlagLocked(*state, AuditFlagReason::kBudget, now());
    LogEventLocked(client_id, AuditEventKind::kDenied, count);
    return core::Status::ResourceExhausted(
        "query budget exceeded for client '" + state->name + "': " +
        std::to_string(state->admitted) + " of " +
        std::to_string(state->budget) + " predictions already admitted");
  }
  state->admitted += count;
  admitted_total_.Add(count);
  LogEventLocked(client_id, AuditEventKind::kAdmitted, count);
  return core::Status::Ok();
}

core::Status QueryAuditor::Admit(std::uint64_t client_id, std::size_t count) {
  std::lock_guard<std::mutex> lock(mu_);
  return AdmitLocked(client_id, count, [] { return obs::NowNanos(); });
}

core::Status QueryAuditor::Admit(std::uint64_t client_id, std::size_t count,
                                 std::uint64_t now_ns) {
  std::lock_guard<std::mutex> lock(mu_);
  return AdmitLocked(client_id, count, [now_ns] { return now_ns; });
}

void QueryAuditor::RecordServedLocked(std::uint64_t client_id,
                                      ClientState& state, std::size_t count,
                                      std::uint64_t now_ns) {
  state.served += count;
  served_total_.Add(count);
  AddToWindowLocked(state, now_ns, count);
  const double qps = WindowQpsLocked(state, now_ns);
  const auto qps_int = static_cast<std::uint64_t>(qps);
  window_rate_.Record(qps_int);
  if (static_cast<std::int64_t>(qps_int) > peak_window_qps_.Value()) {
    peak_window_qps_.Set(static_cast<std::int64_t>(qps_int));
  }
  if (config_.flag_window_qps > 0.0 && qps > config_.flag_window_qps) {
    FlagLocked(state, AuditFlagReason::kRate, now_ns);
  }
  LogEventLocked(client_id, AuditEventKind::kServed, count);
}

void QueryAuditor::RecordServed(std::uint64_t client_id, std::size_t count,
                                std::uint64_t now_ns) {
  std::lock_guard<std::mutex> lock(mu_);
  ClientState* state = FindLocked(client_id);
  CHECK(state != nullptr) << "unknown client " << client_id;
  if (state->first_seen_ns == 0) state->first_seen_ns = now_ns;
  RecordServedLocked(client_id, *state, count, now_ns);
}

core::Status QueryAuditor::AdmitAndRecordServed(std::uint64_t client_id,
                                                std::size_t count,
                                                std::uint64_t now_ns) {
  std::lock_guard<std::mutex> lock(mu_);
  VFL_RETURN_IF_ERROR(
      AdmitLocked(client_id, count, [now_ns] { return now_ns; }));
  RecordServedLocked(client_id, *FindLocked(client_id), count, now_ns);
  return core::Status::Ok();
}

void QueryAuditor::LogEventLocked(std::uint64_t client_id,
                                  AuditEventKind event, std::uint64_t count) {
  if (config_.max_audit_events == 0) return;
  AuditEvent record;
  record.seq = next_event_seq_++;
  record.client_id = client_id;
  record.event = event;
  record.count = count;
  if (events_.size() < config_.max_audit_events) {
    events_.push_back(record);
    return;
  }
  // Full: the new event takes the oldest one's slot.
  events_[events_head_] = record;
  if (++events_head_ == events_.size()) events_head_ = 0;
  dropped_total_.Add();
  if (!overflow_warned_) {
    overflow_warned_ = true;
    std::fprintf(
        stderr,
        "[vfl] warning: query-auditor audit-event ring overflowed "
        "(max_audit_events=%zu); oldest events are being dropped — see "
        "serve.auditor.dropped_events, or attach a store::AuditLogWriter "
        "for a lossless durable trail\n",
        config_.max_audit_events);
  }
}

std::vector<AuditEvent> QueryAuditor::EventsFromLocked(
    std::size_t begin) const {
  std::vector<AuditEvent> events;
  events.reserve(events_.size() - begin);
  for (std::size_t i = begin; i < events_.size(); ++i) {
    events.push_back(events_[(events_head_ + i) % events_.size()]);
  }
  return events;
}

std::vector<AuditEvent> QueryAuditor::RecentEvents() const {
  std::lock_guard<std::mutex> lock(mu_);
  return EventsFromLocked(0);
}

std::vector<AuditEvent> QueryAuditor::DrainEventsSince(
    std::uint64_t after_seq) const {
  std::lock_guard<std::mutex> lock(mu_);
  // Seqs are contiguous in the ring, so the first new event is at a computed
  // index instead of a scan: drains stay O(result) under million-event
  // traffic.
  std::size_t begin = 0;
  if (!events_.empty() && after_seq >= events_[events_head_].seq) {
    const std::uint64_t oldest_seq = events_[events_head_].seq;
    begin = static_cast<std::size_t>(after_seq - oldest_seq) + 1;
    if (begin > events_.size()) begin = events_.size();
  }
  return EventsFromLocked(begin);
}

AuditorCounters QueryAuditor::CountersSnapshot() const {
  AuditorCounters counters;
  counters.admitted = admitted_total_.Value();
  counters.denied = denied_total_.Value();
  counters.served = served_total_.Value();
  counters.dropped_events = dropped_total_.Value();
  counters.flagged_clients = flagged_total_.Value();
  return counters;
}

ClientAuditRecord QueryAuditor::RecordLocked(std::uint64_t client_id,
                                             const ClientState& state,
                                             std::uint64_t now_ns) const {
  ClientAuditRecord record;
  record.client_id = client_id;
  record.name = state.name;
  record.budget = state.budget;
  record.admitted = state.admitted;
  record.served = state.served;
  record.denied = state.denied;
  record.window_qps = WindowQpsLocked(state, now_ns);
  record.flagged = state.flag_reason != AuditFlagReason::kNone;
  record.flag_reason = state.flag_reason;
  record.first_seen_ns = state.first_seen_ns;
  record.flagged_ns = state.flagged_ns;
  return record;
}

ClientAuditRecord QueryAuditor::record(std::uint64_t client_id) const {
  const std::uint64_t now_ns = obs::NowNanos();
  std::lock_guard<std::mutex> lock(mu_);
  const ClientState* state = FindLocked(client_id);
  CHECK(state != nullptr) << "unknown client " << client_id;
  return RecordLocked(client_id, *state, now_ns);
}

std::vector<ClientAuditRecord> QueryAuditor::AuditLog() const {
  return AuditLog(obs::NowNanos());
}

std::vector<ClientAuditRecord> QueryAuditor::AuditLog(
    std::uint64_t now_ns) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<ClientAuditRecord> log;
  log.reserve(clients_.size());
  for (std::size_t i = 0; i < clients_.size(); ++i) {
    log.push_back(RecordLocked(i + 1, clients_[i], now_ns));
  }
  return log;
}

void QueryAuditor::ForEachVerdict(
    const std::function<void(const AuditVerdict&)>& visit) const {
  std::lock_guard<std::mutex> lock(mu_);
  AuditVerdict verdict;
  for (std::size_t i = 0; i < clients_.size(); ++i) {
    const ClientState& state = clients_[i];
    verdict.client_id = i + 1;
    verdict.flagged = state.flag_reason != AuditFlagReason::kNone;
    verdict.reason = state.flag_reason;
    verdict.first_seen_ns = state.first_seen_ns;
    verdict.flagged_ns = state.flagged_ns;
    visit(verdict);
  }
}

std::vector<AuditVerdict> QueryAuditor::Verdicts() const {
  std::vector<AuditVerdict> verdicts;
  ForEachVerdict(
      [&verdicts](const AuditVerdict& v) { verdicts.push_back(v); });
  return verdicts;
}

}  // namespace vfl::serve
