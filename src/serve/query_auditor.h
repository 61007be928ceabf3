#ifndef VFLFIA_SERVE_QUERY_AUDITOR_H_
#define VFLFIA_SERVE_QUERY_AUDITOR_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/status.h"
#include "obs/clock.h"
#include "obs/metrics.h"

namespace vfl::serve {

/// Server-side countermeasure configuration (Sec. VII discussion): the paper
/// shows GRNA accuracy grows with the number of accumulated predictions
/// (Fig. 9), so limiting and *observing* per-client query volume is the
/// serving side's main lever against long-term accumulation attacks.
struct QueryAuditorConfig {
  /// Lifetime cap on confidence vectors revealed per client; 0 = unlimited.
  std::uint64_t default_query_budget = 0;
  /// Length of the sliding window used for rate statistics.
  std::chrono::milliseconds rate_window{1000};
  /// Rate-based detector threshold: a client whose sliding-window served
  /// rate exceeds this many vectors/second is flagged (once, with the flag
  /// time recorded — the time-to-detection statistic the traffic simulator
  /// scores). 0 disables rate flagging; budget denials always flag.
  double flag_window_qps = 0.0;
  /// Cap on retained audit-log events (admissions, denials, serves). The
  /// event log is a ring buffer: once full, the oldest record is dropped and
  /// dropped_events() counts it — a long-running server's memory stays
  /// bounded no matter how much traffic flows. 0 disables event logging
  /// entirely (the per-client aggregate records remain).
  std::size_t max_audit_events = 4096;
  /// Registry the auditor's process-wide counters register with; null means
  /// the process-global registry.
  obs::MetricsRegistry* metrics = nullptr;
};

/// What one audit event records.
enum class AuditEventKind : std::uint8_t {
  /// Budget consumed for `count` would-be predictions.
  kAdmitted,
  /// Request rejected: the budget could not cover `count` predictions.
  kDenied,
  /// `count` confidence vectors actually revealed.
  kServed,
};

/// Why a client was flagged by the detector.
enum class AuditFlagReason : std::uint8_t {
  kNone,
  /// A budget denial — the lifetime cap caught the client.
  kBudget,
  /// Sliding-window served rate exceeded flag_window_qps.
  kRate,
};

std::string_view AuditFlagReasonName(AuditFlagReason reason);

/// One entry of the capped audit event log. `seq` is a global monotonically
/// increasing sequence number, so gaps after ring-buffer eviction are
/// detectable by consumers replaying the log.
struct AuditEvent {
  std::uint64_t seq = 0;
  std::uint64_t client_id = 0;
  AuditEventKind event = AuditEventKind::kAdmitted;
  std::uint64_t count = 0;
};

/// The auditor-as-detector's judgement on one client — what detection
/// scoring consumes. Timestamps are whatever clock fed Admit/RecordServed:
/// obs::NowNanos() on the serving path, the virtual clock in the simulator.
struct AuditVerdict {
  std::uint64_t client_id = 0;
  bool flagged = false;
  AuditFlagReason reason = AuditFlagReason::kNone;
  /// Timestamp of the client's first admitted/denied query; 0 = never seen.
  std::uint64_t first_seen_ns = 0;
  /// Timestamp the flag was raised; 0 = not flagged.
  std::uint64_t flagged_ns = 0;
};

/// Per-client audit record: what the serving layer knows about one consumer
/// of joint predictions.
struct ClientAuditRecord {
  std::uint64_t client_id = 0;
  std::string name;
  /// 0 = unlimited.
  std::uint64_t budget = 0;
  /// Queries admitted (budget consumed), whether or not already served.
  std::uint64_t admitted = 0;
  /// Confidence vectors actually revealed.
  std::uint64_t served = 0;
  /// Queries rejected for exceeding the budget.
  std::uint64_t denied = 0;
  /// Served volume inside the sliding window, per second.
  double window_qps = 0.0;
  bool flagged = false;
  AuditFlagReason flag_reason = AuditFlagReason::kNone;
  std::uint64_t first_seen_ns = 0;
  std::uint64_t flagged_ns = 0;
};

/// Cross-client totals, readable without the admission mutex.
struct AuditorCounters {
  std::uint64_t admitted = 0;
  std::uint64_t denied = 0;
  std::uint64_t served = 0;
  std::uint64_t dropped_events = 0;
  std::uint64_t flagged_clients = 0;
};

/// Tracks per-client query budgets, sliding-window rate statistics, a capped
/// audit log of prediction volume, and detector verdicts (budget- and
/// rate-based client flagging). Thread-safe; every admission decision and
/// served prediction goes through here.
///
/// The sliding-window rate is a two-bucket estimator (current + previous
/// window bucket, the nginx-style approximation): O(1) time and 24 bytes per
/// client instead of a deque of events, which is what lets the traffic
/// simulator audit millions of clients at millions of events per second.
/// The estimate converges to the exact windowed rate for steady traffic and
/// is within one window of it for bursts.
///
/// Two read paths with different costs: the per-client snapshots (record(),
/// AuditLog(), RecentEvents(), ForEachVerdict()) take the admission mutex;
/// the cross-client totals (CountersSnapshot(), dropped_events()) read
/// sharded counters and never contend with concurrent Admit()/
/// RecordServed() — a metrics scrape cannot stall admission.
///
/// Time: the serving path uses the default overloads (obs::NowNanos()); the
/// discrete-event simulator passes its virtual clock explicitly, so
/// time-to-detection is measured in simulated time.
class QueryAuditor {
 public:
  explicit QueryAuditor(QueryAuditorConfig config = {});

  /// Registers a client under `name` with the default budget; returns its id.
  std::uint64_t RegisterClient(std::string name);

  /// Bulk registration for simulated populations: registers `count` clients
  /// with empty names under the default budget in one lock acquisition and
  /// returns the first id (ids are contiguous). Returns 0 when count == 0.
  std::uint64_t RegisterClients(std::size_t count);

  /// Overrides one client's lifetime budget (0 = unlimited).
  void SetBudget(std::uint64_t client_id, std::uint64_t budget);

  /// Budget check for `count` would-be predictions: consumes budget and
  /// returns OK, or returns ResourceExhausted (budget exhausted; the client
  /// is flagged) / NotFound (unregistered client) without consuming
  /// anything. Admission stamps a time only on a client's first query and on
  /// a denial, so the first overload reads the clock only then.
  core::Status Admit(std::uint64_t client_id, std::size_t count);
  core::Status Admit(std::uint64_t client_id, std::size_t count,
                     std::uint64_t now_ns);

  /// Records `count` confidence vectors actually revealed to the client.
  void RecordServed(std::uint64_t client_id, std::size_t count) {
    RecordServed(client_id, count, obs::NowNanos());
  }
  void RecordServed(std::uint64_t client_id, std::size_t count,
                    std::uint64_t now_ns);

  /// Fused Admit + RecordServed under one lock acquisition and one client
  /// lookup — the simulator's per-event fast path (an offered query either
  /// bounces off the budget or is served immediately; there is no in-flight
  /// stage on a virtual clock). Returns the admission status.
  core::Status AdmitAndRecordServed(std::uint64_t client_id, std::size_t count,
                                    std::uint64_t now_ns);

  /// Snapshot of one client's audit record.
  ClientAuditRecord record(std::uint64_t client_id) const;

  /// Snapshot of every client's record, ordered by client id — the audit log
  /// of prediction volume per client.
  std::vector<ClientAuditRecord> AuditLog() const;

  /// Same, evaluated at a caller-supplied clock. Virtual-time drivers (the
  /// traffic simulator) pass their own now so window_qps reflects the
  /// simulated rate window instead of wall time.
  std::vector<ClientAuditRecord> AuditLog(std::uint64_t now_ns) const;

  /// Snapshot of the retained (most recent) audit events, oldest first. At
  /// most config().max_audit_events entries; older events were dropped and
  /// counted in dropped_events().
  std::vector<AuditEvent> RecentEvents() const;

  /// Incremental drain hook for the durable audit trail: the retained events
  /// with seq > `after_seq`, oldest first. A persister that remembers the
  /// last seq it wrote calls this in a loop and sees every event exactly
  /// once — unless the ring evicted entries between drains, which shows up
  /// as a gap between `after_seq` and the first returned seq (the caller's
  /// lost-event count).
  std::vector<AuditEvent> DrainEventsSince(std::uint64_t after_seq) const;

  /// Visits every client's detector verdict in client-id order under the
  /// admission mutex — the copy-free path detection scoring uses on
  /// million-client populations. The callback must not reenter the auditor.
  void ForEachVerdict(const std::function<void(const AuditVerdict&)>& visit)
      const;

  /// Verdicts of every client, ordered by client id (convenience copy).
  std::vector<AuditVerdict> Verdicts() const;

  /// Cross-client admitted/denied/served/flagged totals. Lock-free: sums
  /// counter shards without touching the admission mutex, so it is safe to
  /// call from a scrape loop at any frequency. Each total is exact once
  /// writers quiesce; under concurrent traffic the fields may be offset by
  /// the handful of operations in flight.
  AuditorCounters CountersSnapshot() const;

  /// Events evicted from the capped ring buffer so far. Lock-free.
  std::uint64_t dropped_events() const { return dropped_total_.Value(); }

  const QueryAuditorConfig& config() const { return config_; }

 private:
  struct ClientState {
    std::string name;
    std::uint64_t budget = 0;
    std::uint64_t admitted = 0;
    std::uint64_t served = 0;
    std::uint64_t denied = 0;
    /// Two-bucket sliding window: served volume in the current and previous
    /// window-aligned bucket. window_bucket = now / rate_window.
    std::uint64_t window_bucket = 0;
    std::uint64_t window_cur = 0;
    std::uint64_t window_prev = 0;
    std::uint64_t first_seen_ns = 0;
    std::uint64_t flagged_ns = 0;
    AuditFlagReason flag_reason = AuditFlagReason::kNone;
  };

  /// Rotates the two-bucket window to `now_ns` and adds `count` to the
  /// current bucket. Caller holds mu_.
  void AddToWindowLocked(ClientState& state, std::uint64_t now_ns,
                         std::uint64_t count);

  /// Windowed rate estimate at `now_ns`. Caller holds mu_.
  double WindowQpsLocked(const ClientState& state, std::uint64_t now_ns) const;

  /// Admission shared by both Admit overloads and AdmitAndRecordServed;
  /// `now()` supplies the timestamp when one is stamped. Caller holds mu_.
  template <typename Now>
  core::Status AdmitLocked(std::uint64_t client_id, std::size_t count,
                           const Now& now);

  /// Raises the client's flag once. Caller holds mu_.
  void FlagLocked(ClientState& state, AuditFlagReason reason,
                  std::uint64_t now_ns);

  /// Post-serve bookkeeping shared by RecordServed and AdmitAndRecordServed:
  /// window update, rate statistic, rate flagging, event log. Caller holds
  /// mu_.
  void RecordServedLocked(std::uint64_t client_id, ClientState& state,
                          std::size_t count, std::uint64_t now_ns);

  /// Appends to the capped ring buffer, evicting the oldest record when
  /// full. Caller holds mu_.
  void LogEventLocked(std::uint64_t client_id, AuditEventKind event,
                      std::uint64_t count);

  /// Copies the retained events from the `begin`-th oldest on, oldest first.
  /// Caller holds mu_.
  std::vector<AuditEvent> EventsFromLocked(std::size_t begin) const;

  ClientAuditRecord RecordLocked(std::uint64_t client_id,
                                 const ClientState& state,
                                 std::uint64_t now_ns) const;

  /// Client ids are dense (assigned 1, 2, ... by registration), so lookup is
  /// an index; returns null for ids never handed out. Caller holds mu_.
  ClientState* FindLocked(std::uint64_t client_id) {
    if (client_id == 0 || client_id > clients_.size()) return nullptr;
    return &clients_[client_id - 1];
  }
  const ClientState* FindLocked(std::uint64_t client_id) const {
    if (client_id == 0 || client_id > clients_.size()) return nullptr;
    return &clients_[client_id - 1];
  }

  QueryAuditorConfig config_;
  std::uint64_t window_ns_ = 0;

  /// Cross-client totals, written next to the per-client updates under mu_
  /// but readable without it.
  obs::Counter admitted_total_;
  obs::Counter denied_total_;
  obs::Counter served_total_;
  obs::Counter dropped_total_;
  obs::Counter flagged_total_;
  /// Distribution of per-client windowed rates, sampled at each serve — the
  /// operating-curve input: where benign mass sits tells you where to put
  /// flag_window_qps.
  obs::LatencyHistogram window_rate_;
  /// Highest per-client windowed rate observed so far.
  obs::Gauge peak_window_qps_;
  std::vector<obs::MetricsRegistry::Registration> registrations_;

  mutable std::mutex mu_;
  /// Dense per-client state; client id i lives at index i - 1.
  std::vector<ClientState> clients_;
  /// Capped ring buffer of recent events, oldest at events_[events_head_]
  /// (index 0 until the ring first fills). It grows to the cap and then
  /// overwrites in place, so logging in steady state never allocates.
  std::vector<AuditEvent> events_;
  std::size_t events_head_ = 0;
  std::uint64_t next_event_seq_ = 1;
  /// One-time stderr warning on the first ring overflow: silent audit loss
  /// is only acceptable when somebody asked for it by reading this flag.
  bool overflow_warned_ = false;
};

}  // namespace vfl::serve

#endif  // VFLFIA_SERVE_QUERY_AUDITOR_H_
