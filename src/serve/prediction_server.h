#ifndef VFLFIA_SERVE_PREDICTION_SERVER_H_
#define VFLFIA_SERVE_PREDICTION_SERVER_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "core/status.h"
#include "fed/output_defense.h"
#include "fed/party.h"
#include "la/matrix.h"
#include "models/model.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/batcher.h"
#include "serve/query_auditor.h"
#include "serve/result_cache.h"
#include "serve/thread_pool.h"

namespace vfl::store {
class AuditLogWriter;
}  // namespace vfl::store

namespace vfl::serve {

/// Tuning knobs for the concurrent prediction server.
struct PredictionServerConfig {
  /// Helper worker threads that run queued batches next to the callers.
  /// Every caller runs batches too, so 0 means no helpers: each call runs
  /// its own rows (and any queued ahead of them) in its own thread
  /// (fed::MakeProtocolServer and the "service" channel kind).
  std::size_t num_threads = 0;
  /// Upper bound on rows fused into one model forward pass. 0 = no cap: a
  /// pass takes everything queued, so a lone call runs its cache misses in
  /// one pass.
  std::size_t max_batch_size = 16;
  /// Ignored. Batches never wait for stragglers; the field stays only so
  /// existing configuration code keeps compiling.
  std::chrono::microseconds max_batch_delay{200};
  /// Total entries in the sharded result cache (ResultCache's default
  /// shard count). 0 disables caching.
  std::size_t cache_capacity = 0;
  /// Budgets / rate-window settings for the query auditor.
  QueryAuditorConfig auditor;
  /// Registry the server's serve.* instruments register with; null means the
  /// process-global registry. Propagated to the auditor unless the auditor
  /// config names its own registry.
  obs::MetricsRegistry* metrics = nullptr;
  /// When non-empty, a store::AuditLogWriter drains the auditor's audit-event
  /// ring to a crash-recoverable WAL under this directory for the server's
  /// lifetime (final drain on shutdown). Events then survive the process and
  /// ring eviction; a failed WAL open is reported once on stderr and serving
  /// continues without persistence.
  std::string audit_wal_dir;
};

/// Aggregate serving counters (monotonic; snapshot via stats()).
struct PredictionServerStats {
  /// Confidence vectors revealed to clients — one count per revealed vector,
  /// whether it came from the model or the cache.
  std::uint64_t predictions_served = 0;
  /// Fused forward passes executed.
  std::uint64_t model_batches = 0;
  /// Rows pushed through the model (= predictions computed, not cached).
  std::uint64_t model_rows = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  /// model_rows / model_batches (0 when nothing ran yet).
  double mean_batch_size = 0.0;
};

/// Joint-prediction server: the simulation of the Sec. II-B protocol. A
/// client submits a sample id; each party contributes its feature values;
/// the model computes confidence scores; output defenses degrade them; only
/// the final vector is revealed. Wraps any trained models::Model plus a party
/// set, executing queued rows in fused batches on the callers' threads and on
/// optional helper workers, plus a sharded LRU result cache and a query auditor
/// implementing the paper's server-side countermeasure angle (per-client
/// budgets, rate stats, audit log) against long-term prediction
/// accumulation (Fig. 9).
///
/// The systems the paper cites run the protocol under MPC/HE so that no
/// intermediate value leaks. The threat model grants the protocol perfect
/// secrecy and studies what the *output* leaks, so an information-flow
/// simulation yields the identical adversary view: joint full-feature rows
/// are assembled only inside the execution path and never exposed; clients
/// see exactly the post-defense confidence vectors.
///
/// `model` and `parties` must outlive the server and be safe for concurrent
/// const access (all library models are stateless in PredictProba).
class PredictionServer {
 public:
  PredictionServer(const models::Model* model,
                   std::vector<const fed::Party*> parties,
                   PredictionServerConfig config = {});

  /// Drains in-flight requests, stops the workers.
  ~PredictionServer();

  PredictionServer(const PredictionServer&) = delete;
  PredictionServer& operator=(const PredictionServer&) = delete;

  /// Registers a client (the active party, an adversary, a load generator)
  /// and returns the id used on every query.
  std::uint64_t RegisterClient(std::string name);

  /// Overrides one client's lifetime prediction budget (0 = unlimited).
  void SetQueryBudget(std::uint64_t client_id, std::uint64_t budget);

  /// One joint prediction: a one-row PredictBatch written straight into the
  /// returned vector, its only heap allocation in steady state. Returns the
  /// revealed confidence vector, or an error Status (bad sample id,
  /// unregistered client, budget exceeded, shutdown).
  core::StatusOr<std::vector<double>> Predict(std::uint64_t client_id,
                                            std::size_t sample_id);

  /// Serves `sample_ids` (duplicates allowed) and returns one confidence row
  /// per requested id, in request order. Every prediction takes this path:
  /// the ids are validated, then the whole call is admitted at once, so it
  /// is rejected when the client's budget cannot cover it. Cache hits are
  /// copied in place. Misses are queued, and the queue's first batch taken,
  /// in one Batcher::PushAndPop, which wakes an idle worker for each further
  /// batch; the caller then runs queued batches itself, in FIFO order and
  /// max_batch_size rows per forward pass, until none of its rows is still
  /// queued. Whoever runs a row writes it straight into the returned matrix.
  /// Blocks until every row has landed. In steady state the returned matrix
  /// is the call's only heap allocation (without a cache or defenses: those
  /// keep each row as a vector). `span`, when non-null, receives per-stage
  /// timings (queue wait, model forward, defense) attributed across the
  /// request's fused batches.
  core::StatusOr<la::Matrix> PredictBatch(
      std::uint64_t client_id, const std::vector<std::size_t>& sample_ids,
      obs::TraceSpan* span);
  core::StatusOr<la::Matrix> PredictBatch(
      std::uint64_t client_id, const std::vector<std::size_t>& sample_ids) {
    return PredictBatch(client_id, sample_ids, nullptr);
  }

  /// PredictBatch over every aligned sample in id order — how an adversary
  /// "accumulates predictions in the long term".
  core::StatusOr<la::Matrix> PredictAll(std::uint64_t client_id);

  /// Installs an output defense; defenses apply in installation order. Bumps
  /// the defense-config generation, invalidating every cached result.
  void AddOutputDefense(std::unique_ptr<fed::OutputDefense> defense);

  /// Confidence vectors revealed so far (one count per revealed vector,
  /// batched and cached paths included).
  std::size_t num_predictions_served() const {
    return predictions_served_.Value();
  }

  PredictionServerStats stats() const;
  const QueryAuditor& auditor() const { return auditor_; }
  /// The audit-trail drain, when config.audit_wal_dir was set and the WAL
  /// opened; null otherwise.
  const store::AuditLogWriter* audit_log() const { return audit_log_.get(); }

  std::size_t num_samples() const { return num_samples_; }
  std::size_t num_classes() const { return model_->num_classes(); }
  /// The served (borrowed) model.
  const models::Model* model() const { return model_; }
  const PredictionServerConfig& config() const { return config_; }

 private:
  /// PredictBatch's work, into `out`: sample_ids.size() row-major rows of
  /// num_classes() scores that the caller owns.
  core::Status PredictInto(std::uint64_t client_id,
                           std::span<const std::size_t> sample_ids,
                           double* out, obs::TraceSpan* span);

  /// Long-running loop each worker thread executes: pop fused batches until
  /// the batcher closes.
  void WorkerLoop();

  /// Runs one fused batch end to end: assemble joint rows, forward pass,
  /// per-row defenses (in queue order), cache insert, then each row written
  /// into its call's output and counted down on the call's latch. `pop_ns`
  /// is when the batch left the queue (obs::MetricsNowNanos()).
  void ExecuteBatch(std::span<const BatchItem> items, std::uint64_t pop_ns);

  /// Runs the installed defenses over one row's scores, in installation
  /// order, timing them. defense_mu_ must be held.
  void ApplyDefensesLocked(std::vector<double>* scores, obs::TraceSpan* span);

  std::uint64_t CacheKeyFor(std::size_t sample_id) const;

  const models::Model* model_;
  std::vector<const fed::Party*> parties_;
  PredictionServerConfig config_;
  std::size_t num_samples_;

  QueryAuditor auditor_;
  /// Destroyed before auditor_ (declared after it) — the drain thread reads
  /// the ring until Stop.
  std::unique_ptr<store::AuditLogWriter> audit_log_;
  std::unique_ptr<ResultCache> cache_;
  /// Every cache miss queues here. Its batch cap is config_.max_batch_size,
  /// with 0 (no cap) worked out once as SIZE_MAX.
  Batcher batcher_;
  /// The helper workers; null when config_.num_threads is 0.
  std::unique_ptr<ThreadPool> pool_;

  /// Serializes defense application (defenses may be stateful) and guards
  /// defenses_ against concurrent installation.
  std::mutex defense_mu_;
  std::vector<std::unique_ptr<fed::OutputDefense>> defenses_;
  /// Bumped by AddOutputDefense; part of every cache key.
  std::atomic<std::uint64_t> defense_generation_{0};

  /// serve.* instruments. The stats() accessors and registry snapshots read
  /// the same cells — one counting path.
  obs::Counter predictions_served_;
  obs::Counter model_batches_;
  obs::Counter model_rows_;
  obs::LatencyHistogram forward_ns_;
  obs::LatencyHistogram defense_ns_;
  obs::LatencyHistogram queue_wait_ns_;
  obs::LatencyHistogram batch_rows_;
  obs::Gauge queue_depth_;
  std::vector<obs::MetricsRegistry::Registration> registrations_;
};

}  // namespace vfl::serve

#endif  // VFLFIA_SERVE_PREDICTION_SERVER_H_
