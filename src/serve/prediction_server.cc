#include "serve/prediction_server.h"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <utility>

#include "core/check.h"
#include "store/audit_trail.h"

namespace vfl::serve {

namespace {

/// The auditor inherits the server's registry unless its config names one.
QueryAuditorConfig WithRegistry(QueryAuditorConfig auditor,
                                obs::MetricsRegistry* metrics) {
  if (auditor.metrics == nullptr) auditor.metrics = metrics;
  return auditor;
}

/// Buffers a thread reuses across the calls and batches it serves (any
/// server's), so a steady-state request allocates only its output matrix.
struct ThreadBuffers {
  std::vector<BatchItem> misses;     // a PredictBatch call's cache misses
  std::vector<BatchItem> batch;      // the batch being run
  la::Matrix joint;                  // the batch's joint feature rows
  la::Matrix proba;                  // the model's scores for them
  std::vector<double> party_values;  // one party's values for one row
};

ThreadBuffers& LocalBuffers() {
  thread_local ThreadBuffers buffers;
  return buffers;
}

/// A batch this large or larger releases its joint-row and score buffers
/// afterwards instead of keeping them for the thread's life (the BatchItem
/// vectors, 40 bytes a row, stay at their largest).
constexpr std::size_t kMaxRetainedRows = 1024;

}  // namespace

PredictionServer::PredictionServer(const models::Model* model,
                                   std::vector<const fed::Party*> parties,
                                   PredictionServerConfig config)
    : model_(model),
      parties_(std::move(parties)),
      config_(config),
      auditor_(WithRegistry(config.auditor, config.metrics)),
      batcher_(config.max_batch_size == 0
                   ? std::numeric_limits<std::size_t>::max()
                   : config.max_batch_size,
               &queue_depth_) {
  CHECK(model_ != nullptr);
  CHECK(!parties_.empty());
  num_samples_ = parties_.front()->num_samples();
  std::vector<bool> covered(model_->num_features(), false);
  std::size_t total_columns = 0;
  for (const fed::Party* party : parties_) {
    CHECK(party != nullptr);
    CHECK_EQ(party->num_samples(), num_samples_)
        << "parties must hold aligned samples";
    for (const std::size_t col : party->columns()) {
      CHECK_LT(col, covered.size());
      CHECK(!covered[col]) << "column " << col << " owned by two parties";
      covered[col] = true;
      ++total_columns;
    }
  }
  CHECK_EQ(total_columns, model_->num_features())
      << "party columns must cover the model feature space";

  if (config_.cache_capacity > 0) {
    cache_ = std::make_unique<ResultCache>(config_.cache_capacity);
  }
  if (config_.num_threads > 0) {
    pool_ = std::make_unique<ThreadPool>(config_.num_threads);
    for (std::size_t i = 0; i < config_.num_threads; ++i) {
      CHECK(pool_->Submit([this] { WorkerLoop(); }));
    }
  }

  if (!config_.audit_wal_dir.empty()) {
    core::StatusOr<std::unique_ptr<store::AuditLogWriter>> writer =
        store::AuditLogWriter::Start(store::Env::Posix(), auditor_,
                                     config_.audit_wal_dir);
    if (writer.ok()) {
      audit_log_ = std::move(*writer);
    } else {
      // Persistence is best-effort from the server's point of view: a bad
      // directory must not take serving down, but it must not be silent.
      std::fprintf(stderr,
                   "[vfl] warning: audit WAL '%s' failed to open (%s); "
                   "serving without audit persistence\n",
                   config_.audit_wal_dir.c_str(),
                   writer.status().message().c_str());
    }
  }

  obs::MetricsRegistry& registry = obs::RegistryOr(config_.metrics);
  registrations_.push_back(registry.RegisterCounter(
      "serve.predictions_served", "predictions", &predictions_served_));
  registrations_.push_back(registry.RegisterCounter(
      "serve.model_batches", "batches", &model_batches_));
  registrations_.push_back(
      registry.RegisterCounter("serve.model_rows", "rows", &model_rows_));
  registrations_.push_back(
      registry.RegisterHistogram("serve.forward_ns", "ns", &forward_ns_));
  registrations_.push_back(
      registry.RegisterHistogram("serve.defense_ns", "ns", &defense_ns_));
  registrations_.push_back(registry.RegisterHistogram("serve.queue_wait_ns",
                                                      "ns", &queue_wait_ns_));
  registrations_.push_back(
      registry.RegisterHistogram("serve.batch_rows", "rows", &batch_rows_));
  registrations_.push_back(registry.RegisterGauge("serve.queue_depth",
                                                  "requests", &queue_depth_));
  if (cache_ != nullptr) {
    registrations_.push_back(registry.RegisterCounter(
        "serve.cache_hits", "hits", cache_->hits_counter()));
    registrations_.push_back(registry.RegisterCounter(
        "serve.cache_misses", "misses", cache_->misses_counter()));
    registrations_.push_back(registry.RegisterCounter(
        "serve.cache_evictions", "evictions", cache_->evictions_counter()));
  }
}

PredictionServer::~PredictionServer() {
  batcher_.Close();
  if (pool_) pool_->Shutdown();
}

std::uint64_t PredictionServer::RegisterClient(std::string name) {
  return auditor_.RegisterClient(std::move(name));
}

void PredictionServer::SetQueryBudget(std::uint64_t client_id,
                                      std::uint64_t budget) {
  auditor_.SetBudget(client_id, budget);
}

std::uint64_t PredictionServer::CacheKeyFor(std::size_t sample_id) const {
  return (defense_generation_.load(std::memory_order_acquire) << 32) ^
         static_cast<std::uint64_t>(sample_id);
}

core::StatusOr<std::vector<double>> PredictionServer::Predict(
    std::uint64_t client_id, std::size_t sample_id) {
  std::vector<double> scores(num_classes());
  VFL_RETURN_IF_ERROR(PredictInto(client_id, {&sample_id, 1}, scores.data(),
                                  nullptr));
  return scores;
}

core::StatusOr<la::Matrix> PredictionServer::PredictBatch(
    std::uint64_t client_id, const std::vector<std::size_t>& sample_ids,
    obs::TraceSpan* span) {
  la::Matrix out(sample_ids.size(), num_classes());
  VFL_RETURN_IF_ERROR(PredictInto(client_id, sample_ids, out.data(), span));
  return out;
}

core::Status PredictionServer::PredictInto(
    std::uint64_t client_id, std::span<const std::size_t> sample_ids,
    double* out, obs::TraceSpan* span) {
  for (const std::size_t id : sample_ids) {
    if (id >= num_samples_) {
      return core::Status::OutOfRange(
          "sample id " + std::to_string(id) + " >= " +
          std::to_string(num_samples_) + " aligned samples");
    }
  }
  VFL_RETURN_IF_ERROR(auditor_.Admit(client_id, sample_ids.size()));

  BatchCall call(client_id, span, out, sample_ids.size());
  ThreadBuffers& buffers = LocalBuffers();
  std::vector<BatchItem>& misses = buffers.misses;
  misses.clear();
  std::size_t cache_hits = 0;
  for (std::size_t row = 0; row < sample_ids.size(); ++row) {
    const BatchItem item{&call, row, sample_ids[row],
                         CacheKeyFor(sample_ids[row])};
    if (cache_ != nullptr) {
      std::vector<double> cached;
      if (cache_->Get(item.cache_key, &cached)) {
        CHECK_EQ(cached.size(), num_classes());
        std::copy(cached.begin(), cached.end(), out + row * num_classes());
        auditor_.RecordServed(client_id, 1);
        predictions_served_.Add();
        ++cache_hits;
        continue;
      }
    }
    misses.push_back(item);
  }
  if (cache_hits != 0) call.CountDown(cache_hits);
  // Queue the misses and take the queue's first batch in one lock hand-off,
  // then run batches (FIFO, so other calls' rows queued ahead too) until
  // this call is done or none of its rows is still queued: the threads that
  // popped the rest write them into `out`.
  std::vector<BatchItem>& batch = buffers.batch;
  if (!batcher_.PushAndPop(misses, &batch)) {
    call.CountDown(misses.size(), core::Status::FailedPrecondition(
                                      "prediction server is shut down"));
  }
  // The first batch left the queue in the critical section that stamped
  // the misses, so that stamp is its pop time too.
  std::uint64_t pop_ns = misses.empty() ? 0 : misses.front().submit_ns;
  while (!batch.empty()) {
    ExecuteBatch(batch, pop_ns);
    if (call.done() || !batcher_.TryPopBatch(&batch)) break;
    pop_ns = obs::MetricsNowNanos();
  }
  VFL_RETURN_IF_ERROR(call.Wait());
  if (span != nullptr) {
    span->SetAttr("rows", sample_ids.size());
    span->SetAttr("cache_hits", cache_hits);
  }
  return core::Status::Ok();
}

core::StatusOr<la::Matrix> PredictionServer::PredictAll(
    std::uint64_t client_id) {
  std::vector<std::size_t> ids(num_samples_);
  for (std::size_t i = 0; i < ids.size(); ++i) ids[i] = i;
  return PredictBatch(client_id, ids);
}

void PredictionServer::AddOutputDefense(
    std::unique_ptr<fed::OutputDefense> defense) {
  CHECK(defense != nullptr);
  {
    std::lock_guard<std::mutex> lock(defense_mu_);
    defenses_.push_back(std::move(defense));
  }
  defense_generation_.fetch_add(1, std::memory_order_release);
  // Every cached vector predates the new defense config; drop them so future
  // queries re-run the protocol under the new transformation.
  if (cache_ != nullptr) cache_->Clear();
}

void PredictionServer::WorkerLoop() {
  std::vector<BatchItem> batch;
  while (batcher_.PopBatch(&batch)) {
    ExecuteBatch(batch, obs::MetricsNowNanos());
  }
}

void PredictionServer::ExecuteBatch(std::span<const BatchItem> items,
                                    std::uint64_t pop_ns) {
  if (items.empty()) return;
  // Per-item queue wait: time between PushAndPop() and this thread popping
  // the batch. Metrics-disabled builds record nothing.
  if (pop_ns != 0) {
    for (const BatchItem& item : items) {
      const std::uint64_t wait_ns =
          pop_ns >= item.submit_ns ? pop_ns - item.submit_ns : 0;
      queue_wait_ns_.Record(wait_ns);
      if (item.call->span != nullptr) {
        item.call->span->AddStageNs("queue_wait", wait_ns);
      }
    }
  }
  // Assemble the joint feature rows inside the protocol boundary: the fused
  // matrix lives in this thread's buffers and is never revealed. The
  // parties' columns cover the feature space, so every cell is written.
  ThreadBuffers& buffers = LocalBuffers();
  la::Matrix& joint = buffers.joint;
  joint.Resize(items.size(), model_->num_features());
  std::vector<double>& values = buffers.party_values;
  values.resize(std::max(values.size(), model_->num_features()));
  for (std::size_t i = 0; i < items.size(); ++i) {
    double* row = joint.RowPtr(i);
    for (const fed::Party* party : parties_) {
      const std::vector<std::size_t>& columns = party->columns();
      party->ProvideFeaturesInto(items[i].sample_id,
                                 {values.data(), columns.size()});
      for (std::size_t j = 0; j < columns.size(); ++j) {
        row[columns[j]] = values[j];
      }
    }
  }
  la::Matrix& proba = buffers.proba;
  const std::uint64_t forward_start_ns = obs::MetricsNowNanos();
  model_->PredictProbaInto(joint, &proba);
  // One clock read ends the forward timer and stamps the batch's rows as
  // served for the auditor's rate window.
  const std::uint64_t served_ns = obs::NowNanos();
  const std::uint64_t forward_ns =
      obs::kMetricsEnabled ? served_ns - forward_start_ns : 0;
  CHECK_EQ(proba.rows(), items.size());
  // Counters update before any row counts down so that a stats() snapshot
  // taken right after a call returns already covers this batch.
  model_batches_.Add();
  model_rows_.Add(items.size());
  forward_ns_.Record(forward_ns);
  batch_rows_.Record(items.size());
  if (obs::kMetricsEnabled) {
    // The forward pass is shared by every item in the fused batch; attribute
    // an equal share to each request's span.
    const std::uint64_t per_row_ns = forward_ns / items.size();
    for (const BatchItem& item : items) {
      if (item.call->span != nullptr) {
        item.call->span->AddStageNs("model_forward", per_row_ns);
        item.call->span->SetAttr("batch_rows", items.size());
      }
    }
  }

  const bool have_defenses =
      defense_generation_.load(std::memory_order_acquire) > 0;
  {
    // Defenses may be stateful (e.g., a seeded noise stream); applying them
    // under one lock, in queue order within the batch, keeps the revealed
    // stream well-defined. The lock is skipped while no defense is installed.
    std::unique_lock<std::mutex> lock(defense_mu_, std::defer_lock);
    if (have_defenses) lock.lock();
    for (std::size_t i = 0; i < items.size(); ++i) {
      BatchCall& call = *items[i].call;
      const double* model_row = proba.RowPtr(i);
      if (!have_defenses && cache_ == nullptr) {
        // Nothing needs the scores as a vector: copy them straight out.
        std::copy(model_row, model_row + proba.cols(),
                  call.out + items[i].row * proba.cols());
      } else {
        std::vector<double> scores(model_row, model_row + proba.cols());
        if (have_defenses) ApplyDefensesLocked(&scores, call.span);
        CHECK_EQ(scores.size(), proba.cols());
        std::copy(scores.begin(), scores.end(),
                  call.out + items[i].row * proba.cols());
        if (cache_ != nullptr) {
          cache_->Put(items[i].cache_key, std::move(scores));
        }
      }
      auditor_.RecordServed(call.client_id, 1, served_ns);
      predictions_served_.Add();
      // The call may return (and its record vanish) once this lands.
      call.CountDown(1);
    }
  }
  if (items.size() >= kMaxRetainedRows) {
    joint = la::Matrix();
    proba = la::Matrix();
  }
}

void PredictionServer::ApplyDefensesLocked(std::vector<double>* scores,
                                           obs::TraceSpan* span) {
  const std::uint64_t defense_start_ns = obs::MetricsNowNanos();
  for (const std::unique_ptr<fed::OutputDefense>& defense : defenses_) {
    *scores = defense->Apply(*scores);
    CHECK_EQ(scores->size(), model_->num_classes())
        << "defense must preserve the score vector length";
  }
  const std::uint64_t defense_ns = obs::MetricsNowNanos() - defense_start_ns;
  defense_ns_.Record(defense_ns);
  if (span != nullptr) span->AddStageNs("defense", defense_ns);
}

PredictionServerStats PredictionServer::stats() const {
  PredictionServerStats stats;
  stats.predictions_served = predictions_served_.Value();
  stats.model_batches = model_batches_.Value();
  stats.model_rows = model_rows_.Value();
  if (cache_ != nullptr) {
    stats.cache_hits = cache_->hits();
    stats.cache_misses = cache_->misses();
  }
  stats.mean_batch_size =
      stats.model_batches == 0
          ? 0.0
          : static_cast<double>(stats.model_rows) /
                static_cast<double>(stats.model_batches);
  return stats;
}

}  // namespace vfl::serve
