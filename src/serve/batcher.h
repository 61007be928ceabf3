#ifndef VFLFIA_SERVE_BATCHER_H_
#define VFLFIA_SERVE_BATCHER_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <span>
#include <vector>

#include "core/status.h"
#include "obs/metrics.h"

namespace vfl::la {
class Matrix;
}  // namespace vfl::la

namespace vfl::obs {
class TraceSpan;
}  // namespace vfl::obs

namespace vfl::serve {

/// One PredictBatch call, living on the caller's stack while its rows are
/// served: who asked, where the defended rows go, and a countdown latch over
/// the rows still owed to it.
class BatchCall {
 public:
  /// `out` and `span` are borrowed; `span` may be null (tracing off).
  BatchCall(std::uint64_t client_id, obs::TraceSpan* span, la::Matrix* out,
            std::size_t rows)
      : client_id(client_id), span(span), out(out), pending_(rows) {}

  BatchCall(const BatchCall&) = delete;
  BatchCall& operator=(const BatchCall&) = delete;

  /// Marks `rows` rows done; a non-OK `status` fails the call (the first
  /// failure wins). The last count-down notifies while holding the latch's
  /// mutex, because the waiter may destroy the call as soon as it can lock;
  /// for the same reason nothing may touch the call after its last row
  /// counted down.
  void CountDown(std::size_t rows, const core::Status& status = {});

  /// True once every row has counted down. A lock-free read, for polling
  /// while the caller runs queued batches; the last CountDown may still hold
  /// the latch mutex, so the owner must still Wait() before the call leaves
  /// scope.
  bool done() const { return pending_.load(std::memory_order_acquire) == 0; }

  /// Blocks until every row has counted down; returns the first failure.
  core::Status Wait();

  const std::uint64_t client_id;
  obs::TraceSpan* const span;
  la::Matrix* const out;

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  /// Written only under mu_; atomic so that done() can read it without it.
  std::atomic<std::size_t> pending_;
  core::Status status_;
};

/// One queued row of a call: the thread that executes it writes the revealed
/// (post-defense) confidence vector into row `row` of `call->out`, then
/// counts the call down.
struct BatchItem {
  BatchCall* call = nullptr;
  std::size_t row = 0;
  std::size_t sample_id = 0;
  /// Cache key precomputed at submit time (sample id fused with the
  /// defense-config generation), so the execution path can insert the result
  /// without re-deriving it.
  std::uint64_t cache_key = 0;
  /// Stamped by Push(); per-item queue wait = pop time − submit_ns. Zero only
  /// in metrics-disabled builds.
  std::uint64_t submit_ns = 0;
};

/// Work-conserving MPMC row queue. Callers Push() a call's rows at once and
/// then pop batches themselves with TryPopBatch() until their own rows are
/// no longer queued; worker threads PopBatch() whatever is queued. No pop
/// ever waits for a batch to fill: rows fuse into one forward pass (up to
/// `max_batch_size`) only when they queue up behind busy threads, so an idle
/// server answers a lone row at once while a loaded one still amortizes
/// per-pass model overhead.
class Batcher {
 public:
  /// `max_batch_size` >= 1. `depth_gauge`, when given, tracks the live queue
  /// depth; it moves inside the queue's critical section, so it never reads
  /// below zero.
  explicit Batcher(std::size_t max_batch_size,
                   obs::Gauge* depth_gauge = nullptr);

  Batcher(const Batcher&) = delete;
  Batcher& operator=(const Batcher&) = delete;

  /// Stamps and enqueues `items` in order, then wakes one blocked worker for
  /// each batch after the first (ceil(n / max_batch_size) − 1): the pusher is
  /// expected to run a batch itself. Returns false when the batcher is
  /// closed; nothing was queued, so the caller must count the items' calls
  /// down itself. An empty span queues nothing and returns true.
  bool Push(std::span<BatchItem> items);

  /// Blocks until a row is queued, then moves up to max_batch_size rows, in
  /// FIFO order, into `batch` (cleared first; its capacity is reused, so a
  /// loop that keeps the vector pops without allocating). Returns false, with
  /// `batch` empty, only once the batcher is closed and drained.
  bool PopBatch(std::vector<BatchItem>* batch);

  /// PopBatch that never waits: returns false, with `batch` empty, when
  /// nothing is queued.
  bool TryPopBatch(std::vector<BatchItem>* batch);

  /// Rejects future pushes and wakes all blocked consumers. Queued requests
  /// remain poppable until drained.
  void Close();

  std::size_t max_batch_size() const { return max_batch_size_; }

  /// Current queue depth (diagnostics).
  std::size_t depth() const;

 private:
  /// Moves the next batch out of queue_; mu_ must be held.
  void TakeLocked(std::vector<BatchItem>* batch);

  const std::size_t max_batch_size_;
  obs::Gauge* const depth_gauge_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<BatchItem> queue_;
  /// Workers blocked in PopBatch; Push never wakes more than this many.
  std::size_t idle_ = 0;
  bool closed_ = false;
};

}  // namespace vfl::serve

#endif  // VFLFIA_SERVE_BATCHER_H_
