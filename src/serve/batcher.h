#ifndef VFLFIA_SERVE_BATCHER_H_
#define VFLFIA_SERVE_BATCHER_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <span>
#include <thread>
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
/// the rows still owed to it. The thread that constructs the call owns it:
/// it alone waits, so its own count-downs skip the latch's mutex, and a call
/// whose rows it served all by itself completes without touching the mutex.
class BatchCall {
 public:
  /// `out` and `span` are borrowed; `span` may be null (tracing off). `out`
  /// holds `rows` row-major score rows, one per requested sample.
  BatchCall(std::uint64_t client_id, obs::TraceSpan* span, double* out,
            std::size_t rows)
      : client_id(client_id),
        span(span),
        out(out),
        rows_(rows),
        owner_(std::this_thread::get_id()),
        pending_(rows) {}

  BatchCall(const BatchCall&) = delete;
  BatchCall& operator=(const BatchCall&) = delete;

  /// Marks `rows` rows done; a non-OK `status` fails the call (the first
  /// failure wins). On the owner's thread this is a lock-free decrement: the
  /// owner is not waiting while it runs rows, so there is nobody to notify.
  /// Any other thread decrements and, on the last row, notifies while
  /// holding the latch's mutex, because the waiter may destroy the call as
  /// soon as it can lock; for the same reason nothing may touch the call
  /// after its last row counted down.
  void CountDown(std::size_t rows, const core::Status& status = {});

  /// True once every row has counted down. A lock-free read, for polling
  /// while the caller runs queued batches; another thread's last CountDown
  /// may still hold the latch mutex, so the owner must still Wait() before
  /// the call leaves scope.
  bool done() const { return pending_.load(std::memory_order_acquire) == 0; }

  /// Blocks until every row has counted down; returns the first failure.
  /// Owner only. Returns without locking when the owner counted every row
  /// down itself: no other thread then ever touched the call.
  core::Status Wait();

  const std::uint64_t client_id;
  obs::TraceSpan* const span;
  double* const out;

 private:
  const std::size_t rows_;
  const std::thread::id owner_;
  /// Rows the owner counted down; read and written by the owner only.
  std::size_t owner_rows_ = 0;
  std::mutex mu_;
  std::condition_variable cv_;
  /// Other threads decrement it under mu_, the owner without; atomic so that
  /// both, and done(), can touch it at once.
  std::atomic<std::size_t> pending_;
  /// Written under mu_. The owner's lock-free Wait reads it without mu_ only
  /// when no other thread counted down, i.e. wrote nothing.
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
  /// Stamped by PushAndPop(); per-item queue wait = pop time − submit_ns.
  /// Zero only in metrics-disabled builds.
  std::uint64_t submit_ns = 0;
};

/// Work-conserving MPMC row queue. Callers queue a call's rows and take the
/// first batch in one PushAndPop(), then pop more themselves with
/// TryPopBatch() until their own rows are no longer queued; worker threads
/// PopBatch() whatever is queued. No pop ever waits for a batch to fill: rows
/// fuse into one forward pass (up to `max_batch_size`) only when they queue
/// up behind busy threads, so an idle server answers a lone row at once, in
/// one lock hand-off, while a loaded one still amortizes per-pass model
/// overhead.
class Batcher {
 public:
  /// `max_batch_size` >= 1. `depth_gauge`, when given, tracks the live queue
  /// depth; it moves inside the queue's critical section, so it never reads
  /// below zero.
  explicit Batcher(std::size_t max_batch_size,
                   obs::Gauge* depth_gauge = nullptr);

  Batcher(const Batcher&) = delete;
  Batcher& operator=(const Batcher&) = delete;

  /// Stamps and enqueues `items` in order and, under the same lock, moves
  /// the next batch (the queue's head: FIFO, so rows queued ahead of these
  /// come first) into `batch` for the pusher to run. Then wakes one blocked
  /// worker for each further batch the items fill (ceil(n / max_batch_size)
  /// − 1). Returns false when the batcher is closed: nothing was queued or
  /// popped, `batch` is empty, and the caller must count the items' calls
  /// down itself. An empty span queues and pops nothing and returns true.
  /// `batch` is cleared first and its capacity reused; it must not hold
  /// `items`.
  bool PushAndPop(std::span<BatchItem> items, std::vector<BatchItem>* batch);

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
  /// Moves the next batch out of the queue and returns its row count; mu_
  /// must be held.
  std::size_t TakeLocked(std::vector<BatchItem>* batch);

  /// Moves the depth gauge by `delta` rows; mu_ must be held, so the gauge
  /// never reads below zero.
  void MoveDepthLocked(std::int64_t delta);

  /// Ring index of the i-th queued row (the ring's size is a power of two).
  std::size_t Slot(std::size_t i) const {
    return (head_ + i) & (ring_.size() - 1);
  }

  const std::size_t max_batch_size_;
  obs::Gauge* const depth_gauge_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  /// The queue: a ring of `size_` rows starting at `ring_[head_]`. It grows
  /// to the next power of two when full and never shrinks, so a server in
  /// steady state queues and pops without allocating.
  std::vector<BatchItem> ring_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
  /// Workers blocked in PopBatch; PushAndPop never wakes more than this many.
  std::size_t idle_ = 0;
  bool closed_ = false;
};

}  // namespace vfl::serve

#endif  // VFLFIA_SERVE_BATCHER_H_
