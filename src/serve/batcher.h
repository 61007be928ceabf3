#ifndef VFLFIA_SERVE_BATCHER_H_
#define VFLFIA_SERVE_BATCHER_H_

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
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

  /// Blocks until every row has counted down; returns the first failure.
  core::Status Wait();

  const std::uint64_t client_id;
  obs::TraceSpan* const span;
  la::Matrix* const out;

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::size_t pending_;
  core::Status status_;
};

/// One queued row of a call: the worker that executes it writes the revealed
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
  /// Stamped by Push(); per-item queue wait = pop time − submit_ns. Zero in
  /// synchronous mode (never queued) and in metrics-disabled builds.
  std::uint64_t submit_ns = 0;
};

/// MPMC request queue with micro-batching. Producers Push() individual
/// requests; consumers PopBatch() groups of up to `max_batch_size` requests,
/// waiting at most `max_batch_delay` after the first request arrives for the
/// batch to fill. Fusing queued sample-ids into one Matrix forward pass is
/// what amortizes per-call model overhead under concurrent load.
class Batcher {
 public:
  /// `max_batch_size` >= 1; `max_batch_delay` may be zero (greedy batches:
  /// take whatever is queued, never wait for more). `depth_gauge`, when
  /// given, tracks the live queue depth across pushes and pops.
  Batcher(std::size_t max_batch_size, std::chrono::microseconds max_batch_delay,
          obs::Gauge* depth_gauge = nullptr);

  Batcher(const Batcher&) = delete;
  Batcher& operator=(const Batcher&) = delete;

  /// Enqueues a request. Returns false when the batcher is closed; nothing
  /// was queued, so the caller must count the item's call down itself.
  bool Push(BatchItem item);

  /// Blocks until at least one request is available, then collects up to
  /// max_batch_size requests in FIFO order, waiting at most max_batch_delay
  /// for stragglers. Returns an empty vector only when the batcher is closed
  /// and fully drained.
  std::vector<BatchItem> PopBatch();

  /// Rejects future pushes and wakes all blocked consumers. Queued requests
  /// remain poppable until drained.
  void Close();

  std::size_t max_batch_size() const { return max_batch_size_; }

  /// Current queue depth (diagnostics).
  std::size_t depth() const;

 private:
  const std::size_t max_batch_size_;
  const std::chrono::microseconds max_batch_delay_;
  obs::Gauge* const depth_gauge_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<BatchItem> queue_;
  bool closed_ = false;
};

}  // namespace vfl::serve

#endif  // VFLFIA_SERVE_BATCHER_H_
