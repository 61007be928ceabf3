#ifndef VFLFIA_SERVE_BATCHER_H_
#define VFLFIA_SERVE_BATCHER_H_

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <future>
#include <mutex>
#include <vector>

#include "core/status.h"
#include "obs/metrics.h"

namespace vfl::obs {
class TraceSpan;
}  // namespace vfl::obs

namespace vfl::serve {

/// One queued joint-prediction request. The promise is fulfilled with the
/// revealed (post-defense) confidence vector, or with an error Status.
struct BatchItem {
  std::uint64_t client_id = 0;
  std::size_t sample_id = 0;
  /// Cache key precomputed at submit time (sample id fused with the
  /// defense-config generation), so the execution path can insert the result
  /// without re-deriving it.
  std::uint64_t cache_key = 0;
  /// Stamped by Push(); per-item queue wait = pop time − submit_ns. Zero in
  /// synchronous mode (never queued) and in metrics-disabled builds.
  std::uint64_t submit_ns = 0;
  /// Trace span of the wire request this item belongs to; null when tracing
  /// is off. Borrowed — the request owner keeps it alive until every item's
  /// promise is fulfilled.
  obs::TraceSpan* span = nullptr;
  std::promise<core::StatusOr<std::vector<double>>> promise;
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

  /// Enqueues a request. Returns false when the batcher is closed, in which
  /// case `item` is NOT consumed and the caller still owns its promise.
  bool Push(BatchItem&& item);

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
