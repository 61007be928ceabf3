#ifndef VFLFIA_SERVE_THREAD_POOL_H_
#define VFLFIA_SERVE_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "core/status.h"
#include "la/matrix.h"

namespace vfl::serve {

/// Fixed-size thread-pool executor. Tasks submitted after Shutdown() are
/// dropped; Shutdown() (and the destructor) drains already-queued tasks
/// before joining.
///
/// Note: PredictionServer dedicates its pool to long-running worker loops
/// (one per thread, running until shutdown), so a task submitted behind
/// such loops would only run once they exit — don't share a pool between
/// blocking loops and short tasks.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (at least one).
  explicit ThreadPool(std::size_t num_threads);

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Drains queued tasks and joins all workers.
  ~ThreadPool();

  /// Enqueues `task` for execution on some worker. Returns false (dropping
  /// the task) when the pool is shutting down.
  bool Submit(std::function<void()> task);

  /// Stops accepting new tasks, waits for queued tasks to finish, joins.
  /// Idempotent.
  void Shutdown();

  /// Splits [begin, end) into contiguous chunks of at least `min_chunk`
  /// indices, runs `chunk(chunk_begin, chunk_end)` on the pool, and blocks
  /// until every chunk finished. The caller's thread executes one chunk
  /// itself, so a pool of T threads yields up to T+1 way parallelism and the
  /// call degrades gracefully to inline execution after Shutdown(). Chunk
  /// boundaries depend only on (begin, end, min_chunk, num_threads-at-
  /// construction), never on scheduling, so workloads that write disjoint
  /// per-index outputs produce identical results for any pool size.
  ///
  /// Must not be called from inside a pool task (the waiting caller would
  /// occupy the queue's consumer); callers that may re-enter should run
  /// serial instead (see la::ParallelFor).
  void ParallelFor(std::size_t begin, std::size_t end, std::size_t min_chunk,
                   const std::function<void(std::size_t, std::size_t)>& chunk);

  std::size_t num_threads() const { return threads_.size(); }

 private:
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> tasks_;
  bool shutdown_ = false;
  std::vector<std::thread> threads_;
};

/// One fetch flooded from up to `clients` concurrent submitters — the
/// long-term accumulation expressed as concurrent traffic, shared by the
/// server and net query channels. Not thread-safe: one channel drives it.
class FetchFlood {
 public:
  /// Fetches one contiguous chunk of ids; returns one row per id, in order.
  using ChunkFetch = std::function<core::StatusOr<la::Matrix>(
      const std::vector<std::size_t>& ids)>;

  /// `clients` is clamped to at least 1.
  explicit FetchFlood(std::size_t clients);

  /// Splits `ids` into at most `clients` contiguous chunks, fetches each
  /// with one `fetch` call, and returns every row in request order. A single
  /// chunk is a direct call in the caller's thread. Otherwise the caller
  /// runs the first chunk while a private pool of clients-1 threads, built
  /// on the first such fetch, runs the rest. A chunk blocks until a server
  /// answers it, so floods never borrow la::ParallelFor's team or a
  /// server's worker pool: their threads may be the ones that must answer.
  ///
  /// Each chunk succeeds or fails on its own, so on any failure the caller
  /// receives nothing: the status of the lowest-indexed failed chunk comes
  /// back and the rows of chunks that did succeed are discarded.
  core::StatusOr<la::Matrix> Run(const std::vector<std::size_t>& ids,
                                 std::size_t num_classes,
                                 const ChunkFetch& fetch);

 private:
  std::size_t clients_;
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace vfl::serve

#endif  // VFLFIA_SERVE_THREAD_POOL_H_
