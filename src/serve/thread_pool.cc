#include "serve/thread_pool.h"

#include <algorithm>
#include <memory>

#include "core/check.h"

namespace vfl::serve {

ThreadPool::ThreadPool(std::size_t num_threads) {
  num_threads = std::max<std::size_t>(num_threads, 1);
  threads_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() { Shutdown(); }

bool ThreadPool::Submit(std::function<void()> task) {
  CHECK(task != nullptr);
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shutdown_) return false;
    tasks_.push_back(std::move(task));
  }
  cv_.notify_one();
  return true;
}

void ThreadPool::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shutdown_) {
      // A previous Shutdown() already joined the workers.
      if (threads_.empty()) return;
    }
    shutdown_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : threads_) {
    if (t.joinable()) t.join();
  }
  threads_.clear();
}

void ThreadPool::ParallelFor(
    std::size_t begin, std::size_t end, std::size_t min_chunk,
    const std::function<void(std::size_t, std::size_t)>& chunk) {
  CHECK(chunk != nullptr);
  if (begin >= end) return;
  min_chunk = std::max<std::size_t>(min_chunk, 1);
  const std::size_t total = end - begin;
  // Aim for a few chunks per worker for load balance, but never below
  // min_chunk indices per chunk.
  const std::size_t workers = std::max<std::size_t>(num_threads(), 1) + 1;
  std::size_t num_chunks =
      std::min(total / min_chunk + (total % min_chunk != 0), 4 * workers);
  num_chunks = std::max<std::size_t>(num_chunks, 1);
  const std::size_t chunk_size = (total + num_chunks - 1) / num_chunks;

  if (num_chunks == 1) {
    chunk(begin, end);
    return;
  }

  // Completion latch on the heap, shared by every submitted task: a worker
  // may still be finishing its notify when the caller's wait succeeds, so
  // the latch must outlive the last worker's touch, not just this frame.
  struct Latch {
    std::mutex mu;
    std::condition_variable cv;
    std::size_t pending = 0;
  };
  auto latch = std::make_shared<Latch>();
  for (std::size_t c = 1; c < num_chunks; ++c) {
    const std::size_t b = begin + c * chunk_size;
    if (b >= end) break;
    const std::size_t e = std::min(b + chunk_size, end);
    bool submitted;
    {
      std::lock_guard<std::mutex> lock(latch->mu);
      submitted = Submit([latch, &chunk, b, e] {
        chunk(b, e);
        {
          std::lock_guard<std::mutex> inner(latch->mu);
          --latch->pending;
        }
        latch->cv.notify_one();
      });
      if (submitted) ++latch->pending;
    }
    if (!submitted) chunk(b, e);  // pool shut down: degrade to inline
  }
  // The caller contributes the first chunk while the workers run the rest.
  chunk(begin, std::min(begin + chunk_size, end));
  std::unique_lock<std::mutex> lock(latch->mu);
  latch->cv.wait(lock, [&] { return latch->pending == 0; });
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return shutdown_ || !tasks_.empty(); });
      if (tasks_.empty()) return;  // shutdown and drained
      task = std::move(tasks_.front());
      tasks_.pop_front();
    }
    task();
  }
}

FetchFlood::FetchFlood(std::size_t clients)
    : clients_(std::max<std::size_t>(clients, 1)) {}

core::StatusOr<la::Matrix> FetchFlood::Run(const std::vector<std::size_t>& ids,
                                           std::size_t num_classes,
                                           const ChunkFetch& fetch) {
  const std::size_t clients =
      std::min(clients_, std::max<std::size_t>(ids.size(), 1));
  if (clients == 1) return fetch(ids);

  if (pool_ == nullptr) pool_ = std::make_unique<ThreadPool>(clients_ - 1);
  const std::size_t chunk = (ids.size() + clients - 1) / clients;
  const std::size_t num_chunks = (ids.size() + chunk - 1) / chunk;
  la::Matrix out(ids.size(), num_classes);
  std::vector<core::Status> errors(num_chunks);
  // With min_chunk 1 and num_chunks <= pool threads + 1, ParallelFor hands
  // every flood chunk to its own thread. Chunks write disjoint row ranges of
  // `out` and their own `errors` slot, so no lock is needed.
  pool_->ParallelFor(0, num_chunks, 1, [&](std::size_t first,
                                           std::size_t last) {
    for (std::size_t c = first; c < last; ++c) {
      const std::size_t begin = c * chunk;
      const std::size_t end = std::min(begin + chunk, ids.size());
      core::StatusOr<la::Matrix> rows =
          fetch({ids.begin() + begin, ids.begin() + end});
      if (!rows.ok()) {
        errors[c] = rows.status();
        continue;
      }
      CHECK_EQ(rows->rows(), end - begin);
      CHECK_EQ(rows->cols(), num_classes);
      std::copy(rows->data(), rows->data() + rows->size(), out.RowPtr(begin));
    }
  });
  for (const core::Status& error : errors) {
    if (!error.ok()) return error;
  }
  return out;
}

}  // namespace vfl::serve
