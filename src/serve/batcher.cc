#include "serve/batcher.h"

#include <algorithm>

#include "core/check.h"

namespace vfl::serve {

void BatchCall::CountDown(std::size_t rows, const core::Status& status) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!status.ok() && status_.ok()) status_ = status;
  const std::size_t pending = pending_.load(std::memory_order_relaxed);
  CHECK_GE(pending, rows);
  pending_.store(pending - rows, std::memory_order_release);
  if (pending == rows) cv_.notify_all();
}

core::Status BatchCall::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [this] {
    return pending_.load(std::memory_order_relaxed) == 0;
  });
  return status_;
}

Batcher::Batcher(std::size_t max_batch_size, obs::Gauge* depth_gauge)
    : max_batch_size_(max_batch_size), depth_gauge_(depth_gauge) {
  CHECK_GE(max_batch_size_, 1u) << "batches must hold at least one request";
}

bool Batcher::Push(std::span<BatchItem> items) {
  if (items.empty()) return true;
  const std::uint64_t now_ns = obs::MetricsNowNanos();
  for (BatchItem& item : items) item.submit_ns = now_ns;
  std::size_t wake = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (closed_) return false;
    queue_.insert(queue_.end(), items.begin(), items.end());
    if (depth_gauge_ != nullptr) {
      depth_gauge_->Add(static_cast<std::int64_t>(items.size()));
    }
    // The pusher runs the first batch; idle workers take the rest.
    wake = std::min(idle_, (items.size() - 1) / max_batch_size_);
  }
  for (; wake > 0; --wake) cv_.notify_one();
  return true;
}

bool Batcher::PopBatch(std::vector<BatchItem>* batch) {
  std::unique_lock<std::mutex> lock(mu_);
  ++idle_;
  cv_.wait(lock, [this] { return closed_ || !queue_.empty(); });
  --idle_;
  TakeLocked(batch);
  return !batch->empty();
}

bool Batcher::TryPopBatch(std::vector<BatchItem>* batch) {
  std::lock_guard<std::mutex> lock(mu_);
  TakeLocked(batch);
  return !batch->empty();
}

void Batcher::TakeLocked(std::vector<BatchItem>* batch) {
  const auto end =
      queue_.begin() +
      static_cast<std::ptrdiff_t>(std::min(queue_.size(), max_batch_size_));
  batch->assign(queue_.begin(), end);
  queue_.erase(queue_.begin(), end);
  if (depth_gauge_ != nullptr && !batch->empty()) {
    depth_gauge_->Add(-static_cast<std::int64_t>(batch->size()));
  }
}

void Batcher::Close() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
  }
  cv_.notify_all();
}

std::size_t Batcher::depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size();
}

}  // namespace vfl::serve
