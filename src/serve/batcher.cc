#include "serve/batcher.h"

#include "core/check.h"

namespace vfl::serve {

void BatchCall::CountDown(std::size_t rows, const core::Status& status) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!status.ok() && status_.ok()) status_ = status;
  CHECK_GE(pending_, rows);
  pending_ -= rows;
  if (pending_ == 0) cv_.notify_all();
}

core::Status BatchCall::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [this] { return pending_ == 0; });
  return status_;
}

Batcher::Batcher(std::size_t max_batch_size,
                 std::chrono::microseconds max_batch_delay,
                 obs::Gauge* depth_gauge)
    : max_batch_size_(max_batch_size),
      max_batch_delay_(max_batch_delay),
      depth_gauge_(depth_gauge) {
  CHECK_GE(max_batch_size_, 1u) << "batches must hold at least one request";
}

bool Batcher::Push(BatchItem item) {
  item.submit_ns = obs::MetricsNowNanos();
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (closed_) return false;
    queue_.push_back(item);
  }
  if (depth_gauge_ != nullptr) depth_gauge_->Add(1);
  cv_.notify_one();
  return true;
}

std::vector<BatchItem> Batcher::PopBatch() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [this] { return closed_ || !queue_.empty(); });
  if (queue_.empty()) return {};  // closed and drained

  if (queue_.size() < max_batch_size_ && !closed_ &&
      max_batch_delay_.count() > 0) {
    // Wait for stragglers so the forward pass fuses more rows; bail out as
    // soon as the batch fills or the deadline passes.
    const auto deadline = std::chrono::steady_clock::now() + max_batch_delay_;
    cv_.wait_until(lock, deadline, [this] {
      return closed_ || queue_.size() >= max_batch_size_;
    });
  }

  const std::size_t take = std::min(queue_.size(), max_batch_size_);
  std::vector<BatchItem> batch;
  batch.reserve(take);
  for (std::size_t i = 0; i < take; ++i) {
    batch.push_back(std::move(queue_.front()));
    queue_.pop_front();
  }
  if (!queue_.empty()) {
    // Leftovers form the next batch; make sure another consumer picks them
    // up even if no further Push() arrives.
    cv_.notify_one();
  }
  if (depth_gauge_ != nullptr && !batch.empty()) {
    depth_gauge_->Add(-static_cast<std::int64_t>(batch.size()));
  }
  return batch;
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
