#include "serve/batcher.h"

#include <algorithm>
#include <bit>

#include "core/check.h"

namespace vfl::serve {

void BatchCall::CountDown(std::size_t rows, const core::Status& status) {
  if (std::this_thread::get_id() == owner_) {
    if (!status.ok()) {
      std::lock_guard<std::mutex> lock(mu_);
      if (status_.ok()) status_ = status;
    }
    owner_rows_ += rows;
    const std::size_t pending =
        pending_.fetch_sub(rows, std::memory_order_acq_rel);
    CHECK_GE(pending, rows);
    return;
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (!status.ok() && status_.ok()) status_ = status;
  const std::size_t pending =
      pending_.fetch_sub(rows, std::memory_order_acq_rel);
  CHECK_GE(pending, rows);
  if (pending == rows) cv_.notify_all();
}

core::Status BatchCall::Wait() {
  if (owner_rows_ == rows_) return status_;
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [this] {
    return pending_.load(std::memory_order_acquire) == 0;
  });
  return status_;
}

Batcher::Batcher(std::size_t max_batch_size, obs::Gauge* depth_gauge)
    : max_batch_size_(max_batch_size), depth_gauge_(depth_gauge) {
  CHECK_GE(max_batch_size_, 1u) << "batches must hold at least one request";
}

bool Batcher::PushAndPop(std::span<BatchItem> items,
                         std::vector<BatchItem>* batch) {
  batch->clear();
  if (items.empty()) return true;
  const std::uint64_t now_ns = obs::MetricsNowNanos();
  std::size_t wake = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (closed_) return false;
    if (size_ + items.size() > ring_.size()) {
      // Unroll the ring into a larger one, oldest row first.
      std::vector<BatchItem> grown(
          std::bit_ceil(std::max<std::size_t>(size_ + items.size(), 16)));
      for (std::size_t i = 0; i < size_; ++i) grown[i] = ring_[Slot(i)];
      ring_ = std::move(grown);
      head_ = 0;
    }
    for (BatchItem& item : items) {
      item.submit_ns = now_ns;
      ring_[Slot(size_++)] = item;
    }
    // One gauge move for the push and the pop: a lone row never shows.
    MoveDepthLocked(static_cast<std::int64_t>(items.size()) -
                    static_cast<std::int64_t>(TakeLocked(batch)));
    // The pusher runs the batch it just took; idle workers take the rest.
    wake = std::min(idle_, (items.size() - 1) / max_batch_size_);
  }
  for (; wake > 0; --wake) cv_.notify_one();
  return true;
}

bool Batcher::PopBatch(std::vector<BatchItem>* batch) {
  std::unique_lock<std::mutex> lock(mu_);
  ++idle_;
  cv_.wait(lock, [this] { return closed_ || size_ != 0; });
  --idle_;
  MoveDepthLocked(-static_cast<std::int64_t>(TakeLocked(batch)));
  return !batch->empty();
}

bool Batcher::TryPopBatch(std::vector<BatchItem>* batch) {
  std::lock_guard<std::mutex> lock(mu_);
  MoveDepthLocked(-static_cast<std::int64_t>(TakeLocked(batch)));
  return !batch->empty();
}

std::size_t Batcher::TakeLocked(std::vector<BatchItem>* batch) {
  batch->clear();
  const std::size_t count = std::min(size_, max_batch_size_);
  for (std::size_t i = 0; i < count; ++i) batch->push_back(ring_[Slot(i)]);
  if (count != 0) head_ = Slot(count);
  size_ -= count;
  return count;
}

void Batcher::MoveDepthLocked(std::int64_t delta) {
  if (depth_gauge_ != nullptr && delta != 0) depth_gauge_->Add(delta);
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
  return size_;
}

}  // namespace vfl::serve
