#include "la/parallel.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

namespace vfl::la {

namespace {

std::size_t DefaultNumThreads() {
  if (const char* env = std::getenv("VFLFIA_LA_THREADS")) {
    const long parsed = std::atol(env);
    if (parsed > 0) return static_cast<std::size_t>(parsed);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

std::atomic<std::size_t> g_num_threads{0};  // 0 = not resolved yet

/// True while this thread is executing a ParallelFor chunk; nested calls run
/// serial instead of waiting on lanes that are busy with the outer region.
thread_local bool t_in_chunk = false;

void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  _mm_pause();
#endif
}

using Clock = std::chrono::steady_clock;

/// An idle lane spins for kIdleSpin after its last chunk (training steps
/// start their next region within a few microseconds), then yields the core
/// for kIdleYield more, then sleeps until the next region wakes it. Yielding
/// hands the core straight back on a host that runs more lanes than it has
/// cores.
constexpr auto kIdleSpin = std::chrono::microseconds(30);
constexpr auto kIdleYield = std::chrono::microseconds(300);

/// la/'s fork-join team: `lanes - 1` persistent workers plus whichever
/// thread owns the current region (lane 0). One region runs at a time.
///
/// Each lane owns a contiguous block of the region's chunks, so across
/// regions of one shape the same lane gets the same rows and their cache
/// lines stay in its core's cache. A lane claims its own chunks first, then
/// steals what is left of the other lanes' blocks, so a lane the host does
/// not schedule leaves its chunks to the others.
///
/// A block is one claim word, (epoch << 32) | (next chunk << 16) | end
/// chunk, stored before the region's epoch is published. A lane claims with
/// a compare-and-swap that checks the epoch, reads the region's description
/// only after a successful claim, and the owner rewrites the description
/// only after every chunk has reported done, so a worker that wakes late
/// can only miss a region, never run a stale one.
class Team {
 public:
  explicit Team(std::size_t lanes) : lanes_(lanes), blocks_(lanes) {
    threads_.reserve(lanes - 1);
    for (std::size_t lane = 1; lane < lanes; ++lane) {
      threads_.emplace_back([this, lane] { WorkerLoop(lane); });
    }
  }

  Team(const Team&) = delete;
  Team& operator=(const Team&) = delete;

  ~Team() {
    stop_.store(true, std::memory_order_seq_cst);
    epoch_.fetch_add(1, std::memory_order_seq_cst);
    epoch_.notify_all();
    for (std::thread& t : threads_) t.join();
  }

  std::size_t lanes() const { return lanes_; }

  /// Runs `num_chunks` chunks of `chunk_size` indices over [begin, end) on
  /// every lane and returns once all are done; returns false without
  /// running anything when another thread's region holds the team.
  bool TryRun(std::size_t begin, std::size_t end, std::size_t chunk_size,
              std::size_t num_chunks,
              const FunctionRef<void(std::size_t, std::size_t)>& chunk) {
    bool expected = false;
    if (!busy_.compare_exchange_strong(expected, true,
                                       std::memory_order_acquire,
                                       std::memory_order_relaxed)) {
      return false;
    }
    chunk_ = &chunk;
    begin_ = begin;
    end_ = end;
    chunk_size_ = chunk_size;
    done_.store(0, std::memory_order_relaxed);
    const std::uint32_t epoch = epoch_.load(std::memory_order_relaxed) + 1;
    for (std::size_t lane = 0; lane < lanes_; ++lane) {
      blocks_[lane].word.store(
          Pack(epoch, num_chunks * lane / lanes_,
               num_chunks * (lane + 1) / lanes_),
          std::memory_order_relaxed);
    }
    epoch_.store(epoch, std::memory_order_seq_cst);
    if (sleepers_.load(std::memory_order_seq_cst) > 0) epoch_.notify_all();

    RunChunks(0, epoch);
    // Chunks other lanes claimed may still be running.
    for (std::size_t spins = 0;
         done_.load(std::memory_order_acquire) != num_chunks; ++spins) {
      if (spins < 4096) {
        CpuRelax();
      } else {
        std::this_thread::yield();
      }
    }
    busy_.store(false, std::memory_order_release);
    return true;
  }

 private:
  static std::uint64_t Pack(std::uint32_t epoch, std::size_t next,
                            std::size_t end) {
    return std::uint64_t{epoch} << 32 | std::uint64_t{next} << 16 | end;
  }

  /// Takes the next chunk of `lane`'s block in region `epoch`, if any.
  bool Claim(std::size_t lane, std::uint32_t epoch, std::size_t* chunk) {
    std::atomic<std::uint64_t>& word = blocks_[lane].word;
    std::uint64_t current = word.load(std::memory_order_acquire);
    for (;;) {
      const std::size_t next = (current >> 16) & 0xffff;
      if ((current >> 32) != epoch || next >= (current & 0xffff)) {
        return false;
      }
      if (word.compare_exchange_weak(current, current + (1 << 16),
                                     std::memory_order_acq_rel,
                                     std::memory_order_acquire)) {
        *chunk = next;
        return true;
      }
    }
  }

  /// Runs this lane's block, then steals from the other lanes' blocks in
  /// lane order, then reports how many chunks it ran.
  void RunChunks(std::size_t lane, std::uint32_t epoch) {
    t_in_chunk = true;
    std::size_t ran = 0;
    std::size_t index = 0;
    for (std::size_t k = 0; k < lanes_; ++k) {
      const std::size_t victim = (lane + k) % lanes_;
      while (Claim(victim, epoch, &index)) {
        const std::size_t b = begin_ + index * chunk_size_;
        (*chunk_)(b, std::min(b + chunk_size_, end_));
        ++ran;
      }
    }
    // One report for all of this lane's chunks: it holds none any more.
    if (ran != 0) done_.fetch_add(ran, std::memory_order_release);
    t_in_chunk = false;
  }

  /// Returns the epoch once it differs from `seen`: spinning, then yielding,
  /// then sleeping on the epoch word.
  std::uint32_t WaitForRegion(std::uint32_t seen) {
    const Clock::time_point start = Clock::now();
    for (std::uint32_t i = 1;; ++i) {
      const std::uint32_t epoch = epoch_.load(std::memory_order_acquire);
      if (epoch != seen) return epoch;
      if (i % 64 == 0) {
        const Clock::duration idle = Clock::now() - start;
        if (idle > kIdleSpin + kIdleYield) break;
        if (idle > kIdleSpin) {
          std::this_thread::yield();
          continue;
        }
      }
      CpuRelax();
    }
    for (;;) {
      // Paired with the owner's epoch store and sleepers_ load: either the
      // owner sees this sleeper and notifies, or wait() sees the new epoch
      // and returns at once.
      sleepers_.fetch_add(1, std::memory_order_seq_cst);
      epoch_.wait(seen, std::memory_order_seq_cst);
      sleepers_.fetch_sub(1, std::memory_order_relaxed);
      const std::uint32_t epoch = epoch_.load(std::memory_order_acquire);
      if (epoch != seen) return epoch;
    }
  }

  void WorkerLoop(std::size_t lane) {
    std::uint32_t seen = 0;
    for (;;) {
      seen = WaitForRegion(seen);
      if (stop_.load(std::memory_order_acquire)) return;
      RunChunks(lane, seen);
    }
  }

  /// One lane's claim word, alone on its cache line.
  struct alignas(64) Block {
    std::atomic<std::uint64_t> word{0};
  };

  const std::size_t lanes_;
  std::atomic<bool> busy_{false};
  std::atomic<bool> stop_{false};
  // Idle workers poll the epoch and the owner polls the done count: one
  // cache line each, apart from the claim words.
  alignas(64) std::atomic<std::uint32_t> epoch_{0};
  std::atomic<std::uint32_t> sleepers_{0};
  alignas(64) std::atomic<std::size_t> done_{0};
  std::vector<Block> blocks_;
  // The region's description: written by its owner before it publishes the
  // epoch, read by a lane only between a successful claim and its report.
  const FunctionRef<void(std::size_t, std::size_t)>* chunk_ = nullptr;
  std::size_t begin_ = 0;
  std::size_t end_ = 0;
  std::size_t chunk_size_ = 0;
  std::vector<std::thread> threads_;
};

std::mutex g_team_mu;
std::unique_ptr<Team> g_team;         // guarded by g_team_mu
std::atomic<Team*> g_team_ptr{nullptr};  // g_team.get(), for lock-free reads

Team* TeamWithLanes(std::size_t lanes) {
  Team* team = g_team_ptr.load(std::memory_order_acquire);
  if (team != nullptr && team->lanes() == lanes) return team;
  std::lock_guard<std::mutex> lock(g_team_mu);
  if (g_team == nullptr || g_team->lanes() != lanes) {
    g_team_ptr.store(nullptr, std::memory_order_release);
    g_team.reset();  // joins the old workers before resizing
    g_team = std::make_unique<Team>(lanes);
    g_team_ptr.store(g_team.get(), std::memory_order_release);
  }
  return g_team.get();
}

}  // namespace

std::size_t NumThreads() {
  std::size_t n = g_num_threads.load(std::memory_order_acquire);
  if (n == 0) {
    n = DefaultNumThreads();
    std::size_t expected = 0;
    if (!g_num_threads.compare_exchange_strong(expected, n,
                                               std::memory_order_acq_rel)) {
      n = expected;
    }
  }
  return n;
}

void SetNumThreads(std::size_t num_threads) {
  if (num_threads == 0) num_threads = DefaultNumThreads();
  g_num_threads.store(num_threads, std::memory_order_release);
}

void ParallelFor(std::size_t begin, std::size_t end, std::size_t min_chunk,
                 FunctionRef<void(std::size_t, std::size_t)> chunk) {
  if (begin >= end) return;
  min_chunk = std::max<std::size_t>(min_chunk, 1);
  const std::size_t threads = NumThreads();
  const std::size_t total = end - begin;
  // One chunk per min_chunk indices, at most four per lane.
  const std::size_t num_chunks =
      std::min({total / min_chunk + (total % min_chunk != 0), 4 * threads,
                std::size_t{0xffff}});
  if (threads <= 1 || t_in_chunk || num_chunks < 2) {
    chunk(begin, end);
    return;
  }
  const std::size_t chunk_size = (total + num_chunks - 1) / num_chunks;
  if (!TeamWithLanes(threads)->TryRun(begin, end, chunk_size,
                                      (total + chunk_size - 1) / chunk_size,
                                      chunk)) {
    chunk(begin, end);
  }
}

std::size_t RowChunk(std::size_t rows, std::size_t macs_per_row) {
  const std::size_t by_work =
      (kMinChunkMacs + macs_per_row - 1) / std::max<std::size_t>(macs_per_row, 1);
  if (rows < 2 * by_work) return std::max<std::size_t>(rows, 1);
  const std::size_t lanes = NumThreads();
  return std::max(by_work, (rows + lanes - 1) / lanes);
}

}  // namespace vfl::la
