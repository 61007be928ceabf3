// Tests for la::ParallelFor's team: every chunk runs once, nested and
// concurrent callers fall back to running serially, back-to-back regions and
// regions that must wake sleeping workers complete.
#include "la/parallel.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <set>
#include <thread>
#include <utility>
#include <vector>

namespace vfl::la {
namespace {

/// Sets the la thread count for one test and restores it afterwards.
class ScopedThreads {
 public:
  explicit ScopedThreads(std::size_t threads) : saved_(NumThreads()) {
    SetNumThreads(threads);
  }
  ~ScopedThreads() { SetNumThreads(saved_); }

 private:
  std::size_t saved_;
};

/// The partition ParallelFor promises: one chunk per min_chunk indices, at
/// most 4 per thread, boundaries a function of the arguments alone.
std::vector<std::pair<std::size_t, std::size_t>> ExpectedChunks(
    std::size_t begin, std::size_t end, std::size_t min_chunk,
    std::size_t threads) {
  const std::size_t total = end - begin;
  const std::size_t count =
      std::min(total / min_chunk + (total % min_chunk != 0), 4 * threads);
  if (threads <= 1 || count < 2) return {{begin, end}};
  const std::size_t size = (total + count - 1) / count;
  std::vector<std::pair<std::size_t, std::size_t>> chunks;
  for (std::size_t b = begin; b < end; b += size) {
    chunks.emplace_back(b, std::min(b + size, end));
  }
  return chunks;
}

TEST(LaParallelTest, EachChunkRunsExactlyOnce) {
  for (const std::size_t threads : {2, 3, 4}) {
    ScopedThreads scoped(threads);
    for (const std::size_t total : {2, 7, 20, 64, 1000}) {
      for (const std::size_t min_chunk : {1, 3, 16}) {
        std::mutex mu;
        std::multiset<std::pair<std::size_t, std::size_t>> seen;
        std::vector<std::atomic<int>> hits(total + 5);
        ParallelFor(5, total + 5, min_chunk,
                    [&](std::size_t b, std::size_t e) {
                      for (std::size_t i = b; i < e; ++i) ++hits[i];
                      std::lock_guard<std::mutex> lock(mu);
                      seen.emplace(b, e);
                    });
        for (std::size_t i = 0; i < hits.size(); ++i) {
          EXPECT_EQ(hits[i].load(), i < 5 ? 0 : 1) << "index " << i;
        }
        const auto want = ExpectedChunks(5, total + 5, min_chunk, threads);
        const std::multiset<std::pair<std::size_t, std::size_t>> want_set(
            want.begin(), want.end());
        EXPECT_EQ(seen, want_set)
            << threads << " threads, " << total << " indices, min_chunk "
            << min_chunk;
      }
    }
  }
}

TEST(LaParallelTest, NestedCallRunsSeriallyOnTheChunksThread) {
  ScopedThreads scoped(4);
  std::vector<std::atomic<int>> hits(256);
  std::atomic<int> inner_calls{0};
  std::atomic<int> foreign_threads{0};
  ParallelFor(0, 8, 1, [&](std::size_t b, std::size_t e) {
    const std::thread::id outer = std::this_thread::get_id();
    const std::size_t first = b * 32;
    ParallelFor(first, e * 32, 1, [&](std::size_t nb, std::size_t ne) {
      ++inner_calls;
      if (std::this_thread::get_id() != outer) ++foreign_threads;
      EXPECT_EQ(nb, first);
      EXPECT_EQ(ne, e * 32);
      for (std::size_t i = nb; i < ne; ++i) ++hits[i];
    });
  });
  for (std::size_t i = 0; i < hits.size(); ++i) EXPECT_EQ(hits[i].load(), 1);
  EXPECT_EQ(inner_calls.load(), 8);  // one per outer chunk: no split
  EXPECT_EQ(foreign_threads.load(), 0);
}

TEST(LaParallelTest, ConcurrentCallerRunsSeriallyWhileTheTeamIsBusy) {
  ScopedThreads scoped(4);
  std::atomic<bool> holding{false};
  std::atomic<bool> release{false};
  std::thread holder([&] {
    ParallelFor(0, 4, 1, [&](std::size_t, std::size_t) {
      holding = true;
      while (!release) std::this_thread::yield();
    });
  });
  while (!holding) std::this_thread::yield();

  // The team belongs to `holder` until its region ends, so this caller runs
  // its whole range as one call on its own thread.
  std::vector<std::pair<std::size_t, std::size_t>> calls;
  std::thread::id ran_on;
  ParallelFor(0, 1000, 1, [&](std::size_t b, std::size_t e) {
    calls.emplace_back(b, e);
    ran_on = std::this_thread::get_id();
  });
  release = true;
  holder.join();
  ASSERT_EQ(calls.size(), 1u);
  EXPECT_EQ(calls[0], std::make_pair(std::size_t{0}, std::size_t{1000}));
  EXPECT_EQ(ran_on, std::this_thread::get_id());
}

TEST(LaParallelTest, ConcurrentCallersAllComplete) {
  ScopedThreads scoped(4);
  constexpr int kCallers = 4;
  constexpr int kRegions = 200;
  std::vector<std::vector<std::atomic<int>>> hits(kCallers);
  for (auto& h : hits) h = std::vector<std::atomic<int>>(64);
  std::vector<std::thread> callers;
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&hits, c] {
      for (int r = 0; r < kRegions; ++r) {
        ParallelFor(0, 64, 4, [&](std::size_t b, std::size_t e) {
          for (std::size_t i = b; i < e; ++i) ++hits[c][i];
        });
      }
    });
  }
  for (std::thread& t : callers) t.join();
  for (const auto& h : hits) {
    for (const std::atomic<int>& count : h) EXPECT_EQ(count.load(), kRegions);
  }
}

TEST(LaParallelTest, HundredThousandEmptyRegionsComplete) {
  ScopedThreads scoped(4);
  std::atomic<std::size_t> chunks{0};
  for (int r = 0; r < 100'000; ++r) {
    ParallelFor(0, 8, 1, [&](std::size_t, std::size_t) { ++chunks; });
  }
  EXPECT_EQ(chunks.load(), 800'000u);
}

TEST(LaParallelTest, RegionWakesParkedWorkers) {
  ScopedThreads scoped(4);
  ParallelFor(0, 4, 1, [](std::size_t, std::size_t) {});  // build the team
  // Long past the spin and yield phases: every worker is asleep.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  // One chunk per lane, each held until all four lanes hold one: the region
  // can only finish once every sleeping worker woke up and claimed its own.
  std::mutex mu;
  std::set<std::thread::id> lanes;
  std::atomic<int> arrived{0};
  std::atomic<bool> timed_out{false};
  ParallelFor(0, 4, 1, [&](std::size_t, std::size_t) {
    {
      std::lock_guard<std::mutex> lock(mu);
      lanes.insert(std::this_thread::get_id());
    }
    ++arrived;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (arrived.load() < 4) {
      if (std::chrono::steady_clock::now() > deadline) {
        timed_out = true;
        return;
      }
      std::this_thread::yield();
    }
  });
  EXPECT_FALSE(timed_out.load());
  EXPECT_EQ(lanes.size(), 4u);
}

TEST(LaParallelTest, RowChunkKeepsSmallRegionsOnTheCaller) {
  ScopedThreads scoped(4);
  // Too little work per row: one chunk, so ParallelFor stays serial.
  EXPECT_GE(RowChunk(32, 100), 32u);
  // Work for one and a half chunks: still one.
  EXPECT_EQ(RowChunk(48, 1024), 48u);
  // Plenty of work: one chunk per lane.
  EXPECT_EQ(RowChunk(128, 1'000'000), 32u);
  EXPECT_GE(RowChunk(128, 0), 1u);
}

TEST(LaParallelTest, RowChunkRegionsOfOddSizeRunOneChunkPerLane) {
  // Plenty of work per row, so each region is sized by its lanes: odd and
  // even sizes alike run as one chunk per lane, not as one serial call.
  for (const std::size_t threads : {2, 3}) {
    ScopedThreads scoped(threads);
    for (const std::size_t rows : {7, 9, 59, 127, 128, 11973}) {
      std::mutex mu;
      std::vector<std::pair<std::size_t, std::size_t>> chunks;
      ParallelFor(0, rows, RowChunk(rows, kMinChunkMacs),
                  [&](std::size_t b, std::size_t e) {
                    std::lock_guard<std::mutex> lock(mu);
                    chunks.emplace_back(b, e);
                  });
      EXPECT_EQ(chunks.size(), threads) << rows << " rows on " << threads;
      std::size_t covered = 0;
      for (const auto& [b, e] : chunks) covered += e - b;
      EXPECT_EQ(covered, rows);
    }
  }
}

TEST(FunctionRefTest, CallsTheReferencedCallable) {
  int total = 0;
  const auto add = [&total](int x) { total += x; };
  const FunctionRef<void(int)> ref(add);
  ref(2);
  ref(3);
  EXPECT_EQ(total, 5);
}

}  // namespace
}  // namespace vfl::la
