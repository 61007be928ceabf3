#ifndef VFLFIA_LA_PARALLEL_H_
#define VFLFIA_LA_PARALLEL_H_

#include <cstddef>
#include <memory>
#include <type_traits>
#include <utility>

namespace vfl::la {

/// Non-owning reference to a callable: two words, no allocation, so a hot
/// loop can hand a capturing lambda to ParallelFor for free. The callable
/// must outlive every call through the reference (a lambda passed straight
/// into a function call lives until that call returns).
template <typename Signature>
class FunctionRef;

template <typename R, typename... Args>
class FunctionRef<R(Args...)> {
 public:
  template <typename F, typename = std::enable_if_t<
                            !std::is_same_v<std::decay_t<F>, FunctionRef>>>
  FunctionRef(F&& fn)  // NOLINT: implicit, like std::function
      : object_(const_cast<void*>(
            static_cast<const void*>(std::addressof(fn)))),
        call_([](void* object, Args... args) -> R {
          return (*static_cast<std::remove_reference_t<F>*>(object))(
              std::forward<Args>(args)...);
        }) {}

  R operator()(Args... args) const {
    return call_(object_, std::forward<Args>(args)...);
  }

 private:
  void* object_;
  R (*call_)(void*, Args...);
};

/// Threads used by parallel la/ kernels. Resolved once on first use:
/// VFLFIA_LA_THREADS if set, otherwise std::thread::hardware_concurrency().
std::size_t NumThreads();

/// Overrides the kernel thread count (1 forces serial execution). Takes
/// effect immediately; the team is (re)built lazily. Intended for benches
/// and tests — call it before heavy kernel traffic, not concurrently with
/// it.
void SetNumThreads(std::size_t num_threads);

/// Runs `chunk(range_begin, range_end)` over a partition of [begin, end) on
/// la/'s team: NumThreads() - 1 persistent workers plus the calling thread.
/// The range splits into ceil((end - begin) / min_chunk) chunks, at most four
/// per lane, all of one size but the last.
/// Each lane claims the chunks of its own contiguous block first (the same
/// rows for the same shape, region after region), then steals what is left
/// of the others' blocks, so a worker the host does not schedule leaves its
/// chunks to the others; idle workers spin for a few tens of microseconds,
/// then yield, then sleep. Chunk boundaries are a pure function of (begin,
/// end, min_chunk, thread count), and each chunk must write only state owned
/// by its indices, so kernels built on this helper return bit-identical
/// results for every thread count.
///
/// Runs serial (one call over the whole range, on the caller's thread) when
/// that is one chunk (the range is at most min_chunk), when NumThreads() ==
/// 1, when called from inside another ParallelFor chunk, or when another
/// thread's region holds the team.
void ParallelFor(std::size_t begin, std::size_t end, std::size_t min_chunk,
                 FunctionRef<void(std::size_t, std::size_t)> chunk);

/// Minimum multiply-adds per chunk of a training region: at least the serial
/// work one fork-join costs (bench_la's la_region_macs, 28K-31K in three
/// full runs on a 4-core box), so a chunk pays for its region. A region with
/// too few rows for two such chunks runs on the caller alone.
inline constexpr std::size_t kMinChunkMacs = std::size_t{1} << 15;

/// Rows per chunk for a region over `rows` rows costing `macs_per_row`
/// multiply-adds each: at least kMinChunkMacs per chunk, and at most one
/// chunk per lane (every chunk reads all of the operands the rows share,
/// such as a layer's weights, so fewer chunks read them fewer times). A
/// region with too few rows for two such chunks gets one chunk of all its
/// rows; any other runs as ceil(rows / RowChunk) chunks on as many lanes.
std::size_t RowChunk(std::size_t rows, std::size_t macs_per_row);

}  // namespace vfl::la

#endif  // VFLFIA_LA_PARALLEL_H_
