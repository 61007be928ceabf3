#ifndef VFLFIA_OBS_METRICS_H_
#define VFLFIA_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/clock.h"

namespace vfl::obs {

/// Process-wide metrics: cheap, contention-free instruments every layer
/// increments on its hot path, plus a registry that turns them into one
/// mergeable snapshot — dumped by `vflfia_cli --metrics`, scraped from a
/// live NetServer over the wire (kGetStats), and bridged into
/// BENCH_perf.json by the benches.
///
/// Design rules:
///  - Hot-path writes never take a lock and never share a cache line across
///    threads: Counter and LatencyHistogram shard their state into
///    per-thread-slot, cache-line-aligned cells; an increment is one relaxed
///    fetch_add on the calling thread's slot.
///  - Reads (Value(), Snapshot()) sum the slots. They are monotonic-exact
///    once writers quiesce: N threads adding M each always sums to exactly
///    N*M (each add lands in exactly one slot).
///  - Instruments are owned by the component they instrument and registered
///    with a MetricsRegistry through an RAII Registration, so there is
///    exactly one counting path: the component's own stats accessors and the
///    registry snapshot read the same cells. When a per-trial server dies,
///    its counters fold into the registry's retained base — process totals
///    stay monotonic across component lifetimes.

/// Round-robin slot assignment: each thread gets a fixed shard index the
/// first time it touches any instrument. Kept small (16 slots) — enough that
/// the thread pools in this codebase essentially never collide.
inline constexpr std::size_t kCounterSlots = 16;

std::size_t ThisThreadSlot() noexcept;

/// Monotonic counter. Add() is wait-free and contention-free (per-slot
/// relaxed fetch_add); Value() sums the slots.
class Counter {
 public:
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void Add(std::uint64_t n = 1) noexcept {
    slots_[ThisThreadSlot()].value.fetch_add(n, std::memory_order_relaxed);
  }

  std::uint64_t Value() const noexcept {
    std::uint64_t total = 0;
    for (const Slot& slot : slots_) {
      total += slot.value.load(std::memory_order_relaxed);
    }
    return total;
  }

 private:
  struct alignas(64) Slot {
    std::atomic<std::uint64_t> value{0};
  };
  std::array<Slot, kCounterSlots> slots_;
};

/// Up/down instantaneous value (queue depths, live connections). A single
/// relaxed atomic: gauges are updated at most once per request, so sharding
/// buys nothing.
class Gauge {
 public:
  Gauge() = default;
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void Add(std::int64_t delta) noexcept {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  void Set(std::int64_t value) noexcept {
    value_.store(value, std::memory_order_relaxed);
  }
  std::int64_t Value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Log-scale bucket layout shared by LatencyHistogram and HistogramSnapshot:
/// values 0..7 get exact buckets; larger values bucket by (exponent, 3-bit
/// mantissa prefix), i.e. 8 sub-buckets per power of two — every bucket's
/// width is at most 12.5% of its lower bound, so percentiles read from
/// buckets land within one bucket width (< 1.125x) of the exact sample
/// statistic. 496 buckets cover the full uint64 range.
inline constexpr std::size_t kHistogramSubBuckets = 8;
inline constexpr std::size_t kHistogramBuckets =
    kHistogramSubBuckets + (64 - 3) * kHistogramSubBuckets;  // 496

/// Bucket index for a recorded value (0-based, always < kHistogramBuckets).
constexpr std::size_t HistogramBucketIndex(std::uint64_t value) noexcept {
  if (value < kHistogramSubBuckets) return static_cast<std::size_t>(value);
  const int width = std::bit_width(value);  // >= 4
  const std::uint64_t sub =
      (value >> (width - 4)) & (kHistogramSubBuckets - 1);
  return kHistogramSubBuckets +
         static_cast<std::size_t>(width - 4) * kHistogramSubBuckets +
         static_cast<std::size_t>(sub);
}

/// Inclusive upper bound of a bucket — what percentile queries report.
constexpr std::uint64_t HistogramBucketUpperBound(std::size_t index) noexcept {
  if (index < kHistogramSubBuckets) return index;
  const std::size_t width = 4 + (index - kHistogramSubBuckets) /
                                    kHistogramSubBuckets;
  const std::size_t sub = (index - kHistogramSubBuckets) %
                          kHistogramSubBuckets;
  const std::uint64_t mantissa = kHistogramSubBuckets + sub + 1;  // 9..16
  if (width - 4 >= 60 && mantissa == 16) return ~std::uint64_t{0};
  return (mantissa << (width - 4)) - 1;
}

/// Immutable, mergeable view of a histogram's buckets. Merging is plain
/// bucket-wise addition — associative and order-independent, so per-shard
/// and per-process snapshots combine exactly.
struct HistogramSnapshot {
  std::array<std::uint64_t, kHistogramBuckets> buckets{};
  std::uint64_t count = 0;
  std::uint64_t sum = 0;

  void Merge(const HistogramSnapshot& other) {
    for (std::size_t i = 0; i < buckets.size(); ++i) {
      buckets[i] += other.buckets[i];
    }
    count += other.count;
    sum += other.sum;
  }

  /// Exact-from-buckets percentile: the upper bound of the first bucket
  /// whose cumulative count reaches ceil(q * count). 0 when empty.
  std::uint64_t Percentile(double q) const;

  double Mean() const {
    return count == 0 ? 0.0
                      : static_cast<double>(sum) / static_cast<double>(count);
  }
};

/// Fixed-bucket log-scale histogram (latencies in ns, batch sizes in rows —
/// any nonnegative magnitude). Record() is wait-free: one relaxed fetch_add
/// into the calling thread slot's bucket plus one into its sum cell. Compiled
/// to a no-op with -DVFLFIA_METRICS=OFF (the overhead-baseline build).
class LatencyHistogram {
 public:
  LatencyHistogram() = default;
  LatencyHistogram(const LatencyHistogram&) = delete;
  LatencyHistogram& operator=(const LatencyHistogram&) = delete;

  void Record(std::uint64_t value) noexcept {
#ifndef VFLFIA_OBS_DISABLED
    Slot& slot = slots_[ThisThreadSlot() % kSlots];
    slot.buckets[HistogramBucketIndex(value)].fetch_add(
        1, std::memory_order_relaxed);
    slot.sum.fetch_add(value, std::memory_order_relaxed);
#else
    (void)value;
#endif
  }

  HistogramSnapshot Snapshot() const;

  std::uint64_t Count() const { return Snapshot().count; }

 private:
  /// Fewer shards than Counter: a Record() already paid for a clock read, so
  /// slot contention is not the bottleneck, and 496 buckets per slot make
  /// full 16-way sharding needlessly large.
  static constexpr std::size_t kSlots = 4;
  struct alignas(64) Slot {
    std::array<std::atomic<std::uint64_t>, kHistogramBuckets> buckets{};
    std::atomic<std::uint64_t> sum{0};
  };
  std::array<Slot, kSlots> slots_;
};

enum class InstrumentType : std::uint8_t { kCounter, kGauge, kHistogram };

std::string_view InstrumentTypeName(InstrumentType type);

/// One named metric in a snapshot. `value` carries the counter total or
/// gauge level; `hist` is populated for histograms.
struct MetricPoint {
  std::string name;
  InstrumentType type = InstrumentType::kCounter;
  std::string unit;
  std::int64_t value = 0;
  HistogramSnapshot hist;
};

/// A point-in-time view of a registry, ordered by metric name. Mergeable
/// (bucket/count addition per name) so multi-process or multi-registry
/// scrapes combine.
struct MetricsSnapshot {
  std::vector<MetricPoint> points;

  const MetricPoint* Find(std::string_view name) const;
  /// Counter/gauge value by name; 0 when absent.
  std::int64_t ValueOf(std::string_view name) const;
  /// Histogram by name; empty snapshot when absent.
  HistogramSnapshot HistogramOf(std::string_view name) const;

  void Merge(const MetricsSnapshot& other);
};

/// Name -> instrument directory. Components own their instruments and
/// register pointers for the lifetime of an RAII Registration; the registry
/// additionally owns get-or-create instruments for code without a natural
/// owner (benches, the experiment runner). Snapshot() sums every live
/// instrument under a name plus the retained contribution of deregistered
/// ones, so process counters never move backwards when a per-trial server
/// is torn down.
///
/// Registration/Snapshot take the registry mutex; instrument writes never
/// do — the hot path stays lock-free.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// The process-wide registry (never destroyed, so component destructors
  /// may deregister during static teardown).
  static MetricsRegistry& Global();

  /// Deregisters its instrument on destruction, folding the instrument's
  /// final value into the registry's retained base. Move-only.
  class Registration {
   public:
    Registration() = default;
    Registration(Registration&& other) noexcept { *this = std::move(other); }
    Registration& operator=(Registration&& other) noexcept;
    Registration(const Registration&) = delete;
    Registration& operator=(const Registration&) = delete;
    ~Registration() { Release(); }

   private:
    friend class MetricsRegistry;
    Registration(MetricsRegistry* registry, std::string name,
                 const void* instrument)
        : registry_(registry), name_(std::move(name)), instrument_(instrument) {}
    void Release();

    MetricsRegistry* registry_ = nullptr;
    std::string name_;
    const void* instrument_ = nullptr;
  };

  /// Registers a component-owned instrument under `name`. Several instances
  /// may share a name (per-trial servers): their values sum in snapshots.
  /// The instrument must outlive the returned Registration.
  [[nodiscard]] Registration RegisterCounter(std::string name,
                                             std::string unit,
                                             const Counter* counter);
  [[nodiscard]] Registration RegisterGauge(std::string name, std::string unit,
                                           const Gauge* gauge);
  [[nodiscard]] Registration RegisterHistogram(std::string name,
                                               std::string unit,
                                               const LatencyHistogram* hist);

  /// Get-or-create a registry-owned instrument (lives as long as the
  /// registry). The ownerless-instrumentation path: benches, the experiment
  /// runner, ad-hoc probes.
  Counter* GetCounter(std::string_view name, std::string_view unit);
  Gauge* GetGauge(std::string_view name, std::string_view unit);
  LatencyHistogram* GetHistogram(std::string_view name, std::string_view unit);

  MetricsSnapshot Snapshot() const;

 private:
  struct Entry {
    InstrumentType type = InstrumentType::kCounter;
    std::string unit;
    /// Live component-owned + registry-owned instruments (typed via `type`).
    std::vector<const void*> instruments;
    /// Folded-in totals of deregistered instruments (counters/histograms;
    /// a dead gauge contributes nothing).
    std::uint64_t retained_value = 0;
    HistogramSnapshot retained_hist;
    /// Registry-owned instrument for the Get* path, if any.
    std::shared_ptr<void> owned;
  };

  Registration RegisterInstrument(std::string name, std::string unit,
                                  InstrumentType type, const void* instrument);
  void Deregister(const std::string& name, const void* instrument);

  mutable std::mutex mu_;
  std::map<std::string, Entry> entries_;
};

/// `*registry`, or the process-wide registry when `registry` is null — the
/// convention every component config's `metrics`/`registry` field follows.
inline MetricsRegistry& RegistryOr(MetricsRegistry* registry) {
  return registry != nullptr ? *registry : MetricsRegistry::Global();
}

}  // namespace vfl::obs

#endif  // VFLFIA_OBS_METRICS_H_
