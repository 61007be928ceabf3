// Shared plumbing for the repository benchmark: run options, metric sets,
// exact percentiles over raw samples, outcome tallies by StatusCode, and the
// three workload phases.
//
// Every phase measures its layers from outside: it times its own calls into
// the public entry points of data/, models/, nn/, la/, attack/, fed/, serve/
// and net/, and reads the counters and histograms serve.* and net.* already
// publish. Nothing here adds instrumentation inside src/.
#ifndef VFLBENCH_BENCH_H_
#define VFLBENCH_BENCH_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/status.h"
#include "obs/clock.h"
#include "obs/metrics.h"

namespace vflbench {

/// How one phase runs. The workload named on the command line runs its own
/// phase in full; the other two run as short fixed-size probes so that every
/// run reports every end-to-end metric.
struct PhaseOptions {
  std::uint64_t seed = 1;
  /// Measuring time for a full phase (the --seconds argument).
  double seconds = 10.0;
  /// Per-layer (traced) run instead of the end-to-end run.
  bool trace = false;
  /// Own phase (full size) or probe of another workload's phase.
  bool full = true;
  /// Tiny inputs: checks every metric name and every correctness check in
  /// seconds.
  bool smoke = false;
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// Ordered name -> metric map.
using MetricSet = std::map<std::string, Metric>;

/// Operations attempted and their failures by StatusCode.
struct Tally {
  std::uint64_t attempted = 0;
  std::map<std::string, std::uint64_t> failed_by_code;

  void Ok(std::uint64_t n = 1) { attempted += n; }
  void Fail(const vfl::core::Status& status);
  std::uint64_t failed() const;
  void Merge(const Tally& other);
};

/// Traced runs check that independently timed stages add up to no more than
/// the end-to-end mean plus this share: a larger overshoot means two timers
/// count the same work.
inline constexpr double kStageTolerance = 0.10;

/// One correctness check; any failed check fails the whole run.
struct Check {
  std::string name;
  bool ok = false;
  std::string detail;
};

/// Everything one phase reports.
struct PhaseResult {
  std::string name;
  MetricSet end_to_end;
  MetricSet per_layer;
  Tally tally;
  std::vector<Check> checks;
  /// Human-readable lines (sample counts, pinned inputs) printed before the
  /// JSON result.
  std::vector<std::string> notes;
};

PhaseResult RunGrnaGrid(const PhaseOptions& options);
PhaseResult RunAdversaryStream(const PhaseOptions& options);
PhaseResult RunNetOpen(const PhaseOptions& options);

// --- timing and statistics ---------------------------------------------------

inline double SecondsSince(std::uint64_t start_ns) {
  return static_cast<double>(vfl::obs::NowNanos() - start_ns) * 1e-9;
}

/// Exact nearest-rank percentile (q in [0,1]) of raw samples; 0 when empty.
/// Sorts a copy, never buckets.
double Percentile(std::vector<double> samples, double q);
double Median(std::vector<double> samples);
/// Median, over up to 10 consecutive equal slices of `samples` (in arrival
/// order) holding at least 1000 samples each, of each slice's exact
/// percentile q. A stall of the host that lands in a few slices moves their
/// tails, not the reported value.
double WindowedPercentile(const std::vector<double>& samples, double q);
double Mean(const std::vector<double>& samples);

/// Median of `reps` repetitions of `fn`, which returns seconds.
template <typename Fn>
double MedianOf(std::size_t reps, Fn&& fn) {
  std::vector<double> values;
  values.reserve(reps);
  for (std::size_t i = 0; i < reps; ++i) values.push_back(fn());
  return Median(std::move(values));
}

/// Per-call microseconds of `fn`: the median over `reps` timed blocks of
/// `calls` calls each.
template <typename Fn>
double MicrosPerCall(std::size_t reps, std::size_t calls, Fn&& fn) {
  return MedianOf(reps, [&] {
           const std::uint64_t start = vfl::obs::NowNanos();
           for (std::size_t i = 0; i < calls; ++i) fn();
           return SecondsSince(start);
         }) *
         1e6 / static_cast<double>(calls);
}

/// Histogram activity between two snapshots of one registry.
vfl::obs::HistogramSnapshot HistogramDelta(
    const vfl::obs::MetricsSnapshot& before,
    const vfl::obs::MetricsSnapshot& after, const std::string& name);
/// Counter/gauge change between two snapshots.
double CounterDelta(const vfl::obs::MetricsSnapshot& before,
                    const vfl::obs::MetricsSnapshot& after,
                    const std::string& name);

/// "name value unit (n=count)" note line.
std::string Note(const std::string& name, double value,
                 const std::string& unit, std::size_t samples);

}  // namespace vflbench

#endif  // VFLBENCH_BENCH_H_
