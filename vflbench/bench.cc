#include "bench.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string_view>

namespace vflbench {

void Tally::Fail(const vfl::core::Status& status) {
  ++attempted;
  ++failed_by_code[std::string(vfl::core::StatusCodeName(status.code()))];
}

std::uint64_t Tally::failed() const {
  std::uint64_t total = 0;
  for (const auto& [code, count] : failed_by_code) total += count;
  return total;
}

void Tally::Merge(const Tally& other) {
  attempted += other.attempted;
  for (const auto& [code, count] : other.failed_by_code) {
    failed_by_code[code] += count;
  }
}

double Percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  // Nearest rank: the smallest sample with at least ceil(q * n) samples at or
  // below it.
  const double rank = std::ceil(q * static_cast<double>(samples.size()));
  const std::size_t index = static_cast<std::size_t>(
      std::clamp(rank, 1.0, static_cast<double>(samples.size())) - 1.0);
  std::nth_element(samples.begin(), samples.begin() + index, samples.end());
  return samples[index];
}

double Median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

double WindowedPercentile(const std::vector<double>& samples, double q) {
  const std::size_t windows =
      std::clamp<std::size_t>(samples.size() / 1000, 1, 10);
  std::vector<double> per_window;
  for (std::size_t w = 0; w < windows; ++w) {
    const auto begin = samples.begin() + w * samples.size() / windows;
    const auto end = samples.begin() + (w + 1) * samples.size() / windows;
    per_window.push_back(Percentile(std::vector<double>(begin, end), q));
  }
  return Median(std::move(per_window));
}

double Mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : samples) sum += v;
  return sum / static_cast<double>(samples.size());
}

vfl::obs::HistogramSnapshot HistogramDelta(
    const vfl::obs::MetricsSnapshot& before,
    const vfl::obs::MetricsSnapshot& after, const std::string& name) {
  vfl::obs::HistogramSnapshot delta = after.HistogramOf(name);
  const vfl::obs::HistogramSnapshot base = before.HistogramOf(name);
  for (std::size_t i = 0; i < delta.buckets.size(); ++i) {
    delta.buckets[i] -= base.buckets[i];
  }
  delta.count -= base.count;
  delta.sum -= base.sum;
  return delta;
}

double CounterDelta(const vfl::obs::MetricsSnapshot& before,
                    const vfl::obs::MetricsSnapshot& after,
                    const std::string& name) {
  return static_cast<double>(after.ValueOf(name) - before.ValueOf(name));
}

std::string Note(const std::string& name, double value,
                 const std::string& unit, std::size_t samples) {
  char line[256];
  std::snprintf(line, sizeof(line), "%s=%.3f %s (n=%zu)", name.c_str(), value,
                unit.c_str(), samples);
  return line;
}

}  // namespace vflbench
