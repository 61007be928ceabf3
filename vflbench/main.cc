// The repository benchmark: one command, two workloads, one traced phase.
//
//   vflbench --workload grna_grid|adversary_stream --seed N --seconds S
//            --trace 0|1 [--smoke]
//
// The named workload runs its own phase in full; the other workload's phase
// runs as a short probe so that every run reports every end-to-end metric
// (--trace 0). Traced runs (--trace 1) add the net_open schedule over
// loopback TCP and report every per-layer metric. Human-readable lines (pinned inputs,
// sample counts, failures by status code, checks) come first; the last line
// of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Exit status is 0 only when every correctness check passed.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench.h"
#include "la/cpu_features.h"
#include "la/parallel.h"

namespace {

using vflbench::MetricSet;
using vflbench::PhaseOptions;
using vflbench::PhaseResult;

struct MetricName {
  const char* name;
  const char* unit;
};

// The end-to-end metrics every --trace 0 run prints, and the per-layer metrics
// every --trace 1 run prints. BENCHMARK.json lists the same names; README.md
// maps each layer metric to the end-to-end metric it should move.
constexpr MetricName kEndToEnd[] = {
    {"setup_s", "s"},
    {"attack_s", "s"},
    {"grna_mse", "mse"},
    {"query_p50_us", "us"},
};

constexpr MetricName kPerLayer[] = {
    // Latency tails, throughput and the net schedule: per-layer because they
    // are too unsteady on a shared VM to carry a regression bound.
    {"query_p99_us", "us"},
    {"query_qps", "1/s"},
    {"net_low_p50_us", "us"},
    {"net_low_p99_us", "us"},
    {"net_high_p50_us", "us"},
    {"net_high_p99_us", "us"},
    {"data.prepare_s", "s"},
    {"models.train_s", "s"},
    {"models.distill_s", "s"},
    {"attack.prepare_s", "s"},
    {"attack.execute_s", "s"},
    {"attack.finalize_s", "s"},
    {"fed.channel_open_s", "s"},
    {"nn.generator_step_us", "us"},
    {"models.frozen_fwd_bwd_us", "us"},
    {"la.gemm_gflops_grna", "GFLOP/s"},
    {"la.gemm_flops_grna", "count"},
    {"la.gemm_s_grna", "s"},
    {"la.kernel_path", "tier"},
    {"la.threads", "count"},
    {"attack.finalize_unaccounted_s", "s"},
    {"serve.auditor_admit_us", "us"},
    {"fed.provide_features_us", "us"},
    {"models.predict_proba_us", "us"},
    {"serve.predict_us", "us"},
    {"fed.channel_overhead_us", "us"},
    {"serve.queue_wait_p50_us", "us"},
    {"serve.queue_wait_p99_us", "us"},
    {"serve.forward_us", "us"},
    {"serve.defense_us", "us"},
    {"serve.batch_rows_mean", "rows"},
    {"serve.handoff_us", "us"},
    {"adversary.stage_sum_us", "us"},
    {"adversary.unaccounted_pct", "%"},
    {"net.encode_predict_us", "us"},
    {"net.encode_predict_64_us", "us"},
    {"net.decode_scores_us", "us"},
    {"net.decode_scores_64_us", "us"},
    {"net.transport_us", "us"},
    {"net_open.serve.queue_wait_p50_us", "us"},
    {"net_open.serve.queue_wait_p99_us", "us"},
    {"net_open.serve.forward_us", "us"},
    {"net_open.serve.defense_us", "us"},
    {"net_open.serve.batch_rows_mean", "rows"},
    {"net_open.serve.cache_hit_ratio", "ratio"},
    {"net.server_predict_p50_us", "us"},
    {"net.server_predict_p99_us", "us"},
    {"net.requests_failed", "count"},
    {"net.decode_rejects", "count"},
    {"net.stage_sum_us", "us"},
    {"net.unaccounted_pct", "%"},
    {"gen.lag_p99_us", "us"},
    {"net_max_rps", "1/s"},
    {"trace.read_us", "us"},
    {"trace.decode_us", "us"},
    {"trace.queue_wait_us", "us"},
    {"trace.model_forward_us", "us"},
    {"trace.defense_us", "us"},
    {"trace.write_us", "us"},
    {"trace_overhead_pct", "%"},
};

int Usage(const char* message) {
  std::fprintf(stderr,
               "%s\nusage: vflbench --workload grna_grid|adversary_stream "
               "--seed N --seconds S --trace 0|1 [--smoke]\n",
               message);
  return 2;
}

/// Accepts "--key value" and "--key=value".
bool ParseArgs(int argc, char** argv, std::string* workload,
               PhaseOptions* options) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    std::string value;
    if (key == "--smoke") {
      options->smoke = true;
      continue;
    }
    const std::size_t eq = key.find('=');
    if (eq != std::string::npos) {
      value = key.substr(eq + 1);
      key.resize(eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      return false;
    }
    char* end = nullptr;
    if (key == "--workload") {
      *workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      options->seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') return false;
    } else if (key == "--seconds") {
      options->seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(options->seconds > 0)) {
        return false;
      }
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return false;
      options->trace = value == "1";
    } else {
      return false;
    }
  }
  return have_workload;
}

/// Keeps exactly the names in `expected`, reporting any that are missing.
MetricSet Select(const MetricSet& all, const MetricName* begin,
                 const MetricName* end, std::vector<std::string>* missing) {
  MetricSet selected;
  for (const MetricName* m = begin; m != end; ++m) {
    const auto it = all.find(m->name);
    if (it == all.end() || !std::isfinite(it->second.value) ||
        it->second.unit != m->unit) {
      missing->push_back(m->name);
      continue;
    }
    selected.emplace(m->name, it->second);
  }
  return selected;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  PhaseOptions options;
  if (!ParseArgs(argc, argv, &workload, &options)) return Usage("bad arguments");

  // Phases run in this order whatever the workload: the latency-sensitive
  // in-process stream first, the single-threaded grid next, and the net
  // schedule, which ends with a rate ladder that saturates every CPU, last.
  // On a shared VM a saturating phase is followed by slower CPUs that would
  // otherwise land in the phases after it. The net schedule is not a
  // workload: none of its metrics is steady enough to carry a bound, so it
  // runs in traced runs only, for the per-layer metrics.
  struct Phase {
    const char* name;
    PhaseResult (*run)(const PhaseOptions&);
    bool workload;
  };
  constexpr Phase phases[] = {
      {"adversary_stream", vflbench::RunAdversaryStream, true},
      {"grna_grid", vflbench::RunGrnaGrid, true},
      {"net_open", vflbench::RunNetOpen, false},
  };
  constexpr std::size_t kPhases = std::size(phases);
  std::size_t own = kPhases;
  for (std::size_t i = 0; i < kPhases; ++i) {
    if (phases[i].workload && workload == phases[i].name) own = i;
  }
  if (own == kPhases) return Usage("unknown workload");

  // Pin what the environment could change: VFLFIA_LA_KERNEL and
  // VFLFIA_LA_THREADS would otherwise pick the GEMM tier and thread count.
  const vfl::la::KernelPath path =
      vfl::la::SetKernelPath(vfl::la::DetectBestKernelPath());
  const std::size_t la_threads =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  vfl::la::SetNumThreads(la_threads);
  std::printf("workload=%s seed=%llu seconds=%g trace=%d smoke=%d\n",
              workload.c_str(), static_cast<unsigned long long>(options.seed),
              options.seconds, options.trace ? 1 : 0, options.smoke ? 1 : 0);
  std::printf("la.kernel_path=%s la.threads=%zu\n",
              std::string(vfl::la::KernelPathName(path)).c_str(), la_threads);

  std::vector<PhaseResult> results;
  for (std::size_t i = 0; i < kPhases; ++i) {
    if (!phases[i].workload && !options.trace) continue;
    PhaseOptions phase_options = options;
    phase_options.full = i == own || !phases[i].workload;
    results.push_back(phases[i].run(phase_options));
  }

  // On shared names (setup_s, data.*, models.train_s) the own phase wins;
  // among the others the in-process adversary stream wins over the net
  // schedule. A traced run reports the end-to-end values of every phase too,
  // as per-layer context.
  MetricSet all;
  vflbench::Tally tally;
  bool correct = true;
  const auto rank = [&](const PhaseResult& result) {
    if (result.name == workload) return 3;
    if (result.name == phases[0].name) return 2;
    if (result.name == phases[1].name) return 1;
    return 0;
  };
  std::vector<const PhaseResult*> precedence;
  for (const PhaseResult& result : results) precedence.push_back(&result);
  std::stable_sort(precedence.begin(), precedence.end(),
                   [&](const PhaseResult* a, const PhaseResult* b) {
                     return rank(*a) < rank(*b);
                   });
  for (const PhaseResult* result : precedence) {
    for (const auto& [name, metric] : result->end_to_end) all[name] = metric;
    if (!options.trace) continue;
    for (const auto& [name, metric] : result->per_layer) all[name] = metric;
  }
  all["la.kernel_path"] = {static_cast<double>(path), "tier"};
  all["la.threads"] = {static_cast<double>(la_threads), "count"};

  for (const PhaseResult& result : results) {
    const char* role = result.name == workload        ? "full"
                       : result.name == phases[2].name ? "traced"
                                                       : "probe";
    for (const std::string& note : result.notes) {
      std::printf("[%s %s] %s\n", result.name.c_str(), role, note.c_str());
    }
    std::printf("[%s %s] attempted=%llu failed=%llu", result.name.c_str(),
                role,
                static_cast<unsigned long long>(result.tally.attempted),
                static_cast<unsigned long long>(result.tally.failed()));
    for (const auto& [code, count] : result.tally.failed_by_code) {
      std::printf(" %s=%llu", code.c_str(),
                  static_cast<unsigned long long>(count));
    }
    std::printf("\n");
    for (const vflbench::Check& check : result.checks) {
      std::printf("[%s %s] check %s: %s (%s)\n", result.name.c_str(), role,
                  check.name.c_str(), check.ok ? "pass" : "FAIL",
                  check.detail.c_str());
      correct = correct && check.ok;
    }
    tally.Merge(result.tally);
  }
  correct = correct && tally.failed() == 0 && tally.attempted > 0;

  std::vector<std::string> missing;
  const MetricSet selected =
      options.trace
          ? Select(all, std::begin(kPerLayer), std::end(kPerLayer), &missing)
          : Select(all, std::begin(kEndToEnd), std::end(kEndToEnd), &missing);
  for (const std::string& name : missing) {
    std::printf("metric %s missing or not finite\n", name.c_str());
    correct = false;
  }
  for (const auto& [name, metric] : selected) {
    std::printf("%-32s %16.6f %s\n", name.c_str(), metric.value,
                metric.unit.c_str());
  }

  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(tally.attempted);
  json += ", \"failed\": " + std::to_string(tally.failed());
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : selected) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metric.value);
    if (!first) json += ", ";
    first = false;
    json += "\"" + name + "\": {\"value\": " + value + ", \"unit\": \"" +
            metric.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
