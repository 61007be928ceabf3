// Serving-subsystem throughput/latency sweep: QPS and p50/p99/p999 latency
// across worker-thread counts {1, 4, 8} and micro-batch sizes {1, 16, 64},
// driven by 8 concurrent closed-loop clients. Each client sends its queries
// as PredictBatch waves of max(2 x batch, 32) rows, so a latency sample
// times one whole wave, not one row; QPS counts rows. The cache is disabled
// so the numbers measure the fused-forward-pass pipeline itself.
//
// Latencies land in a shared obs::LatencyHistogram (the serving layer's own
// instrument type): contention-free recording from all client threads and
// bucket-exact percentiles (buckets are <= 12.5% wide). The last line
// compares the best batched multi-threaded configuration to the
// single-threaded unbatched baseline; that best configuration's numbers
// persist as serve_qps / serve_p50_us / serve_p99_us / serve_p999_us (wave
// latencies) in BENCH_perf.json.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

#include "exp/bench_json.h"
#include "exp/workload.h"
#include "core/status.h"
#include "fed/feature_split.h"
#include "fed/scenario.h"
#include "obs/metrics.h"
#include "serve/adversary_client.h"
#include "serve/prediction_server.h"

namespace {

using Clock = std::chrono::steady_clock;

struct SweepResult {
  std::size_t threads = 0;
  std::size_t batch = 0;
  double qps = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  double p999_us = 0.0;
  double mean_batch = 0.0;
};

double BucketPercentileUs(const vfl::obs::HistogramSnapshot& hist, double q) {
  return static_cast<double>(hist.Percentile(q)) / 1000.0;
}

SweepResult RunConfig(const vfl::fed::VflScenario& scenario,
                      std::size_t threads, std::size_t batch,
                      std::size_t queries_per_client,
                      std::size_t num_clients) {
  vfl::serve::PredictionServerConfig config;
  config.num_threads = threads;
  config.max_batch_size = batch;
  config.cache_capacity = 0;
  std::unique_ptr<vfl::serve::PredictionServer> server =
      vfl::serve::MakeScenarioServer(scenario, config);

  const std::size_t n = server->num_samples();
  // Enough in-flight requests per client to let batches fill.
  const std::size_t wave = std::max<std::size_t>(2 * batch, 32);

  // One shared histogram; every client thread records into its own shard.
  vfl::obs::LatencyHistogram latency_ns;
  std::vector<std::thread> clients;
  clients.reserve(num_clients);
  const Clock::time_point start = Clock::now();
  for (std::size_t c = 0; c < num_clients; ++c) {
    const std::uint64_t client_id =
        server->RegisterClient("load-" + std::to_string(c));
    clients.emplace_back([&, client_id, c] {
      std::vector<std::size_t> ids;
      std::size_t issued = 0;
      while (issued < queries_per_client) {
        const std::size_t burst =
            std::min(wave, queries_per_client - issued);
        ids.clear();
        for (std::size_t i = 0; i < burst; ++i) {
          ids.push_back((c * 101 + (issued + i) * 17) % n);
        }
        const Clock::time_point submitted = Clock::now();
        const auto result = server->PredictBatch(client_id, ids);
        const Clock::time_point done = Clock::now();
        if (!result.ok()) {
          std::fprintf(stderr, "query failed: %s\n",
                       result.status().ToString().c_str());
          std::abort();
        }
        latency_ns.Record(static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                done - submitted)
                .count()));
        issued += burst;
      }
    });
  }
  for (std::thread& t : clients) t.join();
  const double elapsed =
      std::chrono::duration<double>(Clock::now() - start).count();

  const vfl::obs::HistogramSnapshot hist = latency_ns.Snapshot();
  SweepResult result;
  result.threads = threads;
  result.batch = batch;
  // Every query either completed or aborted the bench, so the issued count
  // is the served count (robust even in a metrics-disabled build, where the
  // histogram records nothing).
  result.qps =
      static_cast<double>(num_clients * queries_per_client) / elapsed;
  result.p50_us = BucketPercentileUs(hist, 0.50);
  result.p99_us = BucketPercentileUs(hist, 0.99);
  result.p999_us = BucketPercentileUs(hist, 0.999);
  result.mean_batch = server->stats().mean_batch_size;
  return result;
}

}  // namespace

int main() {
  vfl::exp::ScaleConfig scale = vfl::exp::GetScale();
  vfl::exp::PrintBanner("serve", "serving throughput sweep", scale);

  const vfl::exp::PreparedData prepared =
      vfl::exp::PrepareData("synthetic1", scale, /*pred_fraction=*/0.0, 7);
  vfl::models::MlpClassifier mlp;
  mlp.Fit(prepared.train, vfl::exp::MakeMlpConfig(scale, 7));

  vfl::core::Rng rng(11);
  const vfl::fed::FeatureSplit split = vfl::fed::FeatureSplit::RandomFraction(
      prepared.train.num_features(), 0.3, rng);
  const vfl::fed::VflScenario scenario =
      vfl::fed::MakeTwoPartyScenario(prepared.x_pred, split, &mlp);

  const std::size_t kClients = 8;
  const std::size_t kQueriesPerClient =
      scale.name == "paper" ? 20000 : 2000;

  std::printf("clients=%zu queries/client=%zu samples=%zu model=nn\n\n",
              kClients, kQueriesPerClient, scenario.x_adv.rows());
  std::printf("%8s %8s %12s %10s %10s %10s %12s\n", "threads", "batch", "qps",
              "p50_us", "p99_us", "p999_us", "mean_batch");

  double baseline_qps = 0.0;  // threads=1, batch=1
  double best_batched_qps = 0.0;
  SweepResult best;
  for (const std::size_t threads : {1, 4, 8}) {
    for (const std::size_t batch : {1, 16, 64}) {
      const SweepResult r = RunConfig(scenario, threads, batch,
                                      kQueriesPerClient, kClients);
      std::printf("%8zu %8zu %12.0f %10.1f %10.1f %10.1f %12.1f\n", r.threads,
                  r.batch, r.qps, r.p50_us, r.p99_us, r.p999_us,
                  r.mean_batch);
      if (threads == 1 && batch == 1) baseline_qps = r.qps;
      if (threads > 1 && batch > 1 && r.qps > best_batched_qps) {
        best_batched_qps = r.qps;
        best = r;
      }
    }
  }

  // Persist the best batched configuration into the perf trajectory file so
  // successive PRs can diff serving throughput like every other bench.
  vfl::exp::BenchJsonSink perf;
  perf.Record("serve_qps", best.qps, "qps");
  perf.Record("serve_p50_us", best.p50_us, "us");
  perf.Record("serve_p99_us", best.p99_us, "us");
  perf.Record("serve_p999_us", best.p999_us, "us");
  const vfl::core::Status flushed = perf.Flush();
  if (!flushed.ok()) {
    std::fprintf(stderr, "BENCH_perf.json flush failed: %s\n",
                 flushed.ToString().c_str());
  } else {
    std::printf(
        "\nrecorded serve_qps/serve_p50_us/serve_p99_us/serve_p999_us -> "
        "%s\n",
        perf.path().c_str());
  }

  std::printf(
      "\nbatched multi-threaded best: %.0f qps vs single-threaded unbatched: "
      "%.0f qps (%.2fx) -> %s\n",
      best_batched_qps, baseline_qps,
      baseline_qps > 0 ? best_batched_qps / baseline_qps : 0.0,
      best_batched_qps > baseline_qps ? "PASS" : "FAIL");
  return best_batched_qps > baseline_qps ? 0 : 1;
}
