// Network-serving throughput/latency sweep: QPS and request-latency
// percentiles for the framed TCP wire protocol (net::NetServer over a
// loopback socket), across concurrent-connection counts {1, 4, 8} and wire
// batch sizes {1, 16, 64} — each request carries `batch` sample ids and the
// response one score row per id. Closed-loop clients, cache disabled, so the
// numbers measure protocol + socket + fused-forward-pass end to end.
//
// Client-observed latencies land in a shared obs::LatencyHistogram
// (bucket-exact percentiles, <= 12.5% bucket width). After the sweep the
// bench scrapes the still-running server over the wire (one kGetStats frame)
// and bridges that snapshot into BENCH_perf.json: the best configuration
// persists as net_qps / net_p50_us / net_p99_us / net_p999_us plus the
// server's error breakdown under net_err_* (QPS counts revealed score
// vectors per second, comparable to channel_qps_* and serve_qps).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <thread>
#include <variant>
#include <vector>

#include "core/rng.h"
#include "core/status.h"
#include "exp/bench_json.h"
#include "exp/obs_bridge.h"
#include "exp/workload.h"
#include "fed/feature_split.h"
#include "fed/scenario.h"
#include "models/mlp.h"
#include "net/channel.h"
#include "net/server.h"
#include "net/socket.h"
#include "net/wire.h"
#include "obs/metrics.h"
#include "serve/adversary_client.h"
#include "serve/prediction_server.h"

namespace {

using Clock = std::chrono::steady_clock;

struct SweepResult {
  std::size_t clients = 0;
  std::size_t batch = 0;
  /// Score vectors revealed per second (rows, not wire round trips).
  double qps = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  double p999_us = 0.0;
};

double BucketPercentileUs(const vfl::obs::HistogramSnapshot& hist, double q) {
  return static_cast<double>(hist.Percentile(q)) / 1000.0;
}

void Die(const vfl::core::Status& status, const char* what) {
  std::fprintf(stderr, "%s: %s\n", what, status.ToString().c_str());
  std::abort();
}

SweepResult RunConfig(std::uint16_t port, std::size_t num_samples,
                      std::size_t num_clients, std::size_t batch,
                      std::size_t requests_per_client) {
  // One shared histogram; every client thread records into its own shard.
  vfl::obs::LatencyHistogram latency_ns;
  std::vector<std::thread> clients;
  clients.reserve(num_clients);
  const Clock::time_point start = Clock::now();
  for (std::size_t c = 0; c < num_clients; ++c) {
    clients.emplace_back([&, c] {
      vfl::core::StatusOr<vfl::net::Socket> conn =
          vfl::net::ConnectLoopback(port);
      if (!conn.ok()) Die(conn.status(), "connect");

      vfl::net::HelloRequest hello;
      hello.request_id = 1;
      hello.client_name = "load-" + std::to_string(c);
      if (const auto s = conn->SendAll(vfl::net::EncodeHello(hello)); !s.ok())
        Die(s, "hello send");
      auto hello_frame = conn->RecvFrame(vfl::net::kDefaultMaxFrameBytes);
      if (!hello_frame.ok()) Die(hello_frame.status(), "hello recv");
      auto hello_msg =
          vfl::net::DecodeFrame(hello_frame->data(), hello_frame->size());
      if (!hello_msg.ok()) Die(hello_msg.status(), "hello decode");
      const auto* ok = std::get_if<vfl::net::HelloResponse>(&*hello_msg);
      if (ok == nullptr) Die(vfl::core::Status::Internal("no HelloOk"), "hello");
      const std::uint64_t client_id = ok->client_id;

      for (std::size_t i = 0; i < requests_per_client; ++i) {
        vfl::net::PredictRequest request;
        request.request_id = 2 + i;
        request.client_id = client_id;
        request.sample_ids.reserve(batch);
        for (std::size_t b = 0; b < batch; ++b) {
          request.sample_ids.push_back((c * 101 + i * 17 + b) % num_samples);
        }
        const Clock::time_point submitted = Clock::now();
        if (const auto s = conn->SendAll(vfl::net::EncodePredict(request));
            !s.ok())
          Die(s, "predict send");
        auto frame = conn->RecvFrame(vfl::net::kDefaultMaxFrameBytes);
        if (!frame.ok()) Die(frame.status(), "predict recv");
        auto message = vfl::net::DecodeFrame(frame->data(), frame->size());
        if (!message.ok()) Die(message.status(), "predict decode");
        const auto* scores = std::get_if<vfl::net::ScoresResponse>(&*message);
        if (scores == nullptr || scores->scores.rows() != batch) {
          Die(vfl::core::Status::Internal("bad scores frame"), "predict");
        }
        latency_ns.Record(static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                Clock::now() - submitted)
                .count()));
      }
    });
  }
  for (std::thread& t : clients) t.join();
  const double elapsed =
      std::chrono::duration<double>(Clock::now() - start).count();

  const vfl::obs::HistogramSnapshot hist = latency_ns.Snapshot();
  SweepResult result;
  result.clients = num_clients;
  result.batch = batch;
  // Every request either completed or aborted the bench, so the issued count
  // is the served count (robust even in a metrics-disabled build, where the
  // histogram records nothing).
  result.qps = static_cast<double>(num_clients * requests_per_client) *
               static_cast<double>(batch) / elapsed;
  result.p50_us = BucketPercentileUs(hist, 0.50);
  result.p99_us = BucketPercentileUs(hist, 0.99);
  result.p999_us = BucketPercentileUs(hist, 0.999);
  return result;
}

}  // namespace

int main() {
  vfl::exp::ScaleConfig scale = vfl::exp::GetScale();
  vfl::exp::PrintBanner("net", "TCP wire-protocol throughput sweep", scale);

  const vfl::exp::PreparedData prepared =
      vfl::exp::PrepareData("synthetic1", scale, /*pred_fraction=*/0.0, 7);
  vfl::models::MlpClassifier mlp;
  mlp.Fit(prepared.train, vfl::exp::MakeMlpConfig(scale, 7));

  vfl::core::Rng rng(11);
  const vfl::fed::FeatureSplit split = vfl::fed::FeatureSplit::RandomFraction(
      prepared.train.num_features(), 0.3, rng);
  const vfl::fed::VflScenario scenario =
      vfl::fed::MakeTwoPartyScenario(prepared.x_pred, split, &mlp);

  vfl::serve::PredictionServerConfig server_config;
  server_config.num_threads = 4;
  server_config.max_batch_size = 64;
  server_config.cache_capacity = 0;
  std::unique_ptr<vfl::serve::PredictionServer> backend =
      vfl::serve::MakeScenarioServer(scenario, server_config);

  vfl::net::NetServerConfig net_config;
  net_config.connection_threads = 9;  // 8 load clients + slack
  vfl::net::NetServer server(backend.get(), net_config);
  if (const auto s = server.Start(); !s.ok()) Die(s, "server start");

  const std::size_t n = backend->num_samples();
  const std::size_t kRequestsPerClient = scale.name == "paper" ? 4000 : 400;

  std::printf("port=%u requests/client=%zu samples=%zu model=nn\n\n",
              server.port(), kRequestsPerClient, n);
  std::printf("%8s %8s %12s %10s %10s %10s\n", "clients", "batch", "qps",
              "p50_us", "p99_us", "p999_us");

  SweepResult best;
  for (const std::size_t clients : {1, 4, 8}) {
    for (const std::size_t batch : {1, 16, 64}) {
      const SweepResult r =
          RunConfig(server.port(), n, clients, batch, kRequestsPerClient);
      std::printf("%8zu %8zu %12.0f %10.1f %10.1f %10.1f\n", r.clients,
                  r.batch, r.qps, r.p50_us, r.p99_us, r.p999_us);
      if (r.qps > best.qps) best = r;
    }
  }

  // Remote scrape while the server is still up: one kGetStats frame returns
  // the server's own registry snapshot — the error breakdown (and server-side
  // stage latencies) as a remote operator would see them.
  vfl::exp::BenchJsonSink perf;
  const vfl::core::StatusOr<vfl::obs::MetricsSnapshot> scraped =
      vfl::net::ScrapeStats(server.port());
  if (scraped.ok()) {
    vfl::exp::RecordNetErrorKeys(*scraped, perf);
    vfl::exp::RecordLatencyKeys(*scraped, "net.predict_ns",
                                "net_server_predict", perf);
  } else {
    std::fprintf(stderr, "kGetStats scrape failed: %s\n",
                 scraped.status().ToString().c_str());
  }
  server.Stop();

  perf.Record("net_qps", best.qps, "qps");
  perf.Record("net_p50_us", best.p50_us, "us");
  perf.Record("net_p99_us", best.p99_us, "us");
  perf.Record("net_p999_us", best.p999_us, "us");
  const vfl::core::Status flushed = perf.Flush();
  if (!flushed.ok()) {
    std::fprintf(stderr, "BENCH_perf.json flush failed: %s\n",
                 flushed.ToString().c_str());
    return 1;
  }
  std::printf(
      "\nbest: clients=%zu batch=%zu -> %.0f qps (p50 %.1fus, p99 %.1fus, "
      "p999 %.1fus); recorded net_qps/net_p50_us/net_p99_us/net_p999_us + "
      "net_err_* -> %s\n",
      best.clients, best.batch, best.qps, best.p50_us, best.p99_us,
      best.p999_us, perf.path().c_str());
  return best.qps > 0 && scraped.ok() ? 0 : 1;
}
