// Channel-overhead microbench: QPS of the three in-process fed::QueryChannel
// transports (offline table, zero-thread "service" server, concurrent server)
// for one fixed query set against the identical scenario — the cost of
// moving an attack from a precollected dump onto the live serving stack.
// Numbers append into BENCH_perf.json (exp::BenchJsonSink) to extend the perf
// trajectory.
//
// Accumulation is disabled so every query crosses the channel into the
// backend (otherwise the notebook would absorb all repeats and the bench
// would measure memcpy).
//
// The last line gates the concurrent server against the zero-thread one in
// the same run: it prints PASS and exits 0 only when
// channel_qps_server >= 0.5 x channel_qps_service, i.e. a lone query on a
// server with idle workers costs at most twice the synchronous path.
//
// Usage:
//   bench_channel_overhead [--queries=N] [--json=PATH]
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/check.h"
#include "core/rng.h"
#include "core/timer.h"
#include "exp/bench_json.h"
#include "fed/query_channel.h"
#include "fed/scenario.h"
#include "models/logistic_regression.h"
#include "serve/server_channel.h"

namespace {

using vfl::core::Rng;

vfl::models::LogisticRegression RandomLr(std::size_t d, std::size_t c,
                                         std::uint64_t seed) {
  Rng rng(seed);
  vfl::la::Matrix weights(d, c);
  for (std::size_t i = 0; i < weights.size(); ++i) {
    weights.data()[i] = rng.Gaussian();
  }
  std::vector<double> bias(c);
  for (double& b : bias) b = rng.Gaussian(0.0, 0.1);
  vfl::models::LogisticRegression lr;
  lr.SetParameters(std::move(weights), std::move(bias));
  return lr;
}

vfl::la::Matrix RandomUnitData(std::size_t n, std::size_t d,
                               std::uint64_t seed) {
  Rng rng(seed);
  vfl::la::Matrix x(n, d);
  for (std::size_t i = 0; i < x.size(); ++i) x.data()[i] = rng.Uniform();
  return x;
}

/// Issues the fixed query set — single-sample queries, the overhead-bound
/// shape — and returns elapsed seconds.
double DriveChannel(vfl::fed::QueryChannel& channel,
                    const std::vector<std::size_t>& query_set) {
  const vfl::core::Timer timer;
  std::vector<std::size_t> one(1);
  for (const std::size_t id : query_set) {
    one[0] = id;
    const vfl::core::StatusOr<vfl::la::Matrix> result = channel.Query(one);
    CHECK(result.ok()) << result.status().ToString();
  }
  return timer.ElapsedSeconds();
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t queries = 20000;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--queries=", 10) == 0) {
      queries = static_cast<std::size_t>(std::atol(argv[i] + 10));
    } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", argv[i]);
      return 2;
    }
  }

  const std::size_t n = 512;
  vfl::models::LogisticRegression lr = RandomLr(16, 4, 7);
  const vfl::la::Matrix x = RandomUnitData(n, 16, 8);
  const vfl::fed::FeatureSplit split =
      vfl::fed::FeatureSplit::TailFraction(16, 0.5);
  vfl::fed::VflScenario scenario =
      vfl::fed::MakeTwoPartyScenario(x, split, &lr);

  // Fixed query set shared by every channel kind: a seeded uniform stream
  // over the aligned samples.
  Rng rng(99);
  std::vector<std::size_t> query_set(queries);
  for (std::size_t& id : query_set) id = rng.UniformInt(n);

  std::printf("channel overhead: %zu single-sample queries, %zu aligned "
              "samples, LR d=16 c=4\n\n",
              queries, n);
  std::printf("%-10s %12s %12s\n", "channel", "seconds", "QPS");

  vfl::exp::BenchJsonSink perf(json_path);
  const auto report = [&](const char* kind, double seconds) {
    const double qps = static_cast<double>(queries) / seconds;
    std::printf("%-10s %12.4f %12.0f\n", kind, seconds, qps);
    perf.Record(std::string("channel_qps_") + kind, qps, "qps");
    return qps;
  };

  // ChannelOptions owns the (move-only) defense pipeline, so each channel
  // gets a freshly built instance.
  const auto no_accumulate = [] {
    vfl::fed::ChannelOptions options;
    options.accumulate = false;
    return options;
  };

  double service_qps = 0.0;
  double server_qps = 0.0;
  {
    vfl::fed::OfflineChannel channel(scenario.CollectView(), no_accumulate());
    report("offline", DriveChannel(channel, query_set));
  }
  {
    // The "service" kind: the same server executing in the caller's thread.
    vfl::serve::PredictionServerConfig config;
    config.num_threads = 0;
    config.max_batch_size = 1;
    vfl::serve::ServerChannel channel(scenario, config, no_accumulate());
    service_qps = report("service", DriveChannel(channel, query_set));
  }
  {
    vfl::serve::PredictionServerConfig config;
    config.num_threads = 4;
    config.max_batch_size = 16;
    vfl::serve::ServerChannel channel(scenario, config, no_accumulate());
    server_qps = report("server", DriveChannel(channel, query_set));
  }

  const vfl::core::Status status = perf.Flush();
  CHECK(status.ok()) << status.ToString();
  std::printf("\nrecorded channel_qps_{offline,service,server} -> %s\n",
              perf.path().c_str());

  const bool pass = server_qps >= 0.5 * service_qps;
  std::printf("\nserver vs service: %.0f vs %.0f qps (%.2fx, gate >= 0.50x) "
              "-> %s\n",
              server_qps, service_qps, server_qps / service_qps,
              pass ? "PASS" : "FAIL");
  return pass ? 0 : 1;
}
