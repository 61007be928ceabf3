// adversary_stream: one adversary issues single-sample Query calls, closed
// loop, through the in-process "server" channel (serve::ServerChannel with
// the ServingSpec defaults) with its notebook off, against LR on `drive`
// with d_target = 10 <= c - 1 = 10. It then runs ESA over the same channel
// and checks the recovery is exact. This is the per-request handoff path:
// auditor -> batcher -> worker -> feature assembly -> forward; GEMM work is
// negligible (the products are far below the packed-GEMM cutover).
//
// The traced run interleaves direct PredictionServer::Predict calls with the
// channel queries and times each stage the request crosses from outside:
// auditor admission, per-party feature provision and the LR forward by
// microbenchmark; queue wait, fused forward and batch size from the serve.*
// histograms the server publishes.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "attack/esa.h"
#include "bench.h"
#include "core/rng.h"
#include "exp/experiment.h"
#include "exp/model_registry.h"
#include "exp/workload.h"
#include "fed/scenario.h"
#include "la/matrix_ops.h"
#include "serve/query_auditor.h"
#include "serve/server_channel.h"

namespace vflbench {

namespace {

constexpr std::size_t kTargetFeatures = 10;

vfl::serve::PredictionServerConfig ServingDefaults(
    vfl::obs::MetricsRegistry* metrics) {
  const vfl::exp::ServingSpec spec;
  vfl::serve::PredictionServerConfig config;
  config.num_threads = spec.threads;
  config.max_batch_size = spec.batch;
  config.max_batch_delay = std::chrono::microseconds(spec.batch_delay_us);
  config.cache_capacity = spec.cache_entries;
  config.auditor.max_audit_events = spec.audit_events;
  config.metrics = metrics;
  return config;
}

/// d_target = 10 columns drawn by the seed; the rest are the adversary's.
vfl::fed::FeatureSplit MakeSplit(std::size_t d, vfl::core::Rng& rng) {
  const std::vector<std::size_t> order = rng.Permutation(d);
  std::vector<std::size_t> target(order.begin(),
                                  order.begin() + kTargetFeatures);
  std::vector<std::size_t> adv(order.begin() + kTargetFeatures, order.end());
  std::sort(target.begin(), target.end());
  std::sort(adv.begin(), adv.end());
  return vfl::fed::FeatureSplit(std::move(adv), std::move(target));
}

/// Everything the stream runs against, built by one set-up repetition.
/// Members are destroyed in reverse order: the channel (and its server) before
/// the registry and the scenario it borrows.
struct Stack {
  vfl::exp::PreparedData data;
  vfl::exp::ModelHandle model;
  std::unique_ptr<vfl::fed::VflScenario> scenario;
  std::unique_ptr<vfl::obs::MetricsRegistry> registry;
  std::unique_ptr<vfl::serve::ServerChannel> channel;
  double prepare_s = 0.0;
  double train_s = 0.0;
};

vfl::core::StatusOr<std::unique_ptr<Stack>> BuildStack(
    const vfl::exp::ScaleConfig& scale, std::uint64_t seed) {
  auto owned = std::make_unique<Stack>();
  Stack& stack = *owned;
  const std::uint64_t data_seed = vfl::core::DeriveSeed(seed, 11);
  const std::uint64_t start = vfl::obs::NowNanos();
  VFL_ASSIGN_OR_RETURN(stack.data, vfl::exp::TryPrepareData(
                                       "drive", scale, 0.0, data_seed));
  const std::uint64_t generated = vfl::obs::NowNanos();
  VFL_ASSIGN_OR_RETURN(
      stack.model, vfl::exp::TrainModel("lr", stack.data.train,
                                        vfl::exp::ConfigMap(), scale,
                                        data_seed));
  stack.prepare_s = static_cast<double>(generated - start) * 1e-9;
  stack.train_s = SecondsSince(generated);

  vfl::core::Rng rng(vfl::core::DeriveSeed(seed, 12));
  VFL_ASSIGN_OR_RETURN(
      vfl::fed::VflScenario scenario,
      vfl::fed::TryMakeTwoPartyScenario(
          stack.data.x_pred, MakeSplit(stack.data.train.num_features(), rng),
          stack.model.model.get()));
  stack.scenario =
      std::make_unique<vfl::fed::VflScenario>(std::move(scenario));
  stack.registry = std::make_unique<vfl::obs::MetricsRegistry>();
  vfl::fed::ChannelOptions channel_options;
  channel_options.accumulate = false;
  stack.channel = std::make_unique<vfl::serve::ServerChannel>(
      *stack.scenario, ServingDefaults(stack.registry.get()),
      std::move(channel_options), vfl::exp::ServingSpec{}.clients);
  std::vector<std::size_t> one(1);
  for (std::size_t i = 0; i < 200; ++i) {  // warm-up: threads, caches
    one[0] = rng.UniformInt(stack.channel->num_samples());
    (void)stack.channel->Query(one);
  }
  return owned;
}

}  // namespace

PhaseResult RunAdversaryStream(const PhaseOptions& options) {
  PhaseResult result;
  result.name = "adversary_stream";
  vfl::exp::ScaleConfig scale;
  if (options.smoke) {
    scale.dataset_samples = 400;
    scale.prediction_samples = 100;
  }

  // Set-up: generate `drive`, train LR, start the server channel and warm it
  // with 200 queries. Repeated in the full phase so setup_s is a median; the
  // last repetition is served.
  std::vector<double> setup_s, prepare_s, train_s;
  std::unique_ptr<Stack> stack;
  for (std::size_t rep = 0; rep < (options.full ? 5u : 1u); ++rep) {
    const std::uint64_t start = vfl::obs::NowNanos();
    vfl::core::StatusOr<std::unique_ptr<Stack>> built =
        BuildStack(scale, options.seed);
    if (!built.ok()) {
      result.tally.Fail(built.status());
      result.checks.push_back({"setup", false, built.status().ToString()});
      return result;
    }
    setup_s.push_back(SecondsSince(start));
    prepare_s.push_back((*built)->prepare_s);
    train_s.push_back((*built)->train_s);
    // Replaces the previous repetition whole, channel before scenario.
    stack = std::move(*built);
  }
  const vfl::exp::PreparedData& data = stack->data;
  const vfl::exp::ModelHandle& model = stack->model;
  const vfl::fed::VflScenario& scenario = *stack->scenario;
  vfl::obs::MetricsRegistry& registry = *stack->registry;
  vfl::serve::ServerChannel& channel = *stack->channel;
  vfl::serve::PredictionServer& server = *channel.server();
  const std::uint64_t direct_client = server.RegisterClient("direct");
  const std::size_t n = channel.num_samples();
  std::vector<std::size_t> one(1);
  vfl::core::Rng rng(vfl::core::DeriveSeed(options.seed, 13));

  // Closed loop: the next query goes out when the previous one returned. In
  // the traced run every other request is a direct Predict on the server.
  const double seconds = options.smoke ? 0.3 : options.full ? options.seconds
                                                            : 3.0;
  const double failed_us = std::numeric_limits<double>::infinity();
  std::vector<double> query_us, direct_us;
  query_us.reserve(static_cast<std::size_t>(seconds * 20000));
  const vfl::obs::MetricsSnapshot before = registry.Snapshot();
  const std::uint64_t loop_start = vfl::obs::NowNanos();
  double query_busy_s = 0.0;
  for (std::size_t i = 0; SecondsSince(loop_start) < seconds; ++i) {
    one[0] = rng.UniformInt(n);
    const bool direct = options.trace && i % 2 == 1;
    const std::uint64_t start = vfl::obs::NowNanos();
    const vfl::core::Status status =
        direct ? server.Predict(direct_client, one[0]).status()
               : channel.Query(one).status();
    const double us = static_cast<double>(vfl::obs::NowNanos() - start) * 1e-3;
    if (!status.ok()) result.tally.Fail(status);
    else result.tally.Ok();
    (direct ? direct_us : query_us).push_back(status.ok() ? us : failed_us);
    if (!direct) query_busy_s += us * 1e-6;
  }
  const vfl::obs::MetricsSnapshot after = registry.Snapshot();

  // ESA over the same channel: exact recovery when d_target <= c - 1.
  vfl::attack::EqualitySolvingAttack esa(model.lr);
  const vfl::core::StatusOr<vfl::la::Matrix> inferred = esa.Run(channel);
  if (inferred.ok()) {
    result.tally.Ok();
    const double error =
        vfl::la::MaxAbsDiff(*inferred, scenario.x_target_ground_truth);
    char detail[96];
    std::snprintf(detail, sizeof(detail), "max abs error %.3g (limit 1e-9)",
                  error);
    result.checks.push_back({"esa_exact", error <= 1e-9, detail});
  } else {
    result.tally.Fail(inferred.status());
    result.checks.push_back({"esa_exact", false, inferred.status().ToString()});
  }

  const double p50 = Percentile(query_us, 0.50);
  const double p99 = WindowedPercentile(query_us, 0.99);
  const double qps = static_cast<double>(query_us.size()) / query_busy_s;
  result.end_to_end["setup_s"] = {Median(setup_s), "s"};
  result.end_to_end["query_p50_us"] = {p50, "us"};
  result.end_to_end["query_p99_us"] = {p99, "us"};
  result.end_to_end["query_qps"] = {qps, "1/s"};
  result.notes.push_back(Note("setup_s", Median(setup_s), "s", setup_s.size()));
  result.notes.push_back(Note("query_p50_us", p50, "us", query_us.size()));
  result.notes.push_back(Note("query_p99_us", p99, "us", query_us.size()));
  result.notes.push_back(Note("query_qps", qps, "1/s", query_us.size()));

  MetricSet& layer = result.per_layer;
  layer["data.prepare_s"] = {Median(prepare_s), "s"};
  layer["models.train_s"] = {Median(train_s), "s"};
  if (!options.trace) return result;

  // Stage microbenchmarks, outside the server.
  vfl::obs::MetricsRegistry scratch;
  vfl::serve::QueryAuditorConfig auditor_config =
      ServingDefaults(&scratch).auditor;
  auditor_config.metrics = &scratch;
  vfl::serve::QueryAuditor auditor(auditor_config);
  const std::uint64_t audited = auditor.RegisterClient("bench");
  const double admit_us = MicrosPerCall(5, 2000, [&] {
    (void)auditor.Admit(audited, 1);
  });
  std::size_t id = 0;
  const double provide_us = MicrosPerCall(5, 2000, [&] {
    id = (id + 7) % n;
    (void)scenario.adversary_party->ProvideFeatures(id);
    (void)scenario.target_party->ProvideFeatures(id);
  });
  const vfl::la::Matrix row = data.x_pred.GatherRows({0});
  const double proba_us = MicrosPerCall(5, 2000, [&] {
    (void)model.model->PredictProba(row);
  });

  const vfl::obs::HistogramSnapshot queue_wait =
      HistogramDelta(before, after, "serve.queue_wait_ns");
  const double forward_us =
      HistogramDelta(before, after, "serve.forward_ns").Mean() * 1e-3;
  const double defense_us =
      HistogramDelta(before, after, "serve.defense_ns").Mean() * 1e-3;
  const double direct_p50 = Percentile(direct_us, 0.50);
  const double queue_p50 = static_cast<double>(queue_wait.Percentile(0.5)) * 1e-3;
  const double stage_sum =
      admit_us + provide_us + queue_wait.Mean() * 1e-3 + forward_us + defense_us;
  const double query_mean = Mean(query_us);
  layer["serve.auditor_admit_us"] = {admit_us, "us"};
  layer["fed.provide_features_us"] = {provide_us, "us"};
  layer["models.predict_proba_us"] = {proba_us, "us"};
  layer["serve.predict_us"] = {direct_p50, "us"};
  layer["fed.channel_overhead_us"] = {p50 - direct_p50, "us"};
  layer["serve.queue_wait_p50_us"] = {queue_p50, "us"};
  layer["serve.queue_wait_p99_us"] = {
      static_cast<double>(queue_wait.Percentile(0.99)) * 1e-3, "us"};
  layer["serve.forward_us"] = {forward_us, "us"};
  layer["serve.defense_us"] = {defense_us, "us"};
  layer["serve.batch_rows_mean"] = {
      HistogramDelta(before, after, "serve.batch_rows").Mean(), "rows"};
  // Means, so the stages add: the direct Predict's mean minus every timed
  // stage is what the handoff itself costs (futures, vectors, wakeups).
  layer["serve.handoff_us"] = {Mean(direct_us) - stage_sum, "us"};
  layer["adversary.stage_sum_us"] = {stage_sum, "us"};
  layer["adversary.unaccounted_pct"] = {
      100.0 * (query_mean - stage_sum) / query_mean, "%"};
  result.notes.push_back(Note("serve.predict_us (p50)", direct_p50, "us",
                              direct_us.size()));
  result.notes.push_back(Note("serve.queue_wait (histogram p50)", queue_p50,
                              "us", queue_wait.count));

  char detail[128];
  std::snprintf(detail, sizeof(detail),
                "timed stages %.1f us vs query mean %.1f us (tolerance +%.0f%%)",
                stage_sum, query_mean, kStageTolerance * 100.0);
  result.checks.push_back({"adversary_stage_sum",
                           stage_sum <= query_mean * (1.0 + kStageTolerance),
                           detail});
  return result;
}

}  // namespace vflbench
