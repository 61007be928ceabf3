// Counts heap allocations on the serving path: a steady-state single-row
// query through the in-process server channel, a fused 32-row PredictBatch,
// and a direct one-row PredictionServer::Predict.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "alloc_counter.h"
#include "core/rng.h"
#include "exp/experiment.h"
#include "exp/model_registry.h"
#include "exp/workload.h"
#include "fed/feature_split.h"
#include "fed/scenario.h"
#include "obs/metrics.h"
#include "serve/server_channel.h"

namespace vfl::serve {
namespace {

using alloc_counter::CountAllocations;

/// The benchmark's adversary_stream set-up, shrunk: LR on `drive` (48
/// features, 11 classes), d_target = 10 columns, the server channel with the
/// ServingSpec defaults (4 workers, batches of 32, no cache) and its
/// notebook off, so every query is a protocol round trip.
class ServeAllocTest : public ::testing::Test {
 protected:
  void SetUp() override {
    exp::ScaleConfig scale;
    scale.dataset_samples = 400;
    scale.prediction_samples = 100;
    core::StatusOr<exp::PreparedData> data =
        exp::TryPrepareData("drive", scale, 0.0, 11);
    ASSERT_TRUE(data.ok()) << data.status().ToString();
    data_ = *std::move(data);
    core::StatusOr<exp::ModelHandle> model = exp::TrainModel(
        "lr", data_.train, exp::ConfigMap(), scale, 11);
    ASSERT_TRUE(model.ok()) << model.status().ToString();
    model_ = *std::move(model);

    core::Rng rng(12);
    const std::vector<std::size_t> order =
        rng.Permutation(data_.train.num_features());
    std::vector<std::size_t> target(order.begin(), order.begin() + 10);
    std::vector<std::size_t> adv(order.begin() + 10, order.end());
    std::sort(target.begin(), target.end());
    std::sort(adv.begin(), adv.end());
    core::StatusOr<fed::VflScenario> scenario = fed::TryMakeTwoPartyScenario(
        data_.x_pred, fed::FeatureSplit(std::move(adv), std::move(target)),
        model_.model.get());
    ASSERT_TRUE(scenario.ok()) << scenario.status().ToString();
    scenario_ = std::make_unique<fed::VflScenario>(*std::move(scenario));

    const exp::ServingSpec spec;
    PredictionServerConfig config;
    config.num_threads = spec.threads;
    config.max_batch_size = spec.batch;
    config.cache_capacity = spec.cache_entries;
    config.auditor.max_audit_events = spec.audit_events;
    config.metrics = &registry_;
    fed::ChannelOptions options;
    options.accumulate = false;
    options.metrics = &registry_;
    channel_ = std::make_unique<ServerChannel>(
        *scenario_, config, std::move(options), spec.clients);
  }

  exp::PreparedData data_;
  exp::ModelHandle model_;
  std::unique_ptr<fed::VflScenario> scenario_;
  obs::MetricsRegistry registry_;
  std::unique_ptr<ServerChannel> channel_;
};

TEST_F(ServeAllocTest, SingleRowQueryAveragesAtMostTwoAllocations) {
  constexpr std::size_t kQueries = 10000;
  core::Rng rng(13);
  std::vector<std::size_t> ids(kQueries);
  for (std::size_t& id : ids) id = rng.UniformInt(channel_->num_samples());
  std::vector<std::size_t> one(1);
  // Warm-up past the audit ring's 4096-event growth (two events a query),
  // the batcher's ring, and every thread's reused buffers.
  for (std::size_t i = 0; i < 3000; ++i) {
    one[0] = ids[i % kQueries];
    ASSERT_TRUE(channel_->Query(one).ok());
  }
  const PredictionServerStats before = channel_->server()->stats();

  std::size_t failures = 0;
  const std::size_t allocations = CountAllocations([&] {
    for (const std::size_t id : ids) {
      one[0] = id;
      if (!channel_->Query(one).ok()) ++failures;
    }
  });
  EXPECT_EQ(failures, 0u);
  const double per_query =
      static_cast<double>(allocations) / static_cast<double>(kQueries);
  std::printf("single-row ServerChannel::Query: %.3f allocations/query\n",
              per_query);
  EXPECT_LE(per_query, 2.0);

  // The counters and the audit trail still see every query.
  const PredictionServerStats after = channel_->server()->stats();
  EXPECT_EQ(after.model_rows - before.model_rows, kQueries);
  EXPECT_EQ(after.predictions_served - before.predictions_served, kQueries);
  EXPECT_EQ(channel_->server()->auditor().CountersSnapshot().served,
            3000 + kQueries);
}

TEST_F(ServeAllocTest, BatchOf32AllocatesOnlyItsOutputMatrix) {
  PredictionServer& server = *channel_->server();
  const std::uint64_t client = server.RegisterClient("batch");
  core::Rng rng(14);
  std::vector<std::size_t> ids(32);
  for (std::size_t& id : ids) id = rng.UniformInt(server.num_samples());
  for (std::size_t i = 0; i < 300; ++i) {
    ASSERT_TRUE(server.PredictBatch(client, ids).ok());
  }

  constexpr std::size_t kCalls = 200;
  std::size_t failures = 0;
  const std::size_t allocations = CountAllocations([&] {
    for (std::size_t i = 0; i < kCalls; ++i) {
      if (!server.PredictBatch(client, ids).ok()) ++failures;
    }
  });
  EXPECT_EQ(failures, 0u);
  EXPECT_EQ(allocations, kCalls) << "one output matrix per call";
}

TEST_F(ServeAllocTest, DirectPredictAllocatesOnlyItsScores) {
  PredictionServer& server = *channel_->server();
  const std::uint64_t client = server.RegisterClient("direct");
  core::Rng rng(15);
  std::vector<std::size_t> ids(1000);
  for (std::size_t& id : ids) id = rng.UniformInt(server.num_samples());
  for (std::size_t i = 0; i < 3000; ++i) {
    ASSERT_TRUE(server.Predict(client, ids[i % ids.size()]).ok());
  }

  std::size_t failures = 0;
  const std::size_t allocations = CountAllocations([&] {
    for (const std::size_t id : ids) {
      const core::StatusOr<std::vector<double>> scores =
          server.Predict(client, id);
      if (!scores.ok() || scores->size() != server.num_classes()) ++failures;
    }
  });
  EXPECT_EQ(failures, 0u);
  EXPECT_EQ(allocations, ids.size()) << "one score vector per call";
}

}  // namespace
}  // namespace vfl::serve
