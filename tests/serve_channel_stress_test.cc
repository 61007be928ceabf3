// Stress for the server-backed query channel: many adversary channels
// hammering one concurrent PredictionServer, with and without budgets. Run
// under ASan/UBSan in CI; a deadlock here is caught by the ctest timeout.
#include "serve/server_channel.h"

#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/rng.h"
#include "fed/scenario.h"
#include "la/matrix_ops.h"
#include "models/logistic_regression.h"
#include "serve/prediction_server.h"

namespace vfl::serve {
namespace {

using core::StatusCode;

models::LogisticRegression RandomLr(std::size_t d, std::size_t c,
                                    std::uint64_t seed) {
  core::Rng rng(seed);
  la::Matrix weights(d, c);
  for (std::size_t i = 0; i < weights.size(); ++i) {
    weights.data()[i] = rng.Gaussian();
  }
  std::vector<double> bias(c);
  for (double& b : bias) b = rng.Gaussian(0.0, 0.1);
  models::LogisticRegression lr;
  lr.SetParameters(std::move(weights), std::move(bias));
  return lr;
}

la::Matrix RandomUnitData(std::size_t n, std::size_t d, std::uint64_t seed) {
  core::Rng rng(seed);
  la::Matrix x(n, d);
  for (std::size_t i = 0; i < x.size(); ++i) x.data()[i] = rng.Uniform();
  return x;
}

class ServerChannelStressTest : public ::testing::Test {
 protected:
  void SetUp() override {
    lr_ = RandomLr(8, 4, 21);
    x_ = RandomUnitData(96, 8, 22);
    split_ = fed::FeatureSplit::TailFraction(8, 0.5);
    scenario_ = fed::MakeTwoPartyScenario(x_, split_, &lr_);
    reference_ = scenario_.CollectView().confidences;
  }

  std::unique_ptr<PredictionServer> MakeServer(PredictionServerConfig config) {
    return std::make_unique<PredictionServer>(
        scenario_.model,
        std::vector<const fed::Party*>{scenario_.adversary_party.get(),
                                       scenario_.target_party.get()},
        config);
  }

  models::LogisticRegression lr_;
  la::Matrix x_;
  fed::FeatureSplit split_;
  fed::VflScenario scenario_;
  la::Matrix reference_;
};

TEST_F(ServerChannelStressTest, ManyChannelsOneServer) {
  PredictionServerConfig config;
  config.num_threads = 4;
  config.max_batch_size = 8;
  config.cache_capacity = 64;
  std::unique_ptr<PredictionServer> server = MakeServer(config);

  constexpr std::size_t kChannels = 8;
  std::vector<std::unique_ptr<ServerChannel>> channels;
  channels.reserve(kChannels);
  for (std::size_t i = 0; i < kChannels; ++i) {
    channels.push_back(std::make_unique<ServerChannel>(
        server.get(), scenario_.split, scenario_.x_adv));
  }

  // Each adversary drives its own channel from its own thread (channels are
  // single-adversary objects; the server underneath is the shared,
  // thread-safe component).
  std::vector<std::thread> adversaries;
  std::vector<char> ok(kChannels, 0);
  for (std::size_t i = 0; i < kChannels; ++i) {
    adversaries.emplace_back([this, i, &channels, &ok] {
      ServerChannel& channel = *channels[i];
      // Interleaved partial queries, then the full accumulation, then
      // notebook re-reads.
      std::vector<std::size_t> odds, evens;
      for (std::size_t t = 0; t < channel.num_samples(); ++t) {
        (t % 2 == 0 ? evens : odds).push_back(t);
      }
      core::StatusOr<la::Matrix> first = channel.Query(i % 2 == 0 ? evens
                                                                  : odds);
      if (!first.ok()) return;
      core::StatusOr<la::Matrix> all = channel.QueryAll();
      if (!all.ok() || !(*all == reference_)) return;
      core::StatusOr<la::Matrix> again = channel.QueryAll();
      ok[i] = again.ok() && *again == reference_;
    });
  }
  for (std::thread& t : adversaries) t.join();
  for (std::size_t i = 0; i < kChannels; ++i) {
    EXPECT_TRUE(ok[i]) << "channel " << i;
  }
  // Budget-free accumulation: every channel fetched each sample exactly once.
  for (const std::unique_ptr<ServerChannel>& channel : channels) {
    EXPECT_EQ(channel->stats().protocol_queries, 96u);
  }
  EXPECT_EQ(server->num_predictions_served(), kChannels * 96u);
}

TEST_F(ServerChannelStressTest, ConcurrentBudgetDenialsStayTyped) {
  PredictionServerConfig config;
  config.num_threads = 4;
  config.max_batch_size = 8;
  // Server-side default budget: enough for the partial pass, not the full
  // accumulation.
  config.auditor.default_query_budget = 48;
  std::unique_ptr<PredictionServer> server = MakeServer(config);

  constexpr std::size_t kChannels = 8;
  std::vector<std::unique_ptr<ServerChannel>> channels;
  for (std::size_t i = 0; i < kChannels; ++i) {
    channels.push_back(std::make_unique<ServerChannel>(
        server.get(), scenario_.split, scenario_.x_adv));
  }
  std::vector<core::Status> denials(kChannels);
  std::vector<char> partial_ok(kChannels, 0);
  std::vector<std::thread> adversaries;
  for (std::size_t i = 0; i < kChannels; ++i) {
    adversaries.emplace_back([&, i] {
      ServerChannel& channel = *channels[i];
      std::vector<std::size_t> half;
      for (std::size_t t = 0; t < 48; ++t) half.push_back(t);
      core::StatusOr<la::Matrix> fits = channel.Query(half);
      partial_ok[i] = fits.ok();
      // 48 more would be needed; the auditor denies all-or-nothing.
      denials[i] = channel.QueryAll().status();
    });
  }
  for (std::thread& t : adversaries) t.join();
  for (std::size_t i = 0; i < kChannels; ++i) {
    EXPECT_TRUE(partial_ok[i]) << "channel " << i;
    EXPECT_EQ(denials[i].code(), StatusCode::kResourceExhausted)
        << "channel " << i << ": " << denials[i].ToString();
    // The notebook still serves what was legitimately accumulated.
    core::StatusOr<la::Matrix> replay = channels[i]->Query({0, 47});
    EXPECT_TRUE(replay.ok()) << "channel " << i;
  }
}

}  // namespace
}  // namespace vfl::serve
