// End-to-end coverage for the TCP query channel: attacks' queries cross a
// real loopback socket boundary and must behave exactly like the in-process
// channels — identical revealed bits, identical defense-pipeline streams,
// typed kResourceExhausted when the server-side budget runs out mid-flood,
// and a readable audit log afterwards.
#include "net/channel.h"

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "attack/esa.h"
#include "core/check.h"
#include "core/rng.h"
#include "defense/noise.h"
#include "defense/rounding.h"
#include "fed/query_channel.h"
#include "fed/scenario.h"
#include "models/logistic_regression.h"
#include "net/server.h"
#include "serve/server_channel.h"

namespace vfl::net {
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

class NetChannelTest : public ::testing::Test {
 protected:
  void SetUp() override {
    lr_ = RandomLr(6, 3, 11);
    x_ = RandomUnitData(40, 6, 12);
    split_ = fed::FeatureSplit::TailFraction(6, 0.5);
    scenario_ = fed::MakeTwoPartyScenario(x_, split_, &lr_);
  }

  serve::PredictionServerConfig ServerConfig() {
    serve::PredictionServerConfig config;
    config.num_threads = 2;
    config.max_batch_size = 8;
    return config;
  }

  /// Owned-stack channel: per-test loopback server on an ephemeral port.
  std::unique_ptr<NetChannel> MakeNetChannel(
      fed::ChannelOptions options = {}, NetChannelOptions net_options = {}) {
    core::StatusOr<std::unique_ptr<NetChannel>> channel =
        NetChannel::TryMake(scenario_, ServerConfig(), NetServerConfig{},
                            std::move(options), net_options);
    CHECK(channel.ok()) << channel.status().ToString();
    return *std::move(channel);
  }

  models::LogisticRegression lr_;
  la::Matrix x_;
  fed::FeatureSplit split_;
  fed::VflScenario scenario_;
};

TEST_F(NetChannelTest, RevealsTheSameBitsAsTheSynchronousService) {
  const la::Matrix reference = scenario_.CollectView().confidences;
  std::unique_ptr<NetChannel> channel = MakeNetChannel();
  EXPECT_EQ(channel->kind(), "net");
  core::StatusOr<la::Matrix> all = channel->QueryAll();
  ASSERT_TRUE(all.ok()) << all.status().ToString();
  ASSERT_EQ(all->rows(), reference.rows());
  ASSERT_EQ(all->cols(), reference.cols());
  for (std::size_t i = 0; i < reference.size(); ++i) {
    EXPECT_EQ(all->data()[i], reference.data()[i]) << "cell " << i;
  }
}

TEST_F(NetChannelTest, ConcurrentFloodRowsLandInRequestOrder) {
  const la::Matrix reference = scenario_.CollectView().confidences;
  NetChannelOptions net_options;
  net_options.fetch_clients = 4;
  net_options.max_rows_per_request = 4;  // forces pipelining per connection
  std::unique_ptr<NetChannel> channel = MakeNetChannel({}, net_options);
  core::StatusOr<la::Matrix> all = channel->QueryAll();
  ASSERT_TRUE(all.ok()) << all.status().ToString();
  for (std::size_t i = 0; i < reference.size(); ++i) {
    ASSERT_EQ(all->data()[i], reference.data()[i]) << "cell " << i;
  }
}

TEST_F(NetChannelTest, DefensePipelineStreamIsByteIdenticalServerVsNet) {
  // The same stateful (seeded noise) + stateless (rounding) stack must
  // degrade the identical stream whether the adversary queries in-process
  // or over TCP — the property that makes `server` and `net` CSVs
  // byte-identical for deterministic configs.
  const auto build_options = [] {
    fed::ChannelOptions options;
    options.pipeline.Add(std::make_unique<defense::NoiseDefense>(0.05, 99),
                         "noise");
    options.pipeline.Add(std::make_unique<defense::RoundingDefense>(2),
                         "round");
    return options;
  };

  serve::ServerChannel server_channel(scenario_, ServerConfig(),
                                      build_options());
  core::StatusOr<la::Matrix> via_server = server_channel.QueryAll();
  ASSERT_TRUE(via_server.ok()) << via_server.status().ToString();

  std::unique_ptr<NetChannel> net_channel = MakeNetChannel(build_options());
  core::StatusOr<la::Matrix> via_net = net_channel->QueryAll();
  ASSERT_TRUE(via_net.ok()) << via_net.status().ToString();

  ASSERT_EQ(via_server->rows(), via_net->rows());
  ASSERT_EQ(via_server->cols(), via_net->cols());
  for (std::size_t i = 0; i < via_server->size(); ++i) {
    ASSERT_EQ(via_server->data()[i], via_net->data()[i]) << "cell " << i;
  }
}

TEST_F(NetChannelTest, BudgetExhaustionMidFloodIsTypedAcrossTheWire) {
  NetChannelOptions net_options;
  net_options.fetch_clients = 4;
  net_options.max_rows_per_request = 4;
  std::unique_ptr<NetChannel> channel = MakeNetChannel({}, net_options);
  // Server-side countermeasure: the auditor budget covers only a fraction of
  // the 40-sample flood, so some concurrent chunks are denied mid-flight.
  channel->backend()->SetQueryBudget(channel->client_id(), 10);

  core::StatusOr<la::Matrix> all = channel->QueryAll();
  ASSERT_FALSE(all.ok());
  EXPECT_EQ(all.status().code(), StatusCode::kResourceExhausted)
      << all.status().ToString();
  EXPECT_GT(channel->stats().queries_denied, 0u);

  // The audit log survives the denial and records the wire-level split.
  const auto log = channel->backend()->auditor().AuditLog();
  ASSERT_FALSE(log.empty());
  bool saw_denied = false;
  for (const auto& record : log) {
    if (record.denied > 0) saw_denied = true;
    EXPECT_LE(record.admitted, 10u);
  }
  EXPECT_TRUE(saw_denied);
}

TEST_F(NetChannelTest, FloodChunksRaceTheServerBudgetOnServerAndNet) {
  // Four concurrent chunks of 10 ids against a server budget of 25: two
  // chunks are admitted and served on the wire, the other two are denied.
  // The caller still receives nothing, so the notebook stays empty.
  const auto check = [](const char* kind, fed::QueryChannel& channel,
                        serve::PredictionServer& server,
                        std::uint64_t client_id) {
    server.SetQueryBudget(client_id, 25);
    core::StatusOr<la::Matrix> all = channel.QueryAll();
    ASSERT_FALSE(all.ok()) << kind;
    EXPECT_EQ(all.status().code(), StatusCode::kResourceExhausted) << kind;
    EXPECT_EQ(channel.stats().protocol_queries, 0u) << kind;
    EXPECT_EQ(channel.stats().queries_denied, 40u) << kind;
    const serve::ClientAuditRecord record = server.auditor().record(client_id);
    EXPECT_EQ(record.served, 20u) << kind;
    EXPECT_EQ(record.denied, 20u) << kind;
    // Re-reading an id the wire already served costs a fresh protocol query.
    ASSERT_TRUE(channel.Query({0}).ok()) << kind;
    EXPECT_EQ(channel.stats().protocol_queries, 1u) << kind;
    EXPECT_EQ(channel.stats().notebook_hits, 0u) << kind;
  };

  serve::ServerChannel server_channel(scenario_, ServerConfig(), {},
                                      /*fetch_clients=*/4);
  check("server", server_channel, *server_channel.server(),
        server_channel.client_id());

  NetChannelOptions net_options;
  net_options.fetch_clients = 4;
  std::unique_ptr<NetChannel> net_channel = MakeNetChannel({}, net_options);
  check("net", *net_channel, *net_channel->backend(),
        net_channel->client_id());
}

TEST_F(NetChannelTest, BadSampleIdIsOutOfRangeAcrossTheWire) {
  std::unique_ptr<NetChannel> channel = MakeNetChannel();
  core::StatusOr<la::Matrix> rows = channel->Query({0, 1, 999});
  ASSERT_FALSE(rows.ok());
  EXPECT_EQ(rows.status().code(), StatusCode::kOutOfRange);
}

TEST_F(NetChannelTest, EsaAttackRunsUnmodifiedOverTcp) {
  // The lifecycle over TCP infers the exact same block as the classic
  // one-shot path over a local view.
  const fed::AdversaryView view = scenario_.CollectView();
  attack::EqualitySolvingAttack one_shot(&lr_);
  const la::Matrix expected = one_shot.Infer(view);

  std::unique_ptr<NetChannel> channel = MakeNetChannel();
  attack::EqualitySolvingAttack esa(&lr_);
  core::StatusOr<la::Matrix> inferred = esa.Run(*channel);
  ASSERT_TRUE(inferred.ok()) << inferred.status().ToString();
  EXPECT_TRUE(*inferred == expected);
  EXPECT_EQ(channel->stats().protocol_queries, 40u);
}

TEST_F(NetChannelTest, ChannelBudgetStillAppliesClientSide) {
  // A channel-level budget (options.query_budget) is enforced before any
  // frame leaves the machine — same all-or-nothing semantics as the
  // in-process kinds.
  fed::ChannelOptions options;
  options.query_budget = 5;
  std::unique_ptr<NetChannel> channel = MakeNetChannel(std::move(options));
  core::StatusOr<la::Matrix> all = channel->QueryAll();
  ASSERT_FALSE(all.ok());
  EXPECT_EQ(all.status().code(), StatusCode::kResourceExhausted);
  // Nothing crossed the wire: the server's stats saw no prediction request.
  EXPECT_EQ(channel->backend()->stats().predictions_served, 0u);
}

TEST_F(NetChannelTest, TakenPortIsATypedErrorNotAnAbort) {
  // Occupy a port, then ask the owning stack to bind exactly it: TryMake
  // (the registry factory path) must surface the bind failure as a Status.
  core::StatusOr<Listener> squatter = Listener::BindLoopback(0);
  ASSERT_TRUE(squatter.ok()) << squatter.status().ToString();
  NetServerConfig net_config;
  net_config.port = squatter->port();
  auto channel =
      NetChannel::TryMake(scenario_, ServerConfig(), net_config);
  ASSERT_FALSE(channel.ok());
  EXPECT_EQ(channel.status().code(), StatusCode::kIoError)
      << channel.status().ToString();
}

TEST_F(NetChannelTest, ServerStartStopIsCleanAndRepeatable) {
  for (int round = 0; round < 3; ++round) {
    std::unique_ptr<NetChannel> channel = MakeNetChannel();
    core::StatusOr<la::Matrix> rows = channel->Query({0, 1, 2});
    ASSERT_TRUE(rows.ok()) << rows.status().ToString();
    // Destruction tears the whole loopback stack down; the next round binds
    // a fresh ephemeral port.
  }
}

}  // namespace
}  // namespace vfl::net
