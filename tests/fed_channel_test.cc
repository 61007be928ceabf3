// Unit coverage for the QueryChannel abstraction: uniform budget/defense
// semantics across the offline, service (zero-thread server), and server
// channel kinds, typed kResourceExhausted errors (channel budget AND
// server-side auditor denials), all-or-nothing admission, notebook
// accumulation, and the query-driven attack lifecycle.
#include "fed/query_channel.h"

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "attack/esa.h"
#include "attack/pra.h"
#include "attack/random_guess.h"
#include "core/rng.h"
#include "defense/noise.h"
#include "defense/pipeline.h"
#include "defense/rounding.h"
#include "fed/scenario.h"
#include "la/matrix_ops.h"
#include "models/logistic_regression.h"
#include "serve/server_channel.h"

namespace vfl::fed {
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

/// A wired scenario plus factories for every channel kind over it.
class QueryChannelTest : public ::testing::Test {
 protected:
  void SetUp() override {
    lr_ = RandomLr(6, 3, 11);
    x_ = RandomUnitData(40, 6, 12);
    split_ = FeatureSplit::TailFraction(6, 0.5);
    scenario_ = MakeTwoPartyScenario(x_, split_, &lr_);
  }

  std::unique_ptr<QueryChannel> MakeKind(const std::string& kind,
                                         ChannelOptions options = {}) {
    if (kind == "offline") {
      return std::make_unique<OfflineChannel>(scenario_.CollectView(),
                                              std::move(options));
    }
    // "service" is the synchronous server: zero worker threads.
    serve::PredictionServerConfig config;
    config.num_threads = kind == "service" ? 0 : 2;
    config.max_batch_size = 8;
    return std::make_unique<serve::ServerChannel>(scenario_, config,
                                                  std::move(options));
  }

  la::Matrix Reference() const { return scenario_.CollectView().confidences; }

  static const std::vector<std::string>& Kinds() {
    static const std::vector<std::string> kinds = {"offline", "service",
                                                   "server"};
    return kinds;
  }

  models::LogisticRegression lr_;
  la::Matrix x_;
  FeatureSplit split_;
  VflScenario scenario_;
};

TEST_F(QueryChannelTest, EveryKindRevealsTheSameBits) {
  const la::Matrix reference = Reference();
  for (const std::string& kind : Kinds()) {
    std::unique_ptr<QueryChannel> channel = MakeKind(kind);
    EXPECT_EQ(channel->kind(), kind);
    core::StatusOr<la::Matrix> all = channel->QueryAll();
    ASSERT_TRUE(all.ok()) << kind << ": " << all.status().ToString();
    EXPECT_TRUE(*all == reference) << kind;
  }
}

TEST_F(QueryChannelTest, QueryReturnsRowsInRequestOrder) {
  const la::Matrix reference = Reference();
  for (const std::string& kind : Kinds()) {
    std::unique_ptr<QueryChannel> channel = MakeKind(kind);
    core::StatusOr<la::Matrix> out = channel->Query({7, 3, 7, 0});
    ASSERT_TRUE(out.ok()) << kind;
    ASSERT_EQ(out->rows(), 4u);
    EXPECT_EQ(out->Row(0), reference.Row(7)) << kind;
    EXPECT_EQ(out->Row(1), reference.Row(3)) << kind;
    EXPECT_EQ(out->Row(2), reference.Row(7)) << kind;
    EXPECT_EQ(out->Row(3), reference.Row(0)) << kind;
    // Three distinct ids hit the protocol; the duplicate came from the
    // notebook.
    EXPECT_EQ(channel->stats().protocol_queries, 3u) << kind;
    EXPECT_EQ(channel->stats().notebook_hits, 1u) << kind;
  }
}

TEST_F(QueryChannelTest, BadSampleIdIsOutOfRange) {
  for (const std::string& kind : Kinds()) {
    std::unique_ptr<QueryChannel> channel = MakeKind(kind);
    EXPECT_EQ(channel->Query({40}).status().code(), StatusCode::kOutOfRange)
        << kind;
  }
}

TEST_F(QueryChannelTest, OverQueryingIsResourceExhaustedOnEveryKind) {
  for (const std::string& kind : Kinds()) {
    ChannelOptions options;
    options.query_budget = 10;
    std::unique_ptr<QueryChannel> channel = MakeKind(kind, std::move(options));
    // Under budget: fine.
    ASSERT_TRUE(channel->Query({0, 1, 2, 3, 4}).ok()) << kind;
    // The whole prediction set does not fit the remaining budget: denied in
    // full, nothing new revealed (all-or-nothing — never a partial matrix).
    core::StatusOr<la::Matrix> all = channel->QueryAll();
    ASSERT_FALSE(all.ok()) << kind;
    EXPECT_EQ(all.status().code(), StatusCode::kResourceExhausted) << kind;
    EXPECT_EQ(channel->stats().protocol_queries, 5u) << kind;
    EXPECT_EQ(channel->stats().queries_denied, 35u) << kind;
    // Already-observed vectors stay readable (the adversary keeps its
    // notebook) and the remaining budget still covers small requests.
    EXPECT_TRUE(channel->Query({0, 1, 2, 3, 4}).ok()) << kind;
    EXPECT_TRUE(channel->Query({5, 6}).ok()) << kind;
  }
}

TEST_F(QueryChannelTest, ServerAuditorDenialIsResourceExhausted) {
  // No channel-level budget — the *server's* query auditor (an operator
  // setting, not the adversary's) denies the flood.
  serve::PredictionServerConfig config;
  config.num_threads = 2;
  config.max_batch_size = 8;
  serve::ServerChannel channel(scenario_, config);
  channel.server()->SetQueryBudget(channel.client_id(), 10);

  core::StatusOr<la::Matrix> all = channel.QueryAll();
  ASSERT_FALSE(all.ok());
  EXPECT_EQ(all.status().code(), StatusCode::kResourceExhausted);
  // The audit log records the denial.
  const serve::ClientAuditRecord record =
      channel.server()->auditor().record(channel.client_id());
  EXPECT_EQ(record.denied, 40u);
  EXPECT_EQ(record.served, 0u);
  // PredictBatch admission is all-or-nothing, so nothing was revealed and a
  // within-budget request still succeeds.
  core::StatusOr<la::Matrix> small = channel.Query({0, 1});
  ASSERT_TRUE(small.ok());
}

TEST_F(QueryChannelTest, NotebookAccumulationSpendsBudgetOnce) {
  for (const std::string& kind : Kinds()) {
    ChannelOptions options;
    options.query_budget = 40;  // exactly the prediction set
    std::unique_ptr<QueryChannel> channel = MakeKind(kind, std::move(options));
    ASSERT_TRUE(channel->QueryAll().ok()) << kind;
    // Re-reading the accumulated set costs nothing: repeated QueryAll and
    // arbitrary re-queries keep succeeding on a fully spent budget.
    ASSERT_TRUE(channel->QueryAll().ok()) << kind;
    ASSERT_TRUE(channel->Query({39, 0, 17}).ok()) << kind;
    EXPECT_EQ(channel->stats().protocol_queries, 40u) << kind;
  }
}

TEST_F(QueryChannelTest, DefensePipelineDegradesIdenticallyOnEveryKind) {
  // A stateful (seeded noise) + deterministic (rounding) chain: the channel
  // applies it at the reveal point in ascending sample-id order, so every
  // kind degrades the identical stream.
  const auto make_options = [] {
    ChannelOptions options;
    options.pipeline.Add(std::make_unique<defense::NoiseDefense>(0.05, 99),
                         "noise");
    options.pipeline.Add(std::make_unique<defense::RoundingDefense>(2),
                         "round");
    return options;
  };
  la::Matrix reference;
  for (const std::string& kind : Kinds()) {
    std::unique_ptr<QueryChannel> channel = MakeKind(kind, make_options());
    core::StatusOr<la::Matrix> all = channel->QueryAll();
    ASSERT_TRUE(all.ok()) << kind;
    if (reference.rows() == 0) {
      reference = *std::move(all);
      // The pipeline actually degraded the stream.
      EXPECT_GT(la::MaxAbsDiff(reference, Reference()),
                0.0);
    } else {
      EXPECT_TRUE(*all == reference) << kind;
    }
  }
}

TEST_F(QueryChannelTest, OfflineChannelReplaysAView) {
  const AdversaryView view = scenario_.CollectView();
  OfflineChannel channel{AdversaryView(view)};
  core::StatusOr<la::Matrix> all = channel.QueryAll();
  ASSERT_TRUE(all.ok());
  EXPECT_TRUE(*all == view.confidences);
  EXPECT_EQ(channel.model(), view.model);
}

TEST_F(QueryChannelTest, CollectViewBundlesChannelKnowledge) {
  std::unique_ptr<QueryChannel> channel = MakeKind("server");
  core::StatusOr<AdversaryView> view = channel->CollectView();
  ASSERT_TRUE(view.ok());
  EXPECT_TRUE(view->x_adv == scenario_.x_adv);
  EXPECT_EQ(view->model, &lr_);
  EXPECT_TRUE(view->confidences == Reference());
}

// --- query-driven attack lifecycle ------------------------------------------

TEST_F(QueryChannelTest, EsaLifecycleMatchesOneShotInfer) {
  const AdversaryView view = scenario_.CollectView();
  attack::EqualitySolvingAttack one_shot(&lr_);
  const la::Matrix expected = one_shot.Infer(view);

  for (const std::string& kind : Kinds()) {
    std::unique_ptr<QueryChannel> channel = MakeKind(kind);
    attack::EqualitySolvingAttack esa(&lr_);
    core::StatusOr<la::Matrix> inferred = esa.Run(*channel);
    ASSERT_TRUE(inferred.ok()) << kind;
    EXPECT_TRUE(*inferred == expected) << kind;
    // The lifecycle consumed exactly one accumulation pass.
    EXPECT_EQ(channel->stats().protocol_queries, 40u) << kind;
  }
}

TEST_F(QueryChannelTest, AttackOverBudgetPropagatesWithoutPartialResult) {
  for (const std::string& kind : Kinds()) {
    ChannelOptions options;
    options.query_budget = 5;  // cannot cover the 40-sample accumulation
    std::unique_ptr<QueryChannel> channel = MakeKind(kind, std::move(options));
    attack::EqualitySolvingAttack esa(&lr_);
    core::StatusOr<la::Matrix> inferred = esa.Run(*channel);
    ASSERT_FALSE(inferred.ok()) << kind;
    EXPECT_EQ(inferred.status().code(), StatusCode::kResourceExhausted)
        << kind;
  }
}

TEST_F(QueryChannelTest, RandomGuessSpendsNoBudget) {
  ChannelOptions options;
  options.query_budget = 1;  // even one protocol query would be too revealing
  std::unique_ptr<QueryChannel> channel = MakeKind("server",
                                                   std::move(options));
  attack::RandomGuessAttack rg(
      attack::RandomGuessAttack::Distribution::kUniform);
  core::StatusOr<la::Matrix> guess = rg.Run(*channel);
  ASSERT_TRUE(guess.ok());
  EXPECT_EQ(guess->rows(), 40u);
  EXPECT_EQ(guess->cols(), split_.num_target_features());
  EXPECT_EQ(channel->stats().protocol_queries, 0u);
}

TEST_F(QueryChannelTest, PipelineDegradesWhatTheAttackObserves) {
  // ESA through a rounding channel must deteriorate vs the undefended run —
  // the defense acts on the attack path, not around it (Fig. 11a).
  attack::EqualitySolvingAttack clean_esa(&lr_);
  std::unique_ptr<QueryChannel> clean = MakeKind("server");
  core::StatusOr<la::Matrix> clean_inferred = clean_esa.Run(*clean);
  ASSERT_TRUE(clean_inferred.ok());

  ChannelOptions options;
  options.pipeline.Add(std::make_unique<defense::RoundingDefense>(1),
                       "round(d=1)");
  std::unique_ptr<QueryChannel> defended =
      MakeKind("server", std::move(options));
  attack::EqualitySolvingAttack defended_esa(&lr_);
  core::StatusOr<la::Matrix> defended_inferred = defended_esa.Run(*defended);
  ASSERT_TRUE(defended_inferred.ok());

  const la::Matrix& truth = scenario_.x_target_ground_truth;
  const double clean_err = la::MaxAbsDiff(*clean_inferred, truth);
  const double defended_err = la::MaxAbsDiff(*defended_inferred, truth);
  EXPECT_GT(defended_err, clean_err);
}

}  // namespace
}  // namespace vfl::fed
