#include <memory>
#include <tuple>

#include <gtest/gtest.h>

#include "core/rng.h"
#include "data/synthetic.h"
#include "fed/feature_split.h"
#include "fed/party.h"
#include "fed/scenario.h"
#include "la/matrix_ops.h"
#include "models/logistic_regression.h"

namespace vfl::fed {
namespace {

TEST(FeatureSplitTest, TailFractionAssignsSuffix) {
  const FeatureSplit split = FeatureSplit::TailFraction(10, 0.3);
  EXPECT_EQ(split.num_features(), 10u);
  EXPECT_EQ(split.num_target_features(), 3u);
  EXPECT_EQ(split.target_columns(), (std::vector<std::size_t>{7, 8, 9}));
  EXPECT_TRUE(split.IsAdvColumn(0));
  EXPECT_FALSE(split.IsAdvColumn(9));
}

TEST(FeatureSplitTest, TailFractionRoundsUp) {
  // ceil(0.25 * 10) = 3.
  EXPECT_EQ(FeatureSplit::TailFraction(10, 0.25).num_target_features(), 3u);
  EXPECT_EQ(FeatureSplit::TailFraction(10, 0.0).num_target_features(), 0u);
  EXPECT_EQ(FeatureSplit::TailFraction(10, 1.0).num_target_features(), 10u);
}

TEST(FeatureSplitTest, RandomFractionPartitions) {
  core::Rng rng(1);
  const FeatureSplit split = FeatureSplit::RandomFraction(12, 0.5, rng);
  EXPECT_EQ(split.num_target_features(), 6u);
  EXPECT_EQ(split.num_adv_features(), 6u);
  // Columns are disjoint and cover the space.
  std::vector<bool> seen(12, false);
  for (const std::size_t c : split.adv_columns()) seen[c] = true;
  for (const std::size_t c : split.target_columns()) {
    EXPECT_FALSE(seen[c]);
    seen[c] = true;
  }
  for (const bool covered : seen) EXPECT_TRUE(covered);
}

TEST(FeatureSplitTest, DuplicateColumnDies) {
  EXPECT_DEATH(FeatureSplit({0, 1}, {1, 2}), "duplicate");
}

TEST(FeatureSplitTest, OutOfRangeColumnDies) {
  EXPECT_DEATH(FeatureSplit({0, 5}, {1}), "");
}

TEST(FeatureSplitTest, ExtractAndCombineRoundTrip) {
  core::Rng rng(2);
  la::Matrix x(5, 8);
  for (std::size_t i = 0; i < x.size(); ++i) x.data()[i] = rng.Uniform();
  const FeatureSplit split = FeatureSplit::RandomFraction(8, 0.4, rng);
  const la::Matrix adv = split.ExtractAdv(x);
  const la::Matrix target = split.ExtractTarget(x);
  EXPECT_EQ(adv.cols() + target.cols(), 8u);
  EXPECT_LT(la::MaxAbsDiff(split.Combine(adv, target), x), 1e-15);
}

/// Round-trip property over many dimensions and fractions.
class SplitRoundTrip
    : public ::testing::TestWithParam<std::tuple<int, double>> {};

TEST_P(SplitRoundTrip, CombineInvertsExtract) {
  const auto [d, fraction] = GetParam();
  core::Rng rng(42 + d);
  la::Matrix x(7, d);
  for (std::size_t i = 0; i < x.size(); ++i) x.data()[i] = rng.Gaussian();
  const FeatureSplit split =
      FeatureSplit::RandomFraction(d, fraction, rng);
  EXPECT_LT(la::MaxAbsDiff(
                split.Combine(split.ExtractAdv(x), split.ExtractTarget(x)), x),
            1e-15);
}

INSTANTIATE_TEST_SUITE_P(
    Dims, SplitRoundTrip,
    ::testing::Combine(::testing::Values(1, 2, 5, 20, 59),
                       ::testing::Values(0.1, 0.3, 0.5, 0.6, 1.0)));

TEST(PartyTest, ProvidesAlignedFeatures) {
  la::Matrix features{{0.1, 0.2}, {0.3, 0.4}};
  const Party party("fintech", {3, 5}, features);
  EXPECT_EQ(party.name(), "fintech");
  EXPECT_EQ(party.num_samples(), 2u);
  EXPECT_EQ(party.num_local_features(), 2u);
  EXPECT_EQ(party.ProvideFeatures(1), (std::vector<double>{0.3, 0.4}));
}

TEST(PartyTest, ColumnWidthMismatchDies) {
  EXPECT_DEATH(Party("p", {0, 1, 2}, la::Matrix(2, 2)), "");
}

TEST(PartyTest, OutOfRangeSampleDies) {
  const Party party("p", {0}, la::Matrix(2, 1));
  EXPECT_DEATH(party.ProvideFeatures(2), "");
}

class ScenarioServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    data::ClassificationSpec spec;
    spec.num_samples = 120;
    spec.num_features = 6;
    spec.num_classes = 2;
    spec.num_informative = 4;
    spec.num_redundant = 2;
    spec.seed = 77;
    dataset_ = data::MakeClassification(spec);
    lr_.Fit(dataset_);
    split_ = FeatureSplit::TailFraction(6, 0.5);
    scenario_ = MakeTwoPartyScenario(dataset_.x, split_, &lr_);
  }

  std::vector<double> Predict(std::size_t sample_id) {
    core::StatusOr<std::vector<double>> scores =
        scenario_.server->Predict(scenario_.client_id, sample_id);
    CHECK(scores.ok()) << scores.status().ToString();
    return *std::move(scores);
  }

  data::Dataset dataset_;
  models::LogisticRegression lr_;
  FeatureSplit split_;
  VflScenario scenario_;
};

TEST_F(ScenarioServerTest, PredictMatchesDirectModelCall) {
  const std::vector<double> joint = Predict(3);
  const la::Matrix direct = lr_.PredictProba(dataset_.x.SliceRows(3, 4));
  ASSERT_EQ(joint.size(), 2u);
  EXPECT_NEAR(joint[0], direct(0, 0), 1e-12);
  EXPECT_NEAR(joint[1], direct(0, 1), 1e-12);
}

TEST_F(ScenarioServerTest, PredictAllMatchesDirectBatch) {
  const core::StatusOr<la::Matrix> all =
      scenario_.server->PredictAll(scenario_.client_id);
  ASSERT_TRUE(all.ok());
  EXPECT_LT(la::MaxAbsDiff(*all, lr_.PredictProba(dataset_.x)), 1e-12);
}

TEST_F(ScenarioServerTest, CountsPredictionsServed) {
  EXPECT_EQ(scenario_.server->num_predictions_served(), 0u);
  Predict(0);
  Predict(1);
  EXPECT_EQ(scenario_.server->num_predictions_served(), 2u);
  scenario_.CollectView();
  EXPECT_EQ(scenario_.server->num_predictions_served(),
            2u + dataset_.num_samples());
}

TEST_F(ScenarioServerTest, OutOfRangeSampleIsTypedError) {
  EXPECT_EQ(scenario_.server->Predict(scenario_.client_id,
                                      dataset_.num_samples())
                .status()
                .code(),
            core::StatusCode::kOutOfRange);
}

namespace {

/// Test defense: replaces every score with 1/c.
class FlattenDefense : public OutputDefense {
 public:
  std::vector<double> Apply(const std::vector<double>& scores) override {
    return std::vector<double>(scores.size(), 1.0 / scores.size());
  }
};

/// Defense that breaks the contract by changing the vector length.
class BrokenDefense : public OutputDefense {
 public:
  std::vector<double> Apply(const std::vector<double>& scores) override {
    std::vector<double> out = scores;
    out.push_back(0.0);
    return out;
  }
};

}  // namespace

TEST_F(ScenarioServerTest, OutputDefenseIsApplied) {
  scenario_.server->AddOutputDefense(std::make_unique<FlattenDefense>());
  const std::vector<double> scores = Predict(0);
  EXPECT_DOUBLE_EQ(scores[0], 0.5);
  EXPECT_DOUBLE_EQ(scores[1], 0.5);
}

TEST_F(ScenarioServerTest, LengthChangingDefenseDies) {
  scenario_.server->AddOutputDefense(std::make_unique<BrokenDefense>());
  EXPECT_DEATH(Predict(0), "length");
}

TEST_F(ScenarioServerTest, ScenarioSeparatesBlocks) {
  EXPECT_EQ(scenario_.x_adv.cols(), 3u);
  EXPECT_EQ(scenario_.x_target_ground_truth.cols(), 3u);
  EXPECT_LT(la::MaxAbsDiff(scenario_.split.Combine(
                               scenario_.x_adv,
                               scenario_.x_target_ground_truth),
                           dataset_.x),
            1e-15);
}

TEST_F(ScenarioServerTest, CollectViewBundlesAdversaryKnowledge) {
  const AdversaryView view = scenario_.CollectView();
  EXPECT_EQ(view.x_adv.rows(), dataset_.num_samples());
  EXPECT_EQ(view.confidences.cols(), 2u);
  EXPECT_EQ(view.model, &lr_);
  EXPECT_LT(la::MaxAbsDiff(view.confidences, lr_.PredictProba(dataset_.x)),
            1e-12);
}

// The CHECK-failing factory rejects exactly what its Try twin rejects, with
// the same message.
TEST_F(ScenarioServerTest, SplitWithoutTargetColumnsDiesWithTheTryMessage) {
  const FeatureSplit no_target = FeatureSplit::TailFraction(6, 0.0);
  ASSERT_EQ(no_target.num_target_features(), 0u);
  EXPECT_EQ(TryMakeTwoPartyScenario(dataset_.x, no_target, &lr_)
                .status()
                .code(),
            core::StatusCode::kFailedPrecondition);
  EXPECT_DEATH(MakeTwoPartyScenario(dataset_.x, no_target, &lr_),
               "leaves the target party no columns");
}

TEST_F(ScenarioServerTest, EmptyPredictionBlockDiesWithTheTryMessage) {
  const la::Matrix empty(0, 6);
  EXPECT_EQ(TryMakeTwoPartyScenario(empty, split_, &lr_).status().code(),
            core::StatusCode::kFailedPrecondition);
  EXPECT_DEATH(MakeTwoPartyScenario(empty, split_, &lr_),
               "prediction block has no samples");
}

TEST(ProtocolServerValidationTest, OverlappingPartiesDie) {
  data::ClassificationSpec spec;
  spec.num_samples = 20;
  spec.num_features = 4;
  spec.num_informative = 2;
  spec.num_redundant = 1;
  const data::Dataset d = data::MakeClassification(spec);
  models::LogisticRegression lr;
  lr.Fit(d);
  const Party a("a", {0, 1}, d.x.SliceCols(0, 2));
  const Party overlapping("b", {1, 2, 3}, d.x.SliceCols(1, 4));
  EXPECT_DEATH(MakeProtocolServer(&lr, {&a, &overlapping}),
               "owned by two parties");
}

TEST(ProtocolServerValidationTest, IncompleteCoverageDies) {
  data::ClassificationSpec spec;
  spec.num_samples = 20;
  spec.num_features = 4;
  spec.num_informative = 2;
  spec.num_redundant = 1;
  const data::Dataset d = data::MakeClassification(spec);
  models::LogisticRegression lr;
  lr.Fit(d);
  const Party a("a", {0, 1}, d.x.SliceCols(0, 2));
  EXPECT_DEATH(MakeProtocolServer(&lr, {&a}), "cover");
}

TEST(ProtocolServerValidationTest, MisalignedSampleCountsDie) {
  data::ClassificationSpec spec;
  spec.num_samples = 20;
  spec.num_features = 4;
  spec.num_informative = 2;
  spec.num_redundant = 1;
  const data::Dataset d = data::MakeClassification(spec);
  models::LogisticRegression lr;
  lr.Fit(d);
  const Party a("a", {0, 1}, d.x.SliceCols(0, 2));
  const Party short_party("b", {2, 3},
                          d.x.SliceCols(2, 4).SliceRows(0, 10));
  EXPECT_DEATH(MakeProtocolServer(&lr, {&a, &short_party}), "aligned");
}

}  // namespace
}  // namespace vfl::fed
