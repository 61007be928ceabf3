#include <memory>

#include <gtest/gtest.h>

#include "attack/esa.h"
#include "attack/grna.h"
#include "attack/metrics.h"
#include "attack/random_guess.h"
#include "core/rng.h"
#include "data/normalize.h"
#include "data/synthetic.h"
#include "defense/noise.h"
#include "defense/preprocess.h"
#include "defense/rounding.h"
#include "defense/verification.h"
#include "fed/scenario.h"
#include "la/matrix_ops.h"
#include "models/logistic_regression.h"

namespace vfl::defense {
namespace {

TEST(RoundingDefenseTest, RoundsDownToRequestedDigits) {
  RoundingDefense defense(1);
  EXPECT_DOUBLE_EQ(defense.RoundScore(0.78), 0.7);
  EXPECT_DOUBLE_EQ(defense.RoundScore(0.09), 0.0);
  EXPECT_DOUBLE_EQ(defense.RoundScore(1.0), 1.0);
  RoundingDefense fine(3);
  EXPECT_DOUBLE_EQ(fine.RoundScore(0.12345), 0.123);
}

TEST(RoundingDefenseTest, AppliesToWholeVector) {
  RoundingDefense defense(1);
  const std::vector<double> out = defense.Apply({0.867, 0.084, 0.049});
  EXPECT_DOUBLE_EQ(out[0], 0.8);
  EXPECT_DOUBLE_EQ(out[1], 0.0);
  EXPECT_DOUBLE_EQ(out[2], 0.0);
}

TEST(RoundingDefenseTest, InvalidDigitsDie) {
  EXPECT_DEATH(RoundingDefense(-1), "");
  EXPECT_DEATH(RoundingDefense(20), "");
}

TEST(NoiseDefenseTest, OutputIsNormalizedDistribution) {
  NoiseDefense defense(0.1);
  const std::vector<double> out = defense.Apply({0.7, 0.2, 0.1});
  double sum = 0.0;
  for (const double v : out) {
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 1.0);
    sum += v;
  }
  EXPECT_NEAR(sum, 1.0, 1e-12);
}

TEST(NoiseDefenseTest, ZeroNoiseIsIdentityUpToNormalization) {
  NoiseDefense defense(0.0);
  const std::vector<double> out = defense.Apply({0.6, 0.4});
  EXPECT_NEAR(out[0], 0.6, 1e-12);
  EXPECT_NEAR(out[1], 0.4, 1e-12);
}

TEST(NoiseDefenseTest, LargeNoisePerturbsScores) {
  NoiseDefense defense(0.5);
  const std::vector<double> out = defense.Apply({1.0, 0.0});
  EXPECT_NE(out[0], 1.0);
}

/// Shared LR fixture over correlated, normalized data.
class DefenseIntegration : public ::testing::Test {
 protected:
  void SetUp() override {
    data::ClassificationSpec spec;
    spec.num_samples = 400;
    spec.num_features = 10;
    spec.num_classes = 4;
    spec.num_informative = 5;
    spec.num_redundant = 5;
    spec.class_sep = 1.5;
    spec.seed = 12;
    dataset_ = data::MakeClassification(spec);
    data::MinMaxNormalizer normalizer;
    dataset_.x = normalizer.FitTransform(dataset_.x);
    lr_.Fit(dataset_);
    split_ = fed::FeatureSplit::TailFraction(10, 0.3);
  }

  data::Dataset dataset_;
  models::LogisticRegression lr_;
  fed::FeatureSplit split_;
};

TEST_F(DefenseIntegration, CoarseRoundingDefeatsEsa) {
  // Fig. 11a: rounding to 0.1 pushes ESA error above random guess; the
  // undefended attack is near exact here (d_target = 3 = c-1).
  fed::VflScenario plain =
      fed::MakeTwoPartyScenario(dataset_.x, split_, &lr_);
  const fed::AdversaryView plain_view = plain.CollectView();
  attack::EqualitySolvingAttack esa(&lr_);
  const double undefended = attack::MsePerFeature(
      esa.Infer(plain_view), plain.x_target_ground_truth);
  EXPECT_LT(undefended, 1e-8);

  fed::VflScenario defended =
      fed::MakeTwoPartyScenario(dataset_.x, split_, &lr_);
  defended.server->AddOutputDefense(std::make_unique<RoundingDefense>(1));
  const fed::AdversaryView defended_view = defended.CollectView();
  const double with_defense = attack::MsePerFeature(
      esa.Infer(defended_view), defended.x_target_ground_truth);

  attack::RandomGuessAttack rg(
      attack::RandomGuessAttack::Distribution::kUniform);
  const double rg_mse = attack::MsePerFeature(
      rg.Infer(defended_view), defended.x_target_ground_truth);
  EXPECT_GT(with_defense, rg_mse);
}

TEST_F(DefenseIntegration, FineRoundingBarelyAffectsEsa) {
  // Fig. 11b: rounding to 0.001 leaves ESA essentially intact.
  fed::VflScenario defended =
      fed::MakeTwoPartyScenario(dataset_.x, split_, &lr_);
  defended.server->AddOutputDefense(std::make_unique<RoundingDefense>(3));
  const fed::AdversaryView view = defended.CollectView();
  attack::EqualitySolvingAttack esa(&lr_);
  const double mse = attack::MsePerFeature(esa.Infer(view),
                                           defended.x_target_ground_truth);
  EXPECT_LT(mse, 0.02);
}

TEST_F(DefenseIntegration, GrnaInsensitiveToRounding) {
  // Fig. 11c-d: GRNA learns correlations, not exact equations.
  attack::GrnaConfig config;
  config.hidden_sizes = {32, 16};
  config.train.epochs = 10;

  fed::VflScenario plain =
      fed::MakeTwoPartyScenario(dataset_.x, split_, &lr_);
  const fed::AdversaryView plain_view = plain.CollectView();
  attack::GenerativeRegressionNetworkAttack grna_plain(&lr_, config);
  const double undefended = attack::MsePerFeature(
      grna_plain.Infer(plain_view), plain.x_target_ground_truth);

  fed::VflScenario defended =
      fed::MakeTwoPartyScenario(dataset_.x, split_, &lr_);
  defended.server->AddOutputDefense(std::make_unique<RoundingDefense>(1));
  const fed::AdversaryView defended_view = defended.CollectView();
  attack::GenerativeRegressionNetworkAttack grna_defended(&lr_, config);
  const double with_defense = attack::MsePerFeature(
      grna_defended.Infer(defended_view), defended.x_target_ground_truth);

  // Within 3x of each other (the paper reports near-identical curves).
  EXPECT_LT(with_defense, 3.0 * undefended + 0.01);
}

TEST_F(DefenseIntegration, PreprocessFlagsEsaThresholdViolation) {
  // d_target = 3 <= c-1 = 3: exact ESA recovery — a red flag.
  const PreprocessReport report = AnalyzeCollaboration(dataset_, split_);
  EXPECT_TRUE(report.esa_threshold_violated);

  // A 60% split is safe from exact recovery.
  const PreprocessReport safe = AnalyzeCollaboration(
      dataset_, fed::FeatureSplit::TailFraction(10, 0.6));
  EXPECT_FALSE(safe.esa_threshold_violated);
}

TEST_F(DefenseIntegration, PreprocessMeasuresTargetCorrelations) {
  const PreprocessReport report = AnalyzeCollaboration(dataset_, split_);
  ASSERT_EQ(report.target_correlations.size(), 3u);
  for (const double corr : report.target_correlations) {
    EXPECT_GE(corr, 0.0);
    EXPECT_LE(corr, 1.0);
  }
}

TEST_F(DefenseIntegration, CorrelationFilterRemovesFlaggedColumns) {
  CorrelationFilterConfig config;
  config.correlation_threshold = 0.15;  // aggressive: flags correlated cols
  const PreprocessReport report =
      AnalyzeCollaboration(dataset_, split_, config);
  const FilteredCollaboration filtered =
      RemoveHighCorrelationTargetColumns(dataset_, split_, config);
  EXPECT_EQ(filtered.kept_columns.size(),
            dataset_.num_features() -
                report.high_correlation_target_columns.size());
  // Adversary columns are never removed.
  EXPECT_EQ(filtered.split.num_adv_features(), split_.num_adv_features());
  EXPECT_EQ(filtered.split.num_features(), filtered.kept_columns.size());
}

TEST_F(DefenseIntegration, CorrelationFilterNoopWhenThresholdHigh) {
  CorrelationFilterConfig config;
  config.correlation_threshold = 1.1;  // nothing can exceed |r| <= 1
  const FilteredCollaboration filtered =
      RemoveHighCorrelationTargetColumns(dataset_, split_, config);
  EXPECT_EQ(filtered.kept_columns.size(), dataset_.num_features());
  EXPECT_EQ(filtered.split.num_target_features(),
            split_.num_target_features());
}

TEST_F(DefenseIntegration, VerificationSuppressesLeakyPredictions) {
  fed::VflScenario scenario =
      fed::MakeTwoPartyScenario(dataset_.x, split_, &lr_);
  // d_target <= c-1, so ESA inside the enclave reconstructs exactly; every
  // prediction is leaky under any positive threshold.
  auto defense = std::make_unique<VerificationDefense>(
      &lr_, split_, scenario.x_adv, scenario.x_target_ground_truth,
      /*mse_threshold=*/1e-6);
  VerificationDefense* defense_ptr = defense.get();
  scenario.server->AddOutputDefense(std::move(defense));

  const la::Matrix all = scenario.CollectView().confidences;
  EXPECT_EQ(defense_ptr->num_suppressed(), dataset_.num_samples());
  // Suppressed outputs are one-hot decisions.
  for (std::size_t r = 0; r < all.rows(); ++r) {
    double sum = 0.0;
    for (std::size_t c = 0; c < all.cols(); ++c) {
      EXPECT_TRUE(all(r, c) == 0.0 || all(r, c) == 1.0);
      sum += all(r, c);
    }
    EXPECT_DOUBLE_EQ(sum, 1.0);
  }
}

TEST_F(DefenseIntegration, VerificationPassesHarmlessPredictions) {
  fed::VflScenario scenario =
      fed::MakeTwoPartyScenario(dataset_.x, split_, &lr_);
  // Threshold 0: nothing is ever "too accurate", so scores pass through.
  auto defense = std::make_unique<VerificationDefense>(
      &lr_, split_, scenario.x_adv, scenario.x_target_ground_truth,
      /*mse_threshold=*/0.0);
  VerificationDefense* defense_ptr = defense.get();
  scenario.server->AddOutputDefense(std::move(defense));
  const la::Matrix all = scenario.CollectView().confidences;
  EXPECT_EQ(defense_ptr->num_suppressed(), 0u);
  EXPECT_LT(la::MaxAbsDiff(all, lr_.PredictProba(dataset_.x)), 1e-12);
}

TEST_F(DefenseIntegration, VerificationCursorResets) {
  fed::VflScenario scenario =
      fed::MakeTwoPartyScenario(dataset_.x, split_, &lr_);
  auto defense = std::make_unique<VerificationDefense>(
      &lr_, split_, scenario.x_adv, scenario.x_target_ground_truth, 1e-6);
  VerificationDefense* defense_ptr = defense.get();
  scenario.server->AddOutputDefense(std::move(defense));
  scenario.CollectView();
  defense_ptr->ResetCursor();
  // Would die without the reset.
  EXPECT_TRUE(scenario.server->Predict(scenario.client_id, 0).ok());
}

}  // namespace
}  // namespace vfl::defense
