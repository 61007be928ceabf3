#include "fed/multi_party.h"

#include <gtest/gtest.h>

#include "attack/esa.h"
#include "attack/grna.h"
#include "attack/metrics.h"
#include "core/rng.h"
#include "data/synthetic.h"
#include "fed/scenario.h"
#include "la/matrix_ops.h"
#include "models/logistic_regression.h"

namespace vfl::fed {
namespace {

data::Dataset MultiPartyData(std::size_t classes = 5) {
  data::ClassificationSpec spec;
  spec.num_samples = 400;
  spec.num_features = 12;
  spec.num_classes = classes;
  spec.num_informative = 6;
  spec.num_redundant = 4;
  spec.class_sep = 2.0;
  spec.seed = 61;
  return data::MakeClassification(spec);
}

TEST(EvenPartySpecsTest, PartitionsColumnsEvenly) {
  const std::vector<PartySpec> specs = EvenPartySpecs(10, 3);
  ASSERT_EQ(specs.size(), 3u);
  EXPECT_EQ(specs[0].columns.size(), 4u);  // remainder goes to the front
  EXPECT_EQ(specs[1].columns.size(), 3u);
  EXPECT_EQ(specs[2].columns.size(), 3u);
  EXPECT_EQ(specs[0].name, "active");
  // Contiguous and covering.
  std::size_t expected = 0;
  for (const PartySpec& spec : specs) {
    for (const std::size_t col : spec.columns) {
      EXPECT_EQ(col, expected++);
    }
  }
  EXPECT_EQ(expected, 10u);
}

class MultiPartyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dataset_ = MultiPartyData();
    lr_.Fit(dataset_);
    specs_ = EvenPartySpecs(dataset_.num_features(), 4);
  }

  data::Dataset dataset_;
  models::LogisticRegression lr_;
  std::vector<PartySpec> specs_;
};

TEST_F(MultiPartyTest, FourPartiesOneColluder) {
  // Active party alone vs three passive targets.
  MultiPartyFederation federation =
      MakeMultiPartyFederation(dataset_.x, specs_, {0}, &lr_);
  EXPECT_EQ(federation.parties.size(), 4u);
  EXPECT_EQ(federation.split.num_adv_features(), specs_[0].columns.size());
  EXPECT_EQ(federation.split.num_target_features(),
            dataset_.num_features() - specs_[0].columns.size());
}

TEST_F(MultiPartyTest, ServerMatchesDirectModel) {
  MultiPartyFederation federation =
      MakeMultiPartyFederation(dataset_.x, specs_, {0, 2}, &lr_);
  const la::Matrix joint = federation.CollectView().confidences;
  EXPECT_LT(la::MaxAbsDiff(joint, lr_.PredictProba(dataset_.x)), 1e-12);
}

TEST_F(MultiPartyTest, StrongestCollusionLeavesOneTarget) {
  // m-1 parties collude (the paper's strongest notion, Sec. III-B).
  MultiPartyFederation federation =
      MakeMultiPartyFederation(dataset_.x, specs_, {0, 1, 2}, &lr_);
  EXPECT_EQ(federation.split.num_target_features(),
            specs_[3].columns.size());
  // The merged adversary block equals the concatenated colluder columns.
  EXPECT_EQ(federation.x_adv.cols(), specs_[0].columns.size() +
                                         specs_[1].columns.size() +
                                         specs_[2].columns.size());
}

TEST_F(MultiPartyTest, EsaWorksAcrossPartyBoundaries) {
  // With c=5 and one 3-column target party, d_target <= c-1 -> exact.
  MultiPartyFederation federation =
      MakeMultiPartyFederation(dataset_.x, specs_, {0, 1, 2}, &lr_);
  const AdversaryView view = federation.CollectView();
  attack::EqualitySolvingAttack esa(&lr_);
  EXPECT_LT(attack::MsePerFeature(esa.Infer(view),
                                  federation.x_target_ground_truth),
            1e-9);
}

TEST_F(MultiPartyTest, MoreColludersNeverHurtEsa) {
  // Sweeping collusion from {0} to {0,1,2}: d_target shrinks and ESA error
  // is non-increasing (more equations knowledge, fewer unknowns).
  double previous = 1e9;
  for (const std::vector<std::size_t>& colluders :
       {std::vector<std::size_t>{0}, std::vector<std::size_t>{0, 1},
        std::vector<std::size_t>{0, 1, 2}}) {
    MultiPartyFederation federation =
        MakeMultiPartyFederation(dataset_.x, specs_, colluders, &lr_);
    const AdversaryView view = federation.CollectView();
    attack::EqualitySolvingAttack esa(&lr_);
    const double mse = attack::MsePerFeature(
        esa.Infer(view), federation.x_target_ground_truth);
    EXPECT_LE(mse, previous + 1e-9);
    previous = mse;
  }
}

TEST_F(MultiPartyTest, TryFactoryMatchesCheckingFactory) {
  core::StatusOr<MultiPartyFederation> tried =
      TryMakeMultiPartyFederation(dataset_.x, specs_, {0, 2}, &lr_);
  ASSERT_TRUE(tried.ok()) << tried.status().ToString();
  MultiPartyFederation checked =
      MakeMultiPartyFederation(dataset_.x, specs_, {0, 2}, &lr_);
  EXPECT_TRUE(tried->x_adv == checked.x_adv);
  EXPECT_TRUE(tried->x_target_ground_truth == checked.x_target_ground_truth);
  EXPECT_EQ(tried->parties.size(), checked.parties.size());
}

TEST_F(MultiPartyTest, TryFactoryRejectsMalformedInputs) {
  using core::StatusCode;
  // Fewer than two parties.
  EXPECT_EQ(TryMakeMultiPartyFederation(dataset_.x, {specs_[0]}, {0}, &lr_)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  // Colluders must include the active party.
  EXPECT_EQ(TryMakeMultiPartyFederation(dataset_.x, specs_, {1}, &lr_)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  // Duplicate colluder.
  EXPECT_EQ(TryMakeMultiPartyFederation(dataset_.x, specs_, {0, 0}, &lr_)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  // Colluder index out of range.
  EXPECT_EQ(TryMakeMultiPartyFederation(dataset_.x, specs_, {0, 9}, &lr_)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  // Everyone colludes: nobody left to attack.
  EXPECT_EQ(TryMakeMultiPartyFederation(dataset_.x, specs_, {0, 1, 2, 3},
                                        &lr_)
                .status()
                .code(),
            StatusCode::kFailedPrecondition);
  // Null model.
  EXPECT_EQ(TryMakeMultiPartyFederation(dataset_.x, specs_, {0}, nullptr)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  // Specs that don't cover the feature space.
  std::vector<PartySpec> partial = specs_;
  partial[3].columns.pop_back();
  EXPECT_EQ(TryMakeMultiPartyFederation(dataset_.x, partial, {0}, &lr_)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  // Overlapping ownership.
  std::vector<PartySpec> overlapping = specs_;
  overlapping[1].columns[0] = overlapping[0].columns[0];
  EXPECT_EQ(TryMakeMultiPartyFederation(dataset_.x, overlapping, {0}, &lr_)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST_F(MultiPartyTest, TwoPartyFederationMatchesScenarioHelper) {
  const std::vector<PartySpec> two = EvenPartySpecs(12, 2);
  MultiPartyFederation federation =
      MakeMultiPartyFederation(dataset_.x, two, {0}, &lr_);
  const FeatureSplit direct_split(two[0].columns, two[1].columns);
  VflScenario scenario =
      MakeTwoPartyScenario(dataset_.x, direct_split, &lr_);
  EXPECT_TRUE(federation.x_adv == scenario.x_adv);
  EXPECT_TRUE(federation.x_target_ground_truth ==
              scenario.x_target_ground_truth);
  EXPECT_LT(la::MaxAbsDiff(federation.CollectView().confidences,
                           scenario.CollectView().confidences),
            1e-15);
}

TEST_F(MultiPartyTest, ActivePartyMustCollude) {
  EXPECT_DEATH(
      MakeMultiPartyFederation(dataset_.x, specs_, {1, 2}, &lr_),
      "active party");
}

TEST_F(MultiPartyTest, EveryoneColludingDies) {
  EXPECT_DEATH(
      MakeMultiPartyFederation(dataset_.x, specs_, {0, 1, 2, 3}, &lr_),
      "target");
}

TEST_F(MultiPartyTest, DuplicateColluderDies) {
  EXPECT_DEATH(MakeMultiPartyFederation(dataset_.x, specs_, {0, 1, 1}, &lr_),
               "duplicate");
}

TEST_F(MultiPartyTest, OverlappingSpecsDie) {
  std::vector<PartySpec> bad = specs_;
  bad[1].columns.push_back(bad[0].columns[0]);  // overlap
  EXPECT_DEATH(MakeMultiPartyFederation(dataset_.x, bad, {0}, &lr_), "");
}

}  // namespace
}  // namespace vfl::fed
