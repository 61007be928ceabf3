#include "models/decision_tree.h"

#include <cmath>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "data/synthetic.h"
#include "models/random_forest.h"
#include "models/rf_surrogate.h"
#include "nn/linear.h"

namespace vfl::models {
namespace {

bool BitwiseEqual(const la::Matrix& a, const la::Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// Every Linear weight and bias gradient of `network`, in layer order.
std::vector<la::Matrix> LinearGradients(const nn::Sequential& network) {
  std::vector<la::Matrix> grads;
  for (std::size_t i = 0; i < network.num_layers(); ++i) {
    if (const auto* linear =
            dynamic_cast<const nn::Linear*>(network.layer(i))) {
      grads.push_back(linear->weight().grad);
      grads.push_back(linear->bias().grad);
    }
  }
  return grads;
}

data::Dataset TreeFriendlyData(std::size_t n = 500, std::size_t classes = 3,
                               std::uint64_t seed = 21) {
  data::ClassificationSpec spec;
  spec.num_samples = n;
  spec.num_features = 8;
  spec.num_classes = classes;
  spec.num_informative = 5;
  spec.num_redundant = 2;
  spec.class_sep = 2.0;
  spec.seed = seed;
  return data::MakeClassification(spec);
}

TEST(DecisionTreeTest, FitsAndBeatsChance) {
  const data::Dataset d = TreeFriendlyData();
  DecisionTree tree;
  tree.Fit(d);
  EXPECT_GT(Accuracy(tree, d), 0.6);  // chance is 1/3
}

TEST(DecisionTreeTest, ArraySizeIsFullBinaryTree) {
  const data::Dataset d = TreeFriendlyData(200);
  DtConfig config;
  config.max_depth = 4;
  DecisionTree tree;
  tree.Fit(d, config);
  EXPECT_EQ(tree.nodes().size(), 31u);  // 2^(4+1) - 1
  EXPECT_EQ(tree.max_depth(), 4u);
}

TEST(DecisionTreeTest, LayoutInvariants) {
  const data::Dataset d = TreeFriendlyData();
  DecisionTree tree;
  tree.Fit(d);
  const std::vector<TreeNode>& nodes = tree.nodes();
  ASSERT_TRUE(nodes[0].present);
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (!nodes[i].present) {
      // Absent slots must not have present children.
      const std::size_t left = DecisionTree::LeftChild(i);
      if (left < nodes.size()) {
        EXPECT_FALSE(nodes[left].present);
        EXPECT_FALSE(nodes[left + 1].present);
      }
      continue;
    }
    if (nodes[i].is_leaf) {
      EXPECT_GE(nodes[i].label, 0);
      // Leaves have no present children.
      const std::size_t left = DecisionTree::LeftChild(i);
      if (left < nodes.size()) {
        EXPECT_FALSE(nodes[left].present);
        EXPECT_FALSE(nodes[left + 1].present);
      }
    } else {
      // Internal nodes reference a valid feature and have both children.
      EXPECT_GE(nodes[i].feature, 0);
      EXPECT_LT(static_cast<std::size_t>(nodes[i].feature), d.num_features());
      ASSERT_LT(DecisionTree::RightChild(i), nodes.size());
      EXPECT_TRUE(nodes[DecisionTree::LeftChild(i)].present);
      EXPECT_TRUE(nodes[DecisionTree::RightChild(i)].present);
    }
  }
}

TEST(DecisionTreeTest, ChildAndParentIndexing) {
  EXPECT_EQ(DecisionTree::LeftChild(0), 1u);
  EXPECT_EQ(DecisionTree::RightChild(0), 2u);
  EXPECT_EQ(DecisionTree::Parent(1), 0u);
  EXPECT_EQ(DecisionTree::Parent(2), 0u);
  EXPECT_EQ(DecisionTree::Parent(DecisionTree::LeftChild(7)), 7u);
}

TEST(DecisionTreeTest, PredictionPathIsRootToLeaf) {
  const data::Dataset d = TreeFriendlyData();
  DecisionTree tree;
  tree.Fit(d);
  for (std::size_t t = 0; t < 20; ++t) {
    const std::vector<std::size_t> path = tree.PredictionPath(d.x.RowPtr(t));
    ASSERT_FALSE(path.empty());
    EXPECT_EQ(path.front(), 0u);
    EXPECT_TRUE(tree.nodes()[path.back()].is_leaf);
    // Consecutive entries are parent/child, consistent with the comparison.
    for (std::size_t s = 0; s + 1 < path.size(); ++s) {
      const TreeNode& node = tree.nodes()[path[s]];
      ASSERT_FALSE(node.is_leaf);
      const bool left = d.x(t, node.feature) <= node.threshold;
      EXPECT_EQ(path[s + 1], left ? DecisionTree::LeftChild(path[s])
                                  : DecisionTree::RightChild(path[s]));
    }
    // Predicted label equals path leaf label.
    EXPECT_EQ(tree.PredictOne(d.x.RowPtr(t)),
              tree.nodes()[path.back()].label);
  }
}

TEST(DecisionTreeTest, ProbaIsOneHot) {
  const data::Dataset d = TreeFriendlyData(100);
  DecisionTree tree;
  tree.Fit(d);
  const la::Matrix probs = tree.PredictProba(d.x);
  for (std::size_t r = 0; r < probs.rows(); ++r) {
    double sum = 0.0;
    for (std::size_t c = 0; c < probs.cols(); ++c) {
      EXPECT_TRUE(probs(r, c) == 0.0 || probs(r, c) == 1.0);
      sum += probs(r, c);
    }
    EXPECT_DOUBLE_EQ(sum, 1.0);
  }
}

TEST(DecisionTreeTest, PureDataYieldsSingleLeaf) {
  data::Dataset d;
  d.x = la::Matrix(10, 2, 0.5);
  d.y.assign(10, 1);
  d.num_classes = 3;
  DecisionTree tree;
  tree.Fit(d);
  EXPECT_EQ(tree.NumPredictionPaths(), 1u);
  EXPECT_TRUE(tree.nodes()[0].is_leaf);
  EXPECT_EQ(tree.nodes()[0].label, 1);
}

TEST(DecisionTreeTest, DepthZeroIsMajorityVote) {
  data::Dataset d;
  d.x = la::Matrix{{0.1}, {0.2}, {0.9}};
  d.y = {0, 0, 1};
  d.num_classes = 2;
  DtConfig config;
  config.max_depth = 0;
  DecisionTree tree;
  tree.Fit(d, config);
  EXPECT_EQ(tree.PredictOne(d.x.RowPtr(2)), 0);  // majority class
}

TEST(DecisionTreeTest, SplitsOnObviousThreshold) {
  data::Dataset d;
  d.x = la::Matrix{{0.1, 0.5}, {0.2, 0.5}, {0.8, 0.5}, {0.9, 0.5}};
  d.y = {0, 0, 1, 1};
  d.num_classes = 2;
  DecisionTree tree;
  tree.Fit(d);
  // Root must split on feature 0 (feature 1 is constant).
  EXPECT_FALSE(tree.nodes()[0].is_leaf);
  EXPECT_EQ(tree.nodes()[0].feature, 0);
  EXPECT_GT(tree.nodes()[0].threshold, 0.2);
  EXPECT_LT(tree.nodes()[0].threshold, 0.8);
  EXPECT_DOUBLE_EQ(Accuracy(tree, d), 1.0);
}

TEST(DecisionTreeTest, LeafIndicesMatchPaths) {
  const data::Dataset d = TreeFriendlyData();
  DecisionTree tree;
  tree.Fit(d);
  EXPECT_EQ(tree.LeafIndices().size(), tree.NumPredictionPaths());
  EXPECT_GT(tree.NumPredictionPaths(), 1u);
  for (const std::size_t leaf : tree.LeafIndices()) {
    EXPECT_TRUE(tree.nodes()[leaf].present);
    EXPECT_TRUE(tree.nodes()[leaf].is_leaf);
  }
}

TEST(RandomForestTest, VoteFractionsSumToOne) {
  const data::Dataset d = TreeFriendlyData(300);
  RandomForest forest;
  RfConfig config;
  config.num_trees = 15;
  forest.Fit(d, config);
  const la::Matrix probs = forest.PredictProba(d.x.SliceRows(0, 20));
  for (std::size_t r = 0; r < probs.rows(); ++r) {
    double sum = 0.0;
    for (std::size_t c = 0; c < probs.cols(); ++c) {
      sum += probs(r, c);
      // Each entry is a multiple of 1/num_trees.
      const double scaled = probs(r, c) * 15.0;
      EXPECT_NEAR(scaled, std::round(scaled), 1e-9);
    }
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }
}

TEST(RandomForestTest, BeatsSingleChanceAccuracy) {
  const data::Dataset d = TreeFriendlyData(600, 3, 33);
  RandomForest forest;
  RfConfig config;
  config.num_trees = 25;
  forest.Fit(d, config);
  EXPECT_GT(Accuracy(forest, d), 0.6);
}

TEST(RandomForestTest, HasRequestedNumberOfTrees) {
  const data::Dataset d = TreeFriendlyData(200);
  RandomForest forest;
  RfConfig config;
  config.num_trees = 7;
  config.tree.max_depth = 2;
  forest.Fit(d, config);
  EXPECT_EQ(forest.trees().size(), 7u);
  for (const DecisionTree& tree : forest.trees()) {
    EXPECT_EQ(tree.max_depth(), 2u);
  }
}

TEST(RandomForestTest, DeterministicGivenSeed) {
  const data::Dataset d = TreeFriendlyData(200);
  RandomForest a, b;
  RfConfig config;
  config.num_trees = 5;
  a.Fit(d, config);
  b.Fit(d, config);
  EXPECT_TRUE(a.PredictProba(d.x) == b.PredictProba(d.x));
}

TEST(RandomForestTest, TreesDiffer) {
  const data::Dataset d = TreeFriendlyData(300);
  RandomForest forest;
  RfConfig config;
  config.num_trees = 8;
  forest.Fit(d, config);
  // Bootstrap + feature subsampling: not all trees identical.
  bool any_different = false;
  const auto& first = forest.trees().front().nodes();
  for (const DecisionTree& tree : forest.trees()) {
    if (!(tree.nodes()[0].feature == first[0].feature &&
          tree.nodes()[0].threshold == first[0].threshold)) {
      any_different = true;
    }
  }
  EXPECT_TRUE(any_different);
}

TEST(RfSurrogateTest, ApproximatesForestConfidences) {
  const data::Dataset d = TreeFriendlyData(400, 2, 55);
  RandomForest forest;
  RfConfig rf_config;
  rf_config.num_trees = 12;
  forest.Fit(d, rf_config);

  RfSurrogate surrogate;
  SurrogateConfig config;
  config.num_dummy_samples = 3000;
  config.hidden_sizes = {64, 32};
  config.train.epochs = 15;
  surrogate.Fit(forest, config);

  EXPECT_EQ(surrogate.num_features(), forest.num_features());
  EXPECT_EQ(surrogate.num_classes(), forest.num_classes());
  // Fidelity well below the trivial predictor (predicting 0.5 everywhere on
  // a 2-class problem has MSE >= ~0.05 against one-hot-ish vote fractions).
  EXPECT_LT(surrogate.FidelityMse(forest, 1000), 0.08);
}

TEST(RfSurrogateTest, ConditionedFitKeepsAdvColumns) {
  const data::Dataset d = TreeFriendlyData(300, 2, 56);
  RandomForest forest;
  RfConfig rf_config;
  rf_config.num_trees = 10;
  forest.Fit(d, rf_config);

  la::Matrix x_adv(50, 3);
  for (std::size_t i = 0; i < x_adv.size(); ++i) {
    x_adv.data()[i] = 0.25;  // recognizable constant
  }
  RfSurrogate surrogate;
  SurrogateConfig config;
  config.num_dummy_samples = 500;
  config.hidden_sizes = {16};
  config.train.epochs = 2;
  surrogate.FitConditioned(forest, {0, 2, 4}, x_adv, config);
  EXPECT_EQ(surrogate.num_features(), forest.num_features());
}

TEST(RfSurrogateTest, OutputsAreDistributions) {
  const data::Dataset d = TreeFriendlyData(200, 3, 57);
  RandomForest forest;
  RfConfig rf_config;
  rf_config.num_trees = 8;
  forest.Fit(d, rf_config);
  RfSurrogate surrogate;
  SurrogateConfig config;
  config.num_dummy_samples = 500;
  config.hidden_sizes = {16};
  config.train.epochs = 2;
  surrogate.Fit(forest, config);
  const la::Matrix probs = surrogate.PredictProba(d.x.SliceRows(0, 10));
  for (std::size_t r = 0; r < probs.rows(); ++r) {
    double sum = 0.0;
    for (std::size_t c = 0; c < probs.cols(); ++c) sum += probs(r, c);
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }
}

TEST(RfSurrogateTest, GradientFlowsToInput) {
  const data::Dataset d = TreeFriendlyData(200, 2, 58);
  RandomForest forest;
  RfConfig rf_config;
  rf_config.num_trees = 6;
  forest.Fit(d, rf_config);
  RfSurrogate surrogate;
  SurrogateConfig config;
  config.num_dummy_samples = 800;
  config.hidden_sizes = {32};
  config.train.epochs = 5;
  surrogate.Fit(forest, config);
  const la::Matrix x = d.x.SliceRows(0, 4);
  const la::Matrix probs = surrogate.ForwardDiff(x);
  const la::Matrix grad =
      surrogate.BackwardToInput(la::Matrix(probs.rows(), probs.cols(), 1.0));
  EXPECT_EQ(grad.rows(), x.rows());
  EXPECT_EQ(grad.cols(), x.cols());
}

TEST(RfSurrogateTest, BackwardToInputLeavesGradientsUntouched) {
  const data::Dataset d = TreeFriendlyData(200, 3, 59);
  RandomForest forest;
  RfConfig rf_config;
  rf_config.num_trees = 6;
  forest.Fit(d, rf_config);
  RfSurrogate surrogate;
  SurrogateConfig config;
  config.num_dummy_samples = 800;
  config.hidden_sizes = {32, 16};
  config.train.epochs = 3;
  surrogate.Fit(forest, config);
  const nn::Sequential& network = *surrogate.network();
  // Distillation leaves the last batch's gradients in place (not zero).
  const std::vector<la::Matrix> before = LinearGradients(network);
  ASSERT_EQ(before.size(), 6u);
  const la::Matrix x = d.x.SliceRows(0, 16);
  la::Matrix probe(16, 3);
  for (std::size_t i = 0; i < probe.size(); ++i) {
    probe.data()[i] = 0.25 * static_cast<double>(i % 7) - 0.5;
  }
  surrogate.ForwardDiff(x);
  const la::Matrix got = surrogate.BackwardToInput(probe);

  const std::vector<la::Matrix> after = LinearGradients(network);
  ASSERT_EQ(after.size(), before.size());
  for (std::size_t i = 0; i < after.size(); ++i) {
    EXPECT_TRUE(BitwiseEqual(after[i], before[i])) << "gradient " << i;
  }
  // The same input gradient as a full Backward through a copy of the net.
  nn::ModulePtr clone = network.Clone();
  clone->Forward(x);
  EXPECT_TRUE(BitwiseEqual(got, clone->Backward(probe)));
}

}  // namespace
}  // namespace vfl::models
