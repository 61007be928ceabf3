#include "models/decision_tree.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "core/rng.h"
#include "data/synthetic.h"
#include "la/parallel.h"
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

/// Node arrays equal field by field, thresholds compared by their bits.
::testing::AssertionResult SameNodes(const std::vector<TreeNode>& got,
                                     const std::vector<TreeNode>& want) {
  if (got.size() != want.size()) {
    return ::testing::AssertionFailure()
           << got.size() << " slots, want " << want.size();
  }
  for (std::size_t i = 0; i < got.size(); ++i) {
    const TreeNode& a = got[i];
    const TreeNode& b = want[i];
    if (a.present != b.present || a.is_leaf != b.is_leaf ||
        a.feature != b.feature || a.label != b.label ||
        std::memcmp(&a.threshold, &b.threshold, sizeof(double)) != 0) {
      return ::testing::AssertionFailure()
             << "slot " << i << ": feature " << a.feature << " threshold "
             << a.threshold << " label " << a.label << ", want feature "
             << b.feature << " threshold " << b.threshold << " label "
             << b.label;
    }
  }
  return ::testing::AssertionSuccess();
}

::testing::AssertionResult SameForest(const RandomForest& got,
                                      const RandomForest& want) {
  if (got.trees().size() != want.trees().size()) {
    return ::testing::AssertionFailure()
           << got.trees().size() << " trees, want " << want.trees().size();
  }
  for (std::size_t t = 0; t < got.trees().size(); ++t) {
    const ::testing::AssertionResult same =
        SameNodes(got.trees()[t].nodes(), want.trees()[t].nodes());
    if (!same) {
      return ::testing::AssertionFailure()
             << "tree " << t << ", " << same.message();
    }
  }
  return ::testing::AssertionSuccess();
}

/// The split search DecisionTree used before its sorted sweep, kept as the
/// reference: every candidate threshold rescans every row of the node. The
/// recursion and the Rng draws are FitRows', so any difference between the
/// two node arrays comes from the split search.
class RescanTreeFitter {
 public:
  RescanTreeFitter(const data::Dataset& dataset, const DtConfig& config,
                    core::Rng& rng)
      : dataset_(dataset), config_(config), rng_(rng) {}

  std::vector<TreeNode> Build(const std::vector<std::size_t>& rows) {
    nodes_.assign((std::size_t{1} << (config_.max_depth + 1)) - 1,
                  TreeNode{});
    BuildNode(0, rows, 0);
    return nodes_;
  }

 private:
  static double Gini(const std::vector<std::size_t>& counts,
                     std::size_t total) {
    if (total == 0) return 0.0;
    double sum_sq = 0.0;
    for (const std::size_t count : counts) {
      const double p = static_cast<double>(count) / static_cast<double>(total);
      sum_sq += p * p;
    }
    return 1.0 - sum_sq;
  }

  void BuildNode(std::size_t index, const std::vector<std::size_t>& rows,
                 std::size_t depth) {
    TreeNode& node = nodes_[index];
    node.present = true;
    std::vector<std::size_t> counts(dataset_.num_classes, 0);
    for (const std::size_t r : rows) ++counts[dataset_.y[r]];
    const int majority = static_cast<int>(
        std::max_element(counts.begin(), counts.end()) - counts.begin());
    const bool pure = std::all_of(rows.begin(), rows.end(), [&](std::size_t r) {
      return dataset_.y[r] == dataset_.y[rows[0]];
    });
    int feature = -1;
    double threshold = 0.0;
    if (depth >= config_.max_depth || pure ||
        !FindBestSplit(rows, &feature, &threshold)) {
      node.is_leaf = true;
      node.label = majority;
      return;
    }
    node.feature = feature;
    node.threshold = threshold;
    std::vector<std::size_t> left, right;
    for (const std::size_t r : rows) {
      (dataset_.x(r, feature) <= threshold ? left : right).push_back(r);
    }
    BuildNode(DecisionTree::LeftChild(index), left, depth + 1);
    BuildNode(DecisionTree::RightChild(index), right, depth + 1);
  }

  bool FindBestSplit(const std::vector<std::size_t>& rows, int* best_feature,
                     double* best_threshold) {
    const std::size_t d = dataset_.num_features();
    const std::size_t c = dataset_.num_classes;
    std::vector<std::size_t> features;
    if (config_.max_features > 0 && config_.max_features < d) {
      features = rng_.SampleWithoutReplacement(d, config_.max_features);
    } else {
      features.resize(d);
      for (std::size_t j = 0; j < d; ++j) features[j] = j;
    }
    std::vector<std::size_t> parent_counts(c, 0);
    for (const std::size_t r : rows) ++parent_counts[dataset_.y[r]];
    const double parent_gini = Gini(parent_counts, rows.size());

    bool valid = false;
    double best_gain = 0.0;
    for (const std::size_t feature : features) {
      std::vector<double> values;
      for (const std::size_t r : rows) values.push_back(dataset_.x(r, feature));
      std::sort(values.begin(), values.end());
      values.erase(std::unique(values.begin(), values.end()), values.end());
      if (values.size() < 2) continue;
      const std::size_t num_gaps = values.size() - 1;
      const std::size_t num_candidates =
          std::min(num_gaps, kMaxThresholdCandidates);
      for (std::size_t k = 0; k < num_candidates; ++k) {
        const std::size_t gap = num_gaps <= kMaxThresholdCandidates
                                    ? k
                                    : k * num_gaps / num_candidates;
        const double threshold = 0.5 * (values[gap] + values[gap + 1]);
        std::vector<std::size_t> left_counts(c, 0);
        std::size_t left_total = 0;
        for (const std::size_t r : rows) {
          if (dataset_.x(r, feature) <= threshold) {
            ++left_counts[dataset_.y[r]];
            ++left_total;
          }
        }
        const std::size_t right_total = rows.size() - left_total;
        if (left_total < config_.min_samples_leaf ||
            right_total < config_.min_samples_leaf) {
          continue;
        }
        std::vector<std::size_t> right_counts(c);
        for (std::size_t cls = 0; cls < c; ++cls) {
          right_counts[cls] = parent_counts[cls] - left_counts[cls];
        }
        const double weighted_child_gini =
            (static_cast<double>(left_total) * Gini(left_counts, left_total) +
             static_cast<double>(right_total) *
                 Gini(right_counts, right_total)) /
            static_cast<double>(rows.size());
        const double gain = parent_gini - weighted_child_gini;
        if (gain > best_gain + 1e-12) {
          valid = true;
          *best_feature = static_cast<int>(feature);
          *best_threshold = threshold;
          best_gain = gain;
        }
      }
    }
    return valid;
  }

  const data::Dataset& dataset_;
  const DtConfig& config_;
  core::Rng& rng_;
  std::vector<TreeNode> nodes_;
};

/// Columns that corner the split search: a continuous one (more distinct
/// values than split candidates at the upper nodes), one on 4 levels (ties),
/// one on 20 levels (fewer gaps than candidates), one holding both x and
/// std::nextafter(x, 1.0) for 6 levels of x, one constant and one on two
/// levels. For at least three of the pair column's levels the midpoint of
/// the pair rounds onto the upper value, so a threshold there sends both
/// values left. The labels lean on every varying column, on the pairs'
/// upper/lower flag most.
data::Dataset SweepCornerData(std::size_t n, std::size_t classes,
                              std::uint64_t seed) {
  core::Rng rng(seed);
  data::Dataset d;
  d.x = la::Matrix(n, 6);
  d.y.resize(n);
  d.num_classes = classes;
  for (std::size_t i = 0; i < n; ++i) {
    const double u = rng.Uniform();
    const std::size_t level = rng.UniformInt(4);
    const std::size_t grade = rng.UniformInt(20);
    const std::size_t pair = rng.UniformInt(6);
    const bool upper = rng.Bernoulli(0.5);
    const bool high = rng.Bernoulli(0.3);
    double lower = 0.1 + 0.13 * static_cast<double>(pair);
    // An odd-mantissa lower value makes the pair's midpoint round (to even)
    // onto the upper one.
    if (pair % 2 == 0 &&
        0.5 * (lower + std::nextafter(lower, 1.0)) == lower) {
      lower = std::nextafter(lower, 1.0);
    }
    d.x(i, 0) = u;
    d.x(i, 1) = 0.2 * static_cast<double>(level) + 0.1;
    d.x(i, 2) = static_cast<double>(grade) / 20.0;
    d.x(i, 3) = upper ? std::nextafter(lower, 1.0) : lower;
    d.x(i, 4) = 0.5;
    d.x(i, 5) = high ? 2.0 : -1.0;
    std::size_t label = (upper ? 1 : 0) + level + (u > 0.5 ? 2 : 0) +
                        grade / 7 + (high ? 3 : 0);
    if (rng.Bernoulli(0.1)) label = rng.UniformInt(classes);
    d.y[i] = static_cast<int>(label % classes);
  }
  return d;
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

/// Rows for a tree: all of 0..n-1, a bootstrap draw, or every row repeated
/// 1 to 4 times (so some rows count 3 and 4 times in every node).
enum class RowDraw { kAll, kBootstrap, kRepeated };

std::vector<std::size_t> DrawRows(std::size_t n, RowDraw draw,
                                  std::uint64_t seed) {
  core::Rng rng(seed);
  std::vector<std::size_t> rows;
  for (std::size_t i = 0; i < n; ++i) {
    switch (draw) {
      case RowDraw::kAll:
        rows.push_back(i);
        break;
      case RowDraw::kBootstrap:
        rows.push_back(rng.UniformInt(n));
        break;
      case RowDraw::kRepeated:
        rows.insert(rows.end(), 1 + i % 4, i);
        break;
    }
  }
  return rows;
}

TEST(DecisionTreeTest, SweepMatchesRescan) {
  // The pair column really holds midpoints that land on an endpoint.
  const data::Dataset probe = SweepCornerData(400, 2, 1);
  std::vector<double> column(probe.num_samples());
  for (std::size_t i = 0; i < column.size(); ++i) column[i] = probe.x(i, 3);
  std::sort(column.begin(), column.end());
  column.erase(std::unique(column.begin(), column.end()), column.end());
  std::size_t rounded_up = 0;
  for (std::size_t i = 0; i + 1 < column.size(); ++i) {
    rounded_up += 0.5 * (column[i] + column[i + 1]) == column[i + 1];
  }
  ASSERT_GE(rounded_up, 3u);

  // A node walks the fit's sorted columns when it holds many of the fit's
  // rows and sorts its own rows when it holds few, so the depth-5 trees on
  // 40 and 400 rows and the deep trees on 800 rows run both searches.
  struct Case {
    std::size_t n, depth, min_leaf;
  };
  std::uint64_t seed = 100;
  for (const Case shape : {Case{40, 5, 1}, Case{40, 5, 7}, Case{400, 5, 1},
                           Case{400, 5, 7}, Case{800, 8, 1},
                           Case{800, 12, 1}}) {
    for (const std::size_t classes : {2, 5, 11}) {
      for (const std::size_t max_features : {0, 3}) {
        for (const RowDraw draw :
             {RowDraw::kAll, RowDraw::kBootstrap, RowDraw::kRepeated}) {
          ++seed;
          const data::Dataset d = SweepCornerData(shape.n, classes, seed);
          const std::vector<std::size_t> rows = DrawRows(shape.n, draw, seed);
          DtConfig config;
          config.max_depth = shape.depth;
          config.min_samples_leaf = shape.min_leaf;
          config.max_features = max_features;
          core::Rng sweep_rng(seed);
          core::Rng rescan_rng(seed);
          DecisionTree tree;
          tree.FitRows(d, rows, config, sweep_rng);
          const std::vector<TreeNode> want =
              RescanTreeFitter(d, config, rescan_rng).Build(rows);
          EXPECT_TRUE(SameNodes(tree.nodes(), want))
              << "n=" << shape.n << " depth=" << shape.depth
              << " min_leaf=" << shape.min_leaf << " c=" << classes
              << " max_features=" << max_features
              << " draw=" << static_cast<int>(draw);
          EXPECT_GT(tree.NumPredictionPaths(), 1u);
        }
      }
    }
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

TEST(RandomForestTest, SameForestForEveryThreadCount) {
  const data::Dataset d = TreeFriendlyData(400, 5, 61);
  RfConfig config;
  config.num_trees = 24;
  const std::size_t saved_threads = la::NumThreads();

  la::SetNumThreads(1);
  RandomForest serial;
  serial.Fit(d, config);
  for (const std::size_t threads : {2, 4}) {
    la::SetNumThreads(threads);
    RandomForest forest;
    forest.Fit(d, config);
    EXPECT_TRUE(SameForest(forest, serial)) << threads << " threads";
  }
  // Inside another ParallelFor chunk the trees fit serially on that thread.
  la::SetNumThreads(4);
  RandomForest nested;
  la::ParallelFor(0, 2, /*min_chunk=*/1, [&](std::size_t begin, std::size_t) {
    if (begin == 0) nested.Fit(d, config);
  });
  EXPECT_TRUE(SameForest(nested, serial)) << "inside a ParallelFor chunk";

  la::SetNumThreads(saved_threads);
}

TEST(RandomForestTest, TreesEqualTreesFitOneByOne) {
  // The forest's trees search one set of columns sorted over every row; a
  // tree fit alone through FitRows sorts its own, over its bootstrap rows.
  const data::Dataset d = SweepCornerData(300, 5, 71);
  RfConfig config;
  config.num_trees = 12;
  config.tree.max_depth = 6;
  DtConfig tree_config = config.tree;
  tree_config.max_features = 2;  // sqrt(6), as the forest picks
  core::Rng rng(config.seed);
  std::vector<DecisionTree> one_by_one;
  for (std::size_t t = 0; t < config.num_trees; ++t) {
    core::Rng tree_rng = rng.Fork();
    std::vector<std::size_t> rows(d.num_samples());
    for (std::size_t& r : rows) r = tree_rng.UniformInt(d.num_samples());
    one_by_one.emplace_back();
    one_by_one.back().FitRows(d, rows, tree_config, tree_rng);
  }
  const RandomForest want = RandomForest::FromTrees(one_by_one);

  const std::size_t saved_threads = la::NumThreads();
  for (const std::size_t threads : {1, 2, 4}) {
    la::SetNumThreads(threads);
    RandomForest forest;
    forest.Fit(d, config);
    EXPECT_TRUE(SameForest(forest, want)) << threads << " threads";
  }
  la::SetNumThreads(saved_threads);
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
