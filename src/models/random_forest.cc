#include "models/random_forest.h"

#include <cmath>

#include "la/parallel.h"

namespace vfl::models {

void RandomForest::Fit(const data::Dataset& dataset, const RfConfig& config) {
  CHECK(dataset.Validate().ok()) << dataset.Validate().ToString();
  CHECK_GT(config.num_trees, 0u);
  num_features_ = dataset.num_features();
  num_classes_ = dataset.num_classes;

  DtConfig tree_config = config.tree;
  if (tree_config.max_features == 0) {
    tree_config.max_features = static_cast<std::size_t>(
        std::max(1.0, std::sqrt(static_cast<double>(num_features_))));
  }

  const std::size_t n = dataset.num_samples();
  std::vector<std::size_t> all_rows(n);
  for (std::size_t i = 0; i < n; ++i) all_rows[i] = i;
  // Sorted once, read by every tree.
  const DecisionTree::SortedColumns columns(dataset, all_rows);

  // Every tree's stream is forked in tree order before any tree grows, and
  // each chunk writes only its own trees, so the forest is the same for every
  // thread count (and serial inside another ParallelFor chunk).
  core::Rng rng(config.seed);
  std::vector<core::Rng> tree_rngs;
  tree_rngs.reserve(config.num_trees);
  for (std::size_t t = 0; t < config.num_trees; ++t) {
    tree_rngs.push_back(rng.Fork());
  }
  trees_.assign(config.num_trees, DecisionTree{});
  la::ParallelFor(0, config.num_trees, /*min_chunk=*/1,
                  [&](std::size_t begin, std::size_t end) {
                    std::vector<std::size_t> rows(n);
                    for (std::size_t t = begin; t < end; ++t) {
                      core::Rng& tree_rng = tree_rngs[t];
                      for (std::size_t i = 0; i < n; ++i) {
                        rows[i] = tree_rng.UniformInt(n);
                      }
                      trees_[t].FitSorted(dataset, rows, columns, tree_config,
                                          tree_rng);
                    }
                  });
}

RandomForest RandomForest::FromTrees(std::vector<DecisionTree> trees) {
  CHECK(!trees.empty());
  RandomForest forest;
  forest.num_features_ = trees.front().num_features();
  forest.num_classes_ = trees.front().num_classes();
  for (const DecisionTree& tree : trees) {
    CHECK_EQ(tree.num_features(), forest.num_features_);
    CHECK_EQ(tree.num_classes(), forest.num_classes_);
  }
  forest.trees_ = std::move(trees);
  return forest;
}

void RandomForest::PredictProbaInto(const la::Matrix& x,
                                    la::Matrix* out) const {
  CHECK(!trees_.empty()) << "PredictProba before Fit";
  CHECK_EQ(x.cols(), num_features_);
  la::Matrix& votes = *out;
  votes.Resize(x.rows(), num_classes_);
  votes.Fill(0.0);
  for (const DecisionTree& tree : trees_) {
    for (std::size_t r = 0; r < x.rows(); ++r) {
      votes(r, tree.PredictOne(x.RowPtr(r))) += 1.0;
    }
  }
  const double inv_trees = 1.0 / static_cast<double>(trees_.size());
  double* data = votes.data();
  for (std::size_t i = 0; i < votes.size(); ++i) data[i] *= inv_trees;
}

}  // namespace vfl::models
