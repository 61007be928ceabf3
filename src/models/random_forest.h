#ifndef VFLFIA_MODELS_RANDOM_FOREST_H_
#define VFLFIA_MODELS_RANDOM_FOREST_H_

#include <memory>
#include <vector>

#include "models/decision_tree.h"

namespace vfl::models {

/// Random forest hyper-parameters. Paper defaults (Sec. VI-A): 100 trees of
/// depth 3.
struct RfConfig {
  std::size_t num_trees = 100;
  DtConfig tree;
  std::uint64_t seed = 42;

  RfConfig() { tree.max_depth = 3; }
};

/// Bagged ensemble of CART trees with feature subsampling. The confidence
/// score of class k is the fraction of trees voting k (Sec. II-A), which is
/// exactly what the GRNA-on-RF attack observes.
class RandomForest : public Model {
 public:
  RandomForest() = default;

  /// Trains `config.num_trees` trees, each on n rows drawn with replacement
  /// from the n training rows; per-split feature subsampling defaults to
  /// sqrt(d) when config.tree.max_features == 0.
  void Fit(const data::Dataset& dataset, const RfConfig& config = {});

  /// Assembles a forest from already-built trees (deserialization, tests).
  /// All trees must agree on feature and class counts.
  static RandomForest FromTrees(std::vector<DecisionTree> trees);

  /// Vote-fraction confidence scores.
  void PredictProbaInto(const la::Matrix& x, la::Matrix* out) const override;
  std::unique_ptr<Model> Clone() const override {
    return std::make_unique<RandomForest>(*this);
  }
  std::size_t num_features() const override { return num_features_; }
  std::size_t num_classes() const override { return num_classes_; }

  const std::vector<DecisionTree>& trees() const { return trees_; }

 private:
  std::vector<DecisionTree> trees_;
  std::size_t num_features_ = 0;
  std::size_t num_classes_ = 0;
};

}  // namespace vfl::models

#endif  // VFLFIA_MODELS_RANDOM_FOREST_H_
