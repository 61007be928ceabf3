#ifndef VFLFIA_MODELS_GBDT_H_
#define VFLFIA_MODELS_GBDT_H_

#include <memory>
#include <vector>

#include "data/dataset.h"
#include "models/model.h"

namespace vfl::models {

/// GBDT training hyper-parameters. Every regression tree keeps at least 2
/// samples per leaf, tries kMaxThresholdCandidates quantile midpoints per
/// feature, and regularizes its leaf values with L2 weight 1 (the lambda of
/// XGBoost-style leaves).
struct GbdtConfig {
  /// Boosting rounds (trees per class score).
  std::size_t num_rounds = 50;
  /// Depth of each regression tree (SecureBoost-style shallow trees).
  std::size_t max_depth = 3;
  /// Shrinkage applied to every tree's contribution.
  double learning_rate = 0.2;
};

/// One slot of a regression tree in the same full-binary-array layout as
/// DecisionTree (root 0, children 2i+1 / 2i+2); leaves carry real-valued
/// scores instead of class labels.
struct GbdtNode {
  bool present = false;
  bool is_leaf = false;
  int feature = -1;
  double threshold = 0.0;
  /// Leaf contribution to the additive score.
  double value = 0.0;
};

/// A single regression tree of the boosted ensemble.
struct GbdtTree {
  std::vector<GbdtNode> nodes;

  /// Additive score contribution for one sample.
  double Score(const double* x) const;
};

/// Gradient-boosted decision trees for classification — the model family of
/// SecureBoost (Cheng et al., reference [11] of the paper), the most widely
/// deployed vertical FL tree model. The paper's attack toolbox extends to it
/// directly: confidences are differentiable-free (piecewise-constant), so
/// GRNA attacks a distilled surrogate exactly as for random forests
/// (RfSurrogate::DistillConditioned works on any Model).
///
/// Binary classification boosts logistic loss with second-order (Newton)
/// leaf values; multi-class uses one-vs-rest score columns joined by
/// softmax.
class Gbdt : public Model {
 public:
  Gbdt() = default;

  /// Trains `config.num_rounds` trees per class score.
  void Fit(const data::Dataset& dataset, const GbdtConfig& config = {});

  void PredictProbaInto(const la::Matrix& x, la::Matrix* out) const override;
  std::unique_ptr<Model> Clone() const override {
    return std::make_unique<Gbdt>(*this);
  }
  std::size_t num_features() const override { return num_features_; }
  std::size_t num_classes() const override { return num_classes_; }

  /// Raw additive scores (n x c for multi-class, n x 1 for binary) before
  /// the link function.
  la::Matrix PredictScores(const la::Matrix& x) const;

  /// trees()[k] is the boosting chain for class-score k.
  const std::vector<std::vector<GbdtTree>>& trees() const { return trees_; }

 private:
  std::size_t num_score_columns() const { return trees_.size(); }

  std::vector<std::vector<GbdtTree>> trees_;
  std::vector<double> base_scores_;
  double learning_rate_ = 0.2;
  std::size_t num_features_ = 0;
  std::size_t num_classes_ = 0;
};

}  // namespace vfl::models

#endif  // VFLFIA_MODELS_GBDT_H_
