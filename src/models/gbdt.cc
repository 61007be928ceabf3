#include "models/gbdt.h"

#include <algorithm>
#include <cmath>

#include "models/decision_tree.h"
#include "nn/activation.h"

namespace vfl::models {

double GbdtTree::Score(const double* x) const {
  DCHECK(!nodes.empty());
  std::size_t index = 0;
  while (true) {
    const GbdtNode& node = nodes[index];
    DCHECK(node.present);
    if (node.is_leaf) return node.value;
    index = x[node.feature] <= node.threshold ? 2 * index + 1 : 2 * index + 2;
  }
}

namespace {

/// Minimum samples per regression-tree leaf.
constexpr std::size_t kMinSamplesLeaf = 2;
/// L2 regularization on leaf values.
constexpr double kLeafL2 = 1.0;

/// Greedy second-order regression-tree builder over gradient/hessian pairs
/// (XGBoost-style structure scores).
class TreeBuilder {
 public:
  TreeBuilder(const la::Matrix& x, const std::vector<double>& grad,
              const std::vector<double>& hess, const GbdtConfig& config)
      : x_(x), grad_(grad), hess_(hess), config_(config) {}

  GbdtTree Build(const std::vector<std::size_t>& rows) {
    GbdtTree tree;
    tree.nodes.assign((std::size_t{1} << (config_.max_depth + 1)) - 1,
                      GbdtNode{});
    BuildNode(&tree, 0, rows, 0);
    return tree;
  }

 private:
  struct Split {
    bool valid = false;
    int feature = -1;
    double threshold = 0.0;
    double gain = 0.0;
  };

  double LeafValue(double sum_grad, double sum_hess) const {
    return -sum_grad / (sum_hess + kLeafL2);
  }

  double StructureScore(double sum_grad, double sum_hess) const {
    return sum_grad * sum_grad / (sum_hess + kLeafL2);
  }

  void BuildNode(GbdtTree* tree, std::size_t index,
                 const std::vector<std::size_t>& rows, std::size_t depth) {
    GbdtNode& node = tree->nodes[index];
    node.present = true;
    double sum_grad = 0.0, sum_hess = 0.0;
    for (const std::size_t r : rows) {
      sum_grad += grad_[r];
      sum_hess += hess_[r];
    }
    if (depth >= config_.max_depth ||
        rows.size() < 2 * kMinSamplesLeaf) {
      node.is_leaf = true;
      node.value = LeafValue(sum_grad, sum_hess);
      return;
    }
    const Split split = FindBestSplit(rows, sum_grad, sum_hess);
    if (!split.valid) {
      node.is_leaf = true;
      node.value = LeafValue(sum_grad, sum_hess);
      return;
    }
    node.feature = split.feature;
    node.threshold = split.threshold;
    std::vector<std::size_t> left, right;
    for (const std::size_t r : rows) {
      (x_(r, split.feature) <= split.threshold ? left : right).push_back(r);
    }
    BuildNode(tree, 2 * index + 1, left, depth + 1);
    BuildNode(tree, 2 * index + 2, right, depth + 1);
  }

  Split FindBestSplit(const std::vector<std::size_t>& rows, double sum_grad,
                      double sum_hess) const {
    Split best;
    const double parent_score = StructureScore(sum_grad, sum_hess);
    std::vector<double> values;
    for (std::size_t feature = 0; feature < x_.cols(); ++feature) {
      values.clear();
      for (const std::size_t r : rows) values.push_back(x_(r, feature));
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
        double left_grad = 0.0, left_hess = 0.0;
        std::size_t left_count = 0;
        for (const std::size_t r : rows) {
          if (x_(r, feature) <= threshold) {
            left_grad += grad_[r];
            left_hess += hess_[r];
            ++left_count;
          }
        }
        const std::size_t right_count = rows.size() - left_count;
        if (left_count < kMinSamplesLeaf || right_count < kMinSamplesLeaf) {
          continue;
        }
        const double gain = StructureScore(left_grad, left_hess) +
                            StructureScore(sum_grad - left_grad,
                                           sum_hess - left_hess) -
                            parent_score;
        if (gain > best.gain + 1e-12) {
          best.valid = true;
          best.feature = static_cast<int>(feature);
          best.threshold = threshold;
          best.gain = gain;
        }
      }
    }
    return best;
  }

  const la::Matrix& x_;
  const std::vector<double>& grad_;
  const std::vector<double>& hess_;
  const GbdtConfig& config_;
};

}  // namespace

void Gbdt::Fit(const data::Dataset& dataset, const GbdtConfig& config) {
  CHECK(dataset.Validate().ok()) << dataset.Validate().ToString();
  CHECK_GT(config.num_rounds, 0u);
  num_features_ = dataset.num_features();
  num_classes_ = dataset.num_classes;
  learning_rate_ = config.learning_rate;
  const std::size_t n = dataset.num_samples();

  // Binary: one boosted score column for P(class 1). Multi-class: one
  // one-vs-rest column per class.
  const std::size_t score_columns = num_classes_ == 2 ? 1 : num_classes_;
  trees_.assign(score_columns, {});
  base_scores_.assign(score_columns, 0.0);

  std::vector<std::size_t> all_rows(n);
  for (std::size_t i = 0; i < n; ++i) all_rows[i] = i;

  std::vector<double> grad(n), hess(n), scores(n);
  for (std::size_t k = 0; k < score_columns; ++k) {
    // Positive class for this score column.
    const int positive = score_columns == 1 ? 1 : static_cast<int>(k);
    std::size_t num_positive = 0;
    for (const int label : dataset.y) num_positive += label == positive;
    const double prior = std::clamp(
        static_cast<double>(num_positive) / static_cast<double>(n), 1e-6,
        1.0 - 1e-6);
    base_scores_[k] = std::log(prior / (1.0 - prior));
    std::fill(scores.begin(), scores.end(), base_scores_[k]);

    trees_[k].reserve(config.num_rounds);
    for (std::size_t round = 0; round < config.num_rounds; ++round) {
      for (std::size_t i = 0; i < n; ++i) {
        const double p = nn::SigmoidScalar(scores[i]);
        const double y = dataset.y[i] == positive ? 1.0 : 0.0;
        grad[i] = p - y;
        hess[i] = std::max(p * (1.0 - p), 1e-12);
      }
      TreeBuilder builder(dataset.x, grad, hess, config);
      GbdtTree tree = builder.Build(all_rows);
      for (std::size_t i = 0; i < n; ++i) {
        scores[i] += learning_rate_ * tree.Score(dataset.x.RowPtr(i));
      }
      trees_[k].push_back(std::move(tree));
    }
  }
}

la::Matrix Gbdt::PredictScores(const la::Matrix& x) const {
  CHECK(!trees_.empty()) << "PredictScores before Fit";
  CHECK_EQ(x.cols(), num_features_);
  la::Matrix scores(x.rows(), num_score_columns());
  for (std::size_t k = 0; k < num_score_columns(); ++k) {
    for (std::size_t r = 0; r < x.rows(); ++r) {
      double acc = base_scores_[k];
      for (const GbdtTree& tree : trees_[k]) {
        acc += learning_rate_ * tree.Score(x.RowPtr(r));
      }
      scores(r, k) = acc;
    }
  }
  return scores;
}

void Gbdt::PredictProbaInto(const la::Matrix& x, la::Matrix* out) const {
  const la::Matrix scores = PredictScores(x);
  if (num_classes_ == 2) {
    out->Resize(x.rows(), 2);
    for (std::size_t r = 0; r < x.rows(); ++r) {
      const double p1 = nn::SigmoidScalar(scores(r, 0));
      (*out)(r, 0) = 1.0 - p1;
      (*out)(r, 1) = p1;
    }
    return;
  }
  // One-vs-rest scores joined by softmax.
  nn::SoftmaxRowsInto(scores, out);
}

}  // namespace vfl::models
