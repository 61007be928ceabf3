#ifndef VFLFIA_MODELS_LOGISTIC_REGRESSION_H_
#define VFLFIA_MODELS_LOGISTIC_REGRESSION_H_

#include <memory>
#include <vector>

#include "data/dataset.h"
#include "models/model.h"

namespace vfl::models {

/// Training hyper-parameters for logistic regression.
struct LrConfig {
  std::size_t epochs = 50;
  std::size_t batch_size = 64;
  double learning_rate = 0.1;
  double weight_decay = 1e-4;
  std::uint64_t seed = 42;
};

/// Multinomial logistic regression: one linear model theta^(k) per class
/// followed by softmax (Sec. II-A of the paper). For c = 2 this is exactly
/// binary LR — softmax over two scores equals a sigmoid of their difference,
/// and BinaryEffectiveWeights()/BinaryEffectiveBias() expose that sigmoid
/// form for the equality solving attack's binary path (Eqn 3).
class LogisticRegression : public DifferentiableModel {
 public:
  /// Constructs an untrained model; Fit() before use.
  LogisticRegression() = default;

  /// Trains on `dataset` with mini-batch softmax cross-entropy.
  void Fit(const data::Dataset& dataset, const LrConfig& config = {});

  /// Directly installs parameters (tests, serialization, attack fixtures).
  /// `weights` is d x c, `bias` has c entries.
  void SetParameters(la::Matrix weights, std::vector<double> bias);

  void PredictProbaInto(const la::Matrix& x, la::Matrix* out) const override;
  std::size_t num_features() const override { return weights_.rows(); }
  std::size_t num_classes() const override { return weights_.cols(); }
  std::unique_ptr<Model> Clone() const override {
    return std::make_unique<LogisticRegression>(*this);
  }

  const la::Matrix& BeginForwardDiff(const la::Matrix& x) override;
  void ForwardDiffRows(const la::Matrix& x, std::size_t r0,
                       std::size_t r1) override;
  const la::Matrix& BeginBackwardToInput(const la::Matrix& grad_proba) override;
  void BackwardToInputRows(const la::Matrix& grad_proba, std::size_t r0,
                           std::size_t r1) override;

  /// Per-class weight matrix theta, d x c (column k = theta^(k)).
  const la::Matrix& weights() const { return weights_; }
  /// Per-class bias vector, size c.
  const std::vector<double>& bias() const { return bias_; }

  /// Weights of the equivalent binary sigmoid form theta = theta^(0) -
  /// theta^(1); only valid when num_classes() == 2.
  std::vector<double> BinaryEffectiveWeights() const;
  /// Bias of the equivalent binary sigmoid form.
  double BinaryEffectiveBias() const;

 private:
  void LogitsInto(const la::Matrix& x, la::Matrix* out) const;

  la::Matrix weights_;        // d x c
  /// weights_^T (c x d), set wherever weights_ is: the input gradient reads
  /// it in place instead of packing W^T per call.
  la::Matrix weights_t_;
  std::vector<double> bias_;  // c
  // ForwardDiff and BackwardToInput buffers.
  la::Matrix cached_proba_;
  la::Matrix grad_logits_;
  la::Matrix grad_input_;
};

}  // namespace vfl::models

#endif  // VFLFIA_MODELS_LOGISTIC_REGRESSION_H_
