#ifndef VFLFIA_MODELS_MLP_H_
#define VFLFIA_MODELS_MLP_H_

#include <memory>
#include <vector>

#include "data/dataset.h"
#include "models/model.h"
#include "nn/activation.h"
#include "nn/sequential.h"
#include "nn/trainer.h"

namespace vfl::models {

/// MLP classifier hyper-parameters. The paper's VFL NN has hidden layers
/// (600, 300, 100) with ReLU (Sec. VI-A); benches shrink these at
/// --scale=small.
struct MlpConfig {
  std::vector<std::size_t> hidden_sizes = {600, 300, 100};
  /// Dropout rate after each hidden activation; 0 disables (the Section VII
  /// countermeasure turns this on).
  double dropout_rate = 0.0;
  nn::TrainConfig train;
};

/// Feed-forward neural network classifier built on the nn engine. The
/// internal Sequential outputs logits; confidence scores go through a
/// Softmax layer so that GRNA can back-propagate all the way from the
/// confidence-score loss to the model input.
class MlpClassifier : public DifferentiableModel {
 public:
  MlpClassifier() = default;

  /// Builds the layer stack and trains with softmax cross-entropy.
  void Fit(const data::Dataset& dataset, const MlpConfig& config = {});

  void PredictProbaInto(const la::Matrix& x, la::Matrix* out) const override;
  std::size_t num_features() const override { return num_features_; }
  std::size_t num_classes() const override { return num_classes_; }
  std::unique_ptr<Model> Clone() const override;

  const la::Matrix& BeginForwardDiff(const la::Matrix& x) override;
  void ForwardDiffRows(const la::Matrix& x, std::size_t r0,
                       std::size_t r1) override;
  const la::Matrix& BeginBackwardToInput(const la::Matrix& grad_proba) override;
  void BackwardToInputRows(const la::Matrix& grad_proba, std::size_t r0,
                           std::size_t r1) override;

  /// Rebuilds the inference network from explicit layer parameters — the
  /// serialization hand-over path (models/serialize.h). `weights[i]` is the
  /// i-th Linear's (in x out) weight matrix, `biases[i]` its out-feature
  /// bias; hidden layers get ReLU, the last entry is the logits head.
  /// CHECK-fails on an inconsistent shape chain (callers validate first).
  void SetParameters(std::vector<la::Matrix> weights,
                     std::vector<std::vector<double>> biases);

  /// The trained layer stack (null before Fit/SetParameters); serialization
  /// walks it for the Linear parameters.
  const nn::Sequential* network() const { return network_.get(); }

  /// Mean training loss per epoch from the last Fit.
  const std::vector<nn::EpochStats>& training_history() const {
    return training_history_;
  }

 private:
  std::unique_ptr<nn::Sequential> network_;  // logits head
  nn::Softmax softmax_;
  const la::Matrix* logits_ = nullptr;       // network_'s output buffer
  const la::Matrix* grad_logits_ = nullptr;  // softmax_'s input gradient
  std::size_t num_features_ = 0;
  std::size_t num_classes_ = 0;
  std::vector<nn::EpochStats> training_history_;
};

}  // namespace vfl::models

#endif  // VFLFIA_MODELS_MLP_H_
