#include "models/mlp.h"

#include "core/rng.h"
#include "nn/dropout.h"
#include "nn/linear.h"

namespace vfl::models {

void MlpClassifier::Fit(const data::Dataset& dataset,
                        const MlpConfig& config) {
  CHECK(dataset.Validate().ok()) << dataset.Validate().ToString();
  num_features_ = dataset.num_features();
  num_classes_ = dataset.num_classes;

  core::Rng rng(config.train.seed);
  network_ = std::make_unique<nn::Sequential>();
  std::size_t width = num_features_;
  for (const std::size_t hidden : config.hidden_sizes) {
    network_->Emplace<nn::Linear>(width, hidden, rng, nn::Init::kHe);
    network_->Emplace<nn::Relu>();
    if (config.dropout_rate > 0.0) {
      network_->Emplace<nn::Dropout>(config.dropout_rate, rng);
    }
    width = hidden;
  }
  network_->Emplace<nn::Linear>(width, num_classes_, rng, nn::Init::kXavier);

  training_history_ =
      nn::TrainSoftmaxClassifier(*network_, dataset.x, dataset.y, config.train);
  network_->SetTraining(false);
}

void MlpClassifier::PredictProbaInto(const la::Matrix& x,
                                     la::Matrix* out) const {
  CHECK(network_ != nullptr) << "PredictProba before Fit";
  CHECK_EQ(x.cols(), num_features_);
  // The cache-free const forward keeps concurrent predictions safe: the
  // serving subsystem's workers share one model object across threads.
  nn::SoftmaxRowsInto(network_->InferenceForward(x), out);
}

void MlpClassifier::SetParameters(
    std::vector<la::Matrix> weights,
    std::vector<std::vector<double>> biases) {
  CHECK(!weights.empty());
  CHECK_EQ(weights.size(), biases.size());
  for (std::size_t i = 0; i < weights.size(); ++i) {
    CHECK_EQ(weights[i].cols(), biases[i].size());
    if (i > 0) CHECK_EQ(weights[i - 1].cols(), weights[i].rows());
  }
  num_features_ = weights.front().rows();
  num_classes_ = weights.back().cols();

  core::Rng rng(0);  // placeholder init, overwritten below
  network_ = std::make_unique<nn::Sequential>();
  for (std::size_t i = 0; i < weights.size(); ++i) {
    nn::Linear* linear = network_->Emplace<nn::Linear>(
        weights[i].rows(), weights[i].cols(), rng, nn::Init::kZero);
    linear->weight().value = std::move(weights[i]);
    linear->weight().BumpVersion();
    for (std::size_t c = 0; c < biases[i].size(); ++c) {
      linear->bias().value(0, c) = biases[i][c];
    }
    linear->bias().BumpVersion();
    if (i + 1 < weights.size()) network_->Emplace<nn::Relu>();
  }
  network_->SetTraining(false);
  training_history_.clear();
}

std::unique_ptr<Model> MlpClassifier::Clone() const {
  auto clone = std::make_unique<MlpClassifier>();
  if (network_ != nullptr) {
    nn::ModulePtr net = network_->Clone();
    clone->network_.reset(static_cast<nn::Sequential*>(net.release()));
  }
  clone->num_features_ = num_features_;
  clone->num_classes_ = num_classes_;
  clone->training_history_ = training_history_;
  return clone;
}

const la::Matrix& MlpClassifier::BeginForwardDiff(const la::Matrix& x) {
  CHECK(network_ != nullptr) << "ForwardDiff before Fit";
  logits_ = &network_->BeginForward(x);
  return softmax_.BeginForward(*logits_);
}

void MlpClassifier::ForwardDiffRows(const la::Matrix& x, std::size_t r0,
                                    std::size_t r1) {
  network_->ForwardRows(x, r0, r1);
  softmax_.ForwardRows(*logits_, r0, r1);
}

const la::Matrix& MlpClassifier::BeginBackwardToInput(
    const la::Matrix& grad_proba) {
  CHECK(network_ != nullptr) << "BackwardToInput before ForwardDiff";
  grad_logits_ = &softmax_.BeginBackward(grad_proba);
  return network_->BeginBackward(*grad_logits_);
}

void MlpClassifier::BackwardToInputRows(const la::Matrix& grad_proba,
                                        std::size_t r0, std::size_t r1) {
  softmax_.BackwardRows(grad_proba, r0, r1);
  network_->BackwardRows(*grad_logits_, r0, r1);
}

}  // namespace vfl::models
