#include "nn/sequential.h"

namespace vfl::nn {

const la::Matrix& Sequential::Forward(const la::Matrix& input) {
  const la::Matrix* activation = &input;
  for (const ModulePtr& layer : layers_) {
    activation = &layer->Forward(*activation);
  }
  return *activation;
}

la::Matrix Sequential::InferenceForward(const la::Matrix& input) const {
  la::Matrix activation = input;
  for (const ModulePtr& layer : layers_) {
    activation = layer->InferenceForward(activation);
  }
  return activation;
}

const la::Matrix& Sequential::Backward(const la::Matrix& grad_output) {
  const la::Matrix* grad = &grad_output;
  for (auto it = layers_.rbegin(); it != layers_.rend(); ++it) {
    grad = &(*it)->Backward(*grad);
  }
  return *grad;
}

void Sequential::BackwardParams(const la::Matrix& grad_output) {
  if (layers_.empty()) return;
  const la::Matrix* grad = &grad_output;
  for (std::size_t i = layers_.size() - 1; i > 0; --i) {
    grad = &layers_[i]->Backward(*grad);
  }
  layers_.front()->BackwardParams(*grad);
}

const la::Matrix& Sequential::BackwardInput(const la::Matrix& grad_output) {
  const la::Matrix* grad = &grad_output;
  for (auto it = layers_.rbegin(); it != layers_.rend(); ++it) {
    grad = &(*it)->BackwardInput(*grad);
  }
  return *grad;
}

std::vector<Parameter*> Sequential::Parameters() {
  std::vector<Parameter*> params;
  for (const ModulePtr& layer : layers_) {
    for (Parameter* p : layer->Parameters()) params.push_back(p);
  }
  return params;
}

void Sequential::SetTraining(bool training) {
  for (const ModulePtr& layer : layers_) layer->SetTraining(training);
}

ModulePtr Sequential::Clone() const {
  auto clone = std::make_unique<Sequential>();
  for (const ModulePtr& layer : layers_) clone->Append(layer->Clone());
  return clone;
}

}  // namespace vfl::nn
