#include "nn/sequential.h"

#include <algorithm>

namespace vfl::nn {

void Sequential::Append(ModulePtr layer) {
  layers_.push_back(std::move(layer));
  inputs_.resize(layers_.size(), nullptr);
  grads_.resize(layers_.size(), nullptr);
}

const la::Matrix& Sequential::BeginForward(const la::Matrix& input) {
  const la::Matrix* activation = &input;
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    inputs_[i] = activation;
    activation = &layers_[i]->BeginForward(*activation);
  }
  return *activation;
}

void Sequential::ForwardRows(const la::Matrix& /*input*/, std::size_t r0,
                             std::size_t r1) {
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    layers_[i]->ForwardRows(*inputs_[i], r0, r1);
  }
}

la::Matrix Sequential::InferenceForward(const la::Matrix& input) const {
  la::Matrix activation = input;
  for (const ModulePtr& layer : layers_) {
    activation = layer->InferenceForward(activation);
  }
  return activation;
}

const la::Matrix& Sequential::BeginBackwardFrom(const la::Matrix& grad_output,
                                                std::size_t first) {
  first_grad_layer_ = first;
  const la::Matrix* grad = &grad_output;
  for (std::size_t i = layers_.size(); i-- > 0;) {
    grads_[i] = grad;
    if (i >= first) grad = &layers_[i]->BeginBackward(*grad);
  }
  return *grad;
}

const la::Matrix& Sequential::BeginBackward(const la::Matrix& grad_output) {
  return BeginBackwardFrom(grad_output, 0);
}

void Sequential::BeginBackwardParams(const la::Matrix& grad_output) {
  // A nested Sequential's parameter gradients need its own input-gradient
  // chain, so only a plain first layer skips it.
  const bool nested = !layers_.empty() &&
                      dynamic_cast<Sequential*>(layers_.front().get());
  BeginBackwardFrom(grad_output, nested ? 0 : 1);
}

void Sequential::BackwardRows(const la::Matrix& /*grad_output*/,
                              std::size_t r0, std::size_t r1) {
  for (std::size_t i = layers_.size(); i-- > first_grad_layer_;) {
    layers_[i]->BackwardRows(*grads_[i], r0, r1);
  }
}

std::size_t Sequential::NumParamRows() const {
  std::size_t rows = 0;
  for (const ModulePtr& layer : layers_) rows += layer->NumParamRows();
  return rows;
}

void Sequential::ParamGradRows(const la::Matrix& /*grad_output*/,
                               std::size_t p0, std::size_t p1) {
  std::size_t first = 0;  // the current layer's first parameter row
  for (std::size_t i = 0; i < layers_.size() && first < p1; ++i) {
    const std::size_t rows = layers_[i]->NumParamRows();
    if (first + rows > p0 && rows > 0) {
      layers_[i]->ParamGradRows(*grads_[i], std::max(p0, first) - first,
                                std::min(p1, first + rows) - first);
    }
    first += rows;
  }
}

const la::Matrix& Sequential::Backward(const la::Matrix& grad_output) {
  const la::Matrix& grad_input = BeginBackward(grad_output);
  BackwardRows(grad_output, 0, grad_output.rows());
  ParamGradRows(grad_output, 0, NumParamRows());
  return grad_input;
}

void Sequential::BackwardParams(const la::Matrix& grad_output) {
  BeginBackwardParams(grad_output);
  BackwardRows(grad_output, 0, grad_output.rows());
  ParamGradRows(grad_output, 0, NumParamRows());
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
