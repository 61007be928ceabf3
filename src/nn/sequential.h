#ifndef VFLFIA_NN_SEQUENTIAL_H_
#define VFLFIA_NN_SEQUENTIAL_H_

#include <memory>
#include <utility>
#include <vector>

#include "nn/module.h"

namespace vfl::nn {

/// Ordered container of layers; Forward runs front-to-back, Backward
/// back-to-front. Owns its children and no buffers of its own: each layer
/// reads the previous layer's buffer by reference, and the result is the
/// last layer's buffer (an empty Sequential returns its argument).
class Sequential : public Module {
 public:
  Sequential() = default;

  /// Appends a layer, returning a borrowed pointer for later inspection.
  template <typename LayerT, typename... Args>
  LayerT* Emplace(Args&&... args) {
    auto layer = std::make_unique<LayerT>(std::forward<Args>(args)...);
    LayerT* raw = layer.get();
    layers_.push_back(std::move(layer));
    return raw;
  }

  /// Appends an already-built layer.
  void Append(ModulePtr layer) { layers_.push_back(std::move(layer)); }

  const la::Matrix& Forward(const la::Matrix& input) override;
  la::Matrix InferenceForward(const la::Matrix& input) const override;
  const la::Matrix& Backward(const la::Matrix& grad_output) override;
  /// Backward through every layer but the first, which gets BackwardParams.
  void BackwardParams(const la::Matrix& grad_output) override;
  /// BackwardInput through every layer: no parameter gradient changes.
  const la::Matrix& BackwardInput(const la::Matrix& grad_output) override;
  std::vector<Parameter*> Parameters() override;
  void SetTraining(bool training) override;
  ModulePtr Clone() const override;

  std::size_t num_layers() const { return layers_.size(); }
  Module* layer(std::size_t i) { return layers_.at(i).get(); }
  const Module* layer(std::size_t i) const { return layers_.at(i).get(); }

 private:
  std::vector<ModulePtr> layers_;
};

}  // namespace vfl::nn

#endif  // VFLFIA_NN_SEQUENTIAL_H_
