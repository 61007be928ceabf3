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
///
/// Rows carry through every layer: ForwardRows runs rows [r0, r1) through
/// each layer in turn, BackwardRows back down again, so one lane can take a
/// range of the batch from input to input gradient. Parameter rows are the
/// layers' parameter rows, concatenated in layer order (the order of
/// Parameters()).
class Sequential : public Module {
 public:
  Sequential() = default;

  /// Appends a layer, returning a borrowed pointer for later inspection.
  template <typename LayerT, typename... Args>
  LayerT* Emplace(Args&&... args) {
    auto layer = std::make_unique<LayerT>(std::forward<Args>(args)...);
    LayerT* raw = layer.get();
    Append(std::move(layer));
    return raw;
  }

  /// Appends an already-built layer.
  void Append(ModulePtr layer);

  const la::Matrix& BeginForward(const la::Matrix& input) override;
  void ForwardRows(const la::Matrix& input, std::size_t r0,
                   std::size_t r1) override;
  const la::Matrix& BeginBackward(const la::Matrix& grad_output) override;
  /// BeginBackward for a caller that never reads dL/dInput: the first
  /// layer's input gradient is neither sized nor computed by BackwardRows.
  void BeginBackwardParams(const la::Matrix& grad_output);
  /// Runs rows [r0, r1) back through the layers BeginBackward (or
  /// BeginBackwardParams) sized, reading the gradients it recorded;
  /// `grad_output` must be the matrix that call got.
  void BackwardRows(const la::Matrix& grad_output, std::size_t r0,
                    std::size_t r1) override;
  std::size_t NumParamRows() const override;
  /// Reads the per-layer gradients of the last BeginBackward or
  /// BeginBackwardParams, whose rows BackwardRows must all have filled.
  void ParamGradRows(const la::Matrix& grad_output, std::size_t p0,
                     std::size_t p1) override;
  la::Matrix InferenceForward(const la::Matrix& input) const override;
  const la::Matrix& Backward(const la::Matrix& grad_output) override;
  /// Backward through every layer but the first, which gets BackwardParams.
  void BackwardParams(const la::Matrix& grad_output) override;
  std::vector<Parameter*> Parameters() override;
  void SetTraining(bool training) override;
  ModulePtr Clone() const override;

  std::size_t num_layers() const { return layers_.size(); }
  Module* layer(std::size_t i) { return layers_.at(i).get(); }
  const Module* layer(std::size_t i) const { return layers_.at(i).get(); }

 private:
  /// Sizes the gradient buffers of layers [first, end), last to first.
  const la::Matrix& BeginBackwardFrom(const la::Matrix& grad_output,
                                      std::size_t first);

  std::vector<ModulePtr> layers_;
  /// Per layer, the matrix its last ForwardRows read and the gradient its
  /// last BackwardRows/ParamGradRows read (the next layer's buffers).
  std::vector<const la::Matrix*> inputs_;
  std::vector<const la::Matrix*> grads_;
  /// Lowest layer whose input gradient BackwardRows computes.
  std::size_t first_grad_layer_ = 0;
};

}  // namespace vfl::nn

#endif  // VFLFIA_NN_SEQUENTIAL_H_
