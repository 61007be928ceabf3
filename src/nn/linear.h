#ifndef VFLFIA_NN_LINEAR_H_
#define VFLFIA_NN_LINEAR_H_

#include "core/rng.h"
#include "nn/module.h"

namespace vfl::nn {

/// Weight initialization schemes for Linear layers.
enum class Init {
  /// Xavier/Glorot uniform — good default for sigmoid/tanh networks.
  kXavier,
  /// He/Kaiming normal — good default for ReLU networks.
  kHe,
  /// All zeros (bias-only layers, tests).
  kZero,
};

/// Fully connected layer: output = input * W + b, with W of shape
/// (in_features x out_features) and b broadcast over the batch.
/// BackwardParams skips the dX = dY * W^T product; BackwardInput runs only
/// that product.
class Linear : public Module {
 public:
  /// Initializes W per `init` using `rng`; b starts at zero.
  Linear(std::size_t in_features, std::size_t out_features, core::Rng& rng,
         Init init = Init::kXavier);

  const la::Matrix& Forward(const la::Matrix& input) override;
  la::Matrix InferenceForward(const la::Matrix& input) const override;
  const la::Matrix& Backward(const la::Matrix& grad_output) override;
  void BackwardParams(const la::Matrix& grad_output) override;
  const la::Matrix& BackwardInput(const la::Matrix& grad_output) override;
  std::vector<Parameter*> Parameters() override { return {&weight_, &bias_}; }
  ModulePtr Clone() const override;

  std::size_t in_features() const { return weight_.value.rows(); }
  std::size_t out_features() const { return weight_.value.cols(); }

  Parameter& weight() { return weight_; }
  Parameter& bias() { return bias_; }
  const Parameter& weight() const { return weight_; }
  const Parameter& bias() const { return bias_; }

 private:
  Parameter weight_;
  Parameter bias_;  // 1 x out_features
  la::Matrix cached_input_;
  la::Matrix output_;
  la::Matrix grad_input_;
};

}  // namespace vfl::nn

#endif  // VFLFIA_NN_LINEAR_H_
