#ifndef VFLFIA_NN_LAYER_NORM_H_
#define VFLFIA_NN_LAYER_NORM_H_

#include "nn/module.h"

namespace vfl::nn {

/// Layer normalization (Ba, Kiros, Hinton 2016): normalizes each sample
/// (row) to zero mean / unit variance over its features, then applies a
/// learned per-feature gain and bias. The paper's GRNA generator uses
/// LayerNorm after each hidden layer to stabilize training (Sec. VI-C).
class LayerNorm : public Module {
 public:
  explicit LayerNorm(std::size_t features, double epsilon = 1e-5);

  const la::Matrix& Forward(const la::Matrix& input) override;
  la::Matrix InferenceForward(const la::Matrix& input) const override;
  const la::Matrix& Backward(const la::Matrix& grad_output) override;
  /// The input gradient alone: skips the gain and bias sums.
  const la::Matrix& BackwardInput(const la::Matrix& grad_output) override;
  std::vector<Parameter*> Parameters() override { return {&gain_, &bias_}; }
  ModulePtr Clone() const override {
    return std::make_unique<LayerNorm>(*this);
  }

 private:
  Parameter gain_;  // 1 x features, initialized to 1
  Parameter bias_;  // 1 x features, initialized to 0
  double epsilon_;
  la::Matrix cached_normalized_;
  std::vector<double> cached_inv_stddev_;  // per row
  std::vector<double> row_mean_;           // per row, Forward's scratch
  la::Matrix output_;
  la::Matrix grad_input_;
};

}  // namespace vfl::nn

#endif  // VFLFIA_NN_LAYER_NORM_H_
