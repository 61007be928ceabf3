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

  const la::Matrix& BeginForward(const la::Matrix& input) override;
  void ForwardRows(const la::Matrix& input, std::size_t r0,
                   std::size_t r1) override;
  const la::Matrix& BeginBackward(const la::Matrix& grad_output) override;
  void BackwardRows(const la::Matrix& grad_output, std::size_t r0,
                    std::size_t r1) override;
  /// Row 0 is the gain, row 1 the bias.
  std::size_t NumParamRows() const override { return 2; }
  void ParamGradRows(const la::Matrix& grad_output, std::size_t p0,
                     std::size_t p1) override;
  la::Matrix InferenceForward(const la::Matrix& input) const override;
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
