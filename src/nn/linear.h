#ifndef VFLFIA_NN_LINEAR_H_
#define VFLFIA_NN_LINEAR_H_

#include <cstdint>

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
/// (in_features x out_features) and b broadcast over the batch. Parameter
/// rows are W's rows, then b. The input gradient (dX = dY * W^T) and the
/// parameter gradients are separate passes, so BackwardParams skips dX and
/// BackwardInput runs only dX.
///
/// ForwardRows copies its rows of the input for the weight gradient: the
/// whole-batch callers (tests, gradient checks) pass temporaries that die
/// before Backward, so the layer cannot keep a pointer instead.
///
/// A weight that held still since the previous backward pass (W's
/// Parameter::version unchanged: a frozen model) is transposed once, in
/// BeginBackward, and BackwardRows reads that stored W^T in place; a weight
/// that changed (a trained layer, on every step) has W^T packed per call.
/// Both routes feed the GEMM the same values in the same order, so dX has
/// the same bits either way. Clone() drops the stored copy.
class Linear : public Module {
 public:
  /// Initializes W per `init` using `rng`; b starts at zero.
  Linear(std::size_t in_features, std::size_t out_features, core::Rng& rng,
         Init init = Init::kXavier);

  const la::Matrix& BeginForward(const la::Matrix& input) override;
  void ForwardRows(const la::Matrix& input, std::size_t r0,
                   std::size_t r1) override;
  const la::Matrix& BeginBackward(const la::Matrix& grad_output) override;
  void BackwardRows(const la::Matrix& grad_output, std::size_t r0,
                    std::size_t r1) override;
  std::size_t NumParamRows() const override { return in_features() + 1; }
  void ParamGradRows(const la::Matrix& grad_output, std::size_t p0,
                     std::size_t p1) override;
  la::Matrix InferenceForward(const la::Matrix& input) const override;
  std::vector<Parameter*> Parameters() override { return {&weight_, &bias_}; }
  ModulePtr Clone() const override;

  std::size_t in_features() const { return weight_.value.rows(); }
  std::size_t out_features() const { return weight_.value.cols(); }

  Parameter& weight() { return weight_; }
  Parameter& bias() { return bias_; }
  const Parameter& weight() const { return weight_; }
  const Parameter& bias() const { return bias_; }

 private:
  /// No version: nothing stored, or no backward pass yet.
  static constexpr std::uint64_t kNoVersion = ~std::uint64_t{0};

  Parameter weight_;
  Parameter bias_;  // 1 x out_features
  la::Matrix cached_input_;
  la::Matrix output_;
  la::Matrix grad_input_;
  /// W^T as of weight version weight_t_version_, and W's version at the
  /// last BeginBackward.
  la::Matrix weight_t_;
  std::uint64_t weight_t_version_ = kNoVersion;
  std::uint64_t backward_version_ = kNoVersion;
};

}  // namespace vfl::nn

#endif  // VFLFIA_NN_LINEAR_H_
