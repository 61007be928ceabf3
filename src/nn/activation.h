#ifndef VFLFIA_NN_ACTIVATION_H_
#define VFLFIA_NN_ACTIVATION_H_

#include <memory>

#include "nn/module.h"

namespace vfl::nn {

/// Element-wise logistic sigmoid, 1 / (1 + e^-x).
class Sigmoid : public Module {
 public:
  const la::Matrix& Forward(const la::Matrix& input) override;
  la::Matrix InferenceForward(const la::Matrix& input) const override;
  const la::Matrix& Backward(const la::Matrix& grad_output) override;
  ModulePtr Clone() const override { return std::make_unique<Sigmoid>(*this); }

 private:
  la::Matrix output_;
  la::Matrix grad_input_;
};

/// Element-wise rectified linear unit, max(0, x). Backward masks on the
/// output's sign, which is positive exactly where the input was.
class Relu : public Module {
 public:
  const la::Matrix& Forward(const la::Matrix& input) override;
  la::Matrix InferenceForward(const la::Matrix& input) const override;
  const la::Matrix& Backward(const la::Matrix& grad_output) override;
  ModulePtr Clone() const override { return std::make_unique<Relu>(*this); }

 private:
  la::Matrix output_;
  la::Matrix grad_input_;
};

/// Element-wise hyperbolic tangent.
class Tanh : public Module {
 public:
  const la::Matrix& Forward(const la::Matrix& input) override;
  la::Matrix InferenceForward(const la::Matrix& input) const override;
  const la::Matrix& Backward(const la::Matrix& grad_output) override;
  ModulePtr Clone() const override { return std::make_unique<Tanh>(*this); }

 private:
  la::Matrix output_;
  la::Matrix grad_input_;
};

/// Row-wise softmax: each row of the input (logits over classes) maps to a
/// probability distribution. Implemented with the max-subtraction trick for
/// numerical stability.
class Softmax : public Module {
 public:
  const la::Matrix& Forward(const la::Matrix& input) override;
  la::Matrix InferenceForward(const la::Matrix& input) const override;
  const la::Matrix& Backward(const la::Matrix& grad_output) override;
  ModulePtr Clone() const override { return std::make_unique<Softmax>(*this); }

 private:
  la::Matrix output_;
  la::Matrix grad_input_;
};

/// Numerically stable scalar sigmoid.
double SigmoidScalar(double x);

/// Row-wise softmax as a free function (used by non-layer code paths such as
/// multinomial LR prediction).
la::Matrix SoftmaxRows(const la::Matrix& logits);

/// Allocation-free softmax: `out` is resized and overwritten. `out == &logits`
/// is allowed (in-place).
void SoftmaxRowsInto(const la::Matrix& logits, la::Matrix* out);

}  // namespace vfl::nn

#endif  // VFLFIA_NN_ACTIVATION_H_
