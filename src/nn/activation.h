#ifndef VFLFIA_NN_ACTIVATION_H_
#define VFLFIA_NN_ACTIVATION_H_

#include <memory>

#include "nn/module.h"

namespace vfl::nn {

/// Base of the layers whose output has the input's shape (the activations
/// below and Dropout): an output buffer and an input-gradient buffer, each
/// sized to the batch by its Begin* call.
class ShapePreservingLayer : public Module {
 public:
  const la::Matrix& BeginForward(const la::Matrix& input) override {
    output_.Resize(input.rows(), input.cols());
    return output_;
  }
  const la::Matrix& BeginBackward(const la::Matrix& grad_output) override;

 protected:
  la::Matrix output_;
  la::Matrix grad_input_;
};

/// Element-wise logistic sigmoid, 1 / (1 + e^-x).
class Sigmoid : public ShapePreservingLayer {
 public:
  void ForwardRows(const la::Matrix& input, std::size_t r0,
                   std::size_t r1) override;
  void BackwardRows(const la::Matrix& grad_output, std::size_t r0,
                    std::size_t r1) override;
  la::Matrix InferenceForward(const la::Matrix& input) const override;
  ModulePtr Clone() const override { return std::make_unique<Sigmoid>(*this); }
};

/// Element-wise rectified linear unit, max(0, x). Backward masks on the
/// output's sign, which is positive exactly where the input was.
class Relu : public ShapePreservingLayer {
 public:
  void ForwardRows(const la::Matrix& input, std::size_t r0,
                   std::size_t r1) override;
  void BackwardRows(const la::Matrix& grad_output, std::size_t r0,
                    std::size_t r1) override;
  la::Matrix InferenceForward(const la::Matrix& input) const override;
  ModulePtr Clone() const override { return std::make_unique<Relu>(*this); }
};

/// Element-wise hyperbolic tangent.
class Tanh : public ShapePreservingLayer {
 public:
  void ForwardRows(const la::Matrix& input, std::size_t r0,
                   std::size_t r1) override;
  void BackwardRows(const la::Matrix& grad_output, std::size_t r0,
                    std::size_t r1) override;
  la::Matrix InferenceForward(const la::Matrix& input) const override;
  ModulePtr Clone() const override { return std::make_unique<Tanh>(*this); }
};

/// Row-wise softmax: each row of the input (logits over classes) maps to a
/// probability distribution. Implemented with the max-subtraction trick for
/// numerical stability.
class Softmax : public ShapePreservingLayer {
 public:
  void ForwardRows(const la::Matrix& input, std::size_t r0,
                   std::size_t r1) override;
  void BackwardRows(const la::Matrix& grad_output, std::size_t r0,
                    std::size_t r1) override;
  la::Matrix InferenceForward(const la::Matrix& input) const override;
  ModulePtr Clone() const override { return std::make_unique<Softmax>(*this); }
};

/// Numerically stable scalar sigmoid.
double SigmoidScalar(double x);

/// Row-wise softmax as a free function (used by non-layer code paths such as
/// multinomial LR prediction).
la::Matrix SoftmaxRows(const la::Matrix& logits);

/// Allocation-free softmax: `out` is resized and overwritten. `out == &logits`
/// is allowed (in-place).
void SoftmaxRowsInto(const la::Matrix& logits, la::Matrix* out);

/// Rows [r0, r1) of SoftmaxRowsInto into an already-sized `out` (which may
/// be `&logits`).
void SoftmaxRowRange(const la::Matrix& logits, std::size_t r0, std::size_t r1,
                     la::Matrix* out);

/// Rows [r0, r1) of the softmax backward pass: for each row,
/// grad_logits = s * (grad_proba - sum(grad_proba * s)), summed in column
/// order, into an already-sized `grad_logits`.
void SoftmaxBackwardRows(const la::Matrix& proba, const la::Matrix& grad_proba,
                         std::size_t r0, std::size_t r1,
                         la::Matrix* grad_logits);

}  // namespace vfl::nn

#endif  // VFLFIA_NN_ACTIVATION_H_
