#include "nn/activation.h"

#include <algorithm>
#include <cmath>

#include "la/matrix_ops.h"

namespace vfl::nn {

double SigmoidScalar(double x) {
  // Split on sign so the exponential never overflows.
  if (x >= 0.0) {
    return 1.0 / (1.0 + std::exp(-x));
  }
  const double e = std::exp(x);
  return e / (1.0 + e);
}

const la::Matrix& Sigmoid::Forward(const la::Matrix& input) {
  la::MapInto(input, SigmoidScalar, &output_);
  return output_;
}

la::Matrix Sigmoid::InferenceForward(const la::Matrix& input) const {
  return la::Map(input, SigmoidScalar);
}

const la::Matrix& Sigmoid::Backward(const la::Matrix& grad_output) {
  CHECK_EQ(grad_output.rows(), output_.rows());
  CHECK_EQ(grad_output.cols(), output_.cols());
  // d sigma = sigma * (1 - sigma).
  grad_input_.Resize(grad_output.rows(), grad_output.cols());
  const double* s = output_.data();
  const double* go = grad_output.data();
  double* g = grad_input_.data();
  for (std::size_t i = 0; i < grad_input_.size(); ++i) {
    g[i] = go[i] * (s[i] * (1.0 - s[i]));
  }
  return grad_input_;
}

const la::Matrix& Relu::Forward(const la::Matrix& input) {
  la::MapInto(input, [](double x) { return x > 0.0 ? x : 0.0; }, &output_);
  return output_;
}

la::Matrix Relu::InferenceForward(const la::Matrix& input) const {
  return la::Map(input, [](double x) { return x > 0.0 ? x : 0.0; });
}

const la::Matrix& Relu::Backward(const la::Matrix& grad_output) {
  CHECK_EQ(grad_output.rows(), output_.rows());
  CHECK_EQ(grad_output.cols(), output_.cols());
  // The output is > 0 exactly where the input was: Forward maps negatives,
  // -0.0 and NaN to +0.0. Both operands are loaded on every element, since
  // GCC does not if-convert a load guarded by the sign test and would leave
  // the loop scalar.
  grad_input_.Resize(grad_output.rows(), grad_output.cols());
  const double* y = output_.data();
  const double* go = grad_output.data();
  double* g = grad_input_.data();
  for (std::size_t i = 0; i < grad_input_.size(); ++i) {
    const double pass = go[i];
    g[i] = y[i] > 0.0 ? pass : 0.0;
  }
  return grad_input_;
}

const la::Matrix& Tanh::Forward(const la::Matrix& input) {
  la::MapInto(input, [](double x) { return std::tanh(x); }, &output_);
  return output_;
}

la::Matrix Tanh::InferenceForward(const la::Matrix& input) const {
  return la::Map(input, [](double x) { return std::tanh(x); });
}

const la::Matrix& Tanh::Backward(const la::Matrix& grad_output) {
  CHECK_EQ(grad_output.rows(), output_.rows());
  CHECK_EQ(grad_output.cols(), output_.cols());
  grad_input_.Resize(grad_output.rows(), grad_output.cols());
  const double* t = output_.data();
  const double* go = grad_output.data();
  double* g = grad_input_.data();
  for (std::size_t i = 0; i < grad_input_.size(); ++i) {
    g[i] = go[i] * (1.0 - t[i] * t[i]);
  }
  return grad_input_;
}

la::Matrix SoftmaxRows(const la::Matrix& logits) {
  la::Matrix out;
  SoftmaxRowsInto(logits, &out);
  return out;
}

void SoftmaxRowsInto(const la::Matrix& logits, la::Matrix* out) {
  if (out != &logits) out->Resize(logits.rows(), logits.cols());
  for (std::size_t r = 0; r < logits.rows(); ++r) {
    const double* src = logits.RowPtr(r);
    double* dst = out->RowPtr(r);
    const double row_max =
        *std::max_element(src, src + logits.cols());
    double denom = 0.0;
    for (std::size_t c = 0; c < logits.cols(); ++c) {
      dst[c] = std::exp(src[c] - row_max);
      denom += dst[c];
    }
    for (std::size_t c = 0; c < logits.cols(); ++c) dst[c] /= denom;
  }
}

const la::Matrix& Softmax::Forward(const la::Matrix& input) {
  SoftmaxRowsInto(input, &output_);
  return output_;
}

la::Matrix Softmax::InferenceForward(const la::Matrix& input) const {
  return SoftmaxRows(input);
}

const la::Matrix& Softmax::Backward(const la::Matrix& grad_output) {
  CHECK_EQ(grad_output.rows(), output_.rows());
  CHECK_EQ(grad_output.cols(), output_.cols());
  // dLogit_i = s_i * (dOut_i - sum_j dOut_j * s_j), per row.
  grad_input_.Resize(grad_output.rows(), grad_output.cols());
  for (std::size_t r = 0; r < grad_input_.rows(); ++r) {
    const double* s = output_.RowPtr(r);
    const double* go = grad_output.RowPtr(r);
    double* g = grad_input_.RowPtr(r);
    double inner = 0.0;
    for (std::size_t c = 0; c < grad_input_.cols(); ++c) inner += go[c] * s[c];
    for (std::size_t c = 0; c < grad_input_.cols(); ++c) {
      g[c] = s[c] * (go[c] - inner);
    }
  }
  return grad_input_;
}

}  // namespace vfl::nn
