#include "nn/activation.h"

#include <algorithm>
#include <cmath>

#include "la/matrix_ops.h"

namespace vfl::nn {

namespace {

/// out[i] = fn(in[i]) over the elements of rows [r0, r1).
template <typename Fn>
void MapRows(const la::Matrix& in, std::size_t r0, std::size_t r1, Fn fn,
             la::Matrix* out) {
  const double* src = in.data();
  double* dst = out->data();
  for (std::size_t i = r0 * in.cols(); i < r1 * in.cols(); ++i) {
    dst[i] = fn(src[i]);
  }
}

double ReluScalar(double x) { return x > 0.0 ? x : 0.0; }

double TanhScalar(double x) { return std::tanh(x); }

}  // namespace

const la::Matrix& ShapePreservingLayer::BeginBackward(
    const la::Matrix& grad_output) {
  CHECK_EQ(grad_output.rows(), output_.rows());
  CHECK_EQ(grad_output.cols(), output_.cols());
  grad_input_.Resize(grad_output.rows(), grad_output.cols());
  return grad_input_;
}

double SigmoidScalar(double x) {
  // Split on sign so the exponential never overflows.
  if (x >= 0.0) {
    return 1.0 / (1.0 + std::exp(-x));
  }
  const double e = std::exp(x);
  return e / (1.0 + e);
}

void Sigmoid::ForwardRows(const la::Matrix& input, std::size_t r0,
                          std::size_t r1) {
  MapRows(input, r0, r1, SigmoidScalar, &output_);
}

la::Matrix Sigmoid::InferenceForward(const la::Matrix& input) const {
  return la::Map(input, SigmoidScalar);
}

void Sigmoid::BackwardRows(const la::Matrix& grad_output, std::size_t r0,
                           std::size_t r1) {
  // d sigma = sigma * (1 - sigma).
  const double* s = output_.data();
  const double* go = grad_output.data();
  double* g = grad_input_.data();
  for (std::size_t i = r0 * output_.cols(); i < r1 * output_.cols(); ++i) {
    g[i] = go[i] * (s[i] * (1.0 - s[i]));
  }
}

void Relu::ForwardRows(const la::Matrix& input, std::size_t r0,
                       std::size_t r1) {
  MapRows(input, r0, r1, ReluScalar, &output_);
}

la::Matrix Relu::InferenceForward(const la::Matrix& input) const {
  return la::Map(input, ReluScalar);
}

void Relu::BackwardRows(const la::Matrix& grad_output, std::size_t r0,
                        std::size_t r1) {
  // The output is > 0 exactly where the input was: Forward maps negatives,
  // -0.0 and NaN to +0.0. Both operands are loaded on every element, since
  // GCC does not if-convert a load guarded by the sign test and would leave
  // the loop scalar.
  const double* y = output_.data();
  const double* go = grad_output.data();
  double* g = grad_input_.data();
  for (std::size_t i = r0 * output_.cols(); i < r1 * output_.cols(); ++i) {
    const double pass = go[i];
    g[i] = y[i] > 0.0 ? pass : 0.0;
  }
}

void Tanh::ForwardRows(const la::Matrix& input, std::size_t r0,
                       std::size_t r1) {
  MapRows(input, r0, r1, TanhScalar, &output_);
}

la::Matrix Tanh::InferenceForward(const la::Matrix& input) const {
  return la::Map(input, TanhScalar);
}

void Tanh::BackwardRows(const la::Matrix& grad_output, std::size_t r0,
                        std::size_t r1) {
  const double* t = output_.data();
  const double* go = grad_output.data();
  double* g = grad_input_.data();
  for (std::size_t i = r0 * output_.cols(); i < r1 * output_.cols(); ++i) {
    g[i] = go[i] * (1.0 - t[i] * t[i]);
  }
}

la::Matrix SoftmaxRows(const la::Matrix& logits) {
  la::Matrix out;
  SoftmaxRowsInto(logits, &out);
  return out;
}

void SoftmaxRowsInto(const la::Matrix& logits, la::Matrix* out) {
  if (out != &logits) out->Resize(logits.rows(), logits.cols());
  SoftmaxRowRange(logits, 0, logits.rows(), out);
}

void SoftmaxRowRange(const la::Matrix& logits, std::size_t r0, std::size_t r1,
                     la::Matrix* out) {
  for (std::size_t r = r0; r < r1; ++r) {
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

void SoftmaxBackwardRows(const la::Matrix& proba, const la::Matrix& grad_proba,
                         std::size_t r0, std::size_t r1,
                         la::Matrix* grad_logits) {
  CHECK_EQ(grad_proba.rows(), proba.rows());
  CHECK_EQ(grad_proba.cols(), proba.cols());
  // dLogit_i = s_i * (dOut_i - sum_j dOut_j * s_j), per row.
  for (std::size_t r = r0; r < r1; ++r) {
    const double* s = proba.RowPtr(r);
    const double* go = grad_proba.RowPtr(r);
    double* g = grad_logits->RowPtr(r);
    double inner = 0.0;
    for (std::size_t c = 0; c < proba.cols(); ++c) inner += go[c] * s[c];
    for (std::size_t c = 0; c < proba.cols(); ++c) {
      g[c] = s[c] * (go[c] - inner);
    }
  }
}

void Softmax::ForwardRows(const la::Matrix& input, std::size_t r0,
                          std::size_t r1) {
  SoftmaxRowRange(input, r0, r1, &output_);
}

la::Matrix Softmax::InferenceForward(const la::Matrix& input) const {
  return SoftmaxRows(input);
}

void Softmax::BackwardRows(const la::Matrix& grad_output, std::size_t r0,
                           std::size_t r1) {
  SoftmaxBackwardRows(output_, grad_output, r0, r1, &grad_input_);
}

}  // namespace vfl::nn
