#include "nn/linear.h"

#include <cmath>

#include "la/matrix_ops.h"

namespace vfl::nn {

namespace {

la::Matrix InitWeight(std::size_t in, std::size_t out, core::Rng& rng,
                      Init init) {
  la::Matrix w(in, out);
  switch (init) {
    case Init::kXavier: {
      const double bound = std::sqrt(6.0 / static_cast<double>(in + out));
      for (std::size_t i = 0; i < w.size(); ++i) {
        w.data()[i] = rng.Uniform(-bound, bound);
      }
      break;
    }
    case Init::kHe: {
      const double stddev = std::sqrt(2.0 / static_cast<double>(in));
      for (std::size_t i = 0; i < w.size(); ++i) {
        w.data()[i] = rng.Gaussian(0.0, stddev);
      }
      break;
    }
    case Init::kZero:
      break;
  }
  return w;
}

}  // namespace

Linear::Linear(std::size_t in_features, std::size_t out_features,
               core::Rng& rng, Init init)
    : weight_(InitWeight(in_features, out_features, rng, init)),
      bias_(la::Matrix(1, out_features)) {}

const la::Matrix& Linear::Forward(const la::Matrix& input) {
  CHECK_EQ(input.cols(), in_features());
  cached_input_ = input;  // reuses the member's capacity across batches
  la::MatMulInto(input, weight_.value, &output_);
  la::AddRowBroadcastInPlace(&output_, bias_.value.RowPtr(0));
  return output_;
}

la::Matrix Linear::InferenceForward(const la::Matrix& input) const {
  CHECK_EQ(input.cols(), in_features());
  la::Matrix out;
  la::MatMulInto(input, weight_.value, &out);
  la::AddRowBroadcastInPlace(&out, bias_.value.RowPtr(0));
  return out;
}

const la::Matrix& Linear::Backward(const la::Matrix& grad_output) {
  BackwardParams(grad_output);
  return BackwardInput(grad_output);
}

const la::Matrix& Linear::BackwardInput(const la::Matrix& grad_output) {
  CHECK_EQ(grad_output.rows(), cached_input_.rows());
  CHECK_EQ(grad_output.cols(), out_features());
  // dX = dY * W^T.
  la::MatMulTransposedBInto(grad_output, weight_.value, &grad_input_);
  return grad_input_;
}

void Linear::BackwardParams(const la::Matrix& grad_output) {
  CHECK_EQ(grad_output.rows(), cached_input_.rows());
  CHECK_EQ(grad_output.cols(), out_features());
  // dW += X^T * dY (fused accumulation, no temporary) ; db += column sums of
  // dY.
  la::MatMulTransposedAInto(cached_input_, grad_output, &weight_.grad,
                            /*accumulate=*/true);
  for (std::size_t r = 0; r < grad_output.rows(); ++r) {
    const double* row = grad_output.RowPtr(r);
    double* bias_grad = bias_.grad.RowPtr(0);
    for (std::size_t c = 0; c < grad_output.cols(); ++c) {
      bias_grad[c] += row[c];
    }
  }
}

ModulePtr Linear::Clone() const { return std::make_unique<Linear>(*this); }

}  // namespace vfl::nn
