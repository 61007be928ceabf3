#include "nn/linear.h"

#include <algorithm>
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

const la::Matrix& Linear::BeginForward(const la::Matrix& input) {
  CHECK_EQ(input.cols(), in_features());
  cached_input_.Resize(input.rows(), input.cols());
  output_.Resize(input.rows(), out_features());
  return output_;
}

void Linear::ForwardRows(const la::Matrix& input, std::size_t r0,
                         std::size_t r1) {
  const std::size_t in = input.cols();
  std::copy(input.data() + r0 * in, input.data() + r1 * in,
            cached_input_.data() + r0 * in);
  la::GemmRows(la::GemmOp::kNone, input, weight_.value, &output_,
               /*accumulate=*/false, r0, r1);
  const double* bias = bias_.value.RowPtr(0);
  for (std::size_t r = r0; r < r1; ++r) {
    double* row = output_.RowPtr(r);
    for (std::size_t c = 0; c < output_.cols(); ++c) row[c] += bias[c];
  }
}

la::Matrix Linear::InferenceForward(const la::Matrix& input) const {
  CHECK_EQ(input.cols(), in_features());
  la::Matrix out;
  la::MatMulInto(input, weight_.value, &out);
  la::AddRowBroadcastInPlace(&out, bias_.value.RowPtr(0));
  return out;
}

const la::Matrix& Linear::BeginBackward(const la::Matrix& grad_output) {
  CHECK_EQ(grad_output.rows(), cached_input_.rows());
  CHECK_EQ(grad_output.cols(), out_features());
  grad_input_.Resize(grad_output.rows(), in_features());
  // Store W^T once W outlives a backward pass unchanged. Transposing on
  // every change instead would cost a trained layer a serial copy per step.
  const std::uint64_t version = weight_.version;
  if (weight_t_version_ != version && backward_version_ == version) {
    la::TransposeInto(weight_.value, &weight_t_);
    weight_t_version_ = version;
  }
  backward_version_ = version;
  return grad_input_;
}

void Linear::BackwardRows(const la::Matrix& grad_output, std::size_t r0,
                          std::size_t r1) {
  // dX = dY * W^T.
  if (weight_t_version_ == weight_.version) {
    la::GemmRows(la::GemmOp::kNone, grad_output, weight_t_, &grad_input_,
                 /*accumulate=*/false, r0, r1);
  } else {
    la::GemmRows(la::GemmOp::kTransposeB, grad_output, weight_.value,
                 &grad_input_, /*accumulate=*/false, r0, r1);
  }
}

void Linear::ParamGradRows(const la::Matrix& grad_output, std::size_t p0,
                           std::size_t p1) {
  CHECK_EQ(grad_output.rows(), cached_input_.rows());
  CHECK_EQ(grad_output.cols(), out_features());
  // dW rows += X^T * dY (fused accumulation, no temporary).
  const std::size_t in = in_features();
  la::GemmRows(la::GemmOp::kTransposeA, cached_input_, grad_output,
               &weight_.grad, /*accumulate=*/true, std::min(p0, in),
               std::min(p1, in));
  if (p1 <= in) return;
  // db += column sums of dY.
  double* bias_grad = bias_.grad.RowPtr(0);
  for (std::size_t r = 0; r < grad_output.rows(); ++r) {
    const double* row = grad_output.RowPtr(r);
    for (std::size_t c = 0; c < grad_output.cols(); ++c) {
      bias_grad[c] += row[c];
    }
  }
}

ModulePtr Linear::Clone() const {
  auto clone = std::make_unique<Linear>(*this);
  clone->weight_t_ = la::Matrix();
  clone->weight_t_version_ = clone->backward_version_ = kNoVersion;
  return clone;
}

}  // namespace vfl::nn
