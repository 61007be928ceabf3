#include "nn/dropout.h"

namespace vfl::nn {

namespace {

/// out = a .* b, element-wise, into a reused buffer.
void HadamardInto(const la::Matrix& a, const la::Matrix& b, la::Matrix* out) {
  CHECK_EQ(a.rows(), b.rows());
  CHECK_EQ(a.cols(), b.cols());
  out->Resize(a.rows(), a.cols());
  const double* x = a.data();
  const double* y = b.data();
  double* o = out->data();
  for (std::size_t i = 0; i < out->size(); ++i) o[i] = x[i] * y[i];
}

}  // namespace

Dropout::Dropout(double rate, core::Rng& rng) : rate_(rate), rng_(rng.Fork()) {
  CHECK_GE(rate, 0.0);
  CHECK_LT(rate, 1.0);
}

const la::Matrix& Dropout::Forward(const la::Matrix& input) {
  cached_mask_.Resize(input.rows(), input.cols());
  if (!training_ || rate_ == 0.0) {
    // Identity at inference; mark the mask as "all keep" so a Backward call
    // in eval mode stays consistent.
    cached_mask_.Fill(1.0);
    output_ = input;
    return output_;
  }
  const double keep_scale = 1.0 / (1.0 - rate_);
  double* mask = cached_mask_.data();
  for (std::size_t i = 0; i < cached_mask_.size(); ++i) {
    mask[i] = rng_.Bernoulli(rate_) ? 0.0 : keep_scale;
  }
  HadamardInto(input, cached_mask_, &output_);
  return output_;
}

const la::Matrix& Dropout::Backward(const la::Matrix& grad_output) {
  HadamardInto(grad_output, cached_mask_, &grad_input_);
  return grad_input_;
}

}  // namespace vfl::nn
