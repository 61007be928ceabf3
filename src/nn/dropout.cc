#include "nn/dropout.h"

#include <algorithm>

namespace vfl::nn {

namespace {

/// Rows [r0, r1) of out = a .* b, element-wise.
void HadamardRows(const la::Matrix& a, const la::Matrix& b, std::size_t r0,
                  std::size_t r1, la::Matrix* out) {
  const double* x = a.data();
  const double* y = b.data();
  double* o = out->data();
  for (std::size_t i = r0 * a.cols(); i < r1 * a.cols(); ++i) {
    o[i] = x[i] * y[i];
  }
}

}  // namespace

Dropout::Dropout(double rate, core::Rng& rng) : rate_(rate), rng_(rng.Fork()) {
  CHECK_GE(rate, 0.0);
  CHECK_LT(rate, 1.0);
}

const la::Matrix& Dropout::BeginForward(const la::Matrix& input) {
  cached_mask_.Resize(input.rows(), input.cols());
  if (!training_ || rate_ == 0.0) {
    // Identity at inference; mark the mask as "all keep" so a Backward call
    // in eval mode stays consistent.
    cached_mask_.Fill(1.0);
  } else {
    const double keep_scale = 1.0 / (1.0 - rate_);
    double* mask = cached_mask_.data();
    for (std::size_t i = 0; i < cached_mask_.size(); ++i) {
      mask[i] = rng_.Bernoulli(rate_) ? 0.0 : keep_scale;
    }
  }
  return ShapePreservingLayer::BeginForward(input);
}

void Dropout::ForwardRows(const la::Matrix& input, std::size_t r0,
                          std::size_t r1) {
  if (!training_ || rate_ == 0.0) {
    const std::size_t cols = input.cols();
    std::copy(input.data() + r0 * cols, input.data() + r1 * cols,
              output_.data() + r0 * cols);
    return;
  }
  HadamardRows(input, cached_mask_, r0, r1, &output_);
}

void Dropout::BackwardRows(const la::Matrix& grad_output, std::size_t r0,
                           std::size_t r1) {
  HadamardRows(grad_output, cached_mask_, r0, r1, &grad_input_);
}

}  // namespace vfl::nn
