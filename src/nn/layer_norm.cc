#include "nn/layer_norm.h"

#include <cmath>

namespace vfl::nn {

LayerNorm::LayerNorm(std::size_t features, double epsilon)
    : gain_(la::Matrix(1, features, 1.0)),
      bias_(la::Matrix(1, features)),
      epsilon_(epsilon) {}

const la::Matrix& LayerNorm::Forward(const la::Matrix& input) {
  CHECK_EQ(input.cols(), gain_.value.cols());
  const std::size_t d = input.cols();
  cached_normalized_.Resize(input.rows(), d);
  cached_inv_stddev_.resize(input.rows());
  output_.Resize(input.rows(), d);
  const double* g = gain_.value.RowPtr(0);
  const double* b = bias_.value.RowPtr(0);
  for (std::size_t r = 0; r < input.rows(); ++r) {
    const double* x = input.RowPtr(r);
    double mean = 0.0;
    for (std::size_t c = 0; c < d; ++c) mean += x[c];
    mean /= static_cast<double>(d);
    double var = 0.0;
    for (std::size_t c = 0; c < d; ++c) {
      const double diff = x[c] - mean;
      var += diff * diff;
    }
    var /= static_cast<double>(d);
    const double inv_stddev = 1.0 / std::sqrt(var + epsilon_);
    cached_inv_stddev_[r] = inv_stddev;
    double* norm = cached_normalized_.RowPtr(r);
    double* o = output_.RowPtr(r);
    for (std::size_t c = 0; c < d; ++c) {
      norm[c] = (x[c] - mean) * inv_stddev;
      o[c] = norm[c] * g[c] + b[c];
    }
  }
  return output_;
}

la::Matrix LayerNorm::InferenceForward(const la::Matrix& input) const {
  CHECK_EQ(input.cols(), gain_.value.cols());
  const std::size_t d = input.cols();
  la::Matrix out(input.rows(), d);
  const double* g = gain_.value.RowPtr(0);
  const double* b = bias_.value.RowPtr(0);
  for (std::size_t r = 0; r < input.rows(); ++r) {
    const double* x = input.RowPtr(r);
    double mean = 0.0;
    for (std::size_t c = 0; c < d; ++c) mean += x[c];
    mean /= static_cast<double>(d);
    double var = 0.0;
    for (std::size_t c = 0; c < d; ++c) {
      const double diff = x[c] - mean;
      var += diff * diff;
    }
    var /= static_cast<double>(d);
    const double inv_stddev = 1.0 / std::sqrt(var + epsilon_);
    double* o = out.RowPtr(r);
    for (std::size_t c = 0; c < d; ++c) {
      o[c] = (x[c] - mean) * inv_stddev * g[c] + b[c];
    }
  }
  return out;
}

const la::Matrix& LayerNorm::Backward(const la::Matrix& grad_output) {
  CHECK_EQ(grad_output.rows(), cached_normalized_.rows());
  CHECK_EQ(grad_output.cols(), cached_normalized_.cols());
  double* gain_grad = gain_.grad.RowPtr(0);
  double* bias_grad = bias_.grad.RowPtr(0);
  for (std::size_t r = 0; r < grad_output.rows(); ++r) {
    const double* go = grad_output.RowPtr(r);
    const double* norm = cached_normalized_.RowPtr(r);
    for (std::size_t c = 0; c < grad_output.cols(); ++c) {
      gain_grad[c] += go[c] * norm[c];
      bias_grad[c] += go[c];
    }
  }
  return BackwardInput(grad_output);
}

const la::Matrix& LayerNorm::BackwardInput(const la::Matrix& grad_output) {
  CHECK_EQ(grad_output.rows(), cached_normalized_.rows());
  CHECK_EQ(grad_output.cols(), cached_normalized_.cols());
  const std::size_t d = grad_output.cols();
  const double inv_d = 1.0 / static_cast<double>(d);
  grad_input_.Resize(grad_output.rows(), d);
  const double* g = gain_.value.RowPtr(0);
  for (std::size_t r = 0; r < grad_output.rows(); ++r) {
    const double* go = grad_output.RowPtr(r);
    const double* norm = cached_normalized_.RowPtr(r);
    double* gi = grad_input_.RowPtr(r);
    // With h = grad wrt normalized value (h = go * gain):
    // dx = inv_stddev * (h - mean(h) - norm * mean(h * norm)).
    double mean_h = 0.0, mean_h_norm = 0.0;
    for (std::size_t c = 0; c < d; ++c) {
      const double h = go[c] * g[c];
      mean_h += h;
      mean_h_norm += h * norm[c];
    }
    mean_h *= inv_d;
    mean_h_norm *= inv_d;
    const double inv_stddev = cached_inv_stddev_[r];
    for (std::size_t c = 0; c < d; ++c) {
      const double h = go[c] * g[c];
      gi[c] = inv_stddev * (h - mean_h - norm[c] * mean_h_norm);
    }
  }
  return grad_input_;
}

}  // namespace vfl::nn
