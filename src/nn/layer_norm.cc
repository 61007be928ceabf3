#include "nn/layer_norm.h"

#include <cmath>

namespace vfl::nn {

namespace {

/// Mean and 1 / sqrt(variance + epsilon) of the kRows rows from `first`.
/// Each row sums its own columns in ascending order, so its bits are what it
/// alone would give; taking four rows at once runs their add chains side by
/// side.
template <std::size_t kRows>
void BlockMoments(const la::Matrix& input, std::size_t first, double epsilon,
                  double* mean, double* inv_stddev) {
  const std::size_t d = input.cols();
  const double* x[kRows];
  double sum[kRows] = {};
  for (std::size_t i = 0; i < kRows; ++i) x[i] = input.RowPtr(first + i);
  for (std::size_t c = 0; c < d; ++c) {
    for (std::size_t i = 0; i < kRows; ++i) sum[i] += x[i][c];
  }
  for (std::size_t i = 0; i < kRows; ++i) {
    mean[i] = sum[i] / static_cast<double>(d);
  }
  double var[kRows] = {};
  for (std::size_t c = 0; c < d; ++c) {
    for (std::size_t i = 0; i < kRows; ++i) {
      const double diff = x[i][c] - mean[i];
      var[i] += diff * diff;
    }
  }
  for (std::size_t i = 0; i < kRows; ++i) {
    inv_stddev[i] =
        1.0 / std::sqrt(var[i] / static_cast<double>(d) + epsilon);
  }
}

/// BlockMoments over rows [r0, r1) of `input`, four at a time.
void RowMoments(const la::Matrix& input, std::size_t r0, std::size_t r1,
                double epsilon, double* mean, double* inv_stddev) {
  std::size_t r = r0;
  for (; r + 4 <= r1; r += 4) {
    BlockMoments<4>(input, r, epsilon, mean + r, inv_stddev + r);
  }
  for (; r < r1; ++r) {
    BlockMoments<1>(input, r, epsilon, mean + r, inv_stddev + r);
  }
}

/// The input gradient of the kRows rows from `first`. With h = grad wrt
/// normalized value (h = grad_output * gain):
/// dx = inv_stddev * (h - mean(h) - norm * mean(h * norm)), each mean summed
/// over its row's columns in ascending order, as in BlockMoments.
template <std::size_t kRows>
void BlockInputGrad(const la::Matrix& grad_output,
                    const la::Matrix& normalized, const double* gain,
                    const double* inv_stddev, std::size_t first,
                    la::Matrix* grad_input) {
  const std::size_t d = grad_output.cols();
  const double inv_d = 1.0 / static_cast<double>(d);
  const double* go[kRows];
  const double* norm[kRows];
  double mean_h[kRows] = {};
  double mean_h_norm[kRows] = {};
  for (std::size_t i = 0; i < kRows; ++i) {
    go[i] = grad_output.RowPtr(first + i);
    norm[i] = normalized.RowPtr(first + i);
  }
  for (std::size_t c = 0; c < d; ++c) {
    for (std::size_t i = 0; i < kRows; ++i) {
      const double h = go[i][c] * gain[c];
      mean_h[i] += h;
      mean_h_norm[i] += h * norm[i][c];
    }
  }
  for (std::size_t i = 0; i < kRows; ++i) {
    mean_h[i] *= inv_d;
    mean_h_norm[i] *= inv_d;
    double* gi = grad_input->RowPtr(first + i);
    for (std::size_t c = 0; c < d; ++c) {
      const double h = go[i][c] * gain[c];
      gi[c] = inv_stddev[first + i] *
              (h - mean_h[i] - norm[i][c] * mean_h_norm[i]);
    }
  }
}

}  // namespace

LayerNorm::LayerNorm(std::size_t features, double epsilon)
    : gain_(la::Matrix(1, features, 1.0)),
      bias_(la::Matrix(1, features)),
      epsilon_(epsilon) {}

const la::Matrix& LayerNorm::BeginForward(const la::Matrix& input) {
  CHECK_EQ(input.cols(), gain_.value.cols());
  cached_normalized_.Resize(input.rows(), input.cols());
  cached_inv_stddev_.resize(input.rows());
  row_mean_.resize(input.rows());
  output_.Resize(input.rows(), input.cols());
  return output_;
}

void LayerNorm::ForwardRows(const la::Matrix& input, std::size_t r0,
                            std::size_t r1) {
  const std::size_t d = input.cols();
  RowMoments(input, r0, r1, epsilon_, row_mean_.data(),
             cached_inv_stddev_.data());
  const double* g = gain_.value.RowPtr(0);
  const double* b = bias_.value.RowPtr(0);
  for (std::size_t r = r0; r < r1; ++r) {
    const double* x = input.RowPtr(r);
    const double mean = row_mean_[r];
    const double inv_stddev = cached_inv_stddev_[r];
    double* norm = cached_normalized_.RowPtr(r);
    double* o = output_.RowPtr(r);
    for (std::size_t c = 0; c < d; ++c) {
      norm[c] = (x[c] - mean) * inv_stddev;
      o[c] = norm[c] * g[c] + b[c];
    }
  }
}

la::Matrix LayerNorm::InferenceForward(const la::Matrix& input) const {
  CHECK_EQ(input.cols(), gain_.value.cols());
  const std::size_t d = input.cols();
  la::Matrix out(input.rows(), d);
  std::vector<double> mean(input.rows()), inv_stddev(input.rows());
  RowMoments(input, 0, input.rows(), epsilon_, mean.data(), inv_stddev.data());
  const double* g = gain_.value.RowPtr(0);
  const double* b = bias_.value.RowPtr(0);
  for (std::size_t r = 0; r < input.rows(); ++r) {
    const double* x = input.RowPtr(r);
    double* o = out.RowPtr(r);
    for (std::size_t c = 0; c < d; ++c) {
      o[c] = (x[c] - mean[r]) * inv_stddev[r] * g[c] + b[c];
    }
  }
  return out;
}

void LayerNorm::ParamGradRows(const la::Matrix& grad_output, std::size_t p0,
                              std::size_t p1) {
  CHECK_EQ(grad_output.rows(), cached_normalized_.rows());
  CHECK_EQ(grad_output.cols(), cached_normalized_.cols());
  // Each gain/bias element sums its column over the batch rows in order.
  for (std::size_t p = p0; p < p1; ++p) {
    double* grad = (p == 0 ? gain_ : bias_).grad.RowPtr(0);
    for (std::size_t r = 0; r < grad_output.rows(); ++r) {
      const double* go = grad_output.RowPtr(r);
      if (p == 0) {
        const double* norm = cached_normalized_.RowPtr(r);
        for (std::size_t c = 0; c < grad_output.cols(); ++c) {
          grad[c] += go[c] * norm[c];
        }
      } else {
        for (std::size_t c = 0; c < grad_output.cols(); ++c) {
          grad[c] += go[c];
        }
      }
    }
  }
}

const la::Matrix& LayerNorm::BeginBackward(const la::Matrix& grad_output) {
  CHECK_EQ(grad_output.rows(), cached_normalized_.rows());
  CHECK_EQ(grad_output.cols(), cached_normalized_.cols());
  grad_input_.Resize(grad_output.rows(), grad_output.cols());
  return grad_input_;
}

void LayerNorm::BackwardRows(const la::Matrix& grad_output, std::size_t r0,
                             std::size_t r1) {
  const double* g = gain_.value.RowPtr(0);
  const double* inv_stddev = cached_inv_stddev_.data();
  std::size_t r = r0;
  for (; r + 4 <= r1; r += 4) {
    BlockInputGrad<4>(grad_output, cached_normalized_, g, inv_stddev, r,
                      &grad_input_);
  }
  for (; r < r1; ++r) {
    BlockInputGrad<1>(grad_output, cached_normalized_, g, inv_stddev, r,
                      &grad_input_);
  }
}

}  // namespace vfl::nn
