#include "models/logistic_regression.h"

#include <algorithm>

#include "core/rng.h"
#include "la/matrix_ops.h"
#include "nn/activation.h"
#include "nn/loss.h"

namespace vfl::models {

void LogisticRegression::Fit(const data::Dataset& dataset,
                             const LrConfig& config) {
  CHECK(dataset.Validate().ok()) << dataset.Validate().ToString();
  const std::size_t d = dataset.num_features();
  const std::size_t c = dataset.num_classes;
  const std::size_t n = dataset.num_samples();
  CHECK_GT(n, 0u);

  weights_ = la::Matrix(d, c);
  bias_.assign(c, 0.0);

  core::Rng rng(config.seed);
  // Per-batch scratch allocated once; gathers, logits, loss gradient, and
  // weight gradient all reuse these buffers across batches.
  std::vector<std::size_t> rows;
  rows.reserve(config.batch_size);
  std::vector<int> batch_y;
  batch_y.reserve(config.batch_size);
  la::Matrix batch_x, logits, grad_w;
  nn::LossResult loss;
  for (std::size_t epoch = 0; epoch < config.epochs; ++epoch) {
    const std::vector<std::size_t> order = rng.Permutation(n);
    for (std::size_t begin = 0; begin < n; begin += config.batch_size) {
      const std::size_t end = std::min(begin + config.batch_size, n);
      rows.assign(order.begin() + begin, order.begin() + end);
      dataset.x.GatherRowsInto(rows, &batch_x);
      batch_y.clear();
      for (const std::size_t r : rows) batch_y.push_back(dataset.y[r]);

      LogitsInto(batch_x, &logits);
      nn::SoftmaxCrossEntropyLossInto(logits, batch_y, &loss);
      // dW = X^T * dZ, db = column sums of dZ (dZ already averaged by loss).
      la::MatMulTransposedAInto(batch_x, loss.grad, &grad_w);
      for (std::size_t i = 0; i < weights_.size(); ++i) {
        weights_.data()[i] -=
            config.learning_rate *
            (grad_w.data()[i] + config.weight_decay * weights_.data()[i]);
      }
      for (std::size_t col = 0; col < c; ++col) {
        double db = 0.0;
        for (std::size_t r = 0; r < loss.grad.rows(); ++r) {
          db += loss.grad(r, col);
        }
        bias_[col] -= config.learning_rate * db;
      }
    }
  }
}

void LogisticRegression::SetParameters(la::Matrix weights,
                                       std::vector<double> bias) {
  CHECK_EQ(weights.cols(), bias.size());
  CHECK_GE(weights.cols(), 2u);
  weights_ = std::move(weights);
  bias_ = std::move(bias);
}

void LogisticRegression::LogitsInto(const la::Matrix& x,
                                    la::Matrix* out) const {
  CHECK_EQ(x.cols(), weights_.rows());
  la::MatMulInto(x, weights_, out);
  la::AddRowBroadcastInPlace(out, bias_.data());
}

void LogisticRegression::PredictProbaInto(const la::Matrix& x,
                                          la::Matrix* out) const {
  CHECK_GT(weights_.size(), 0u) << "PredictProba before Fit";
  // Logits, then the softmax over them in place: no buffer but `out`.
  LogitsInto(x, out);
  nn::SoftmaxRowsInto(*out, out);
}

la::Matrix LogisticRegression::ForwardDiff(const la::Matrix& x) {
  PredictProbaInto(x, &cached_proba_);
  return cached_proba_;
}

la::Matrix LogisticRegression::BackwardToInput(const la::Matrix& grad_proba) {
  CHECK_EQ(grad_proba.rows(), cached_proba_.rows());
  CHECK_EQ(grad_proba.cols(), cached_proba_.cols());
  // Softmax backward: dZ_k = s_k * (g_k - sum_j g_j s_j); then dX = dZ W^T.
  la::Matrix grad_logits(grad_proba.rows(), grad_proba.cols());
  for (std::size_t r = 0; r < grad_proba.rows(); ++r) {
    const double* s = cached_proba_.RowPtr(r);
    const double* g = grad_proba.RowPtr(r);
    double* gz = grad_logits.RowPtr(r);
    double inner = 0.0;
    for (std::size_t k = 0; k < grad_proba.cols(); ++k) inner += g[k] * s[k];
    for (std::size_t k = 0; k < grad_proba.cols(); ++k) {
      gz[k] = s[k] * (g[k] - inner);
    }
  }
  return la::MatMulTransposedB(grad_logits, weights_);
}

std::vector<double> LogisticRegression::BinaryEffectiveWeights() const {
  CHECK_EQ(num_classes(), 2u);
  std::vector<double> theta(weights_.rows());
  for (std::size_t j = 0; j < weights_.rows(); ++j) {
    theta[j] = weights_(j, 0) - weights_(j, 1);
  }
  return theta;
}

double LogisticRegression::BinaryEffectiveBias() const {
  CHECK_EQ(num_classes(), 2u);
  return bias_[0] - bias_[1];
}

}  // namespace vfl::models
