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
  la::TransposeInto(weights_, &weights_t_);
}

void LogisticRegression::SetParameters(la::Matrix weights,
                                       std::vector<double> bias) {
  CHECK_EQ(weights.cols(), bias.size());
  CHECK_GE(weights.cols(), 2u);
  weights_ = std::move(weights);
  la::TransposeInto(weights_, &weights_t_);
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

const la::Matrix& LogisticRegression::BeginForwardDiff(const la::Matrix& x) {
  CHECK_GT(weights_.size(), 0u) << "PredictProba before Fit";
  CHECK_EQ(x.cols(), weights_.rows());
  cached_proba_.Resize(x.rows(), weights_.cols());
  return cached_proba_;
}

void LogisticRegression::ForwardDiffRows(const la::Matrix& x, std::size_t r0,
                                         std::size_t r1) {
  // PredictProbaInto's logits, bias and in-place softmax, on these rows.
  la::GemmRows(la::GemmOp::kNone, x, weights_, &cached_proba_,
               /*accumulate=*/false, r0, r1);
  for (std::size_t r = r0; r < r1; ++r) {
    double* row = cached_proba_.RowPtr(r);
    for (std::size_t k = 0; k < cached_proba_.cols(); ++k) row[k] += bias_[k];
  }
  nn::SoftmaxRowRange(cached_proba_, r0, r1, &cached_proba_);
}

const la::Matrix& LogisticRegression::BeginBackwardToInput(
    const la::Matrix& grad_proba) {
  CHECK_EQ(grad_proba.rows(), cached_proba_.rows());
  CHECK_EQ(grad_proba.cols(), cached_proba_.cols());
  grad_logits_.Resize(grad_proba.rows(), grad_proba.cols());
  grad_input_.Resize(grad_proba.rows(), weights_.rows());
  return grad_input_;
}

void LogisticRegression::BackwardToInputRows(const la::Matrix& grad_proba,
                                             std::size_t r0, std::size_t r1) {
  // Softmax backward: dZ_k = s_k * (g_k - sum_j g_j s_j); then dX = dZ W^T.
  nn::SoftmaxBackwardRows(cached_proba_, grad_proba, r0, r1, &grad_logits_);
  la::GemmRows(la::GemmOp::kNone, grad_logits_, weights_t_, &grad_input_,
               /*accumulate=*/false, r0, r1);
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
