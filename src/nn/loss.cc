#include "nn/loss.h"

#include <algorithm>
#include <cmath>

#include "core/check.h"
#include "nn/activation.h"

namespace vfl::nn {

LossResult MseLoss(const la::Matrix& prediction, const la::Matrix& target) {
  LossResult result;
  MseLossInto(prediction, target, &result);
  return result;
}

void MseLossInto(const la::Matrix& prediction, const la::Matrix& target,
                 LossResult* result) {
  result->grad.Resize(prediction.rows(), prediction.cols());
  MseLossGradRows(prediction, target, 0, prediction.rows(), &result->grad);
  result->value = MseLossValue(prediction, target);
}

void MseLossGradRows(const la::Matrix& prediction, const la::Matrix& target,
                     std::size_t r0, std::size_t r1, la::Matrix* grad) {
  CHECK_EQ(prediction.rows(), target.rows());
  CHECK_EQ(prediction.cols(), target.cols());
  CHECK_GT(prediction.size(), 0u);
  const double inv_count = 1.0 / static_cast<double>(prediction.size());
  const double* p = prediction.data();
  const double* t = target.data();
  double* g = grad->data();
  for (std::size_t i = r0 * prediction.cols(); i < r1 * prediction.cols();
       ++i) {
    g[i] = 2.0 * (p[i] - t[i]) * inv_count;
  }
}

double MseLossValue(const la::Matrix& prediction, const la::Matrix& target) {
  CHECK_EQ(prediction.rows(), target.rows());
  CHECK_EQ(prediction.cols(), target.cols());
  CHECK_GT(prediction.size(), 0u);
  const double* p = prediction.data();
  const double* t = target.data();
  double acc = 0.0;
  for (std::size_t i = 0; i < prediction.size(); ++i) {
    const double diff = p[i] - t[i];
    acc += diff * diff;
  }
  return acc * (1.0 / static_cast<double>(prediction.size()));
}

LossResult NllLoss(const la::Matrix& probabilities,
                   const std::vector<int>& labels) {
  CHECK_EQ(probabilities.rows(), labels.size());
  CHECK_GT(probabilities.rows(), 0u);
  constexpr double kMinProb = 1e-12;
  LossResult result;
  result.grad = la::Matrix(probabilities.rows(), probabilities.cols());
  const double inv_n = 1.0 / static_cast<double>(probabilities.rows());
  double acc = 0.0;
  for (std::size_t r = 0; r < probabilities.rows(); ++r) {
    const int label = labels[r];
    CHECK_GE(label, 0);
    CHECK_LT(static_cast<std::size_t>(label), probabilities.cols());
    const double p = std::max(probabilities(r, label), kMinProb);
    acc -= std::log(p);
    result.grad(r, label) = -inv_n / p;
  }
  result.value = acc * inv_n;
  return result;
}

LossResult SoftmaxCrossEntropyLoss(const la::Matrix& logits,
                                   const std::vector<int>& labels) {
  LossResult result;
  SoftmaxCrossEntropyLossInto(logits, labels, &result);
  return result;
}

void SoftmaxCrossEntropyLossInto(const la::Matrix& logits,
                                 const std::vector<int>& labels,
                                 LossResult* result) {
  result->grad.Resize(logits.rows(), logits.cols());
  result->row_terms.resize(logits.rows());
  SoftmaxCrossEntropyGradRows(logits, labels, 0, logits.rows(), &result->grad,
                              result->row_terms.data());
  result->value =
      SoftmaxCrossEntropyValue(result->row_terms.data(), logits.rows());
}

void SoftmaxCrossEntropyGradRows(const la::Matrix& logits,
                                 const std::vector<int>& labels,
                                 std::size_t r0, std::size_t r1,
                                 la::Matrix* grad, double* log_probs) {
  CHECK_EQ(logits.rows(), labels.size());
  CHECK_GT(logits.rows(), 0u);
  constexpr double kMinProb = 1e-12;
  // The gradient buffer doubles as the softmax scratch: grad = softmax(z),
  // then the one-hot subtraction and 1/n scaling happen in place.
  SoftmaxRowRange(logits, r0, r1, grad);
  const double inv_n = 1.0 / static_cast<double>(logits.rows());
  for (std::size_t r = r0; r < r1; ++r) {
    const int label = labels[r];
    CHECK_GE(label, 0);
    CHECK_LT(static_cast<std::size_t>(label), logits.cols());
    double* g = grad->RowPtr(r);
    log_probs[r] = std::log(std::max(g[label], kMinProb));
    g[label] -= 1.0;
    for (std::size_t c = 0; c < logits.cols(); ++c) g[c] *= inv_n;
  }
}

double SoftmaxCrossEntropyValue(const double* log_probs, std::size_t rows) {
  double acc = 0.0;
  for (std::size_t r = 0; r < rows; ++r) acc -= log_probs[r];
  return acc * (1.0 / static_cast<double>(rows));
}

la::Matrix OneHot(const std::vector<int>& labels, std::size_t num_classes) {
  la::Matrix out(labels.size(), num_classes);
  for (std::size_t r = 0; r < labels.size(); ++r) {
    CHECK_GE(labels[r], 0);
    CHECK_LT(static_cast<std::size_t>(labels[r]), num_classes);
    out(r, labels[r]) = 1.0;
  }
  return out;
}

}  // namespace vfl::nn
