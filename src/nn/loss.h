#ifndef VFLFIA_NN_LOSS_H_
#define VFLFIA_NN_LOSS_H_

#include <vector>

#include "la/matrix.h"

namespace vfl::nn {

/// Loss value plus the gradient w.r.t. the prediction matrix.
struct LossResult {
  double value = 0.0;
  la::Matrix grad;
  /// Per-row terms of the value, for losses that sum them after the
  /// gradient (scratch, reused across calls).
  std::vector<double> row_terms;
};

/// Mean squared error averaged over all elements:
///   L = 1/(n*k) * sum (pred - target)^2.
/// The GRNA attack uses this between simulated and observed confidence
/// vectors (Algorithm 2, line 10).
LossResult MseLoss(const la::Matrix& prediction, const la::Matrix& target);

/// Negative log-likelihood on probability rows (the model output already
/// went through Softmax/Sigmoid). Probabilities are clamped away from zero
/// before the log. `labels[i]` selects the target column of row i.
LossResult NllLoss(const la::Matrix& probabilities,
                   const std::vector<int>& labels);

/// Fused softmax + cross-entropy on logits. More stable than
/// Softmax-then-NllLoss; gradient is the classic (softmax - onehot)/n.
LossResult SoftmaxCrossEntropyLoss(const la::Matrix& logits,
                                   const std::vector<int>& labels);

/// Allocation-free loss variants for mini-batch training loops: the
/// gradient is written into result->grad (resized, capacity reused across
/// batches) instead of a fresh matrix per batch.
void MseLossInto(const la::Matrix& prediction, const la::Matrix& target,
                 LossResult* result);
void SoftmaxCrossEntropyLossInto(const la::Matrix& logits,
                                 const std::vector<int>& labels,
                                 LossResult* result);

/// Rows [r0, r1) of MseLossInto's gradient into an already-sized `grad`;
/// the mean runs over the whole batch, so any row partition gives
/// MseLossInto's bits.
void MseLossGradRows(const la::Matrix& prediction, const la::Matrix& target,
                     std::size_t r0, std::size_t r1, la::Matrix* grad);

/// MseLossInto's value alone, summed serially in its order.
double MseLossValue(const la::Matrix& prediction, const la::Matrix& target);

/// Rows [r0, r1) of SoftmaxCrossEntropyLossInto's gradient into an
/// already-sized `grad`; `log_probs[r]` receives row r's log-probability
/// term. SoftmaxCrossEntropyValue sums those terms in row order.
void SoftmaxCrossEntropyGradRows(const la::Matrix& logits,
                                 const std::vector<int>& labels,
                                 std::size_t r0, std::size_t r1,
                                 la::Matrix* grad, double* log_probs);
double SoftmaxCrossEntropyValue(const double* log_probs, std::size_t rows);

/// One-hot encodes labels into an n x num_classes matrix.
la::Matrix OneHot(const std::vector<int>& labels, std::size_t num_classes);

}  // namespace vfl::nn

#endif  // VFLFIA_NN_LOSS_H_
