#ifndef VFLFIA_NN_TRAINER_H_
#define VFLFIA_NN_TRAINER_H_

#include <functional>
#include <span>
#include <vector>

#include "core/rng.h"
#include "la/matrix.h"
#include "la/parallel.h"
#include "nn/module.h"
#include "nn/optimizer.h"
#include "nn/sequential.h"

namespace vfl::nn {

/// Hyper-parameters for the generic mini-batch training loop, which always
/// optimizes with Adam (default betas and epsilon).
struct TrainConfig {
  std::size_t epochs = 20;
  std::size_t batch_size = 64;
  double learning_rate = 0.01;
  /// L2 regularization coefficient applied by the optimizer.
  double weight_decay = 0.0;
  std::uint64_t seed = 42;
};

/// Per-epoch training statistics.
struct EpochStats {
  std::size_t epoch = 0;
  double mean_loss = 0.0;
};

/// Trains `network` to map rows of `x` to probability rows matching integer
/// `labels`, using fused softmax cross-entropy on the network output
/// interpreted as logits. The network must therefore NOT end with a Softmax
/// layer; callers append Softmax (or call SoftmaxRows) at inference time.
///
/// Returns per-epoch mean losses. `on_epoch` (optional) observes progress.
std::vector<EpochStats> TrainSoftmaxClassifier(
    Sequential& network, const la::Matrix& x, const std::vector<int>& labels,
    const TrainConfig& config,
    const std::function<void(const EpochStats&)>& on_epoch = nullptr);

/// Trains `network` as a regressor against `targets` with MSE loss. Used by
/// the RF-surrogate distillation, which fits confidence vectors.
std::vector<EpochStats> TrainMseRegressor(
    Sequential& network, const la::Matrix& x, const la::Matrix& targets,
    const TrainConfig& config,
    const std::function<void(const EpochStats&)>& on_epoch = nullptr);

/// The parameter half of a training step (region B): splits `network`'s
/// parameter rows over la's team, balanced by element count. Each lane
/// zeroes its rows' gradient, accumulates it over the batch
/// (Sequential::ParamGradRows) and applies `optimizer` to exactly those
/// elements. `optimizer` must manage network.Parameters() in order, and the
/// batch's input-gradient chain (BeginBackward or BeginBackwardParams for
/// `grad_output`, then BackwardRows over every row) must be complete.
/// Bit-identical to ZeroGrad(), BackwardParams() and Step() for every
/// thread count: each element keeps its one ascending chain over the batch.
void StepParameters(Sequential& network, Adam& optimizer,
                    const la::Matrix& grad_output);

/// Fills rows [r0, r1) of a loss gradient from the same rows of the network
/// output (the first argument) alone.
using LossGradRows =
    la::FunctionRef<void(const la::Matrix&, std::size_t, std::size_t)>;

/// One Adam step of `network` on the batch whose row r is row rows[r] of
/// `x`, as two fork-joins on la's team. Region A splits the batch rows:
/// each lane copies its rows of `x` into `*batch` (which the step sizes),
/// then carries them through the forward pass, `loss_grad_rows` (into
/// `*loss_grad`, which the step sizes to the output's shape) and the
/// input-gradient chain down to the second layer. Region B is
/// StepParameters. A region with too little work runs on the caller alone
/// (la::RowChunk). Returns the network output, from which the caller sums
/// the loss value serially. Bit-identical for every thread count to
/// gathering the batch, then ZeroGrad, Forward, the loss, BackwardParams and
/// Step.
const la::Matrix& TrainStep(Sequential& network, Adam& optimizer,
                            const la::Matrix& x,
                            std::span<const std::size_t> rows,
                            la::Matrix* batch, la::Matrix* loss_grad,
                            LossGradRows loss_grad_rows);

/// Finite-difference gradient check on a module for test support: runs the
/// scalar loss L(input) = sum(Forward(input) * probe) and compares the
/// analytic input gradient against central differences. Returns the max
/// absolute element-wise error.
double GradientCheckInput(Module& module, const la::Matrix& input,
                          const la::Matrix& probe, double step = 1e-5);

/// Same check for the module's parameters; returns the max error across all
/// parameter elements.
double GradientCheckParameters(Module& module, const la::Matrix& input,
                               const la::Matrix& probe, double step = 1e-5);

}  // namespace vfl::nn

#endif  // VFLFIA_NN_TRAINER_H_
