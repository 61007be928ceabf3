#ifndef VFLFIA_NN_TRAINER_H_
#define VFLFIA_NN_TRAINER_H_

#include <functional>
#include <vector>

#include "core/rng.h"
#include "la/matrix.h"
#include "nn/module.h"
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
