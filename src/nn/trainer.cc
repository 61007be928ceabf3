#include "nn/trainer.h"

#include <algorithm>
#include <cmath>

#include "la/matrix_ops.h"
#include "nn/loss.h"
#include "nn/optimizer.h"

namespace vfl::nn {

namespace {

/// Shared epoch/batch loop. `compute_loss` fills `loss` (value + grad, whose
/// buffer is reused across batches) from (batch_output, batch_rows); the
/// grad is back-propagated to the parameters only, since nothing reads the
/// input gradient. All per-batch scratch lives outside the loop and the
/// layers refill their own buffers, so steady-state batches allocate
/// nothing.
template <typename LossFn>
std::vector<EpochStats> RunTraining(
    Sequential& network, const la::Matrix& x, std::size_t num_samples,
    const TrainConfig& config, LossFn compute_loss,
    const std::function<void(const EpochStats&)>& on_epoch) {
  CHECK_GT(num_samples, 0u);
  CHECK_GT(config.batch_size, 0u);
  core::Rng rng(config.seed);
  Adam optimizer(network.Parameters(), config.learning_rate, 0.9, 0.999, 1e-8,
                 config.weight_decay);
  network.SetTraining(true);

  std::vector<std::size_t> batch_rows;
  batch_rows.reserve(config.batch_size);
  la::Matrix batch_x;
  LossResult loss;
  std::vector<EpochStats> history;
  history.reserve(config.epochs);
  for (std::size_t epoch = 0; epoch < config.epochs; ++epoch) {
    const std::vector<std::size_t> order = rng.Permutation(num_samples);
    double loss_sum = 0.0;
    std::size_t num_batches = 0;
    for (std::size_t begin = 0; begin < num_samples;
         begin += config.batch_size) {
      const std::size_t end =
          std::min(begin + config.batch_size, num_samples);
      batch_rows.assign(order.begin() + begin, order.begin() + end);
      x.GatherRowsInto(batch_rows, &batch_x);
      optimizer.ZeroGrad();
      const la::Matrix& output = network.Forward(batch_x);
      compute_loss(output, batch_rows, &loss);
      network.BackwardParams(loss.grad);
      optimizer.Step();
      loss_sum += loss.value;
      ++num_batches;
    }
    EpochStats stats{epoch, loss_sum / static_cast<double>(num_batches)};
    history.push_back(stats);
    if (on_epoch) on_epoch(stats);
  }
  network.SetTraining(false);
  return history;
}

}  // namespace

std::vector<EpochStats> TrainSoftmaxClassifier(
    Sequential& network, const la::Matrix& x, const std::vector<int>& labels,
    const TrainConfig& config,
    const std::function<void(const EpochStats&)>& on_epoch) {
  CHECK_EQ(x.rows(), labels.size());
  std::vector<int> batch_labels;
  return RunTraining(
      network, x, x.rows(), config,
      [&labels, &batch_labels](const la::Matrix& output,
                               const std::vector<std::size_t>& batch_rows,
                               LossResult* loss) {
        batch_labels.clear();
        batch_labels.reserve(batch_rows.size());
        for (const std::size_t r : batch_rows) batch_labels.push_back(labels[r]);
        SoftmaxCrossEntropyLossInto(output, batch_labels, loss);
      },
      on_epoch);
}

std::vector<EpochStats> TrainMseRegressor(
    Sequential& network, const la::Matrix& x, const la::Matrix& targets,
    const TrainConfig& config,
    const std::function<void(const EpochStats&)>& on_epoch) {
  CHECK_EQ(x.rows(), targets.rows());
  la::Matrix batch_targets;
  return RunTraining(
      network, x, x.rows(), config,
      [&targets, &batch_targets](const la::Matrix& output,
                                 const std::vector<std::size_t>& batch_rows,
                                 LossResult* loss) {
        targets.GatherRowsInto(batch_rows, &batch_targets);
        MseLossInto(output, batch_targets, loss);
      },
      on_epoch);
}

namespace {

double ProbeLoss(Module& module, const la::Matrix& input,
                 const la::Matrix& probe) {
  const la::Matrix& output = module.Forward(input);
  CHECK_EQ(output.rows(), probe.rows());
  CHECK_EQ(output.cols(), probe.cols());
  return la::Sum(la::Hadamard(output, probe));
}

}  // namespace

double GradientCheckInput(Module& module, const la::Matrix& input,
                          const la::Matrix& probe, double step) {
  // Analytic gradient: dL/dInput with dL/dOutput = probe.
  module.Forward(input);
  const la::Matrix analytic = module.Backward(probe);
  double max_err = 0.0;
  la::Matrix perturbed = input;
  for (std::size_t i = 0; i < input.size(); ++i) {
    const double original = perturbed.data()[i];
    perturbed.data()[i] = original + step;
    const double loss_plus = ProbeLoss(module, perturbed, probe);
    perturbed.data()[i] = original - step;
    const double loss_minus = ProbeLoss(module, perturbed, probe);
    perturbed.data()[i] = original;
    const double numeric = (loss_plus - loss_minus) / (2.0 * step);
    max_err = std::max(max_err, std::abs(numeric - analytic.data()[i]));
  }
  return max_err;
}

double GradientCheckParameters(Module& module, const la::Matrix& input,
                               const la::Matrix& probe, double step) {
  module.ZeroGrad();
  module.Forward(input);
  module.Backward(probe);
  // Snapshot the analytic parameter gradients before the finite differences
  // overwrite the caches.
  std::vector<la::Matrix> analytic;
  for (Parameter* p : module.Parameters()) analytic.push_back(p->grad);

  double max_err = 0.0;
  std::size_t param_index = 0;
  for (Parameter* p : module.Parameters()) {
    for (std::size_t i = 0; i < p->value.size(); ++i) {
      const double original = p->value.data()[i];
      p->value.data()[i] = original + step;
      const double loss_plus = ProbeLoss(module, input, probe);
      p->value.data()[i] = original - step;
      const double loss_minus = ProbeLoss(module, input, probe);
      p->value.data()[i] = original;
      const double numeric = (loss_plus - loss_minus) / (2.0 * step);
      max_err = std::max(
          max_err, std::abs(numeric - analytic[param_index].data()[i]));
    }
    ++param_index;
  }
  return max_err;
}

}  // namespace vfl::nn
