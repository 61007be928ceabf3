#include "nn/trainer.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "la/matrix_ops.h"
#include "nn/loss.h"
#include "nn/optimizer.h"

namespace vfl::nn {

void StepParameters(Sequential& network, Adam& optimizer,
                    const la::Matrix& grad_output) {
  CHECK_EQ(network.NumParamRows(), optimizer.num_rows());
  optimizer.BeginStep();
  // Each element of a parameter gradient sums one product per batch row.
  la::ParallelFor(
      0, optimizer.num_elements(),
      la::RowChunk(optimizer.num_elements(), grad_output.rows()),
      [&](std::size_t e0, std::size_t e1) {
        const auto [p0, p1] = optimizer.RowsStartingIn(e0, e1);
        if (p0 == p1) return;
        optimizer.ZeroGradRows(p0, p1);
        network.ParamGradRows(grad_output, p0, p1);
        optimizer.StepRows(p0, p1);
      });
}

const la::Matrix& TrainStep(Sequential& network, Adam& optimizer,
                            const la::Matrix& x,
                            std::span<const std::size_t> rows,
                            la::Matrix* batch, la::Matrix* loss_grad,
                            LossGradRows loss_grad_rows) {
  batch->Resize(rows.size(), x.cols());
  const la::Matrix& output = network.BeginForward(*batch);
  loss_grad->Resize(output.rows(), output.cols());
  network.BeginBackwardParams(*loss_grad);
  // A row's forward pass and input-gradient chain cost about two
  // multiply-adds per weight.
  la::ParallelFor(0, rows.size(),
                  la::RowChunk(rows.size(), 2 * optimizer.num_elements()),
                  [&](std::size_t r0, std::size_t r1) {
                    x.GatherRowRangeInto(rows, r0, r1, batch);
                    network.ForwardRows(*batch, r0, r1);
                    loss_grad_rows(output, r0, r1);
                    network.BackwardRows(*loss_grad, r0, r1);
                  });
  StepParameters(network, optimizer, *loss_grad);
  return output;
}

namespace {

/// Softmax cross-entropy against integer labels, one batch at a time. The
/// batch's labels are gathered serially (Prepare).
class SoftmaxCrossEntropyBatch {
 public:
  explicit SoftmaxCrossEntropyBatch(const std::vector<int>& labels)
      : labels_(labels) {}

  void Prepare(std::span<const std::size_t> batch_rows) {
    batch_labels_.clear();
    for (const std::size_t r : batch_rows) batch_labels_.push_back(labels_[r]);
    log_probs_.resize(batch_rows.size());
  }
  void GradRows(const la::Matrix& output, std::size_t r0, std::size_t r1,
                la::Matrix* grad) {
    SoftmaxCrossEntropyGradRows(output, batch_labels_, r0, r1, grad,
                                log_probs_.data());
  }
  double Value(const la::Matrix& /*output*/) const {
    return SoftmaxCrossEntropyValue(log_probs_.data(), log_probs_.size());
  }

 private:
  const std::vector<int>& labels_;
  std::vector<int> batch_labels_;
  std::vector<double> log_probs_;  // one per batch row, filled by GradRows
};

/// Mean squared error against target rows, one batch at a time. Each lane
/// gathers its rows' targets (GradRows).
class MseBatch {
 public:
  explicit MseBatch(const la::Matrix& targets) : targets_(targets) {}

  void Prepare(std::span<const std::size_t> batch_rows) {
    batch_rows_ = batch_rows;
    batch_targets_.Resize(batch_rows.size(), targets_.cols());
  }
  void GradRows(const la::Matrix& output, std::size_t r0, std::size_t r1,
                la::Matrix* grad) {
    targets_.GatherRowRangeInto(batch_rows_, r0, r1, &batch_targets_);
    MseLossGradRows(output, batch_targets_, r0, r1, grad);
  }
  double Value(const la::Matrix& output) const {
    return MseLossValue(output, batch_targets_);
  }

 private:
  const la::Matrix& targets_;
  std::span<const std::size_t> batch_rows_;
  la::Matrix batch_targets_;
};

/// Shared epoch/batch loop: one TrainStep per batch, on a span of the
/// epoch's permutation. `loss` prepares the batch serially (Prepare), fills
/// loss-gradient rows inside the step (GradRows) and sums the batch loss
/// serially afterwards (Value). All per-batch and per-epoch scratch lives
/// outside the loop and the layers refill their own buffers, so
/// steady-state batches allocate nothing, an epoch's first included.
template <typename BatchLoss>
std::vector<EpochStats> RunTraining(
    Sequential& network, const la::Matrix& x, const TrainConfig& config,
    BatchLoss& loss, const std::function<void(const EpochStats&)>& on_epoch) {
  const std::size_t num_samples = x.rows();
  CHECK_GT(num_samples, 0u);
  CHECK_GT(config.batch_size, 0u);
  core::Rng rng(config.seed);
  Adam optimizer(network.Parameters(), config.learning_rate, 0.9, 0.999, 1e-8,
                 config.weight_decay);
  network.SetTraining(true);

  la::Matrix batch_x, loss_grad;
  std::vector<EpochStats> history;
  history.reserve(config.epochs);
  std::vector<std::size_t> order(num_samples);
  for (std::size_t epoch = 0; epoch < config.epochs; ++epoch) {
    // Rng::Permutation's draws, into the same vector every epoch.
    std::iota(order.begin(), order.end(), std::size_t{0});
    rng.Shuffle(order);
    double loss_sum = 0.0;
    std::size_t num_batches = 0;
    for (std::size_t begin = 0; begin < num_samples;
         begin += config.batch_size) {
      const std::size_t end =
          std::min(begin + config.batch_size, num_samples);
      const std::span<const std::size_t> batch_rows(order.data() + begin,
                                                    end - begin);
      loss.Prepare(batch_rows);
      const la::Matrix& output = TrainStep(
          network, optimizer, x, batch_rows, &batch_x, &loss_grad,
          [&](const la::Matrix& out, std::size_t r0, std::size_t r1) {
            loss.GradRows(out, r0, r1, &loss_grad);
          });
      loss_sum += loss.Value(output);
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
  SoftmaxCrossEntropyBatch loss(labels);
  return RunTraining(network, x, config, loss, on_epoch);
}

std::vector<EpochStats> TrainMseRegressor(
    Sequential& network, const la::Matrix& x, const la::Matrix& targets,
    const TrainConfig& config,
    const std::function<void(const EpochStats&)>& on_epoch) {
  CHECK_EQ(x.rows(), targets.rows());
  MseBatch loss(targets);
  return RunTraining(network, x, config, loss, on_epoch);
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
    p->BumpVersion();
    ++param_index;
  }
  return max_err;
}

}  // namespace vfl::nn
