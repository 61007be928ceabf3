#include "attack/grna.h"

#include <algorithm>
#include <memory>

#include "core/rng.h"
#include "la/matrix_ops.h"
#include "nn/activation.h"
#include "nn/layer_norm.h"
#include "nn/linear.h"
#include "nn/loss.h"
#include "nn/optimizer.h"

namespace vfl::attack {

double VariancePenaltyValue(const la::Matrix& generated, double lambda,
                            double tau) {
  const std::vector<double> vars = la::ColVariances(generated);
  double penalty = 0.0;
  for (const double v : vars) penalty += std::max(0.0, v - tau);
  return lambda * penalty;
}

void AddVariancePenaltyGradient(const la::Matrix& generated, double lambda,
                                double tau, la::Matrix* grad) {
  CHECK_EQ(grad->rows(), generated.rows());
  CHECK_EQ(grad->cols(), generated.cols());
  if (generated.rows() == 0) return;
  const std::vector<double> means = la::ColMeans(generated);
  const std::vector<double> vars = la::ColVariances(generated);
  const double scale =
      2.0 * lambda / static_cast<double>(generated.rows());
  for (std::size_t c = 0; c < generated.cols(); ++c) {
    if (vars[c] <= tau) continue;  // hinge inactive
    for (std::size_t r = 0; r < generated.rows(); ++r) {
      (*grad)(r, c) += scale * (generated(r, c) - means[c]);
    }
  }
}

GenerativeRegressionNetworkAttack::GenerativeRegressionNetworkAttack(
    models::DifferentiableModel* model, GrnaConfig config)
    : model_(model), config_(std::move(config)) {
  CHECK(model_ != nullptr);
  CHECK(config_.use_adv_input || config_.use_random_input)
      << "generator needs at least one input block";
}

void GenerativeRegressionNetworkAttack::BuildGeneratorInputInto(
    const la::Matrix& x_adv_batch, std::size_t d_target, core::Rng& rng,
    la::Matrix* out) const {
  const std::size_t n = x_adv_batch.rows();
  const std::size_t d_adv = x_adv_batch.cols();
  if (config_.use_adv_input && config_.use_random_input) {
    out->Resize(n, d_adv + d_target);
    for (std::size_t r = 0; r < n; ++r) {
      double* dst = out->RowPtr(r);
      std::copy(x_adv_batch.RowPtr(r), x_adv_batch.RowPtr(r) + d_adv, dst);
      for (std::size_t c = 0; c < d_target; ++c) {
        dst[d_adv + c] = rng.Gaussian();
      }
    }
    return;
  }
  if (config_.use_adv_input) {
    // Ablation case 2: the random block is dropped, but its draws are still
    // consumed so every ablation sees the same downstream stream.
    for (std::size_t i = 0; i < n * d_target; ++i) rng.Gaussian();
    *out = x_adv_batch;
    return;
  }
  out->Resize(n, d_target);
  double* data = out->data();
  for (std::size_t i = 0; i < n * d_target; ++i) data[i] = rng.Gaussian();
}

core::Status GenerativeRegressionNetworkAttack::Prepare(
    const fed::FeatureSplit& split, fed::QueryChannel& channel) {
  VFL_RETURN_IF_ERROR(FeatureInferenceAttack::Prepare(split, channel));
  if (channel.num_classes() != model_->num_classes()) {
    return core::Status::InvalidArgument(
        "attack 'GRNA': channel serves " +
        std::to_string(channel.num_classes()) +
        " classes but the (surrogate) model outputs " +
        std::to_string(model_->num_classes()));
  }
  if (split.num_target_features() == 0) {
    return core::Status::FailedPrecondition(
        "attack 'GRNA': split leaves no target features to infer");
  }
  return core::Status::Ok();
}

core::Status GenerativeRegressionNetworkAttack::Execute() {
  VFL_ASSIGN_OR_RETURN(confidences_, channel_->QueryAll());
  return core::Status::Ok();
}

core::StatusOr<la::Matrix> GenerativeRegressionNetworkAttack::Finalize() {
  // The private trainers predate the channel API and consume the bundled
  // view shape; assemble it from the channel data.
  fed::AdversaryView view;
  view.x_adv = channel_->x_adv();
  view.confidences = std::move(confidences_);
  view.model = channel_->model();
  view.split = split_;
  CHECK_EQ(view.x_adv.rows(), view.confidences.rows());
  if (!config_.use_generator) return InferNaiveRegression(view);
  return InferWithGenerator(view);
}

la::Matrix GenerativeRegressionNetworkAttack::InferWithGenerator(
    const fed::AdversaryView& view) {
  const std::size_t n = view.x_adv.rows();
  const std::size_t d_adv = view.split.num_adv_features();
  const std::size_t d_target = view.split.num_target_features();
  core::Rng rng(config_.train.seed);

  // Build the generator: MLP with ReLU (+ LayerNorm) hidden layers and a
  // sigmoid output, so generated features live in the normalized (0,1)
  // feature range the adversary knows (threat model, Sec. III-B).
  std::size_t input_width = 0;
  if (config_.use_adv_input) input_width += d_adv;
  if (config_.use_random_input) input_width += d_target;
  nn::Sequential generator;
  std::size_t width = input_width;
  for (const std::size_t hidden : config_.hidden_sizes) {
    generator.Emplace<nn::Linear>(width, hidden, rng, nn::Init::kHe);
    generator.Emplace<nn::Relu>();
    if (config_.use_layer_norm) generator.Emplace<nn::LayerNorm>(hidden);
    width = hidden;
  }
  generator.Emplace<nn::Linear>(width, d_target, rng, nn::Init::kXavier);
  generator.Emplace<nn::Sigmoid>();

  nn::Adam optimizer(generator.Parameters(), config_.train.learning_rate,
                     0.9, 0.999, 1e-8, config_.train.weight_decay);

  // Algorithm 2: mini-batch training against the frozen VFL model. All
  // per-batch buffers live outside the loop (or in the generator's layers)
  // and are refilled in place, so the generator side of a steady-state step
  // allocates nothing.
  training_history_.clear();
  std::vector<std::size_t> rows;
  rows.reserve(config_.train.batch_size);
  la::Matrix x_adv_batch, v_batch, gen_input, assembled, grad_generated;
  nn::LossResult loss;
  for (std::size_t epoch = 0; epoch < config_.train.epochs; ++epoch) {
    const std::vector<std::size_t> order = rng.Permutation(n);
    double loss_sum = 0.0;
    std::size_t num_batches = 0;
    for (std::size_t begin = 0; begin < n;
         begin += config_.train.batch_size) {
      const std::size_t end =
          std::min(begin + config_.train.batch_size, n);
      rows.assign(order.begin() + begin, order.begin() + end);
      view.x_adv.GatherRowsInto(rows, &x_adv_batch);
      view.confidences.GatherRowsInto(rows, &v_batch);

      optimizer.ZeroGrad();
      // Lines 7-9: generate, assemble, predict.
      BuildGeneratorInputInto(x_adv_batch, d_target, rng, &gen_input);
      const la::Matrix& generated = generator.Forward(gen_input);
      view.split.CombineInto(x_adv_batch, generated, &assembled);
      const la::Matrix simulated_v = model_->ForwardDiff(assembled);

      // Line 10: confidence loss; then back-propagate THROUGH the frozen
      // model to the assembled input and slice out the generated columns.
      nn::MseLossInto(simulated_v, v_batch, &loss);
      const la::Matrix grad_assembled = model_->BackwardToInput(loss.grad);
      grad_assembled.GatherColsInto(view.split.target_columns(),
                                    &grad_generated);
      if (config_.use_variance_constraint) {
        loss.value += VariancePenaltyValue(
            generated, config_.variance_lambda, config_.variance_tau);
        AddVariancePenaltyGradient(generated, config_.variance_lambda,
                                   config_.variance_tau, &grad_generated);
      }
      // Line 11: update the generator only; the VFL model never steps, and
      // nothing reads the gradient w.r.t. the generator's input.
      generator.BackwardParams(grad_generated);
      optimizer.Step();
      loss_sum += loss.value;
      ++num_batches;
    }
    training_history_.push_back(
        {epoch, loss_sum / static_cast<double>(num_batches)});
  }

  // Inference on the accumulated samples themselves (Sec. V-A): fresh random
  // vectors, one forward pass.
  la::Matrix inference_input;
  BuildGeneratorInputInto(view.x_adv, d_target, rng, &inference_input);
  return generator.Forward(inference_input);
}

la::Matrix GenerativeRegressionNetworkAttack::InferNaiveRegression(
    const fed::AdversaryView& view) {
  // Ablation case 4 (Table III): no generator — the unknown sample is
  // regressed "based solely on the federated model f and the model output v"
  // (Sec. VI-C). Without the x_adv anchor, the WHOLE input row is a free
  // variable per sample, optimized so f's output matches v; only the target
  // columns of the result are scored. As the paper observes, the inferred
  // values tend to diverge because the solution manifold is unconstrained.
  const std::size_t n = view.x_adv.rows();
  const std::size_t d = view.split.num_features();
  core::Rng rng(config_.train.seed);
  // Algorithm 2 initializes trainable parameters from N(0,1); in the naive
  // regression the estimates themselves are the parameters. Nothing tethers
  // them to the feature range, which is exactly why this variant diverges.
  la::Matrix init(n, d);
  for (std::size_t i = 0; i < init.size(); ++i) {
    init.data()[i] = rng.Gaussian();
  }
  nn::Parameter estimates(std::move(init));
  // Aggressive steps mimic regressing to convergence on an unconstrained
  // manifold.
  nn::Adam optimizer({&estimates}, 10.0 * config_.train.learning_rate);
  training_history_.clear();
  std::vector<std::size_t> rows;
  rows.reserve(config_.train.batch_size);
  la::Matrix v_batch, assembled;
  nn::LossResult loss;
  for (std::size_t epoch = 0; epoch < config_.train.epochs; ++epoch) {
    const std::vector<std::size_t> order = rng.Permutation(n);
    double loss_sum = 0.0;
    std::size_t num_batches = 0;
    for (std::size_t begin = 0; begin < n;
         begin += config_.train.batch_size) {
      const std::size_t end =
          std::min(begin + config_.train.batch_size, n);
      rows.assign(order.begin() + begin, order.begin() + end);
      view.confidences.GatherRowsInto(rows, &v_batch);
      estimates.value.GatherRowsInto(rows, &assembled);

      const la::Matrix simulated_v = model_->ForwardDiff(assembled);
      nn::MseLossInto(simulated_v, v_batch, &loss);
      const la::Matrix grad_assembled = model_->BackwardToInput(loss.grad);

      estimates.ZeroGrad();
      for (std::size_t i = 0; i < rows.size(); ++i) {
        for (std::size_t c = 0; c < d; ++c) {
          estimates.grad(rows[i], c) = grad_assembled(i, c);
        }
      }
      optimizer.Step();
      loss_sum += loss.value;
      ++num_batches;
    }
    training_history_.push_back(
        {epoch, loss_sum / static_cast<double>(num_batches)});
  }
  return estimates.value.GatherCols(view.split.target_columns());
}

}  // namespace vfl::attack
