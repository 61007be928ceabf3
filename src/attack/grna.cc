#include "attack/grna.h"

#include <algorithm>
#include <memory>
#include <numeric>
#include <span>

#include "core/rng.h"
#include "la/matrix_ops.h"
#include "la/parallel.h"
#include "nn/activation.h"
#include "nn/layer_norm.h"
#include "nn/linear.h"
#include "nn/loss.h"
#include "nn/optimizer.h"
#include "nn/trainer.h"

namespace vfl::attack {

namespace {

double PenaltyFromVariances(const std::vector<double>& vars, double lambda,
                            double tau) {
  double penalty = 0.0;
  for (const double v : vars) penalty += std::max(0.0, v - tau);
  return lambda * penalty;
}

/// Rows [r0, r1) of AddVariancePenaltyGradient, from the batch's column
/// moments.
void AddPenaltyGradientRows(const la::Matrix& generated,
                            const std::vector<double>& means,
                            const std::vector<double>& vars, double lambda,
                            double tau, std::size_t r0, std::size_t r1,
                            la::Matrix* grad) {
  const double scale =
      2.0 * lambda / static_cast<double>(generated.rows());
  for (std::size_t r = r0; r < r1; ++r) {
    const double* gen = generated.RowPtr(r);
    double* g = grad->RowPtr(r);
    for (std::size_t c = 0; c < generated.cols(); ++c) {
      if (vars[c] > tau) g[c] += scale * (gen[c] - means[c]);  // hinge active
    }
  }
}

/// out(r, j) = in(r, columns[j]) for rows [r0, r1), into a sized `out`.
void GatherColumnRows(const la::Matrix& in,
                      const std::vector<std::size_t>& columns, std::size_t r0,
                      std::size_t r1, la::Matrix* out) {
  for (std::size_t r = r0; r < r1; ++r) {
    const double* src = in.RowPtr(r);
    double* dst = out->RowPtr(r);
    for (std::size_t j = 0; j < columns.size(); ++j) dst[j] = src[columns[j]];
  }
}

}  // namespace

double VariancePenaltyValue(const la::Matrix& generated, double lambda,
                            double tau) {
  return PenaltyFromVariances(la::ColVariances(generated), lambda, tau);
}

void AddVariancePenaltyGradient(const la::Matrix& generated, double lambda,
                                double tau, la::Matrix* grad) {
  CHECK_EQ(grad->rows(), generated.rows());
  CHECK_EQ(grad->cols(), generated.cols());
  if (generated.rows() == 0) return;
  AddPenaltyGradientRows(generated, la::ColMeans(generated),
                         la::ColVariances(generated), lambda, tau, 0,
                         generated.rows(), grad);
}

GenerativeRegressionNetworkAttack::GenerativeRegressionNetworkAttack(
    models::DifferentiableModel* model, GrnaConfig config)
    : model_(model), config_(std::move(config)) {
  CHECK(model_ != nullptr);
  CHECK(config_.use_adv_input || config_.use_random_input)
      << "generator needs at least one input block";
}

void GenerativeRegressionNetworkAttack::GeneratorInputRows(
    const la::Matrix& x_adv, const core::GaussianBlock& gaussians,
    std::size_t d_target, std::size_t r0, std::size_t r1,
    la::Matrix* out) const {
  const std::size_t d_adv = config_.use_adv_input ? x_adv.cols() : 0;
  for (std::size_t r = r0; r < r1; ++r) {
    double* dst = out->RowPtr(r);
    if (config_.use_adv_input) {
      std::copy(x_adv.RowPtr(r), x_adv.RowPtr(r) + d_adv, dst);
    }
    if (config_.use_random_input) {
      gaussians.ValuesInto(r * d_target, (r + 1) * d_target, dst + d_adv);
    }
  }
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
  // per-batch and per-epoch buffers (the epoch's order, the loss history)
  // live outside the loop (or in the layers) and are refilled in place, so
  // the generator side of a steady-state step allocates nothing, at an
  // epoch's end too. Each step is three fork-joins on la's team: rows
  // gathered and through the generator, the frozen model and back (A1),
  // rows back through the generator (A2), then the generator's parameter
  // rows (B). Every draw from `rng` and every sum across rows stays serial;
  // the lanes only turn their rows' uniforms into Gaussians.
  training_history_.clear();
  training_history_.reserve(config_.train.epochs);
  std::vector<std::size_t> order(n);
  la::Matrix x_adv_batch, v_batch, gen_input, assembled, grad_generated;
  core::GaussianBlock gaussians;
  nn::LossResult loss;
  std::vector<double> col_means, col_vars;
  const std::vector<std::size_t>& target_columns =
      view.split.target_columns();
  // A row's generator forward and backward cost about two multiply-adds per
  // weight.
  const std::size_t macs_per_row = 2 * optimizer.num_elements();
  for (std::size_t epoch = 0; epoch < config_.train.epochs; ++epoch) {
    // Rng::Permutation's draws, into the same vector every epoch.
    std::iota(order.begin(), order.end(), std::size_t{0});
    rng.Shuffle(order);
    double loss_sum = 0.0;
    std::size_t num_batches = 0;
    for (std::size_t begin = 0; begin < n;
         begin += config_.train.batch_size) {
      const std::size_t end =
          std::min(begin + config_.train.batch_size, n);
      const std::span<const std::size_t> rows(order.data() + begin,
                                              end - begin);
      // The batch's N(0,1) inputs, d_target per row in row-major order.
      rng.DrawGaussians(rows.size() * d_target, &gaussians);

      // Size every buffer the regions fill.
      x_adv_batch.Resize(rows.size(), view.x_adv.cols());
      v_batch.Resize(rows.size(), view.confidences.cols());
      gen_input.Resize(rows.size(), input_width);
      const la::Matrix& generated = generator.BeginForward(gen_input);
      assembled.Resize(rows.size(), view.split.num_features());
      const la::Matrix& simulated_v = model_->BeginForwardDiff(assembled);
      loss.grad.Resize(simulated_v.rows(), simulated_v.cols());
      const la::Matrix& grad_assembled =
          model_->BeginBackwardToInput(loss.grad);
      grad_generated.Resize(rows.size(), d_target);
      const std::size_t chunk = la::RowChunk(rows.size(), macs_per_row);

      // Lines 7-10, row by row: gather the rows' x_adv and v, build their
      // generator input, generate, assemble, predict, take the confidence
      // loss gradient, back-propagate it THROUGH the frozen model to the
      // assembled input and slice out the generated columns.
      la::ParallelFor(0, rows.size(), chunk, [&](std::size_t r0,
                                                 std::size_t r1) {
        view.x_adv.GatherRowRangeInto(rows, r0, r1, &x_adv_batch);
        view.confidences.GatherRowRangeInto(rows, r0, r1, &v_batch);
        GeneratorInputRows(x_adv_batch, gaussians, d_target, r0, r1,
                           &gen_input);
        generator.ForwardRows(gen_input, r0, r1);
        view.split.CombineRows(x_adv_batch, generated, r0, r1, &assembled);
        model_->ForwardDiffRows(assembled, r0, r1);
        nn::MseLossGradRows(simulated_v, v_batch, r0, r1, &loss.grad);
        model_->BackwardToInputRows(loss.grad, r0, r1);
        GatherColumnRows(grad_assembled, target_columns, r0, r1,
                         &grad_generated);
      });
      loss.value = nn::MseLossValue(simulated_v, v_batch);
      const bool penalize = config_.use_variance_constraint;
      if (penalize) {
        la::ColMeansInto(generated, &col_means);
        la::ColVariancesInto(generated, col_means, &col_vars);
        loss.value += PenaltyFromVariances(col_vars, config_.variance_lambda,
                                           config_.variance_tau);
      }

      // Line 11: update the generator only; the VFL model never steps, and
      // nothing reads the gradient w.r.t. the generator's input.
      generator.BeginBackwardParams(grad_generated);
      la::ParallelFor(0, rows.size(), chunk, [&](std::size_t r0,
                                                 std::size_t r1) {
        if (penalize) {
          AddPenaltyGradientRows(generated, col_means, col_vars,
                                 config_.variance_lambda,
                                 config_.variance_tau, r0, r1,
                                 &grad_generated);
        }
        generator.BackwardRows(grad_generated, r0, r1);
      });
      nn::StepParameters(generator, optimizer, grad_generated);
      loss_sum += loss.value;
      ++num_batches;
    }
    training_history_.push_back(
        {epoch, loss_sum / static_cast<double>(num_batches)});
  }

  // Inference on the accumulated samples themselves (Sec. V-A): fresh random
  // vectors, one forward pass, its rows built and run by the team.
  rng.DrawGaussians(n * d_target, &gaussians);
  la::Matrix inference_input(n, input_width);
  const la::Matrix& inferred = generator.BeginForward(inference_input);
  la::ParallelFor(
      0, n, la::RowChunk(n, optimizer.num_elements()),
      [&](std::size_t r0, std::size_t r1) {
        GeneratorInputRows(view.x_adv, gaussians, d_target, r0, r1,
                           &inference_input);
        generator.ForwardRows(inference_input, r0, r1);
      });
  return inferred;
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
  training_history_.reserve(config_.train.epochs);
  std::vector<std::size_t> order(n);
  std::vector<std::size_t> rows;
  rows.reserve(config_.train.batch_size);
  la::Matrix v_batch, assembled;
  nn::LossResult loss;
  for (std::size_t epoch = 0; epoch < config_.train.epochs; ++epoch) {
    std::iota(order.begin(), order.end(), std::size_t{0});
    rng.Shuffle(order);
    double loss_sum = 0.0;
    std::size_t num_batches = 0;
    for (std::size_t begin = 0; begin < n;
         begin += config_.train.batch_size) {
      const std::size_t end =
          std::min(begin + config_.train.batch_size, n);
      rows.assign(order.begin() + begin, order.begin() + end);
      view.confidences.GatherRowsInto(rows, &v_batch);
      estimates.value.GatherRowsInto(rows, &assembled);

      const la::Matrix& simulated_v = model_->ForwardDiff(assembled);
      nn::MseLossInto(simulated_v, v_batch, &loss);
      const la::Matrix& grad_assembled = model_->BackwardToInput(loss.grad);

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
