#ifndef VFLFIA_ATTACK_GRNA_H_
#define VFLFIA_ATTACK_GRNA_H_

#include <vector>

#include "attack/attack.h"
#include "core/rng.h"
#include "models/model.h"
#include "nn/sequential.h"
#include "nn/trainer.h"

namespace vfl::attack {

/// Hyper-parameters and ablation switches for the generative regression
/// network attack. The four boolean switches correspond to Table III of the
/// paper (case 1 = !use_adv_input, case 2 = !use_random_input, case 3 =
/// !use_variance_constraint, case 4 = !use_generator).
struct GrnaConfig {
  /// Generator hidden sizes; the paper uses (600, 200, 100) (Sec. VI-C).
  std::vector<std::size_t> hidden_sizes = {600, 200, 100};
  /// LayerNorm after each hidden layer (Sec. VI-C).
  bool use_layer_norm = true;
  /// Feed x_adv to the generator (ablation case 1 removes it).
  bool use_adv_input = true;
  /// Concatenate a fresh N(0,1) random vector of size d_target each batch
  /// (ablation case 2 removes it).
  bool use_random_input = true;
  /// Penalize generated-value variance above `variance_tau` (ablation case 3
  /// removes it). Computed purely from generated values — no prior needed.
  bool use_variance_constraint = true;
  /// Replace the generator by direct per-sample regression on the federated
  /// model output (ablation case 4 sets this false).
  bool use_generator = true;
  /// Weight of the variance penalty.
  double variance_lambda = 0.5;
  /// Variance threshold: per-feature batch variance above this is penalized
  /// ("penalize the generator when the variance of x̂_target is too large",
  /// Sec. V-A). Typical per-feature variances of min–max normalized tabular
  /// data sit near 0.02-0.06; the default hinge keeps generated spread in
  /// that band without using any prior of the target's actual distribution.
  double variance_tau = 0.05;
  nn::TrainConfig train;

  GrnaConfig() {
    train.epochs = 40;
    train.batch_size = 64;
    train.learning_rate = 1e-3;
    // Mild L2 on the generator keeps its sigmoid output away from the
    // saturated corners, where piecewise-constant surrogates provide no
    // useful gradient.
    train.weight_decay = 1e-4;
  }
};

/// Generative regression network attack (Sec. V, Algorithm 2): trains a
/// generator G(x_adv ⊕ r) -> x̂_target such that the frozen VFL model's
/// confidence output on the assembled sample (x_adv ⊕ x̂_target) matches the
/// observed confidences. Works for any model whose confidence output is
/// differentiable w.r.t. its input; random forests are attacked through
/// models::RfSurrogate.
class GenerativeRegressionNetworkAttack : public FeatureInferenceAttack {
 public:
  /// `model` is the differentiable (surrogate of the) released VFL model; it
  /// is used strictly frozen — only gradients w.r.t. inputs are consumed.
  GenerativeRegressionNetworkAttack(models::DifferentiableModel* model,
                                    GrnaConfig config = {});

  core::Status Prepare(const fed::FeatureSplit& split,
                       fed::QueryChannel& channel) override;
  /// Accumulates the full prediction set through the channel — GRNA's
  /// "accumulate predictions in the long term" (Sec. V) is literally its
  /// query phase.
  core::Status Execute() override;
  /// Trains the generator on the accumulated predictions (the samples to be
  /// attacked are exactly the training samples, Sec. V-A) and returns the
  /// inferred target block.
  core::StatusOr<la::Matrix> Finalize() override;
  std::string name() const override { return "GRNA"; }

  /// Mean attack loss per epoch from the last Infer call.
  const std::vector<nn::EpochStats>& training_history() const {
    return training_history_;
  }

 private:
  la::Matrix InferWithGenerator(const fed::AdversaryView& view);
  /// Ablation case 4: optimize one free x̂_target row per sample directly
  /// against the model output, with no generator network.
  la::Matrix InferNaiveRegression(const fed::AdversaryView& view);

  /// Rows [r0, r1) of the generator input, per the ablation switches, into
  /// a sized `out`: row r is row r of `x_adv` (unless ablated), then values
  /// [r * d_target, (r + 1) * d_target) of `gaussians` (unless ablated). The
  /// caller draws d_target Gaussians per row whichever blocks are enabled,
  /// so ablation switches never shift the random stream.
  void GeneratorInputRows(const la::Matrix& x_adv,
                          const core::GaussianBlock& gaussians,
                          std::size_t d_target, std::size_t r0,
                          std::size_t r1, la::Matrix* out) const;

  models::DifferentiableModel* model_;
  GrnaConfig config_;
  std::vector<nn::EpochStats> training_history_;
  /// Confidence vectors observed through the channel (Execute).
  la::Matrix confidences_;
};

/// Adds the gradient of lambda * sum_j max(0, Var_j(x) - tau) w.r.t. x into
/// `grad` (helper shared with tests). Var_j is the per-column population
/// variance of the batch.
void AddVariancePenaltyGradient(const la::Matrix& generated, double lambda,
                                double tau, la::Matrix* grad);

/// Value of the variance penalty lambda * sum_j max(0, Var_j(x) - tau).
double VariancePenaltyValue(const la::Matrix& generated, double lambda,
                            double tau);

}  // namespace vfl::attack

#endif  // VFLFIA_ATTACK_GRNA_H_
