#ifndef VFLFIA_MODELS_RF_SURROGATE_H_
#define VFLFIA_MODELS_RF_SURROGATE_H_

#include <memory>
#include <vector>

#include "models/model.h"
#include "models/random_forest.h"
#include "nn/sequential.h"
#include "nn/trainer.h"

namespace vfl::models {

/// Configuration for distilling a random forest into a differentiable MLP
/// (Sec. V-B of the paper, following Biau et al., "Neural random forests").
struct SurrogateConfig {
  /// Number of dummy samples drawn uniformly from the feature space (0,1)^d
  /// and labelled by the forest's confidence output.
  std::size_t num_dummy_samples = 20000;
  /// Hidden layer sizes; the paper uses (2000, 200) (Sec. VI-C).
  std::vector<std::size_t> hidden_sizes = {2000, 200};
  nn::TrainConfig train;

  SurrogateConfig() {
    train.epochs = 30;
    train.batch_size = 128;
    train.learning_rate = 1e-3;
  }
};

/// Differentiable stand-in for a random forest. The RF objective is not
/// differentiable, so GRNA cannot back-propagate through it; the adversary
/// instead (1) samples dummy inputs from the known feature ranges, (2) labels
/// them with the forest, (3) fits this MLP to the (input, confidence) pairs,
/// and (4) attacks the MLP in the forest's place. No target-party data is
/// used anywhere in this process — only the released model and the public
/// feature ranges, consistent with the threat model.
class RfSurrogate : public DifferentiableModel {
 public:
  RfSurrogate() = default;

  /// Distills any non-differentiable teacher (random forest, GBDT, ...)
  /// into the surrogate network with dummy samples drawn uniformly from the
  /// whole feature space (0,1)^d (Sec. V-B).
  void Distill(const Model& teacher, const SurrogateConfig& config = {});

  /// Conditioned distillation: dummy samples reuse the adversary's own
  /// observed feature values on `adv_columns` (rows drawn from
  /// `x_adv_samples`) and fill the remaining columns uniformly. This
  /// concentrates surrogate fidelity on exactly the input slice the GRNA
  /// attack queries — (real x_adv, generated x_target) — and uses only data
  /// the adversary already holds, so the threat model is unchanged.
  void DistillConditioned(const Model& teacher,
                          const std::vector<std::size_t>& adv_columns,
                          const la::Matrix& x_adv_samples,
                          const SurrogateConfig& config = {});

  /// Forest-specific conveniences (the paper's Sec. V-B case).
  void Fit(const RandomForest& forest, const SurrogateConfig& config = {}) {
    Distill(forest, config);
  }
  void FitConditioned(const RandomForest& forest,
                      const std::vector<std::size_t>& adv_columns,
                      const la::Matrix& x_adv_samples,
                      const SurrogateConfig& config = {}) {
    DistillConditioned(forest, adv_columns, x_adv_samples, config);
  }

  void PredictProbaInto(const la::Matrix& x, la::Matrix* out) const override;
  std::size_t num_features() const override { return num_features_; }
  std::size_t num_classes() const override { return num_classes_; }
  std::unique_ptr<Model> Clone() const override;

  const la::Matrix& BeginForwardDiff(const la::Matrix& x) override;
  void ForwardDiffRows(const la::Matrix& x, std::size_t r0,
                       std::size_t r1) override;
  const la::Matrix& BeginBackwardToInput(const la::Matrix& grad_proba) override;
  void BackwardToInputRows(const la::Matrix& grad_proba, std::size_t r0,
                           std::size_t r1) override;

  /// The distilled layer stack, ending in Softmax (null before Fit).
  const nn::Sequential* network() const { return network_.get(); }

  /// Mean distillation loss per epoch from the last Fit.
  const std::vector<nn::EpochStats>& training_history() const {
    return training_history_;
  }

  /// Mean squared error between surrogate and teacher confidences on fresh
  /// uniform samples — a fidelity diagnostic.
  double FidelityMse(const Model& teacher, std::size_t num_samples,
                     std::uint64_t seed = 7) const;

 private:
  /// Shared distillation core over a prepared dummy design matrix.
  void FitOnDummies(const Model& teacher, const la::Matrix& dummy_x,
                    const SurrogateConfig& config);

  /// Network ends in Softmax so outputs are valid confidence vectors.
  std::unique_ptr<nn::Sequential> network_;
  std::size_t num_features_ = 0;
  std::size_t num_classes_ = 0;
  std::vector<nn::EpochStats> training_history_;
};

}  // namespace vfl::models

#endif  // VFLFIA_MODELS_RF_SURROGATE_H_
