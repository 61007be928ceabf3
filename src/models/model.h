#ifndef VFLFIA_MODELS_MODEL_H_
#define VFLFIA_MODELS_MODEL_H_

#include <memory>
#include <vector>

#include "data/dataset.h"
#include "la/matrix.h"

namespace vfl::models {

/// A trained classifier. PredictProba returns the paper's "confidence score
/// vector" v = (v_1, ..., v_c) per sample (Sec. II-A): each row is a
/// probability distribution over classes (for a decision tree, a one-hot
/// row; for a random forest, per-class vote fractions).
class Model {
 public:
  virtual ~Model() = default;

  /// Confidence scores into `out`, which is resized to (x.rows() x
  /// num_classes()) and fully overwritten; its capacity is reused, so a
  /// caller that keeps the buffer predicts without allocating (the serving
  /// path does, per thread). `out` must not alias `x`. Safe under concurrent
  /// callers that each own their buffer.
  virtual void PredictProbaInto(const la::Matrix& x, la::Matrix* out) const = 0;

  /// Confidence scores, shape (x.rows() x num_classes()): an allocating
  /// wrapper over PredictProbaInto.
  la::Matrix PredictProba(const la::Matrix& x) const {
    la::Matrix out;
    PredictProbaInto(x, &out);
    return out;
  }

  /// Expected input width d.
  virtual std::size_t num_features() const = 0;

  /// Number of classes c.
  virtual std::size_t num_classes() const = 0;

  /// Deep copy of the trained model. Differentiable families carry mutable
  /// forward/backward caches, so concurrent workloads (the parallel
  /// ExperimentRunner) give each worker its own clone instead of sharing one
  /// instance across threads.
  virtual std::unique_ptr<Model> Clone() const = 0;
};

/// A classifier whose confidence output is differentiable w.r.t. its input.
/// This is the black-box contract the GRNA attack needs (Sec. V-A): forward
/// a candidate sample, obtain dLoss/dInput, never touch the parameters.
/// LR and NN models implement it directly; RF gains it through RfSurrogate.
///
/// Like nn::Module, each pass is implemented once over a range of rows: a
/// Begin* call sizes the model's buffers for the batch, then *Rows calls
/// fill disjoint row ranges, possibly on different threads at once, with
/// the bits of one whole-batch call. Results are references into the
/// model's own buffers, valid until its next call of the same pass.
class DifferentiableModel : public Model {
 public:
  /// Sizes the forward caches for batch `x`; returns the confidence buffer
  /// whose rows ForwardDiffRows fills.
  virtual const la::Matrix& BeginForwardDiff(const la::Matrix& x) = 0;

  /// Confidence rows [r0, r1) of `x` (the matrix BeginForwardDiff saw), as
  /// PredictProba computes them, caching what BackwardToInputRows needs.
  virtual void ForwardDiffRows(const la::Matrix& x, std::size_t r0,
                               std::size_t r1) = 0;

  /// Sizes the input-gradient buffer for `grad_proba`, dLoss/dConfidences
  /// of the last forward batch; returns it.
  virtual const la::Matrix& BeginBackwardToInput(
      const la::Matrix& grad_proba) = 0;

  /// dLoss/dInput rows [r0, r1). Must not modify model parameters (the
  /// model is frozen from the attacker's perspective), and leaves parameter
  /// gradients untouched too: nn-backed models back-propagate with
  /// nn::Module::BackwardRows, which computes no weight gradients.
  virtual void BackwardToInputRows(const la::Matrix& grad_proba,
                                   std::size_t r0, std::size_t r1) = 0;

  /// Forward pass over the whole batch that caches intermediate state for
  /// BackwardToInput. Returns confidence scores like PredictProba.
  const la::Matrix& ForwardDiff(const la::Matrix& x) {
    const la::Matrix& proba = BeginForwardDiff(x);
    ForwardDiffRows(x, 0, x.rows());
    return proba;
  }

  /// Given dLoss/dConfidences from the preceding ForwardDiff call, returns
  /// dLoss/dInput for the whole batch.
  const la::Matrix& BackwardToInput(const la::Matrix& grad_proba) {
    const la::Matrix& grad_input = BeginBackwardToInput(grad_proba);
    BackwardToInputRows(grad_proba, 0, grad_proba.rows());
    return grad_input;
  }
};

/// Arg-max class decision per row of a confidence matrix.
std::vector<int> ArgmaxClasses(const la::Matrix& proba);

/// Fraction of samples whose arg-max prediction matches the label.
double Accuracy(const Model& model, const data::Dataset& dataset);

}  // namespace vfl::models

#endif  // VFLFIA_MODELS_MODEL_H_
