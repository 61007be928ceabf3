#ifndef VFLFIA_NN_DROPOUT_H_
#define VFLFIA_NN_DROPOUT_H_

#include <memory>

#include "core/rng.h"
#include "nn/activation.h"

namespace vfl::nn {

/// Inverted dropout (Srivastava et al. 2014): during training each activation
/// is zeroed with probability `rate` and survivors are scaled by
/// 1/(1-rate); at inference the layer is the identity. Used both as a
/// regularizer for the VFL NN model and as the paper's Section VII
/// countermeasure against GRNA (Fig. 11e-f).
class Dropout : public ShapePreservingLayer {
 public:
  /// `rate` in [0, 1): probability of dropping each unit. The layer keeps a
  /// forked child of `rng` so mask generation does not perturb the caller's
  /// stream.
  Dropout(double rate, core::Rng& rng);

  /// Draws the whole batch's mask, in row-major order, before any rows run.
  const la::Matrix& BeginForward(const la::Matrix& input) override;
  void ForwardRows(const la::Matrix& input, std::size_t r0,
                   std::size_t r1) override;
  void BackwardRows(const la::Matrix& grad_output, std::size_t r0,
                    std::size_t r1) override;
  /// At inference dropout is the identity, so the const path is trivially
  /// state-free.
  la::Matrix InferenceForward(const la::Matrix& input) const override {
    return input;
  }
  void SetTraining(bool training) override { training_ = training; }
  ModulePtr Clone() const override { return std::make_unique<Dropout>(*this); }

  double rate() const { return rate_; }
  bool training() const { return training_; }

 private:
  double rate_;
  core::Rng rng_;
  bool training_ = true;
  la::Matrix cached_mask_;
};

}  // namespace vfl::nn

#endif  // VFLFIA_NN_DROPOUT_H_
