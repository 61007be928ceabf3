#ifndef VFLFIA_NN_OPTIMIZER_H_
#define VFLFIA_NN_OPTIMIZER_H_

#include <vector>

#include "nn/module.h"

namespace vfl::nn {

/// Adam (Kingma & Ba 2015) with bias correction and L2 weight decay, over a
/// fixed parameter list. The list is captured at construction; the moment
/// estimates are indexed by position, so the list must not change between
/// Step calls.
class Adam {
 public:
  Adam(std::vector<Parameter*> params, double learning_rate,
       double beta1 = 0.9, double beta2 = 0.999, double epsilon = 1e-8,
       double weight_decay = 0.0);

  /// Applies one update from the accumulated gradients.
  void Step();

  /// Clears accumulated gradients on all managed parameters.
  void ZeroGrad() {
    for (Parameter* p : params_) p->ZeroGrad();
  }

 private:
  std::vector<Parameter*> params_;
  double learning_rate_;
  double beta1_;
  double beta2_;
  double epsilon_;
  double weight_decay_;
  long step_count_ = 0;
  std::vector<la::Matrix> first_moment_;
  std::vector<la::Matrix> second_moment_;
};

}  // namespace vfl::nn

#endif  // VFLFIA_NN_OPTIMIZER_H_
