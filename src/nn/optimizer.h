#ifndef VFLFIA_NN_OPTIMIZER_H_
#define VFLFIA_NN_OPTIMIZER_H_

#include <utility>
#include <vector>

#include "nn/module.h"

namespace vfl::nn {

/// Adam (Kingma & Ba 2015) with bias correction and L2 weight decay, over a
/// fixed parameter list. The list is captured at construction; the moment
/// estimates are indexed by position, so the list must not change between
/// Step calls.
///
/// Every element updates on its own, so a step also runs as BeginStep()
/// then StepRows() over any partition of the parameter rows (the rows of
/// the list's matrices, concatenated in order), with the bits of Step().
class Adam {
 public:
  Adam(std::vector<Parameter*> params, double learning_rate,
       double beta1 = 0.9, double beta2 = 0.999, double epsilon = 1e-8,
       double weight_decay = 0.0);

  /// Applies one update from the accumulated gradients.
  void Step();

  /// The serial part of Step(): advances the step count and bumps every
  /// managed parameter's version.
  void BeginStep();

  /// Applies the update BeginStep() began to parameter rows [p0, p1).
  void StepRows(std::size_t p0, std::size_t p1);

  /// Clears accumulated gradients on all managed parameters.
  void ZeroGrad() {
    for (Parameter* p : params_) p->ZeroGrad();
  }

  /// Clears the gradient of parameter rows [p0, p1).
  void ZeroGradRows(std::size_t p0, std::size_t p1);

  /// Parameter rows and elements over the whole list.
  std::size_t num_rows() const { return row_offsets_.back(); }
  std::size_t num_elements() const { return element_offsets_.back(); }

  /// The parameter rows whose first element lies in [e0, e1) of the flat
  /// element order: a partition of the elements maps to a partition of the
  /// rows, balanced by size.
  std::pair<std::size_t, std::size_t> RowsStartingIn(std::size_t e0,
                                                     std::size_t e1) const;

 private:
  /// Calls fn(param index, first element, end element) for each parameter
  /// overlapping rows [p0, p1).
  template <typename Fn>
  void ForEachRowSpan(std::size_t p0, std::size_t p1, Fn fn) const;

  std::vector<Parameter*> params_;
  double learning_rate_;
  double beta1_;
  double beta2_;
  double epsilon_;
  double weight_decay_;
  long step_count_ = 0;
  double bias1_ = 0.0;  // 1 - beta1^t of the step begun
  double bias2_ = 0.0;  // 1 - beta2^t
  std::vector<la::Matrix> first_moment_;
  std::vector<la::Matrix> second_moment_;
  /// Prefix sums over params_: row_offsets_[i] is parameter i's first row,
  /// element_offsets_[i] its first element; the last entries are totals.
  std::vector<std::size_t> row_offsets_;
  std::vector<std::size_t> element_offsets_;
};

}  // namespace vfl::nn

#endif  // VFLFIA_NN_OPTIMIZER_H_
