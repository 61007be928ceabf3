#ifndef VFLFIA_FED_FEATURE_SPLIT_H_
#define VFLFIA_FED_FEATURE_SPLIT_H_

#include <vector>

#include "core/rng.h"
#include "la/matrix.h"

namespace vfl::fed {

/// Disjoint column partition of the feature space between the adversary side
/// (active party + colluding passive parties) and the attack target (the
/// remaining passive parties) — the two-party abstraction of Sec. III-C.
///
/// Column indices refer to the original dataset ordering, so Combine()
/// reassembles samples exactly as the VFL model expects them.
class FeatureSplit {
 public:
  FeatureSplit() = default;

  /// Builds a split from explicit column sets. The sets must be disjoint and
  /// cover {0, ..., d-1}.
  FeatureSplit(std::vector<std::size_t> adv_columns,
               std::vector<std::size_t> target_columns);

  /// Assigns the last ceil(fraction * d) columns to the target — the paper's
  /// "vary the fraction of d_target" sweep setup.
  static FeatureSplit TailFraction(std::size_t num_features,
                                   double target_fraction);

  /// Assigns a random ceil(fraction * d) subset to the target (the ablation
  /// study "randomly selects 40% of features", Sec. VI-C).
  static FeatureSplit RandomFraction(std::size_t num_features,
                                     double target_fraction, core::Rng& rng);

  std::size_t num_features() const {
    return adv_columns_.size() + target_columns_.size();
  }
  std::size_t num_adv_features() const { return adv_columns_.size(); }
  std::size_t num_target_features() const { return target_columns_.size(); }

  const std::vector<std::size_t>& adv_columns() const { return adv_columns_; }
  const std::vector<std::size_t>& target_columns() const {
    return target_columns_;
  }

  /// True when the original column `col` belongs to the adversary.
  bool IsAdvColumn(std::size_t col) const;

  /// Projects full-width rows onto the adversary's columns.
  la::Matrix ExtractAdv(const la::Matrix& x_full) const;

  /// Projects full-width rows onto the target's columns.
  la::Matrix ExtractTarget(const la::Matrix& x_full) const;

  /// Reassembles full-width rows from the two projections, restoring the
  /// original column order.
  la::Matrix Combine(const la::Matrix& x_adv, const la::Matrix& x_target) const;

  /// Allocation-free Combine for per-batch reassembly in training loops:
  /// `out` is resized (capacity reused) and fully overwritten. `out` must
  /// alias neither input.
  void CombineInto(const la::Matrix& x_adv, const la::Matrix& x_target,
                   la::Matrix* out) const;

  /// Rows [r0, r1) of CombineInto into an `out` it already sized.
  void CombineRows(const la::Matrix& x_adv, const la::Matrix& x_target,
                   std::size_t r0, std::size_t r1, la::Matrix* out) const;

 private:
  std::vector<std::size_t> adv_columns_;
  std::vector<std::size_t> target_columns_;
  /// owner_is_adv_[col] for O(1) membership tests.
  std::vector<bool> owner_is_adv_;
};

}  // namespace vfl::fed

#endif  // VFLFIA_FED_FEATURE_SPLIT_H_
