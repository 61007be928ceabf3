#include "fed/feature_split.h"

#include <algorithm>
#include <cmath>

#include "core/check.h"

namespace vfl::fed {

FeatureSplit::FeatureSplit(std::vector<std::size_t> adv_columns,
                           std::vector<std::size_t> target_columns)
    : adv_columns_(std::move(adv_columns)),
      target_columns_(std::move(target_columns)) {
  const std::size_t d = adv_columns_.size() + target_columns_.size();
  CHECK_GT(d, 0u);
  owner_is_adv_.assign(d, false);
  std::vector<bool> seen(d, false);
  for (const std::size_t col : adv_columns_) {
    CHECK_LT(col, d) << "adv column out of range";
    CHECK(!seen[col]) << "duplicate column " << col;
    seen[col] = true;
    owner_is_adv_[col] = true;
  }
  for (const std::size_t col : target_columns_) {
    CHECK_LT(col, d) << "target column out of range";
    CHECK(!seen[col]) << "duplicate column " << col;
    seen[col] = true;
  }
}

FeatureSplit FeatureSplit::TailFraction(std::size_t num_features,
                                        double target_fraction) {
  CHECK_GT(num_features, 0u);
  CHECK_GE(target_fraction, 0.0);
  CHECK_LE(target_fraction, 1.0);
  std::size_t num_target = static_cast<std::size_t>(
      std::ceil(target_fraction * static_cast<double>(num_features)));
  num_target = std::min(num_target, num_features);
  std::vector<std::size_t> adv, target;
  for (std::size_t col = 0; col < num_features - num_target; ++col) {
    adv.push_back(col);
  }
  for (std::size_t col = num_features - num_target; col < num_features;
       ++col) {
    target.push_back(col);
  }
  return FeatureSplit(std::move(adv), std::move(target));
}

FeatureSplit FeatureSplit::RandomFraction(std::size_t num_features,
                                          double target_fraction,
                                          core::Rng& rng) {
  CHECK_GT(num_features, 0u);
  CHECK_GE(target_fraction, 0.0);
  CHECK_LE(target_fraction, 1.0);
  std::size_t num_target = static_cast<std::size_t>(
      std::ceil(target_fraction * static_cast<double>(num_features)));
  num_target = std::min(num_target, num_features);
  std::vector<std::size_t> perm = rng.Permutation(num_features);
  std::vector<std::size_t> target(perm.begin(), perm.begin() + num_target);
  std::vector<std::size_t> adv(perm.begin() + num_target, perm.end());
  std::sort(target.begin(), target.end());
  std::sort(adv.begin(), adv.end());
  return FeatureSplit(std::move(adv), std::move(target));
}

bool FeatureSplit::IsAdvColumn(std::size_t col) const {
  CHECK_LT(col, owner_is_adv_.size());
  return owner_is_adv_[col];
}

la::Matrix FeatureSplit::ExtractAdv(const la::Matrix& x_full) const {
  CHECK_EQ(x_full.cols(), num_features());
  return x_full.GatherCols(adv_columns_);
}

la::Matrix FeatureSplit::ExtractTarget(const la::Matrix& x_full) const {
  CHECK_EQ(x_full.cols(), num_features());
  return x_full.GatherCols(target_columns_);
}

la::Matrix FeatureSplit::Combine(const la::Matrix& x_adv,
                                 const la::Matrix& x_target) const {
  la::Matrix full;
  CombineInto(x_adv, x_target, &full);
  return full;
}

void FeatureSplit::CombineInto(const la::Matrix& x_adv,
                               const la::Matrix& x_target,
                               la::Matrix* out) const {
  CHECK_EQ(x_adv.rows(), x_target.rows());
  CHECK_EQ(x_adv.cols(), adv_columns_.size());
  CHECK_EQ(x_target.cols(), target_columns_.size());
  CHECK(out != &x_adv);
  CHECK(out != &x_target);
  out->Resize(x_adv.rows(), num_features());
  CombineRows(x_adv, x_target, 0, x_adv.rows(), out);
}

void FeatureSplit::CombineRows(const la::Matrix& x_adv,
                               const la::Matrix& x_target, std::size_t r0,
                               std::size_t r1, la::Matrix* out) const {
  for (std::size_t r = r0; r < r1; ++r) {
    double* dst = out->RowPtr(r);
    const double* adv_row = x_adv.RowPtr(r);
    for (std::size_t j = 0; j < adv_columns_.size(); ++j) {
      dst[adv_columns_[j]] = adv_row[j];
    }
    const double* target_row = x_target.RowPtr(r);
    for (std::size_t j = 0; j < target_columns_.size(); ++j) {
      dst[target_columns_[j]] = target_row[j];
    }
  }
}

}  // namespace vfl::fed
