#ifndef VFLFIA_FED_PARTY_H_
#define VFLFIA_FED_PARTY_H_

#include <algorithm>
#include <span>
#include <string>
#include <vector>

#include "core/check.h"
#include "la/matrix.h"

namespace vfl::fed {

/// One data owner in the vertical federation. A party holds a disjoint set of
/// feature columns (identified by their indices in the global feature space)
/// for every sample in the aligned prediction dataset; the active party
/// additionally initiates predictions and receives the confidence scores.
///
/// Parties expose their feature values only through ProvideFeaturesInto(),
/// which serve::PredictionServer calls while assembling a joint sample — this
/// is the boundary the simulated secure protocol enforces.
class Party {
 public:
  /// `columns[j]` is the global feature index of local column j; `features`
  /// holds the party's columns for all n aligned samples (n x columns.size()).
  Party(std::string name, std::vector<std::size_t> columns,
        la::Matrix features)
      : name_(std::move(name)),
        columns_(std::move(columns)),
        features_(std::move(features)) {
    CHECK_EQ(columns_.size(), features_.cols());
  }

  const std::string& name() const { return name_; }
  const std::vector<std::size_t>& columns() const { return columns_; }
  std::size_t num_samples() const { return features_.rows(); }
  std::size_t num_local_features() const { return columns_.size(); }

  /// Writes this party's feature values for the aligned sample `sample_id`
  /// into `values` (num_local_features() entries, local column order; called
  /// only by the joint prediction protocol, which reuses the buffer).
  void ProvideFeaturesInto(std::size_t sample_id,
                           std::span<double> values) const {
    CHECK_LT(sample_id, features_.rows());
    CHECK_EQ(values.size(), columns_.size());
    const double* row = features_.RowPtr(sample_id);
    std::copy(row, row + columns_.size(), values.begin());
  }

  /// ProvideFeaturesInto a fresh vector.
  std::vector<double> ProvideFeatures(std::size_t sample_id) const {
    std::vector<double> values(columns_.size());
    ProvideFeaturesInto(sample_id, values);
    return values;
  }

  /// The party's full local prediction-dataset block. Only the party itself
  /// (or its colluders) may read this; attack code accesses it exclusively
  /// for the adversary side and for ground-truth evaluation.
  const la::Matrix& local_features() const { return features_; }

 private:
  std::string name_;
  std::vector<std::size_t> columns_;
  la::Matrix features_;
};

}  // namespace vfl::fed

#endif  // VFLFIA_FED_PARTY_H_
