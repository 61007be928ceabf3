#ifndef VFLFIA_MODELS_DECISION_TREE_H_
#define VFLFIA_MODELS_DECISION_TREE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "core/rng.h"
#include "data/dataset.h"
#include "models/model.h"

namespace vfl::models {

/// Candidate thresholds a tree split search (CART here, GBDT's regression
/// trees too) examines per feature: midpoints between consecutive distinct
/// values, subsampled at quantiles when a column has more gaps than this. It
/// sets split granularity only; CART's training cost is two walks of a
/// sorted column per feature whatever the count.
inline constexpr std::size_t kMaxThresholdCandidates = 32;

/// CART training hyper-parameters.
struct DtConfig {
  /// Maximum tree depth (root at depth 0). The paper uses 5 for the DT model
  /// and 3 for RF member trees (Sec. VI-A).
  std::size_t max_depth = 5;
  /// Minimum samples each child must keep for a split to be valid.
  std::size_t min_samples_leaf = 1;
  /// Features examined per split; 0 = all (forests pass sqrt(d)).
  std::size_t max_features = 0;
  std::uint64_t seed = 42;
};

/// One slot of the full-binary-array tree layout. Nodes are indexed exactly
/// as in the paper's Algorithm 1: root at 0, children of i at 2i+1 / 2i+2.
/// Slots that the grown tree never reached have present == false.
struct TreeNode {
  bool present = false;
  bool is_leaf = false;
  /// Splitting feature (internal nodes; branch left when x[feature] <=
  /// threshold).
  int feature = -1;
  double threshold = 0.0;
  /// Predicted class (leaf nodes).
  int label = -1;
};

/// Binary CART decision tree with gini impurity splits, stored in the full
/// binary array layout required by the path restriction attack.
class DecisionTree : public Model {
 public:
  DecisionTree() = default;

  /// Trains on the full dataset.
  void Fit(const data::Dataset& dataset, const DtConfig& config = {});

  /// Trains on the given rows, which may repeat (bootstrap samples), with
  /// `rng` drawing the feature subsets.
  void FitRows(const data::Dataset& dataset,
               const std::vector<std::size_t>& rows, const DtConfig& config,
               core::Rng& rng);

  /// Builds a tree directly from a full-binary node array (tests, fixtures,
  /// deserialization). `nodes.size()` must be 2^(depth+1) - 1 for some
  /// depth; basic structural invariants are CHECKed.
  static DecisionTree FromNodes(std::vector<TreeNode> nodes,
                                std::size_t num_features,
                                std::size_t num_classes);

  /// One-hot confidence scores: 1 for the predicted class (Sec. II-A).
  void PredictProbaInto(const la::Matrix& x, la::Matrix* out) const override;
  std::unique_ptr<Model> Clone() const override {
    return std::make_unique<DecisionTree>(*this);
  }
  std::size_t num_features() const override { return num_features_; }
  std::size_t num_classes() const override { return num_classes_; }

  /// Predicted class for one sample (row pointer of width num_features()).
  int PredictOne(const double* x) const;

  /// Node indices visited root -> leaf for one sample.
  std::vector<std::size_t> PredictionPath(const double* x) const;

  /// Full binary array of size 2^(max_depth+1) - 1 (the paper's nf).
  const std::vector<TreeNode>& nodes() const { return nodes_; }

  /// Depth used to size the array (== config.max_depth of the last Fit).
  std::size_t max_depth() const { return max_depth_; }

  /// Number of root-to-leaf paths in the grown tree (the paper's np).
  std::size_t NumPredictionPaths() const;

  /// Indices of all leaf slots (present && is_leaf).
  std::vector<std::size_t> LeafIndices() const;

  static constexpr std::size_t LeftChild(std::size_t i) { return 2 * i + 1; }
  static constexpr std::size_t RightChild(std::size_t i) { return 2 * i + 2; }
  static constexpr std::size_t Parent(std::size_t i) { return (i - 1) / 2; }

 private:
  friend class RandomForest;

  /// One row of a feature column in ascending value order. Rows with equal
  /// values share a run: runs number the column's distinct values from 0.
  struct SortedEntry {
    double value;
    std::uint32_t row;
    std::uint32_t run;
  };

  /// Every feature's column sorted once per fit, over a set of distinct rows
  /// (a forest's trees share one over all rows). Nodes holding many of those
  /// rows search their splits by walking these; small nodes sort their own.
  class SortedColumns {
   public:
    /// `rows` holds distinct row ids.
    SortedColumns(const data::Dataset& dataset,
                  const std::vector<std::size_t>& rows);
    std::size_t num_rows() const { return num_rows_; }
    const SortedEntry* column(std::size_t feature) const {
      return entries_.data() + feature * num_rows_;
    }

   private:
    std::size_t num_rows_;
    std::vector<SortedEntry> entries_;  // feature-major
  };

  struct SplitChoice {
    bool valid = false;
    int feature = -1;
    double threshold = 0.0;
    double gini_gain = 0.0;
  };

  /// A dataset row's state in the node being split: its copies there (0 when
  /// absent; bootstrap samples repeat rows) and its label.
  struct RowState {
    std::uint32_t copies;
    int label;
  };

  /// Buffers FindBestSplit reuses across the features and nodes of one fit.
  struct SplitScratch {
    std::vector<RowState> row_state;       // indexed by dataset row
    std::vector<std::size_t> node_rows;    // the node's distinct rows
    std::vector<SortedEntry> node_column;  // a small node's own sorted column
    std::vector<double> distinct;          // a column's distinct values
    std::vector<std::size_t> parent_counts, left_counts, right_counts;
  };

  /// FitRows over a prebuilt order covering every row in `rows`.
  void FitSorted(const data::Dataset& dataset,
                 const std::vector<std::size_t>& rows,
                 const SortedColumns& columns, const DtConfig& config,
                 core::Rng& rng);
  void BuildNode(const data::Dataset& dataset, std::size_t node_index,
                 const std::vector<std::size_t>& rows, std::size_t depth,
                 const SortedColumns& columns, const DtConfig& config,
                 core::Rng& rng, SplitScratch& scratch);
  SplitChoice FindBestSplit(const data::Dataset& dataset,
                            const std::vector<std::size_t>& rows,
                            const SortedColumns& columns,
                            const DtConfig& config, core::Rng& rng,
                            SplitScratch& scratch) const;
  int MajorityLabel(const data::Dataset& dataset,
                    const std::vector<std::size_t>& rows) const;

  std::vector<TreeNode> nodes_;
  std::size_t num_features_ = 0;
  std::size_t num_classes_ = 0;
  std::size_t max_depth_ = 0;
};

}  // namespace vfl::models

#endif  // VFLFIA_MODELS_DECISION_TREE_H_
