#include "models/decision_tree.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <utility>

#include "la/parallel.h"

namespace vfl::models {

namespace {

/// Gini impurity of a class histogram.
double Gini(const std::vector<std::size_t>& counts, std::size_t total) {
  if (total == 0) return 0.0;
  double sum_sq = 0.0;
  for (const std::size_t count : counts) {
    const double p = static_cast<double>(count) / static_cast<double>(total);
    sum_sq += p * p;
  }
  return 1.0 - sum_sq;
}

/// Sorts column entries by value and numbers their runs of equal values from
/// 0. Equal values form one run whatever their order among themselves.
template <typename Entry>
void SortIntoRuns(Entry* begin, Entry* end) {
  std::sort(begin, end,
            [](const Entry& a, const Entry& b) { return a.value < b.value; });
  std::uint32_t run = 0;
  for (Entry* e = begin; e != end; ++e) {
    if (e != begin && e->value != e[-1].value) ++run;
    e->run = run;
  }
}

/// Whether a node of `m` distinct rows finds its splits by walking the
/// fit-wide sorted columns of `n` rows rather than sorting its own rows: a
/// walk costs a few steps for every row of the fit, a sort about m log2 m
/// comparisons. Walking wins once 2 m log2 m reaches n (measured on forests
/// of depth 3 and trees of depth 5 and 12 over the four grid datasets).
bool WalkFitColumns(std::size_t m, std::size_t n) {
  return 2 * m * std::bit_width(m) >= n;
}

}  // namespace

void DecisionTree::Fit(const data::Dataset& dataset, const DtConfig& config) {
  std::vector<std::size_t> rows(dataset.num_samples());
  for (std::size_t i = 0; i < rows.size(); ++i) rows[i] = i;
  core::Rng rng(config.seed);
  FitRows(dataset, rows, config, rng);
}

void DecisionTree::FitRows(const data::Dataset& dataset,
                           const std::vector<std::size_t>& rows,
                           const DtConfig& config, core::Rng& rng) {
  CHECK(dataset.Validate().ok()) << dataset.Validate().ToString();
  std::vector<bool> seen(dataset.num_samples(), false);
  for (const std::size_t r : rows) {
    CHECK_LT(r, seen.size());
    seen[r] = true;
  }
  std::vector<std::size_t> distinct_rows;
  for (std::size_t r = 0; r < seen.size(); ++r) {
    if (seen[r]) distinct_rows.push_back(r);
  }
  FitSorted(dataset, rows, SortedColumns(dataset, distinct_rows), config,
            rng);
}

void DecisionTree::FitSorted(const data::Dataset& dataset,
                             const std::vector<std::size_t>& rows,
                             const SortedColumns& columns,
                             const DtConfig& config, core::Rng& rng) {
  CHECK(!rows.empty());
  num_features_ = dataset.num_features();
  num_classes_ = dataset.num_classes;
  max_depth_ = config.max_depth;
  const std::size_t num_slots = (std::size_t{1} << (max_depth_ + 1)) - 1;
  nodes_.assign(num_slots, TreeNode{});
  SplitScratch scratch;
  scratch.row_state.resize(dataset.num_samples());
  for (std::size_t r = 0; r < dataset.num_samples(); ++r) {
    scratch.row_state[r] = {0, dataset.y[r]};
  }
  scratch.distinct.resize(columns.num_rows());
  BuildNode(dataset, /*node_index=*/0, rows, /*depth=*/0, columns, config,
            rng, scratch);
}

DecisionTree::SortedColumns::SortedColumns(
    const data::Dataset& dataset, const std::vector<std::size_t>& rows)
    : num_rows_(rows.size()) {
  CHECK_LE(dataset.num_samples(), std::size_t{UINT32_MAX});
  entries_.resize(dataset.num_features() * num_rows_);
  // Each chunk sorts its own features' columns.
  la::ParallelFor(
      0, dataset.num_features(), /*min_chunk=*/1,
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t feature = begin; feature < end; ++feature) {
          SortedEntry* column = entries_.data() + feature * num_rows_;
          for (std::size_t i = 0; i < num_rows_; ++i) {
            column[i] = {dataset.x(rows[i], feature),
                         static_cast<std::uint32_t>(rows[i]), 0};
          }
          SortIntoRuns(column, column + num_rows_);
        }
      });
}

DecisionTree DecisionTree::FromNodes(std::vector<TreeNode> nodes,
                                     std::size_t num_features,
                                     std::size_t num_classes) {
  CHECK(!nodes.empty());
  // nodes.size() must be 2^(depth+1) - 1.
  std::size_t depth = 0;
  std::size_t slots = 1;
  while (slots < nodes.size()) {
    slots = 2 * slots + 1;
    ++depth;
  }
  CHECK_EQ(slots, nodes.size()) << "node array is not a full binary tree";
  CHECK(nodes[0].present) << "root must be present";
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (!nodes[i].present) continue;
    if (nodes[i].is_leaf) {
      CHECK_GE(nodes[i].label, 0);
      CHECK_LT(static_cast<std::size_t>(nodes[i].label), num_classes);
    } else {
      CHECK_GE(nodes[i].feature, 0);
      CHECK_LT(static_cast<std::size_t>(nodes[i].feature), num_features);
      CHECK_LT(RightChild(i), nodes.size()) << "internal node at max depth";
      CHECK(nodes[LeftChild(i)].present && nodes[RightChild(i)].present)
          << "internal node " << i << " missing children";
    }
  }
  DecisionTree tree;
  tree.nodes_ = std::move(nodes);
  tree.num_features_ = num_features;
  tree.num_classes_ = num_classes;
  tree.max_depth_ = depth;
  return tree;
}

void DecisionTree::BuildNode(const data::Dataset& dataset,
                             std::size_t node_index,
                             const std::vector<std::size_t>& rows,
                             std::size_t depth, const SortedColumns& columns,
                             const DtConfig& config, core::Rng& rng,
                             SplitScratch& scratch) {
  TreeNode& node = nodes_[node_index];
  node.present = true;

  const int majority = MajorityLabel(dataset, rows);
  const bool pure = std::all_of(rows.begin(), rows.end(),
                                [&](std::size_t r) {
                                  return dataset.y[r] == dataset.y[rows[0]];
                                });
  // A node of fewer than two rows is pure, so it never splits.
  if (depth >= max_depth_ || pure) {
    node.is_leaf = true;
    node.label = majority;
    return;
  }

  const SplitChoice split =
      FindBestSplit(dataset, rows, columns, config, rng, scratch);
  if (!split.valid) {
    node.is_leaf = true;
    node.label = majority;
    return;
  }

  node.is_leaf = false;
  node.feature = split.feature;
  node.threshold = split.threshold;

  std::vector<std::size_t> left_rows, right_rows;
  left_rows.reserve(rows.size());
  right_rows.reserve(rows.size());
  for (const std::size_t r : rows) {
    if (dataset.x(r, split.feature) <= split.threshold) {
      left_rows.push_back(r);
    } else {
      right_rows.push_back(r);
    }
  }
  DCHECK(!left_rows.empty());
  DCHECK(!right_rows.empty());
  BuildNode(dataset, LeftChild(node_index), left_rows, depth + 1, columns,
            config, rng, scratch);
  BuildNode(dataset, RightChild(node_index), right_rows, depth + 1, columns,
            config, rng, scratch);
}

DecisionTree::SplitChoice DecisionTree::FindBestSplit(
    const data::Dataset& dataset, const std::vector<std::size_t>& rows,
    const SortedColumns& columns, const DtConfig& config, core::Rng& rng,
    SplitScratch& scratch) const {
  SplitChoice best;
  const std::size_t d = dataset.num_features();

  // Feature subset (forests); otherwise all features.
  std::vector<std::size_t> features;
  if (config.max_features > 0 && config.max_features < d) {
    features = rng.SampleWithoutReplacement(d, config.max_features);
  } else {
    features.resize(d);
    for (std::size_t j = 0; j < d; ++j) features[j] = j;
  }

  // Parent impurity, and each row's copies in the node.
  std::vector<std::size_t>& parent_counts = scratch.parent_counts;
  std::vector<RowState>& row_state = scratch.row_state;
  std::vector<std::size_t>& node_rows = scratch.node_rows;
  parent_counts.assign(num_classes_, 0);
  node_rows.clear();
  for (const std::size_t r : rows) {
    ++parent_counts[dataset.y[r]];
    if (row_state[r].copies++ == 0) node_rows.push_back(r);
  }
  const double parent_gini = Gini(parent_counts, rows.size());
  const std::size_t m = node_rows.size();
  const bool walk_fit_columns = WalkFitColumns(m, columns.num_rows());

  std::vector<SortedEntry>& node_column = scratch.node_column;
  double* distinct = scratch.distinct.data();
  std::vector<std::size_t>& left_counts = scratch.left_counts;
  std::vector<std::size_t>& right_counts = scratch.right_counts;
  right_counts.resize(num_classes_);
  for (const std::size_t feature : features) {
    // The feature's column in value order: the fit-wide one, where rows
    // outside the node have no copies, or the node's own rows sorted.
    const SortedEntry* begin;
    const SortedEntry* end;
    if (walk_fit_columns) {
      begin = columns.column(feature);
      end = begin + columns.num_rows();
    } else {
      node_column.resize(m);
      for (std::size_t i = 0; i < m; ++i) {
        node_column[i] = {dataset.x(node_rows[i], feature),
                          static_cast<std::uint32_t>(node_rows[i]), 0};
      }
      SortIntoRuns(node_column.data(), node_column.data() + m);
      begin = node_column.data();
      end = begin + m;
    }
    // The node's distinct values: the value of each run that holds one of
    // its rows. Branch-free, since whether a row is in the node is random.
    std::size_t num_distinct = 0;
    std::uint32_t last_run = UINT32_MAX;  // no run has this number
    for (const SortedEntry* e = begin; e != end; ++e) {
      const bool in_node = row_state[e->row].copies != 0;
      distinct[num_distinct] = e->value;
      num_distinct += in_node & (e->run != last_run);
      last_run = in_node ? e->run : last_run;
    }
    if (num_distinct < 2) continue;

    // Candidate thresholds: midpoints between consecutive distinct values,
    // subsampled at quantiles when there are too many. They never decrease,
    // so one cursor sweeps the sorted column once, adding each row's copies
    // to its label's left count. The cursor stops at the threshold's value,
    // not at its gap: the midpoint of two adjacent doubles rounds onto one of
    // them, and the rows equal to the threshold belong on the left.
    const std::size_t num_gaps = num_distinct - 1;
    const std::size_t num_candidates =
        std::min(num_gaps, kMaxThresholdCandidates);
    left_counts.assign(num_classes_, 0);
    std::size_t left_total = 0;
    const SortedEntry* cursor = begin;
    for (std::size_t k = 0; k < num_candidates; ++k) {
      const std::size_t gap = num_gaps <= kMaxThresholdCandidates
                                  ? k
                                  : k * num_gaps / num_candidates;
      const double threshold = 0.5 * (distinct[gap] + distinct[gap + 1]);
      for (; cursor != end && cursor->value <= threshold; ++cursor) {
        const RowState& row = row_state[cursor->row];
        left_counts[row.label] += row.copies;
        left_total += row.copies;
      }
      const std::size_t right_total = rows.size() - left_total;
      if (left_total < config.min_samples_leaf ||
          right_total < config.min_samples_leaf) {
        continue;
      }
      for (std::size_t c = 0; c < num_classes_; ++c) {
        right_counts[c] = parent_counts[c] - left_counts[c];
      }
      const double weighted_child_gini =
          (static_cast<double>(left_total) * Gini(left_counts, left_total) +
           static_cast<double>(right_total) *
               Gini(right_counts, right_total)) /
          static_cast<double>(rows.size());
      const double gain = parent_gini - weighted_child_gini;
      if (gain > best.gini_gain + 1e-12) {
        best.valid = true;
        best.feature = static_cast<int>(feature);
        best.threshold = threshold;
        best.gini_gain = gain;
      }
    }
  }
  for (const std::size_t r : node_rows) row_state[r].copies = 0;
  return best;
}

int DecisionTree::MajorityLabel(const data::Dataset& dataset,
                                const std::vector<std::size_t>& rows) const {
  std::vector<std::size_t> counts(num_classes_, 0);
  for (const std::size_t r : rows) ++counts[dataset.y[r]];
  return static_cast<int>(
      std::max_element(counts.begin(), counts.end()) - counts.begin());
}

int DecisionTree::PredictOne(const double* x) const {
  CHECK(!nodes_.empty()) << "PredictOne before Fit";
  std::size_t index = 0;
  while (true) {
    const TreeNode& node = nodes_[index];
    DCHECK(node.present);
    if (node.is_leaf) return node.label;
    index = x[node.feature] <= node.threshold ? LeftChild(index)
                                              : RightChild(index);
  }
}

std::vector<std::size_t> DecisionTree::PredictionPath(const double* x) const {
  CHECK(!nodes_.empty()) << "PredictionPath before Fit";
  std::vector<std::size_t> path;
  std::size_t index = 0;
  while (true) {
    const TreeNode& node = nodes_[index];
    DCHECK(node.present);
    path.push_back(index);
    if (node.is_leaf) return path;
    index = x[node.feature] <= node.threshold ? LeftChild(index)
                                              : RightChild(index);
  }
}

void DecisionTree::PredictProbaInto(const la::Matrix& x,
                                    la::Matrix* out) const {
  CHECK_EQ(x.cols(), num_features_);
  out->Resize(x.rows(), num_classes_);
  out->Fill(0.0);
  for (std::size_t r = 0; r < x.rows(); ++r) {
    (*out)(r, PredictOne(x.RowPtr(r))) = 1.0;
  }
}

std::size_t DecisionTree::NumPredictionPaths() const {
  return LeafIndices().size();
}

std::vector<std::size_t> DecisionTree::LeafIndices() const {
  std::vector<std::size_t> leaves;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].present && nodes_[i].is_leaf) leaves.push_back(i);
  }
  return leaves;
}

}  // namespace vfl::models
