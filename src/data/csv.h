#ifndef VFLFIA_DATA_CSV_H_
#define VFLFIA_DATA_CSV_H_

#include <string>

#include "core/status.h"
#include "data/dataset.h"

namespace vfl::data {

/// Options for LoadCsv. Fields are comma-separated.
struct CsvOptions {
  /// Whether the first row holds column names.
  bool has_header = true;
  /// Zero-based index of the label column; negative counts from the end
  /// (-1 = last column).
  int label_column = -1;
  /// Dataset name to record (defaults to the file path).
  std::string name;
};

/// Loads a numeric CSV into a Dataset. Labels must be integer class ids (or
/// integral-valued doubles); they are compacted to [0, num_classes) in sorted
/// order of distinct values. Lets users run every experiment on the real UCI
/// files when available (DESIGN.md §5); returns Status errors on unreadable
/// files and ragged rows, and an InvalidArgument naming the data row and the
/// column (both 1-based) for an empty cell, a non-numeric field, or a value
/// that is not finite (nan, inf, or a literal that overflows, like 1e309).
core::StatusOr<Dataset> LoadCsv(const std::string& path,
                              const CsvOptions& options = {});

/// Serializes a dataset to CSV (header + rows + label as the last column).
core::Status SaveCsv(const Dataset& dataset, const std::string& path);

}  // namespace vfl::data

#endif  // VFLFIA_DATA_CSV_H_
