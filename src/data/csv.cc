#include "data/csv.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <map>
#include <sstream>

#include "core/string_util.h"

namespace vfl::data {

core::StatusOr<Dataset> LoadCsv(const std::string& path,
                              const CsvOptions& options) {
  std::ifstream file(path);
  if (!file) {
    return core::Status::IoError("cannot open file: " + path);
  }

  std::vector<std::string> header;
  std::vector<std::vector<double>> rows;
  std::string line;
  std::size_t line_number = 0;
  bool saw_header = false;

  while (std::getline(file, line)) {
    ++line_number;
    const std::string_view trimmed = core::Trim(line);
    if (trimmed.empty()) continue;
    std::vector<std::string> fields = core::Split(trimmed, ',');
    if (options.has_header && !saw_header) {
      header = std::move(fields);
      saw_header = true;
      continue;
    }
    std::vector<double> row;
    row.reserve(fields.size());
    for (std::size_t c = 0; c < fields.size(); ++c) {
      const std::string& field = fields[c];
      // strtod takes "nan", "inf" and overflowing literals such as 1e309;
      // none of them is a feature value (CART cannot even order NaN).
      double value = 0.0;
      const char* problem = nullptr;
      if (core::Trim(field).empty()) {
        problem = "empty cell";
      } else if (!core::ParseDouble(field, &value)) {
        problem = "non-numeric field";
      } else if (!std::isfinite(value)) {
        problem = "non-finite value";
      }
      if (problem != nullptr) {
        std::ostringstream msg;
        msg << path << ":" << line_number << ": row " << rows.size() + 1
            << ", column " << c + 1;
        if (c < header.size()) msg << " ('" << core::Trim(header[c]) << "')";
        msg << ": " << problem;
        if (!core::Trim(field).empty()) msg << " '" << field << "'";
        return core::Status::InvalidArgument(msg.str());
      }
      row.push_back(value);
    }
    if (!rows.empty() && row.size() != rows.front().size()) {
      std::ostringstream msg;
      msg << path << ":" << line_number << ": ragged row (" << row.size()
          << " fields, expected " << rows.front().size() << ")";
      return core::Status::InvalidArgument(msg.str());
    }
    rows.push_back(std::move(row));
  }
  if (rows.empty()) {
    return core::Status::InvalidArgument(path + ": no data rows");
  }

  const std::size_t width = rows.front().size();
  if (width < 2) {
    return core::Status::InvalidArgument(
        path + ": need at least one feature column plus a label column");
  }
  int label_col = options.label_column;
  if (label_col < 0) label_col += static_cast<int>(width);
  if (label_col < 0 || static_cast<std::size_t>(label_col) >= width) {
    std::ostringstream msg;
    msg << path << ": label column " << options.label_column
        << " outside row width " << width;
    return core::Status::OutOfRange(msg.str());
  }
  const std::size_t label_index = static_cast<std::size_t>(label_col);

  // Compact distinct label values to contiguous class ids in sorted order.
  std::map<long long, int> class_ids;
  for (const auto& row : rows) {
    const double raw = row[label_index];
    if (std::abs(raw - std::llround(raw)) > 1e-9) {
      return core::Status::InvalidArgument(
          path + ": labels must be integral class ids");
    }
    class_ids.emplace(std::llround(raw), 0);
  }
  int next_id = 0;
  for (auto& [value, id] : class_ids) id = next_id++;

  Dataset out;
  out.name = options.name.empty() ? path : options.name;
  out.num_classes = class_ids.size();
  out.x = la::Matrix(rows.size(), width - 1);
  out.y.reserve(rows.size());
  for (std::size_t r = 0; r < rows.size(); ++r) {
    double* dst = out.x.RowPtr(r);
    std::size_t out_c = 0;
    for (std::size_t c = 0; c < width; ++c) {
      if (c == label_index) continue;
      dst[out_c++] = rows[r][c];
    }
    out.y.push_back(class_ids.at(std::llround(rows[r][label_index])));
  }
  if (!header.empty()) {
    for (std::size_t c = 0; c < width && c < header.size(); ++c) {
      if (c == label_index) continue;
      out.feature_names.emplace_back(core::Trim(header[c]));
    }
  }
  VFL_RETURN_IF_ERROR(out.Validate());
  return out;
}

core::Status SaveCsv(const Dataset& dataset, const std::string& path) {
  VFL_RETURN_IF_ERROR(dataset.Validate());
  std::ofstream file(path);
  if (!file) {
    return core::Status::IoError("cannot open file for writing: " + path);
  }
  // Header.
  for (std::size_t c = 0; c < dataset.num_features(); ++c) {
    if (c > 0) file << ',';
    if (dataset.feature_names.empty()) {
      file << "f" << c;
    } else {
      file << dataset.feature_names[c];
    }
  }
  file << ",label\n";
  // Rows.
  file.precision(17);
  for (std::size_t r = 0; r < dataset.num_samples(); ++r) {
    const double* row = dataset.x.RowPtr(r);
    for (std::size_t c = 0; c < dataset.num_features(); ++c) {
      if (c > 0) file << ',';
      file << row[c];
    }
    file << ',' << dataset.y[r] << '\n';
  }
  if (!file) {
    return core::Status::IoError("write failed: " + path);
  }
  return core::Status::Ok();
}

}  // namespace vfl::data
