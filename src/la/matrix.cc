#include "la/matrix.h"

#include <sstream>
#include <utility>

namespace vfl::la {

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> rows)
    : rows_(rows.size()), cols_(0) {
  if (rows_ == 0) return;
  cols_ = rows.begin()->size();
  data_.reserve(rows_ * cols_);
  for (const auto& row : rows) {
    CHECK_EQ(row.size(), cols_) << "ragged initializer rows";
    data_.insert(data_.end(), row.begin(), row.end());
  }
}

Matrix Matrix::FromFlat(std::size_t rows, std::size_t cols,
                        std::vector<double> data) {
  CHECK_EQ(rows * cols, data.size());
  Matrix m;
  m.rows_ = rows;
  m.cols_ = cols;
  m.data_ = std::move(data);
  return m;
}

Matrix Matrix::Identity(std::size_t n) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

Matrix Matrix::RowVector(const std::vector<double>& values) {
  return FromFlat(1, values.size(), values);
}

Matrix Matrix::ColVector(const std::vector<double>& values) {
  return FromFlat(values.size(), 1, values);
}

std::vector<double> Matrix::Row(std::size_t r) const {
  CHECK_LT(r, rows_);
  return std::vector<double>(data_.begin() + r * cols_,
                             data_.begin() + (r + 1) * cols_);
}

std::vector<double> Matrix::Col(std::size_t c) const {
  CHECK_LT(c, cols_);
  std::vector<double> out(rows_);
  for (std::size_t r = 0; r < rows_; ++r) out[r] = (*this)(r, c);
  return out;
}

void Matrix::SetRow(std::size_t r, const std::vector<double>& values) {
  CHECK_LT(r, rows_);
  CHECK_EQ(values.size(), cols_);
  std::copy(values.begin(), values.end(), data_.begin() + r * cols_);
}

void Matrix::SetCol(std::size_t c, const std::vector<double>& values) {
  CHECK_LT(c, cols_);
  CHECK_EQ(values.size(), rows_);
  for (std::size_t r = 0; r < rows_; ++r) (*this)(r, c) = values[r];
}

Matrix Matrix::SliceCols(std::size_t col_begin, std::size_t col_end) const {
  CHECK_LE(col_begin, col_end);
  CHECK_LE(col_end, cols_);
  Matrix out(rows_, col_end - col_begin);
  for (std::size_t r = 0; r < rows_; ++r) {
    const double* src = RowPtr(r) + col_begin;
    std::copy(src, src + out.cols_, out.RowPtr(r));
  }
  return out;
}

Matrix Matrix::SliceRows(std::size_t row_begin, std::size_t row_end) const {
  CHECK_LE(row_begin, row_end);
  CHECK_LE(row_end, rows_);
  Matrix out(row_end - row_begin, cols_);
  std::copy(data_.begin() + row_begin * cols_, data_.begin() + row_end * cols_,
            out.data_.begin());
  return out;
}

Matrix Matrix::GatherRows(const std::vector<std::size_t>& indices) const {
  Matrix out(indices.size(), cols_);
  for (std::size_t i = 0; i < indices.size(); ++i) {
    CHECK_LT(indices[i], rows_);
    std::copy(RowPtr(indices[i]), RowPtr(indices[i]) + cols_, out.RowPtr(i));
  }
  return out;
}

Matrix Matrix::GatherCols(const std::vector<std::size_t>& indices) const {
  Matrix out(rows_, indices.size());
  for (std::size_t c = 0; c < indices.size(); ++c) {
    CHECK_LT(indices[c], cols_);
  }
  for (std::size_t r = 0; r < rows_; ++r) {
    const double* src = RowPtr(r);
    double* dst = out.RowPtr(r);
    for (std::size_t c = 0; c < indices.size(); ++c) dst[c] = src[indices[c]];
  }
  return out;
}

void Matrix::GatherRowsInto(const std::vector<std::size_t>& indices,
                            Matrix* out) const {
  CHECK(out != this);
  out->Resize(indices.size(), cols_);
  GatherRowRangeInto(indices, 0, indices.size(), out);
}

void Matrix::GatherRowRangeInto(std::span<const std::size_t> indices,
                                std::size_t r0, std::size_t r1,
                                Matrix* out) const {
  CHECK(out != this);
  CHECK_EQ(out->rows(), indices.size());
  CHECK_EQ(out->cols(), cols_);
  CHECK_LE(r1, indices.size());
  for (std::size_t i = r0; i < r1; ++i) {
    CHECK_LT(indices[i], rows_);
    std::copy(RowPtr(indices[i]), RowPtr(indices[i]) + cols_, out->RowPtr(i));
  }
}

void Matrix::GatherColsInto(const std::vector<std::size_t>& indices,
                            Matrix* out) const {
  CHECK(out != this);
  for (std::size_t c = 0; c < indices.size(); ++c) {
    CHECK_LT(indices[c], cols_);
  }
  out->Resize(rows_, indices.size());
  for (std::size_t r = 0; r < rows_; ++r) {
    const double* src = RowPtr(r);
    double* dst = out->RowPtr(r);
    for (std::size_t c = 0; c < indices.size(); ++c) dst[c] = src[indices[c]];
  }
}

void Matrix::Resize(std::size_t rows, std::size_t cols) {
  rows_ = rows;
  cols_ = cols;
  data_.resize(rows * cols);
}

void Matrix::Fill(double value) {
  std::fill(data_.begin(), data_.end(), value);
}

std::string Matrix::ToString(std::size_t max_rows) const {
  std::ostringstream os;
  os << rows_ << "x" << cols_ << " [";
  const std::size_t shown = std::min(rows_, max_rows);
  for (std::size_t r = 0; r < shown; ++r) {
    os << (r == 0 ? "[" : ", [");
    for (std::size_t c = 0; c < cols_; ++c) {
      if (c > 0) os << ", ";
      os << (*this)(r, c);
    }
    os << "]";
  }
  if (shown < rows_) os << ", ...";
  os << "]";
  return os.str();
}

}  // namespace vfl::la
