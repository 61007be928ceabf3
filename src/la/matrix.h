#ifndef VFLFIA_LA_MATRIX_H_
#define VFLFIA_LA_MATRIX_H_

#include <cstddef>
#include <initializer_list>
#include <span>
#include <string>
#include <vector>

#include "core/check.h"

namespace vfl::la {

/// Dense row-major matrix of doubles. The single numeric container used by
/// the whole library (datasets, NN activations, model parameters).
///
/// Kept deliberately small: value semantics, bounds-checked element access in
/// debug builds, arithmetic as free functions in matrix_ops.h.
class Matrix {
 public:
  /// Empty 0x0 matrix.
  Matrix() : rows_(0), cols_(0) {}

  /// rows x cols matrix, zero-initialized.
  Matrix(std::size_t rows, std::size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols, 0.0) {}

  /// rows x cols matrix with every element set to `fill`.
  Matrix(std::size_t rows, std::size_t cols, double fill)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  /// Constructs from nested initializer lists:
  ///   Matrix m{{1, 2}, {3, 4}};
  /// All rows must have equal length.
  Matrix(std::initializer_list<std::initializer_list<double>> rows);

  Matrix(const Matrix&) = default;
  Matrix& operator=(const Matrix&) = default;
  Matrix(Matrix&&) noexcept = default;
  Matrix& operator=(Matrix&&) noexcept = default;

  /// Builds a rows x cols matrix adopting `data` (row-major,
  /// data.size() == rows*cols).
  static Matrix FromFlat(std::size_t rows, std::size_t cols,
                         std::vector<double> data);

  /// n x n identity.
  static Matrix Identity(std::size_t n);

  /// 1 x n row matrix from a vector.
  static Matrix RowVector(const std::vector<double>& values);

  /// n x 1 column matrix from a vector.
  static Matrix ColVector(const std::vector<double>& values);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  double& operator()(std::size_t r, std::size_t c) {
    DCHECK_LT(r, rows_);
    DCHECK_LT(c, cols_);
    return data_[r * cols_ + c];
  }
  double operator()(std::size_t r, std::size_t c) const {
    DCHECK_LT(r, rows_);
    DCHECK_LT(c, cols_);
    return data_[r * cols_ + c];
  }

  /// Raw row-major storage (e.g., for tight inner loops).
  double* data() { return data_.data(); }
  const double* data() const { return data_.data(); }

  /// Pointer to the start of row r.
  double* RowPtr(std::size_t r) {
    DCHECK_LT(r, rows_);
    return data_.data() + r * cols_;
  }
  const double* RowPtr(std::size_t r) const {
    DCHECK_LT(r, rows_);
    return data_.data() + r * cols_;
  }

  /// Copies row r out as a vector.
  std::vector<double> Row(std::size_t r) const;

  /// Copies column c out as a vector.
  std::vector<double> Col(std::size_t c) const;

  /// Overwrites row r with `values` (values.size() == cols()).
  void SetRow(std::size_t r, const std::vector<double>& values);

  /// Overwrites column c with `values` (values.size() == rows()).
  void SetCol(std::size_t c, const std::vector<double>& values);

  /// Returns the sub-matrix of the given column range [col_begin, col_end).
  Matrix SliceCols(std::size_t col_begin, std::size_t col_end) const;

  /// Returns the sub-matrix of the given row range [row_begin, row_end).
  Matrix SliceRows(std::size_t row_begin, std::size_t row_end) const;

  /// Returns the rows selected by `indices`, in order (gather).
  Matrix GatherRows(const std::vector<std::size_t>& indices) const;

  /// Returns the columns selected by `indices`, in order (gather).
  Matrix GatherCols(const std::vector<std::size_t>& indices) const;

  /// Allocation-free gather variants for hot loops: `out` is resized (its
  /// capacity is reused across calls) and fully overwritten. `out` must not
  /// alias this matrix.
  void GatherRowsInto(const std::vector<std::size_t>& indices,
                      Matrix* out) const;
  void GatherColsInto(const std::vector<std::size_t>& indices,
                      Matrix* out) const;

  /// Rows [r0, r1) of a gather into an `out` already sized for all of
  /// `indices`: out row r = this row indices[r]. Disjoint ranges may be
  /// filled from different threads at once.
  void GatherRowRangeInto(std::span<const std::size_t> indices, std::size_t r0,
                          std::size_t r1, Matrix* out) const;

  /// Reshapes to rows x cols, reusing the existing storage capacity.
  /// Contents are unspecified afterwards (callers overwrite); shrinking then
  /// regrowing within the old capacity never reallocates.
  void Resize(std::size_t rows, std::size_t cols);

  /// Sets every element to `value`.
  void Fill(double value);

  /// True when shapes and all elements match exactly.
  friend bool operator==(const Matrix& a, const Matrix& b) {
    return a.rows_ == b.rows_ && a.cols_ == b.cols_ && a.data_ == b.data_;
  }

  /// Debug rendering ("[[1, 2], [3, 4]]"), rows truncated for large matrices.
  std::string ToString(std::size_t max_rows = 8) const;

 private:
  std::size_t rows_;
  std::size_t cols_;
  std::vector<double> data_;
};

}  // namespace vfl::la

#endif  // VFLFIA_LA_MATRIX_H_
