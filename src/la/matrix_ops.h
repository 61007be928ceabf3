#ifndef VFLFIA_LA_MATRIX_OPS_H_
#define VFLFIA_LA_MATRIX_OPS_H_

#include <vector>

#include "la/matrix.h"

namespace vfl::la {

/// GEMM kernels. The *Into forms write into a caller-owned output (resized,
/// capacity reused — the allocation-free hot path for training loops); the
/// allocating forms are thin wrappers kept for call sites off the hot path.
///
/// Implementation is dispatched at runtime (see la/cpu_features.h). The
/// default fast path multiplies with an explicit register-blocked
/// microkernel — AVX-512F 8x16, AVX2/FMA 6x8, or a portable 4x8 — chosen by
/// cpuid-based detection, overridable via VFLFIA_LA_KERNEL or
/// SetKernelPath(). Products below 2^13 MACs run the deterministic path's
/// kernels instead (tile setup would rival the compute), which for MatMul
/// keep each output row's accumulators in registers. Every larger product
/// goes through one row-range routine that walks k in 320-deep blocks and
/// reads A (either orientation), and an untransposed B, where they lie,
/// with masked column tails. It copies BLIS-style panels into aligned
/// thread-local scratch only for a transposed B, and for both operands of a
/// row range of more than 64 rows and at least 2^21 MACs, a pure function
/// of the range's shape. Past the 2^21-MAC parallel cutover the output rows
/// split over la::ParallelFor in la::RowChunk chunks, at most one per lane.
/// Packed or in place, the microkernel sees the same values in the same
/// order, so the bits are identical. The opt-in `deterministic` path keeps
/// the pre-SIMD cache-blocked kernels for every product; their plain
/// multiply-add ascending-k reduction is bit-stable across machines and
/// dispatch tiers.
///
/// Every route computes each output element in ascending k (the
/// microkernels as one chain from zero per k block, each then stored or
/// added once), a pure function of the operand shapes — never of the row
/// partition — so results are bit-identical for any thread count. The
/// microkernels contract multiply-adds with FMA on the SIMD tiers, so their
/// bits differ (within rounding) from the generic tier and from the
/// deterministic path.

/// Operand orientation of a GEMM: out = a * b, a^T * b or a * b^T.
enum class GemmOp { kNone, kTransposeA, kTransposeB };

/// Rows [r0, r1) of out = op(a, b) (+= with `accumulate`), on the calling
/// thread. `out` must already have the whole product's shape and alias
/// neither input. The kernel tier comes from the whole product's
/// multiply-adds and every element keeps its one ascending-k chain, so any
/// partition of the rows reproduces the whole product bit for bit: the
/// MatMul*Into calls below are this function over every row. The blocked
/// kernels accumulate through the output (the chain starts from its old
/// value); the microkernels start each chain from zero and add it once.
void GemmRows(GemmOp op, const Matrix& a, const Matrix& b, Matrix* out,
              bool accumulate, std::size_t r0, std::size_t r1);

/// out = a * b (shapes must agree: a.cols == b.rows). `out` must alias
/// neither input.
void MatMulInto(const Matrix& a, const Matrix& b, Matrix* out);

/// out = a * b^T (or out += with accumulate) without materializing the
/// transpose. a.cols == b.cols; out is a.rows x b.rows.
void MatMulTransposedBInto(const Matrix& a, const Matrix& b, Matrix* out);

/// out = a^T * b without materializing the transpose; a.rows == b.rows and
/// out is a.cols x b.cols. With accumulate, out keeps its contents (which
/// must already have the right shape) and the product is added — the fused
/// form of gradient accumulation (dW += X^T * dY).
void MatMulTransposedAInto(const Matrix& a, const Matrix& b, Matrix* out,
                           bool accumulate = false);

/// out = m^T, cache-blocked (tiled copies instead of column-strided writes).
void TransposeInto(const Matrix& m, Matrix* out);

/// a * b (allocating wrapper over MatMulInto).
Matrix MatMul(const Matrix& a, const Matrix& b);

/// a * b^T without materializing the transpose.
Matrix MatMulTransposedB(const Matrix& a, const Matrix& b);

/// a^T * b without materializing the transpose.
Matrix MatMulTransposedA(const Matrix& a, const Matrix& b);

/// Transpose.
Matrix Transpose(const Matrix& m);

/// Element-wise a + b.
Matrix Add(const Matrix& a, const Matrix& b);

/// Element-wise a - b.
Matrix Sub(const Matrix& a, const Matrix& b);

/// Element-wise (Hadamard) product.
Matrix Hadamard(const Matrix& a, const Matrix& b);

/// scalar * m.
Matrix Scale(const Matrix& m, double scalar);

/// m with `row` (1 x m.cols) added to every row (broadcast add).
Matrix AddRowBroadcast(const Matrix& m, const std::vector<double>& row);

/// Adds `row` (width m->cols()) to every row of m in place.
void AddRowBroadcastInPlace(Matrix* m, const double* row);

/// In-place a += scalar * b.
void Axpy(double scalar, const Matrix& b, Matrix* a);

/// Horizontal concatenation [a | b] (same row count).
Matrix ConcatCols(const Matrix& a, const Matrix& b);

/// Vertical concatenation [a ; b] (same column count).
Matrix ConcatRows(const Matrix& a, const Matrix& b);

/// Applies `fn` to each element, returning a new matrix.
template <typename Fn>
Matrix Map(const Matrix& m, Fn fn) {
  Matrix out(m.rows(), m.cols());
  const double* src = m.data();
  double* dst = out.data();
  for (std::size_t i = 0; i < m.size(); ++i) dst[i] = fn(src[i]);
  return out;
}

/// Allocation-free Map: `out` is resized and overwritten. `out == &m` is
/// allowed (in-place transform).
template <typename Fn>
void MapInto(const Matrix& m, Fn fn, Matrix* out) {
  if (out != &m) out->Resize(m.rows(), m.cols());
  const double* src = m.data();
  double* dst = out->data();
  for (std::size_t i = 0; i < m.size(); ++i) dst[i] = fn(src[i]);
}

/// Dot product of equal-length vectors.
double Dot(const std::vector<double>& a, const std::vector<double>& b);

/// Euclidean norm of a vector.
double Norm2(const std::vector<double>& v);

/// Frobenius norm of a matrix.
double FrobeniusNorm(const Matrix& m);

/// Sum of all elements.
double Sum(const Matrix& m);

/// Mean of all elements (0 for an empty matrix).
double Mean(const Matrix& m);

/// Per-column means (length m.cols()).
std::vector<double> ColMeans(const Matrix& m);

/// Per-column variances (population, length m.cols()).
std::vector<double> ColVariances(const Matrix& m);

/// ColMeans into `out` (resized, capacity reused).
void ColMeansInto(const Matrix& m, std::vector<double>* out);

/// ColVariances into `out` (resized, capacity reused), from the column
/// means ColMeansInto gave for the same `m`: the bits of ColVariances.
void ColVariancesInto(const Matrix& m, const std::vector<double>& means,
                      std::vector<double>* out);

/// Index of the maximum element of a vector (first on ties). Requires
/// non-empty input.
std::size_t ArgMax(const std::vector<double>& v);

/// Max absolute difference between two equal-shaped matrices.
double MaxAbsDiff(const Matrix& a, const Matrix& b);

}  // namespace vfl::la

#endif  // VFLFIA_LA_MATRIX_OPS_H_
