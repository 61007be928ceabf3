#include "la/matrix_ops.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <utility>

#include "la/cpu_features.h"
#include "la/gemm_packed.h"
#include "la/parallel.h"

namespace vfl::la {

namespace {

// Cache blocking for the deterministic (pre-SIMD) kernels: a kBlockK x
// kBlockJ panel of the streamed operand is 64 KiB (L2-resident) and the
// matching output row segment fits L1. Register tiling unrolls the reduction
// 4-way (MatMul/TransposedA) or the output 2x2 (TransposedB) with one
// independent accumulation chain per output element, so the compiler
// vectorizes/pipelines without reassociating any per-element sum.
constexpr std::size_t kBlockK = 64;
constexpr std::size_t kBlockJ = 128;
constexpr std::size_t kTransposeBlock = 64;
constexpr std::size_t kTransposeTile = 8;

/// Below this many multiply-adds the fast path runs the blocked kernels
/// instead of a microkernel: for tiny or single-row products even the
/// microkernel's tile setup rivals the O(m*k*n) compute. Purely
/// shape-dependent, so a given GEMM always takes the same path.
constexpr std::size_t kMicrokernelMinMacs = std::size_t{1} << 13;

/// Kernels go parallel only past this many multiply-adds; below it the
/// ParallelFor handshake costs more than it saves.
constexpr std::size_t kParallelFlopThreshold = std::size_t{1} << 21;

/// Microkernel for this call, or null when the call should take the
/// deterministic/blocked path. Resolving the active path here also
/// publishes the `la.kernel_path` gauge on first use.
const internal::GemmMicrokernel* MicrokernelForCall(std::size_t macs) {
  const KernelPath path = ActiveKernelPath();
  if (path == KernelPath::kDeterministic) return nullptr;
  if (macs < kMicrokernelMinMacs) return nullptr;
  return internal::MicrokernelForPath(path);
}

/// Two doubles in one SSE2 register. Lane-wise multiply and add round
/// exactly as the scalar operations do.
typedef double DoublePair __attribute__((vector_size(16)));

/// Columns [j0, j0 + W) of output row `i` of out = a * b (+= with
/// `accumulate`), with the W accumulators held in registers across the whole
/// k-reduction: per element one multiply then one add per k, ascending from
/// zero (or from the element's old value), the chain the cache-blocked loop
/// below runs through memory, so the bits are the same. The columns go in
/// explicit pairs: left to itself the compiler vectorizes over k instead,
/// shuffling each pair of products into order, which made the tile slower
/// than the blocked loop.
template <std::size_t W>
void RegisterRowTile(const Matrix& a, const Matrix& b, Matrix* out,
                     bool accumulate, std::size_t i, std::size_t j0) {
  constexpr std::size_t kPairs = W / 2;
  const double* arow = a.RowPtr(i);
  double* orow = out->RowPtr(i) + j0;
  DoublePair acc[kPairs + 1] = {};  // one spare, so that W = 1 compiles
  double last = 0.0;                // column W - 1 when W is odd
  if (accumulate) {
    std::memcpy(acc, orow, kPairs * sizeof(DoublePair));
    if constexpr (W % 2 == 1) last = orow[W - 1];
  }
  for (std::size_t p = 0; p < a.cols(); ++p) {
    const DoublePair av = {arow[p], arow[p]};
    const double* brow = b.RowPtr(p) + j0;
    for (std::size_t v = 0; v < kPairs; ++v) {
      DoublePair bv = {};
      std::memcpy(&bv, brow + 2 * v, sizeof(bv));
      acc[v] += av * bv;
    }
    if constexpr (W % 2 == 1) last += arow[p] * brow[W - 1];
  }
  std::memcpy(orow, acc, kPairs * sizeof(DoublePair));
  if constexpr (W % 2 == 1) orow[W - 1] = last;
}

/// Widest register tile: 16 doubles are 8 SSE2 registers, so a whole row of
/// a product up to 16 columns wide advances in one k-loop.
constexpr std::size_t kRegisterTileCols = 16;

using RegisterRowTileFn = void (*)(const Matrix&, const Matrix&, Matrix*,
                                   bool, std::size_t, std::size_t);

template <std::size_t... W>
constexpr std::array<RegisterRowTileFn, sizeof...(W)> RegisterRowTiles(
    std::index_sequence<W...>) {
  return {&RegisterRowTile<W + 1>...};
}

/// kRegisterRowTiles[w - 1] computes a tile w columns wide.
constexpr std::array<RegisterRowTileFn, kRegisterTileCols> kRegisterRowTiles =
    RegisterRowTiles(std::make_index_sequence<kRegisterTileCols>{});

/// out rows [r0, r1) of out = a * b (+= with accumulate). Per element the
/// k-reduction ascends, so any row partition reproduces the serial result
/// bit for bit. Ranges under kMicrokernelMinMacs keep each row's
/// accumulators in registers; larger ones block the reduction through the
/// output row in memory.
void MatMulRowRange(const Matrix& a, const Matrix& b, Matrix* out,
                    bool accumulate, std::size_t r0, std::size_t r1) {
  const std::size_t k = a.cols();
  const std::size_t m = b.cols();
  if ((r1 - r0) * k * m < kMicrokernelMinMacs) {
    for (std::size_t i = r0; i < r1; ++i) {
      for (std::size_t j0 = 0; j0 < m; j0 += kRegisterTileCols) {
        const std::size_t width = std::min(kRegisterTileCols, m - j0);
        kRegisterRowTiles[width - 1](a, b, out, accumulate, i, j0);
      }
    }
    return;
  }
  if (!accumulate) {
    for (std::size_t i = r0; i < r1; ++i) {
      double* orow = out->RowPtr(i);
      std::fill(orow, orow + m, 0.0);
    }
  }
  for (std::size_t j0 = 0; j0 < m; j0 += kBlockJ) {
    const std::size_t j1 = std::min(j0 + kBlockJ, m);
    for (std::size_t p0 = 0; p0 < k; p0 += kBlockK) {
      const std::size_t p1 = std::min(p0 + kBlockK, k);
      for (std::size_t i = r0; i < r1; ++i) {
        const double* arow = a.RowPtr(i);
        double* orow = out->RowPtr(i);
        std::size_t p = p0;
        for (; p + 4 <= p1; p += 4) {
          const double a0 = arow[p];
          const double a1 = arow[p + 1];
          const double a2 = arow[p + 2];
          const double a3 = arow[p + 3];
          const double* b0 = b.RowPtr(p);
          const double* b1 = b.RowPtr(p + 1);
          const double* b2 = b.RowPtr(p + 2);
          const double* b3 = b.RowPtr(p + 3);
          for (std::size_t j = j0; j < j1; ++j) {
            double t = orow[j];
            t += a0 * b0[j];
            t += a1 * b1[j];
            t += a2 * b2[j];
            t += a3 * b3[j];
            orow[j] = t;
          }
        }
        for (; p < p1; ++p) {
          const double aval = arow[p];
          const double* brow = b.RowPtr(p);
          for (std::size_t j = j0; j < j1; ++j) orow[j] += aval * brow[j];
        }
      }
    }
  }
}

/// out rows [r0, r1) of out = a * b^T (+= with accumulate): independent dot
/// products, 2x2 output tile sharing row loads, one sequential accumulator
/// per element.
void MatMulTransposedBRowRange(const Matrix& a, const Matrix& b, Matrix* out,
                               bool accumulate, std::size_t r0,
                               std::size_t r1) {
  const std::size_t k = a.cols();
  const std::size_t n_b = b.rows();
  std::size_t i = r0;
  for (; i + 2 <= r1; i += 2) {
    const double* a0 = a.RowPtr(i);
    const double* a1 = a.RowPtr(i + 1);
    double* o0 = out->RowPtr(i);
    double* o1 = out->RowPtr(i + 1);
    std::size_t j = 0;
    for (; j + 2 <= n_b; j += 2) {
      const double* b0 = b.RowPtr(j);
      const double* b1 = b.RowPtr(j + 1);
      double acc00 = accumulate ? o0[j] : 0.0;
      double acc01 = accumulate ? o0[j + 1] : 0.0;
      double acc10 = accumulate ? o1[j] : 0.0;
      double acc11 = accumulate ? o1[j + 1] : 0.0;
      for (std::size_t p = 0; p < k; ++p) {
        const double av0 = a0[p];
        const double av1 = a1[p];
        acc00 += av0 * b0[p];
        acc01 += av0 * b1[p];
        acc10 += av1 * b0[p];
        acc11 += av1 * b1[p];
      }
      o0[j] = acc00;
      o0[j + 1] = acc01;
      o1[j] = acc10;
      o1[j + 1] = acc11;
    }
    for (; j < n_b; ++j) {
      const double* brow = b.RowPtr(j);
      double acc0 = accumulate ? o0[j] : 0.0;
      double acc1 = accumulate ? o1[j] : 0.0;
      for (std::size_t p = 0; p < k; ++p) {
        acc0 += a0[p] * brow[p];
        acc1 += a1[p] * brow[p];
      }
      o0[j] = acc0;
      o1[j] = acc1;
    }
  }
  for (; i < r1; ++i) {
    const double* arow = a.RowPtr(i);
    double* orow = out->RowPtr(i);
    for (std::size_t j = 0; j < n_b; ++j) {
      const double* brow = b.RowPtr(j);
      double acc = accumulate ? orow[j] : 0.0;
      for (std::size_t p = 0; p < k; ++p) acc += arow[p] * brow[p];
      orow[j] = acc;
    }
  }
}

/// out rows [i0, i1) of out (+)= a^T * b: the reduction runs over the shared
/// row index p of a and b, ascending per element for every row partition.
void MatMulTransposedARowRange(const Matrix& a, const Matrix& b, Matrix* out,
                               bool accumulate, std::size_t i0,
                               std::size_t i1) {
  const std::size_t n = a.rows();
  const std::size_t m = b.cols();
  if (!accumulate) {
    for (std::size_t i = i0; i < i1; ++i) {
      double* orow = out->RowPtr(i);
      std::fill(orow, orow + m, 0.0);
    }
  }
  for (std::size_t j0 = 0; j0 < m; j0 += kBlockJ) {
    const std::size_t j1 = std::min(j0 + kBlockJ, m);
    for (std::size_t p0 = 0; p0 < n; p0 += kBlockK) {
      const std::size_t p1 = std::min(p0 + kBlockK, n);
      for (std::size_t i = i0; i < i1; ++i) {
        double* orow = out->RowPtr(i);
        std::size_t p = p0;
        for (; p + 4 <= p1; p += 4) {
          const double a0 = a(p, i);
          const double a1 = a(p + 1, i);
          const double a2 = a(p + 2, i);
          const double a3 = a(p + 3, i);
          const double* b0 = b.RowPtr(p);
          const double* b1 = b.RowPtr(p + 1);
          const double* b2 = b.RowPtr(p + 2);
          const double* b3 = b.RowPtr(p + 3);
          for (std::size_t j = j0; j < j1; ++j) {
            double t = orow[j];
            t += a0 * b0[j];
            t += a1 * b1[j];
            t += a2 * b2[j];
            t += a3 * b3[j];
            orow[j] = t;
          }
        }
        for (; p < p1; ++p) {
          const double aval = a(p, i);
          const double* brow = b.RowPtr(p);
          for (std::size_t j = j0; j < j1; ++j) orow[j] += aval * brow[j];
        }
      }
    }
  }
}

/// GemmRows without the shape checks.
void GemmRowsUnchecked(GemmOp op, const Matrix& a, const Matrix& b,
                       Matrix* out, bool accumulate, std::size_t r0,
                       std::size_t r1) {
  const bool trans_a = op == GemmOp::kTransposeA;
  const bool trans_b = op == GemmOp::kTransposeB;
  const std::size_t k = trans_a ? a.rows() : a.cols();
  if (r0 >= r1) return;
  // The tier is always the whole product's.
  if (const internal::GemmMicrokernel* uk =
          MicrokernelForCall(out->rows() * k * out->cols())) {
    internal::GemmRowRange(a, trans_a, b, trans_b, out, accumulate, *uk, r0,
                           r1);
    return;
  }
  switch (op) {
    case GemmOp::kNone:
      MatMulRowRange(a, b, out, accumulate, r0, r1);
      return;
    case GemmOp::kTransposeA:
      MatMulTransposedARowRange(a, b, out, accumulate, r0, r1);
      return;
    case GemmOp::kTransposeB:
      // The dot-product form cannot autovectorize without reassociating the
      // per-element sum, so once enough rows amortize it b^T goes into a
      // thread-local scratch (O(k*m) next to O(rows*k*m) flops) for the
      // vectorizable axpy-form kernel. Both accumulate each element in
      // ascending-k order: identical bits, different speed.
      if (r1 - r0 >= 4) {
        static thread_local Matrix b_transposed;
        TransposeInto(b, &b_transposed);
        MatMulRowRange(a, b_transposed, out, accumulate, r0, r1);
      } else {
        MatMulTransposedBRowRange(a, b, out, accumulate, r0, r1);
      }
      return;
  }
}

/// The shape checks every entry point shares.
void CheckGemmShapes(GemmOp op, const Matrix& a, const Matrix& b,
                     const Matrix* out) {
  const bool trans_a = op == GemmOp::kTransposeA;
  const bool trans_b = op == GemmOp::kTransposeB;
  CHECK_EQ(trans_a ? a.rows() : a.cols(), trans_b ? b.cols() : b.rows());
  CHECK_EQ(out->rows(), trans_a ? a.cols() : a.rows());
  CHECK_EQ(out->cols(), trans_b ? b.rows() : b.cols());
  CHECK(out != &a);
  CHECK(out != &b);
}

/// The whole product: past the parallel cutover, at most one chunk of rows
/// per lane.
void GemmAllRows(GemmOp op, const Matrix& a, const Matrix& b, Matrix* out,
                 bool accumulate) {
  CheckGemmShapes(op, a, b, out);
  const std::size_t k = op == GemmOp::kTransposeA ? a.rows() : a.cols();
  const std::size_t macs_per_row = k * out->cols();
  const std::size_t rows = out->rows();
  const auto kernel = [&](std::size_t r0, std::size_t r1) {
    GemmRowsUnchecked(op, a, b, out, accumulate, r0, r1);
  };
  if (rows * macs_per_row >= kParallelFlopThreshold) {
    ParallelFor(0, rows, RowChunk(rows, macs_per_row), kernel);
  } else {
    kernel(0, rows);
  }
}

}  // namespace

void GemmRows(GemmOp op, const Matrix& a, const Matrix& b, Matrix* out,
              bool accumulate, std::size_t r0, std::size_t r1) {
  CheckGemmShapes(op, a, b, out);
  CHECK_LE(r1, out->rows());
  GemmRowsUnchecked(op, a, b, out, accumulate, r0, r1);
}

// The aliasing checks come before Resize, which would clobber an aliased
// operand; GemmAllRows checks the shapes.
void MatMulInto(const Matrix& a, const Matrix& b, Matrix* out) {
  CHECK(out != &a && out != &b);
  out->Resize(a.rows(), b.cols());
  GemmAllRows(GemmOp::kNone, a, b, out, /*accumulate=*/false);
}

void MatMulTransposedBInto(const Matrix& a, const Matrix& b, Matrix* out) {
  CHECK(out != &a && out != &b);
  out->Resize(a.rows(), b.rows());
  GemmAllRows(GemmOp::kTransposeB, a, b, out, /*accumulate=*/false);
}

void MatMulTransposedAInto(const Matrix& a, const Matrix& b, Matrix* out,
                           bool accumulate) {
  CHECK(out != &a && out != &b);
  if (!accumulate) out->Resize(a.cols(), b.cols());
  GemmAllRows(GemmOp::kTransposeA, a, b, out, accumulate);
}

void TransposeInto(const Matrix& m, Matrix* out) {
  CHECK(out != &m);
  out->Resize(m.cols(), m.rows());
  // Each kTransposeBlock^2 block bounces through a contiguous scratch
  // buffer: the block of m is transposed into `buf` with 8x8 register
  // micro-tiles (reads sequential per source row; writes contiguous, so no
  // cache-set conflicts), then buf's rows are copied out as full contiguous
  // row segments. Every source and destination cache line is touched
  // exactly once and in full. The previous single-level tiling wrote each
  // destination line one element at a time across a strided inner loop —
  // at power-of-two row strides (256/512 columns => 2048/4096-byte strides)
  // all of a tile's lines alias into one or two L1 sets and get evicted
  // ~8 times before completion, the la_transpose_256/512 bandwidth cliff.
  const std::size_t rows = m.rows();
  const std::size_t cols = m.cols();
  double buf[kTransposeBlock * kTransposeBlock];
  for (std::size_t rb = 0; rb < rows; rb += kTransposeBlock) {
    const std::size_t br = std::min(kTransposeBlock, rows - rb);
    for (std::size_t cb = 0; cb < cols; cb += kTransposeBlock) {
      const std::size_t bc = std::min(kTransposeBlock, cols - cb);
      // buf[j * br + i] = m(rb + i, cb + j), i < br, j < bc.
      std::size_t i0 = 0;
      for (; i0 + kTransposeTile <= br; i0 += kTransposeTile) {
        std::size_t j0 = 0;
        for (; j0 + kTransposeTile <= bc; j0 += kTransposeTile) {
          double tile[kTransposeTile][kTransposeTile];
          for (std::size_t i = 0; i < kTransposeTile; ++i) {
            const double* src = m.RowPtr(rb + i0 + i) + cb + j0;
            for (std::size_t j = 0; j < kTransposeTile; ++j) {
              tile[j][i] = src[j];
            }
          }
          for (std::size_t j = 0; j < kTransposeTile; ++j) {
            double* dst = buf + (j0 + j) * br + i0;
            for (std::size_t i = 0; i < kTransposeTile; ++i) {
              dst[i] = tile[j][i];
            }
          }
        }
        for (std::size_t i = 0; i < kTransposeTile; ++i) {
          const double* src = m.RowPtr(rb + i0 + i) + cb;
          for (std::size_t j = j0; j < bc; ++j) buf[j * br + i0 + i] = src[j];
        }
      }
      for (std::size_t i = i0; i < br; ++i) {
        const double* src = m.RowPtr(rb + i) + cb;
        for (std::size_t j = 0; j < bc; ++j) buf[j * br + i] = src[j];
      }
      for (std::size_t j = 0; j < bc; ++j) {
        std::copy(buf + j * br, buf + (j + 1) * br,
                  out->RowPtr(cb + j) + rb);
      }
    }
  }
}

Matrix MatMul(const Matrix& a, const Matrix& b) {
  Matrix out;
  MatMulInto(a, b, &out);
  return out;
}

Matrix MatMulTransposedB(const Matrix& a, const Matrix& b) {
  Matrix out;
  MatMulTransposedBInto(a, b, &out);
  return out;
}

Matrix MatMulTransposedA(const Matrix& a, const Matrix& b) {
  Matrix out;
  MatMulTransposedAInto(a, b, &out);
  return out;
}

Matrix Transpose(const Matrix& m) {
  Matrix out;
  TransposeInto(m, &out);
  return out;
}

namespace {

void CheckSameShape(const Matrix& a, const Matrix& b) {
  CHECK_EQ(a.rows(), b.rows());
  CHECK_EQ(a.cols(), b.cols());
}

}  // namespace

Matrix Add(const Matrix& a, const Matrix& b) {
  CheckSameShape(a, b);
  Matrix out = a;
  double* dst = out.data();
  const double* src = b.data();
  for (std::size_t i = 0; i < out.size(); ++i) dst[i] += src[i];
  return out;
}

Matrix Sub(const Matrix& a, const Matrix& b) {
  CheckSameShape(a, b);
  Matrix out = a;
  double* dst = out.data();
  const double* src = b.data();
  for (std::size_t i = 0; i < out.size(); ++i) dst[i] -= src[i];
  return out;
}

Matrix Hadamard(const Matrix& a, const Matrix& b) {
  CheckSameShape(a, b);
  Matrix out = a;
  double* dst = out.data();
  const double* src = b.data();
  for (std::size_t i = 0; i < out.size(); ++i) dst[i] *= src[i];
  return out;
}

Matrix Scale(const Matrix& m, double scalar) {
  Matrix out = m;
  double* dst = out.data();
  for (std::size_t i = 0; i < out.size(); ++i) dst[i] *= scalar;
  return out;
}

Matrix AddRowBroadcast(const Matrix& m, const std::vector<double>& row) {
  CHECK_EQ(row.size(), m.cols());
  Matrix out = m;
  AddRowBroadcastInPlace(&out, row.data());
  return out;
}

void AddRowBroadcastInPlace(Matrix* m, const double* row) {
  for (std::size_t r = 0; r < m->rows(); ++r) {
    double* dst = m->RowPtr(r);
    for (std::size_t c = 0; c < m->cols(); ++c) dst[c] += row[c];
  }
}

void Axpy(double scalar, const Matrix& b, Matrix* a) {
  CheckSameShape(*a, b);
  double* dst = a->data();
  const double* src = b.data();
  for (std::size_t i = 0; i < a->size(); ++i) dst[i] += scalar * src[i];
}

Matrix ConcatCols(const Matrix& a, const Matrix& b) {
  CHECK_EQ(a.rows(), b.rows());
  Matrix out(a.rows(), a.cols() + b.cols());
  for (std::size_t r = 0; r < a.rows(); ++r) {
    std::copy(a.RowPtr(r), a.RowPtr(r) + a.cols(), out.RowPtr(r));
    std::copy(b.RowPtr(r), b.RowPtr(r) + b.cols(), out.RowPtr(r) + a.cols());
  }
  return out;
}

Matrix ConcatRows(const Matrix& a, const Matrix& b) {
  CHECK_EQ(a.cols(), b.cols());
  Matrix out(a.rows() + b.rows(), a.cols());
  std::copy(a.data(), a.data() + a.size(), out.data());
  std::copy(b.data(), b.data() + b.size(), out.data() + a.size());
  return out;
}

double Dot(const std::vector<double>& a, const std::vector<double>& b) {
  CHECK_EQ(a.size(), b.size());
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) acc += a[i] * b[i];
  return acc;
}

double Norm2(const std::vector<double>& v) { return std::sqrt(Dot(v, v)); }

double FrobeniusNorm(const Matrix& m) {
  double acc = 0.0;
  const double* src = m.data();
  for (std::size_t i = 0; i < m.size(); ++i) acc += src[i] * src[i];
  return std::sqrt(acc);
}

double Sum(const Matrix& m) {
  double acc = 0.0;
  const double* src = m.data();
  for (std::size_t i = 0; i < m.size(); ++i) acc += src[i];
  return acc;
}

double Mean(const Matrix& m) {
  if (m.size() == 0) return 0.0;
  return Sum(m) / static_cast<double>(m.size());
}

std::vector<double> ColMeans(const Matrix& m) {
  std::vector<double> means;
  ColMeansInto(m, &means);
  return means;
}

std::vector<double> ColVariances(const Matrix& m) {
  std::vector<double> means, vars;
  ColMeansInto(m, &means);
  ColVariancesInto(m, means, &vars);
  return vars;
}

void ColMeansInto(const Matrix& m, std::vector<double>* out) {
  out->assign(m.cols(), 0.0);
  if (m.rows() == 0) return;
  std::vector<double>& means = *out;
  for (std::size_t r = 0; r < m.rows(); ++r) {
    const double* row = m.RowPtr(r);
    for (std::size_t c = 0; c < m.cols(); ++c) means[c] += row[c];
  }
  for (double& v : means) v /= static_cast<double>(m.rows());
}

void ColVariancesInto(const Matrix& m, const std::vector<double>& means,
                      std::vector<double>* out) {
  CHECK_EQ(means.size(), m.cols());
  out->assign(m.cols(), 0.0);
  if (m.rows() == 0) return;
  std::vector<double>& vars = *out;
  for (std::size_t r = 0; r < m.rows(); ++r) {
    const double* row = m.RowPtr(r);
    for (std::size_t c = 0; c < m.cols(); ++c) {
      const double diff = row[c] - means[c];
      vars[c] += diff * diff;
    }
  }
  for (double& v : vars) v /= static_cast<double>(m.rows());
}

std::size_t ArgMax(const std::vector<double>& v) {
  CHECK(!v.empty());
  return static_cast<std::size_t>(
      std::max_element(v.begin(), v.end()) - v.begin());
}

double MaxAbsDiff(const Matrix& a, const Matrix& b) {
  CheckSameShape(a, b);
  double max_diff = 0.0;
  const double* pa = a.data();
  const double* pb = b.data();
  for (std::size_t i = 0; i < a.size(); ++i) {
    max_diff = std::max(max_diff, std::abs(pa[i] - pb[i]));
  }
  return max_diff;
}

}  // namespace vfl::la
