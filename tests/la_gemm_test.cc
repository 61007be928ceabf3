// Tests for the blocked/parallel GEMM kernels and the ParallelFor helpers:
// equivalence to a naive in-test reference on random shapes (including
// non-multiples of the block sizes), accumulate semantics, aliasing guards,
// and bit-identical results across kernel thread counts.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <string>
#include <vector>

#include "core/rng.h"
#include "la/cpu_features.h"
#include "la/matrix.h"
#include "la/matrix_ops.h"
#include "la/parallel.h"
#include "serve/thread_pool.h"

namespace vfl::la {
namespace {

Matrix RandomMatrix(std::size_t rows, std::size_t cols, core::Rng& rng) {
  Matrix m(rows, cols);
  for (std::size_t i = 0; i < m.size(); ++i) {
    m.data()[i] = rng.Uniform(-2.0, 2.0);
  }
  return m;
}

Matrix NaiveMatMul(const Matrix& a, const Matrix& b) {
  Matrix out(a.rows(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t p = 0; p < a.cols(); ++p) {
      for (std::size_t j = 0; j < b.cols(); ++j) {
        out(i, j) += a(i, p) * b(p, j);
      }
    }
  }
  return out;
}

void ExpectNear(const Matrix& got, const Matrix& want, double tol = 1e-11) {
  ASSERT_EQ(got.rows(), want.rows());
  ASSERT_EQ(got.cols(), want.cols());
  EXPECT_LE(MaxAbsDiff(got, want), tol);
}

/// Shapes chosen to straddle the kernels' block sizes (64 and 128) and the
/// 2x/4x register tiles: non-multiples, degenerate single rows/columns.
struct Shape {
  std::size_t n, k, m;
};
const Shape kShapes[] = {{1, 1, 1},   {2, 3, 2},    {5, 7, 3},
                         {17, 33, 9}, {64, 64, 64}, {65, 129, 67},
                         {1, 200, 5}, {128, 1, 31}, {33, 70, 130}};

TEST(GemmTest, MatMulIntoMatchesNaive) {
  core::Rng rng(11);
  for (const Shape& s : kShapes) {
    const Matrix a = RandomMatrix(s.n, s.k, rng);
    const Matrix b = RandomMatrix(s.k, s.m, rng);
    Matrix out;
    MatMulInto(a, b, &out);
    ExpectNear(out, NaiveMatMul(a, b));
  }
}

/// The cache-blocked MatMul row kernel as it ran for every product under
/// 2^13 multiply-adds before those products kept their accumulators in
/// registers: the bit-exact reference for the register tiles.
void BlockedMatMulReference(const Matrix& a, const Matrix& b, Matrix* out) {
  constexpr std::size_t kBlockK = 64;
  constexpr std::size_t kBlockJ = 128;
  const std::size_t k = a.cols();
  const std::size_t m = b.cols();
  *out = Matrix(a.rows(), m);
  for (std::size_t j0 = 0; j0 < m; j0 += kBlockJ) {
    const std::size_t j1 = std::min(j0 + kBlockJ, m);
    for (std::size_t p0 = 0; p0 < k; p0 += kBlockK) {
      const std::size_t p1 = std::min(p0 + kBlockK, k);
      for (std::size_t i = 0; i < a.rows(); ++i) {
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

TEST(GemmTest, SmallProductsMatchTheBlockedKernelBitwise) {
  core::Rng rng(23);
  for (const KernelPath path :
       {KernelPath::kDeterministic, ActiveKernelPath()}) {
    SetKernelPath(path);
    for (const std::size_t m : {1u, 2u, 5u}) {
      for (const std::size_t k : {1u, 3u, 4u, 5u, 48u, 59u}) {
        for (const std::size_t n : {1u, 2u, 5u, 11u, 17u}) {
          const Matrix a = RandomMatrix(m, k, rng);
          const Matrix b = RandomMatrix(k, n, rng);
          Matrix want;
          BlockedMatMulReference(a, b, &want);
          Matrix got(3, 40, 7.0);  // stale shape and contents
          MatMulInto(a, b, &got);
          EXPECT_EQ(got, want) << KernelPathName(path) << " " << m << "x"
                               << k << "x" << n;
          // b^T read through the transposed-B entry point, four rows and up.
          const Matrix a4 = RandomMatrix(4, k, rng);
          BlockedMatMulReference(a4, b, &want);
          MatMulTransposedBInto(a4, Transpose(b), &got);
          EXPECT_EQ(got, want) << KernelPathName(path) << " 4x" << k << "x"
                               << n << " transposed B";
        }
      }
    }
  }
  ResetKernelPathToAuto();
}

TEST(GemmTest, MatMulTransposedAIntoMatchesNaive) {
  core::Rng rng(12);
  for (const Shape& s : kShapes) {
    const Matrix a = RandomMatrix(s.k, s.n, rng);  // used as a^T
    const Matrix b = RandomMatrix(s.k, s.m, rng);
    Matrix out;
    MatMulTransposedAInto(a, b, &out);
    ExpectNear(out, NaiveMatMul(Transpose(a), b));
  }
}

TEST(GemmTest, MatMulTransposedBIntoMatchesNaive) {
  core::Rng rng(13);
  for (const Shape& s : kShapes) {
    const Matrix a = RandomMatrix(s.n, s.k, rng);
    const Matrix b = RandomMatrix(s.m, s.k, rng);  // used as b^T
    Matrix out;
    MatMulTransposedBInto(a, b, &out);
    ExpectNear(out, NaiveMatMul(a, Transpose(b)));
  }
}

TEST(GemmTest, TransposedAIntoAccumulates) {
  core::Rng rng(14);
  const Matrix a = RandomMatrix(37, 19, rng);
  const Matrix b = RandomMatrix(37, 23, rng);
  Matrix acc = RandomMatrix(19, 23, rng);
  const Matrix base = acc;
  MatMulTransposedAInto(a, b, &acc, /*accumulate=*/true);
  const Matrix expected = Add(base, NaiveMatMul(Transpose(a), b));
  ExpectNear(acc, expected);
}

TEST(GemmTest, IntoReusesCapacityAcrossShapes) {
  core::Rng rng(15);
  Matrix out;
  // Shrinking then regrowing within capacity must still produce correct
  // shapes and values (Resize leaves contents unspecified, kernels overwrite).
  for (const std::size_t n : {40u, 8u, 33u}) {
    const Matrix a = RandomMatrix(n, 21, rng);
    const Matrix b = RandomMatrix(21, n + 3, rng);
    MatMulInto(a, b, &out);
    ExpectNear(out, NaiveMatMul(a, b));
  }
}

TEST(GemmTest, TransposeIntoMatchesElementwise) {
  core::Rng rng(16);
  // Straddles the 32x32 transpose tile.
  const Matrix m = RandomMatrix(70, 33, rng);
  Matrix out;
  TransposeInto(m, &out);
  ASSERT_EQ(out.rows(), m.cols());
  ASSERT_EQ(out.cols(), m.rows());
  for (std::size_t r = 0; r < m.rows(); ++r) {
    for (std::size_t c = 0; c < m.cols(); ++c) {
      EXPECT_EQ(out(c, r), m(r, c));
    }
  }
}

TEST(GemmTest, ShapeMismatchesAndAliasingAreChecked) {
  core::Rng rng(21);
  const Matrix a = RandomMatrix(4, 5, rng);
  const Matrix b = RandomMatrix(6, 7, rng);  // inner dims disagree
  Matrix out;
  EXPECT_DEATH(MatMulInto(a, b, &out), "");
  EXPECT_DEATH(MatMulTransposedAInto(a, b, &out), "");
  EXPECT_DEATH(MatMulTransposedBInto(a, b, &out), "");
  // Accumulate requires a correctly pre-shaped output.
  Matrix wrong_shape(1, 1);
  const Matrix c = RandomMatrix(4, 7, rng);
  EXPECT_DEATH(
      MatMulTransposedAInto(a, c, &wrong_shape, /*accumulate=*/true), "");
  // Output must not alias an input.
  Matrix square = RandomMatrix(5, 5, rng);
  EXPECT_DEATH(MatMulInto(square, square, &square), "");
}

TEST(GemmTest, AllocatingWrappersStillWork) {
  core::Rng rng(17);
  const Matrix a = RandomMatrix(9, 31, rng);
  const Matrix b = RandomMatrix(31, 6, rng);
  ExpectNear(MatMul(a, b), NaiveMatMul(a, b));
  ExpectNear(Transpose(Transpose(a)), a, 0.0);
}

TEST(GemmTest, BitIdenticalAcrossThreadCounts) {
  // The kernels promise ascending-k accumulation per output element for any
  // row partition, so forcing different thread counts over a
  // threshold-crossing size must give equal bits.
  core::Rng rng(18);
  const Matrix a = RandomMatrix(300, 220, rng);
  const Matrix b = RandomMatrix(220, 260, rng);

  SetNumThreads(1);
  Matrix serial;
  MatMulInto(a, b, &serial);
  Matrix serial_tb;
  MatMulTransposedBInto(a, Transpose(b), &serial_tb);

  SetNumThreads(4);
  Matrix parallel;
  MatMulInto(a, b, &parallel);
  Matrix parallel_tb;
  MatMulTransposedBInto(a, Transpose(b), &parallel_tb);
  SetNumThreads(1);

  EXPECT_EQ(serial, parallel);
  EXPECT_EQ(serial_tb, parallel_tb);
}

/// Same shape and the same bits in every element.
bool SameBits(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

TEST(GemmRowsTest, EveryRowRangeMatchesTheWholeProductBitwise) {
  // Products under 2^13 multiply-adds, between 2^13 and the 2^21 parallel
  // cutover, past it, and with k > 320 (more than one k block) read in
  // place, in every orientation, overwriting and accumulating, on every
  // tier.
  struct Case {
    std::size_t rows, k, cols;
  };
  const Case kCases[] = {{7, 9, 11},    {40, 59, 64}, {128, 130, 160},
                         {9, 321, 17},  {24, 400, 40}, {64, 700, 60},
                         {12, 1000, 33}};
  core::Rng rng(29);
  SetNumThreads(4);
  for (const KernelPath path :
       {KernelPath::kDeterministic, KernelPath::kGeneric,
        DetectBestKernelPath()}) {
    SetKernelPath(path);
    for (const Case& c : kCases) {
      for (const GemmOp op :
           {GemmOp::kNone, GemmOp::kTransposeA, GemmOp::kTransposeB}) {
        // Operand shapes giving a c.rows x c.cols product over c.k.
        const Matrix a = op == GemmOp::kTransposeA
                             ? RandomMatrix(c.k, c.rows, rng)
                             : RandomMatrix(c.rows, c.k, rng);
        const Matrix b = op == GemmOp::kTransposeB
                             ? RandomMatrix(c.cols, c.k, rng)
                             : RandomMatrix(c.k, c.cols, rng);
        const Matrix start = RandomMatrix(c.rows, c.cols, rng);
        for (const bool accumulate : {false, true}) {
          const std::string what =
              std::string(KernelPathName(path)) + " op " +
              std::to_string(static_cast<int>(op)) + " " +
              std::to_string(c.rows) + "x" + std::to_string(c.k) + "x" +
              std::to_string(c.cols) + (accumulate ? " accumulate" : "");
          Matrix whole = start;
          GemmRows(op, a, b, &whole, accumulate, 0, c.rows);
          // The public whole-product entry points (parallel past the
          // cutover) are the same computation.
          if (!accumulate || op == GemmOp::kTransposeA) {
            Matrix entry = start;
            if (op == GemmOp::kNone) MatMulInto(a, b, &entry);
            if (op == GemmOp::kTransposeA) {
              MatMulTransposedAInto(a, b, &entry, accumulate);
            }
            if (op == GemmOp::kTransposeB) MatMulTransposedBInto(a, b, &entry);
            EXPECT_TRUE(SameBits(entry, whole)) << what << " entry point";
          }
          // One row at a time, and every split into two ranges.
          Matrix single = start;
          for (std::size_t r = 0; r < c.rows; ++r) {
            GemmRows(op, a, b, &single, accumulate, r, r + 1);
          }
          EXPECT_TRUE(SameBits(single, whole)) << what << " row by row";
          for (std::size_t split = 1; split < c.rows; ++split) {
            Matrix halves = start;
            GemmRows(op, a, b, &halves, accumulate, split, c.rows);
            GemmRows(op, a, b, &halves, accumulate, 0, split);
            ASSERT_TRUE(SameBits(halves, whole)) << what << " split " << split;
          }
          // The result is right, not just consistent.
          Matrix want = NaiveMatMul(op == GemmOp::kTransposeA ? Transpose(a) : a,
                                    op == GemmOp::kTransposeB ? Transpose(b) : b);
          if (accumulate) want = Add(want, start);
          ExpectNear(whole, want, 1e-9);
        }
      }
    }
  }
  ResetKernelPathToAuto();
  SetNumThreads(1);
}

TEST(GemmRowsTest, NoneOnAStoredTransposeMatchesTransposeBBitwise) {
  // dX = dY * W^T two ways: kTransposeB on W (packing W^T per call) and
  // kNone on a stored W^T (read in place), as nn::Linear runs them for a
  // trained and for a frozen weight. Products under 2^13 multiply-adds with
  // 1-3 rows (dot products against W) and with 4 or more (the blocked
  // kernel on a transposed copy), microkernel products over one k block and
  // over several, and one past the 2^21 parallel cutover.
  struct Case {
    std::size_t rows, k, cols;
  };
  const Case kCases[] = {{1, 9, 11},    {3, 40, 59},   {2, 5, 3},
                         {7, 9, 11},    {12, 32, 16},  {16, 128, 59},
                         {40, 59, 64},  {5, 400, 40},  {24, 700, 60},
                         {128, 130, 160}};
  core::Rng rng(31);
  SetNumThreads(4);
  for (const KernelPath path :
       {KernelPath::kDeterministic, KernelPath::kGeneric,
        DetectBestKernelPath()}) {
    SetKernelPath(path);
    for (const Case& c : kCases) {
      const Matrix dy = RandomMatrix(c.rows, c.k, rng);
      const Matrix w = RandomMatrix(c.cols, c.k, rng);
      const Matrix w_t = Transpose(w);
      const Matrix start = RandomMatrix(c.rows, c.cols, rng);
      for (const bool accumulate : {false, true}) {
        const std::string what =
            std::string(KernelPathName(path)) + " " + std::to_string(c.rows) +
            "x" + std::to_string(c.k) + "x" + std::to_string(c.cols) +
            (accumulate ? " accumulate" : "");
        const auto both = [&](std::size_t r0, std::size_t r1) {
          Matrix packed = start;
          Matrix stored = start;
          GemmRows(GemmOp::kTransposeB, dy, w, &packed, accumulate, r0, r1);
          GemmRows(GemmOp::kNone, dy, w_t, &stored, accumulate, r0, r1);
          return SameBits(packed, stored);
        };
        // Every row range of the small products; single rows and every
        // two-way split of the large ones.
        if (c.rows <= 16) {
          for (std::size_t r0 = 0; r0 < c.rows; ++r0) {
            for (std::size_t r1 = r0 + 1; r1 <= c.rows; ++r1) {
              ASSERT_TRUE(both(r0, r1))
                  << what << " rows " << r0 << "-" << r1;
            }
          }
        } else {
          for (std::size_t r = 0; r < c.rows; ++r) {
            ASSERT_TRUE(both(r, r + 1)) << what << " row " << r;
            ASSERT_TRUE(both(0, r + 1)) << what << " rows 0-" << r + 1;
            ASSERT_TRUE(both(r, c.rows)) << what << " rows " << r << "-";
          }
        }
      }
    }
  }
  ResetKernelPathToAuto();
  SetNumThreads(1);
}

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  serve::ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(997);
  pool.ParallelFor(0, hits.size(), /*min_chunk=*/10,
                   [&](std::size_t b, std::size_t e) {
                     for (std::size_t i = b; i < e; ++i) {
                       hits[i].fetch_add(1);
                     }
                   });
  for (const std::atomic<int>& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelForTest, EmptyAndSingleRanges) {
  serve::ThreadPool pool(2);
  int calls = 0;
  pool.ParallelFor(5, 5, 1, [&](std::size_t, std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);

  std::atomic<int> sum{0};
  pool.ParallelFor(7, 8, 1, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) sum.fetch_add(static_cast<int>(i));
  });
  EXPECT_EQ(sum.load(), 7);
}

TEST(ParallelForTest, RunsInlineAfterShutdown) {
  serve::ThreadPool pool(2);
  pool.Shutdown();
  std::vector<int> hits(50, 0);
  // No workers left: chunks must still execute (on the calling thread).
  pool.ParallelFor(0, hits.size(), 1, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) hits[i] += 1;
  });
  for (const int h : hits) EXPECT_EQ(h, 1);
}

TEST(LaParallelForTest, NestedCallsFallBackToSerial) {
  SetNumThreads(4);
  std::vector<std::atomic<int>> hits(512);
  ParallelFor(0, hits.size(), 1, [&](std::size_t b, std::size_t e) {
    // A nested ParallelFor inside a chunk must not deadlock the shared
    // pool; it runs the nested range serially on this thread.
    ParallelFor(b, e, 1, [&](std::size_t nb, std::size_t ne) {
      for (std::size_t i = nb; i < ne; ++i) hits[i].fetch_add(1);
    });
  });
  SetNumThreads(1);
  for (const std::atomic<int>& h : hits) EXPECT_EQ(h.load(), 1);
}

}  // namespace
}  // namespace vfl::la
