// Tests for the runtime GEMM kernel dispatch (la/cpu_features.h) and the
// packed SIMD microkernel path: exactness vs a naive reference over awkward
// shapes on EVERY dispatch tier the host supports (deterministic, generic,
// and — hardware permitting — avx2/avx512), accumulate and k=0 semantics,
// thread-count bit-identity on both the deterministic and fast paths, the
// bit-identity of operands read in place with packed ones, tier name
// parsing, and the la.kernel_path observability gauge. Runs under ASan/UBSan
// in CI so packing-buffer or tail-handling overruns surface here.
#include <gtest/gtest.h>

#include <vector>

#include "core/rng.h"
#include "la/cpu_features.h"
#include "la/gemm_packed.h"
#include "la/matrix.h"
#include "la/matrix_ops.h"
#include "la/parallel.h"
#include "obs/metrics.h"

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

std::vector<KernelPath> SupportedPaths() {
  std::vector<KernelPath> paths;
  for (const KernelPath p : {KernelPath::kDeterministic, KernelPath::kGeneric,
                             KernelPath::kAvx2, KernelPath::kAvx512}) {
    if (CpuSupportsKernelPath(p)) paths.push_back(p);
  }
  return paths;
}

/// Restores auto dispatch and single-threaded kernels no matter how a test
/// exits, so a failing case can't poison the rest of the suite.
class DispatchTest : public ::testing::Test {
 protected:
  void TearDown() override {
    ResetKernelPathToAuto();
    SetNumThreads(1);
  }
};

/// Shapes chosen to hit every edge of the packed path: 1x1, prime dims,
/// tails narrower/shorter than the widest register tile (8x16), degenerate
/// single rows/columns, exact tile multiples, and sizes big enough to cross
/// the small-product fallback threshold and the kc/mc cache blocks.
struct Shape {
  std::size_t n, k, m;
};
const Shape kShapes[] = {{1, 1, 1},     {2, 3, 2},     {5, 7, 3},
                         {7, 13, 15},   {17, 33, 9},   {64, 64, 64},
                         {65, 129, 67}, {1, 200, 5},   {128, 1, 31},
                         {33, 70, 130}, {96, 320, 96}, {128, 384, 144}};

TEST_F(DispatchTest, EveryPathMatchesNaiveOnAwkwardShapes) {
  for (const KernelPath path : SupportedPaths()) {
    ASSERT_EQ(SetKernelPath(path), path);
    core::Rng rng(31 + static_cast<unsigned>(path));
    for (const Shape& s : kShapes) {
      SCOPED_TRACE(testing::Message()
                   << KernelPathName(path) << " " << s.n << "x" << s.k << "x"
                   << s.m);
      const Matrix a = RandomMatrix(s.n, s.k, rng);
      const Matrix b = RandomMatrix(s.k, s.m, rng);
      Matrix out;
      MatMulInto(a, b, &out);
      ExpectNear(out, NaiveMatMul(a, b));

      const Matrix at = Transpose(a);  // at is used as a^T: at^T * b == a * b
      Matrix out_ta;
      MatMulTransposedAInto(at, b, &out_ta);
      ExpectNear(out_ta, NaiveMatMul(a, b));

      const Matrix bt = Transpose(b);
      Matrix out_tb;
      MatMulTransposedBInto(a, bt, &out_tb);
      ExpectNear(out_tb, NaiveMatMul(a, b));
    }
  }
}

TEST_F(DispatchTest, AccumulateAddsOnEveryPath) {
  for (const KernelPath path : SupportedPaths()) {
    SetKernelPath(path);
    core::Rng rng(47);
    // Big enough that the packed path (not the small-product fallback) runs.
    const Matrix a = RandomMatrix(96, 70, rng);
    const Matrix b = RandomMatrix(96, 133, rng);
    Matrix acc = RandomMatrix(70, 133, rng);
    const Matrix base = acc;
    MatMulTransposedAInto(a, b, &acc, /*accumulate=*/true);
    SCOPED_TRACE(KernelPathName(path).data());
    ExpectNear(acc, Add(base, NaiveMatMul(Transpose(a), b)));
  }
}

TEST_F(DispatchTest, KZeroZeroFillsOrKeepsAccumulateBase) {
  for (const KernelPath path : SupportedPaths()) {
    SetKernelPath(path);
    SCOPED_TRACE(KernelPathName(path).data());
    const Matrix a(5, 0);
    const Matrix b(0, 9);
    Matrix out(5, 9);
    for (std::size_t i = 0; i < out.size(); ++i) out.data()[i] = 123.0;
    // Without accumulate, an empty inner dimension must overwrite with 0.
    MatMulInto(a, b, &out);
    ASSERT_EQ(out.rows(), 5u);
    ASSERT_EQ(out.cols(), 9u);
    for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out.data()[i], 0.0);

    // With accumulate, the base survives untouched (X^T * dY with 0 rows).
    const Matrix a0(0, 5);
    const Matrix b0(0, 9);
    core::Rng rng(53);
    Matrix acc = RandomMatrix(5, 9, rng);
    const Matrix base = acc;
    MatMulTransposedAInto(a0, b0, &acc, /*accumulate=*/true);
    EXPECT_EQ(acc, base);
  }
}

TEST_F(DispatchTest, BitIdenticalAcrossThreadCountsOnEveryPath) {
  // Both the deterministic blocked kernels and the microkernels promise one
  // shape-dependent ascending-k accumulation chain per output element,
  // independent of the ParallelFor row partition and of whether a chunk
  // packs — so equal bits for any thread count, on every tier. Both
  // products are past the 2^21-MAC cutover and pack on one thread;
  // 300x220x260 splits into chunks that pack, 127x130x129 (odd rows) into
  // chunks that read in place.
  struct Case {
    std::size_t rows, k, cols;
  };
  core::Rng rng(59);
  for (const Case c : {Case{300, 220, 260}, Case{127, 130, 129}}) {
    const Matrix a = RandomMatrix(c.rows, c.k, rng);
    const Matrix at = Transpose(a);
    const Matrix b = RandomMatrix(c.k, c.cols, rng);
    const Matrix bt = Transpose(b);
    for (const KernelPath path : SupportedPaths()) {
      SetKernelPath(path);
      SetNumThreads(1);
      Matrix serial, serial_ta, serial_tb;
      MatMulInto(a, b, &serial);
      MatMulTransposedAInto(at, b, &serial_ta);
      MatMulTransposedBInto(a, bt, &serial_tb);
      for (const std::size_t threads : {2, 3, 4}) {
        SCOPED_TRACE(testing::Message()
                     << KernelPathName(path) << " " << c.rows << "x" << c.k
                     << "x" << c.cols << " on " << threads << " threads");
        SetNumThreads(threads);
        Matrix parallel, parallel_ta, parallel_tb;
        MatMulInto(a, b, &parallel);
        MatMulTransposedAInto(at, b, &parallel_ta);
        MatMulTransposedBInto(a, bt, &parallel_tb);
        EXPECT_EQ(serial, parallel);
        EXPECT_EQ(serial_ta, parallel_ta);
        EXPECT_EQ(serial_tb, parallel_tb);
      }
      SetNumThreads(1);
    }
  }
}

/// out = op_a(a) * op_b(b) (+= with accumulate) with both operands packed,
/// serially: the reference the public entry points must match.
Matrix PackedProduct(const Matrix& a, bool trans_a, const Matrix& b,
                     bool trans_b, const Matrix& base, bool accumulate,
                     const internal::GemmMicrokernel& uk) {
  Matrix out = base;
  internal::GemmRowRange(a, trans_a, b, trans_b, &out, accumulate, uk, 0,
                         out.rows(), /*force_pack=*/true);
  return out;
}

TEST_F(DispatchTest, InPlaceRouteMatchesPackedRouteBitwise) {
  // Microkernel ranges of up to 64 rows or under 2^21 MACs read their
  // operands in place, at any depth; others pack. Both run the same k blocks
  // through the same microkernel, so the public entry points must equal
  // GemmRowRange with force_pack exactly — over m and n tails on both sides
  // of every tier's tile, and k from one step to a whole k block and past
  // it. Smaller products take the blocked route (other bits).
  constexpr std::size_t kMinMacs = std::size_t{1} << 13;
  const std::size_t dims[] = {1, 3, 7, 8, 9, 15, 16, 17, 33, 65, 127};
  const std::size_t depths[] = {1, 5, 59, 128, 320};
  std::vector<Shape> shapes;
  for (const std::size_t rows : dims) {
    for (const std::size_t cols : dims) {
      for (const std::size_t k : depths) {
        if (rows * k * cols >= kMinMacs) shapes.push_back({rows, k, cols});
      }
    }
  }
  shapes.push_back({33, 321, 17});    // k one past a block, read in place
  shapes.push_back({9, 700, 40});     // three k blocks, read in place
  shapes.push_back({128, 128, 128});  // 2^21 MACs: 32-row chunks
  SetNumThreads(4);
  for (const KernelPath path : SupportedPaths()) {
    if (path == KernelPath::kDeterministic) continue;
    ASSERT_EQ(SetKernelPath(path), path);
    const internal::GemmMicrokernel& uk = *internal::MicrokernelForPath(path);
    core::Rng rng(67 + static_cast<unsigned>(path));
    for (const Shape& s : shapes) {
      SCOPED_TRACE(testing::Message() << KernelPathName(path) << " " << s.n
                                      << "x" << s.k << "x" << s.m);
      const Matrix a = RandomMatrix(s.n, s.k, rng);
      const Matrix at = RandomMatrix(s.k, s.n, rng);
      const Matrix b = RandomMatrix(s.k, s.m, rng);
      const Matrix bt = RandomMatrix(s.m, s.k, rng);
      const Matrix base = RandomMatrix(s.n, s.m, rng);
      const Matrix empty(s.n, s.m);

      Matrix nn;
      MatMulInto(a, b, &nn);
      EXPECT_EQ(nn, PackedProduct(a, false, b, false, empty, false, uk));

      Matrix ta;
      MatMulTransposedAInto(at, b, &ta);
      EXPECT_EQ(ta, PackedProduct(at, true, b, false, empty, false, uk));
      Matrix ta_acc = base;
      MatMulTransposedAInto(at, b, &ta_acc, /*accumulate=*/true);
      EXPECT_EQ(ta_acc, PackedProduct(at, true, b, false, base, true, uk));

      Matrix tb;
      MatMulTransposedBInto(a, bt, &tb);
      EXPECT_EQ(tb, PackedProduct(a, false, bt, true, empty, false, uk));
    }
  }
}

TEST_F(DispatchTest, DeterministicPathIsIdenticalToPreSimdKernels) {
  // The deterministic tier must be bit-equal to itself across repeated calls
  // and across output-buffer reuse — the property the experiment CSVs'
  // byte-equality checks rely on.
  SetKernelPath(KernelPath::kDeterministic);
  core::Rng rng(61);
  const Matrix a = RandomMatrix(130, 90, rng);
  const Matrix b = RandomMatrix(90, 75, rng);
  Matrix first;
  MatMulInto(a, b, &first);
  Matrix again = RandomMatrix(130, 75, rng);  // dirty buffer, reused
  MatMulInto(a, b, &again);
  EXPECT_EQ(first, again);
}

TEST_F(DispatchTest, ParseKernelPathRoundTripsAndRejects) {
  for (const KernelPath p : {KernelPath::kDeterministic, KernelPath::kGeneric,
                             KernelPath::kAvx2, KernelPath::kAvx512}) {
    const auto parsed = ParseKernelPath(KernelPathName(p));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, p);
  }
  EXPECT_EQ(ParseKernelPath("det"), KernelPath::kDeterministic);
  EXPECT_FALSE(ParseKernelPath("").has_value());
  EXPECT_FALSE(ParseKernelPath("auto").has_value());
  EXPECT_FALSE(ParseKernelPath("sse9").has_value());
}

TEST_F(DispatchTest, SetKernelPathClampsToSupported) {
  // Forcing a tier the host can't run must clamp down, never crash later.
  const KernelPath got = SetKernelPath(KernelPath::kAvx512);
  EXPECT_TRUE(CpuSupportsKernelPath(got));
  EXPECT_EQ(got, ActiveKernelPath());
  // Deterministic and generic are always supported, so never clamped.
  EXPECT_EQ(SetKernelPath(KernelPath::kGeneric), KernelPath::kGeneric);
  EXPECT_EQ(SetKernelPath(KernelPath::kDeterministic),
            KernelPath::kDeterministic);
}

TEST_F(DispatchTest, KernelPathGaugeTracksActivePath) {
  // Every dispatch resolution publishes the numeric tier as the
  // la.kernel_path gauge — the value vflfia_cli --metrics and the kGetStats
  // wire scrape read.
  for (const KernelPath path : SupportedPaths()) {
    SetKernelPath(path);
    const auto snapshot = obs::MetricsRegistry::Global().Snapshot();
    EXPECT_EQ(snapshot.ValueOf("la.kernel_path"),
              static_cast<std::int64_t>(path));
  }
  const KernelPath auto_path = ResetKernelPathToAuto();
  EXPECT_EQ(obs::MetricsRegistry::Global().Snapshot().ValueOf("la.kernel_path"),
            static_cast<std::int64_t>(auto_path));
}

TEST_F(DispatchTest, AutoNeverResolvesToDeterministic) {
  // Deterministic is opt-in only: detection must pick a packed tier.
  const KernelPath best = DetectBestKernelPath();
  EXPECT_NE(best, KernelPath::kDeterministic);
  EXPECT_TRUE(CpuSupportsKernelPath(best));
}

}  // namespace
}  // namespace vfl::la
