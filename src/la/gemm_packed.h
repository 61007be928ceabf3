#ifndef VFLFIA_LA_GEMM_PACKED_H_
#define VFLFIA_LA_GEMM_PACKED_H_

#include <cstddef>

#include "la/cpu_features.h"
#include "la/matrix.h"

/// Internal API of the SIMD GEMM: the per-ISA register-blocked microkernels
/// and the one row-range routine that feeds them (GemmRowRange), reading A,
/// and an untransposed B, where they lie, or packing them BLIS-style into
/// aligned thread-local panels when the range's shape says copying pays.
/// Callers use the MatMul*Into entry points in matrix_ops.h; this header
/// exists for the kernel TUs, the bench, and the dispatch tests.
namespace vfl::la::internal {

/// Depth of one k block: GemmRowRange runs one microkernel call per k block
/// and output tile, packed or not, so every product reduces each output
/// element in the same blocks.
inline constexpr std::size_t kBlockKc = 320;

/// One register-blocked microkernel: an `mr` x `nr` tile of C (row stride
/// `ldc`) from `kc` steps of A and B, each operand read through strides so
/// one kernel serves packed panels and operands read in place.
///   - A element (i, p) is a[i * a_rs + p * a_cs]: a packed panel is
///     (a_rs, a_cs) = (1, mr), a row-major operand (lda, 1), and a
///     transposed one (1, lda).
///   - B element (p, j) is b[p * ldb + j]: columns are always contiguous (a
///     packed panel has ldb = nr). Neither operand needs any alignment.
///   - Only the top-left `rows` x `cols` of the tile (1 <= rows <= mr,
///     1 <= cols <= nr) is valid. B loads past `cols` are masked off. Rows
///     past `rows` are computed from row rows-1's pointer and never stored,
///     so neither A nor C is touched outside the valid tile.
/// Accumulator registers always start at zero and run one ascending-k chain
/// per output element; `accumulate` selects whether the finished chain
/// overwrites the C tile or adds to it. That "chain from zero, then one
/// store/add" contract makes interior and edge tiles, and packed and
/// in-place reads, bit-identical, which in turn makes results invariant to
/// the route and to how ParallelFor partitions the rows.
struct GemmMicrokernel {
  using Fn = void (*)(std::size_t kc, const double* a, std::size_t a_rs,
                      std::size_t a_cs, const double* b, std::size_t ldb,
                      double* c, std::size_t ldc, std::size_t rows,
                      std::size_t cols, bool accumulate);
  Fn kernel = nullptr;
  std::size_t mr = 0;
  std::size_t nr = 0;
};

/// Portable 4x8 microkernel (GCC/Clang vector extensions); never null.
const GemmMicrokernel* GenericMicrokernel();

/// AVX2/FMA 6x8 microkernel; null when this binary was built without AVX2
/// support for its TU (non-x86 targets).
const GemmMicrokernel* Avx2Microkernel();

/// AVX-512F 8x16 microkernel; null when not compiled in.
const GemmMicrokernel* Avx512Microkernel();

/// Microkernel for a dispatch tier, falling back toward generic when a tier
/// is not compiled in. kDeterministic has no microkernel (the blocked
/// legacy kernels handle it); passing it returns the generic microkernel.
const GemmMicrokernel* MicrokernelForPath(KernelPath path);

/// Rows [r0, r1) of out = op_a(a) * op_b(b) (+= with `accumulate`), where
/// op_x transposes when the flag is set. Shapes are the *operand* shapes:
/// op_a(a) is out->rows() x k and op_b(b) is k x out->cols(); no transpose
/// is materialized.
///
/// k runs in kBlockKc blocks. The microkernel reads A (either orientation),
/// and B unless trans_b, where they lie; a transposed B has strided
/// columns, so it is packed block by block. Ranges of more than 64 rows
/// and at least 2^21 multiply-adds, and every range with `force_pack`, pack
/// both operands into panels of grow-once thread-local scratch (no
/// allocation in steady state). The microkernel sees the same values in
/// the same order either way, so the bits are a pure function of the
/// operand shapes and the microkernel, never of (r0, r1) or of packing.
/// Safe to call concurrently from ParallelFor workers on disjoint row
/// ranges.
void GemmRowRange(const Matrix& a, bool trans_a, const Matrix& b,
                  bool trans_b, Matrix* out, bool accumulate,
                  const GemmMicrokernel& uk, std::size_t r0, std::size_t r1,
                  bool force_pack = false);

}  // namespace vfl::la::internal

#endif  // VFLFIA_LA_GEMM_PACKED_H_
