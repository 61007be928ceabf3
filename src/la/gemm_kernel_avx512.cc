// AVX-512F microkernel TU. Built with -mavx512f -mavx512dq regardless of the
// global -march (root CMakeLists.txt); executed only after cpuid-based
// dispatch confirms AVX-512F plus OS ZMM state, so nothing here may leak
// into a static initializer or inline header function.
#include "la/gemm_packed.h"

#if defined(__AVX512F__)

#include <immintrin.h>

namespace vfl::la::internal {
namespace {

// 8x16 doubles of accumulators: 16 ZMM accumulators + 2 B loads + rotating
// broadcasts fit the 32-register file. Per k step: 2 B loads, 8 scalar
// broadcasts, 16 FMAs — FMA-bound at 8 cycles for 256 flops, i.e. the
// machine's full 32 double flops/cycle when both 512-bit FMA ports exist.
constexpr std::size_t kMr = 8;
constexpr std::size_t kNr = 16;

/// The 8x16 tile. kMasked reads B and C through lane masks for tiles
/// narrower than 16 columns (masked-off lanes load as zero); full tiles use
/// plain unaligned loads. kAdjacentRows marks a full-height tile whose A
/// rows are adjacent doubles (a packed panel, or a transposed A read in
/// place): one pointer with constant offsets reaches all eight, which keeps
/// the hot loop of large packed products as compact as a dedicated packed
/// kernel. Either way each valid element gets the same FMA chain.
template <bool kMasked, bool kAdjacentRows>
void Avx512Tile(std::size_t kc, const double* a, std::size_t a_rs,
                std::size_t a_cs, const double* b, std::size_t ldb, double* c,
                std::size_t ldc, std::size_t rows, std::size_t cols,
                bool accumulate) {
  const __mmask8 lo_mask =
      cols >= 8 ? __mmask8{0xFF} : static_cast<__mmask8>((1u << cols) - 1);
  const __mmask8 hi_mask =
      cols <= 8 ? __mmask8{0} : static_cast<__mmask8>((1u << (cols - 8)) - 1);
  // Rows past `rows` reread the last valid row and are never stored. (No
  // std::min: an out-of-line template instance built with this TU's ISA
  // flags could be picked by the linker for other TUs.)
  const auto row = [a, a_rs, rows](std::size_t i) {
    if constexpr (kAdjacentRows) return a + i;
    return a + (i < rows ? i : rows - 1) * a_rs;
  };
  const double* a0 = row(0);
  const double* a1 = row(1);
  const double* a2 = row(2);
  const double* a3 = row(3);
  const double* a4 = row(4);
  const double* a5 = row(5);
  const double* a6 = row(6);
  const double* a7 = row(7);

  __m512d c00 = _mm512_setzero_pd(), c01 = _mm512_setzero_pd();
  __m512d c10 = _mm512_setzero_pd(), c11 = _mm512_setzero_pd();
  __m512d c20 = _mm512_setzero_pd(), c21 = _mm512_setzero_pd();
  __m512d c30 = _mm512_setzero_pd(), c31 = _mm512_setzero_pd();
  __m512d c40 = _mm512_setzero_pd(), c41 = _mm512_setzero_pd();
  __m512d c50 = _mm512_setzero_pd(), c51 = _mm512_setzero_pd();
  __m512d c60 = _mm512_setzero_pd(), c61 = _mm512_setzero_pd();
  __m512d c70 = _mm512_setzero_pd(), c71 = _mm512_setzero_pd();

  for (std::size_t p = 0, off = 0; p < kc; ++p, off += a_cs, b += ldb) {
    __m512d b0, b1;
    if constexpr (kMasked) {
      b0 = _mm512_maskz_loadu_pd(lo_mask, b);
      b1 = _mm512_maskz_loadu_pd(hi_mask, b + 8);
    } else {
      b0 = _mm512_loadu_pd(b);
      b1 = _mm512_loadu_pd(b + 8);
    }
    __m512d av;
    av = _mm512_set1_pd(a0[off]);
    c00 = _mm512_fmadd_pd(av, b0, c00);
    c01 = _mm512_fmadd_pd(av, b1, c01);
    av = _mm512_set1_pd(a1[off]);
    c10 = _mm512_fmadd_pd(av, b0, c10);
    c11 = _mm512_fmadd_pd(av, b1, c11);
    av = _mm512_set1_pd(a2[off]);
    c20 = _mm512_fmadd_pd(av, b0, c20);
    c21 = _mm512_fmadd_pd(av, b1, c21);
    av = _mm512_set1_pd(a3[off]);
    c30 = _mm512_fmadd_pd(av, b0, c30);
    c31 = _mm512_fmadd_pd(av, b1, c31);
    av = _mm512_set1_pd(a4[off]);
    c40 = _mm512_fmadd_pd(av, b0, c40);
    c41 = _mm512_fmadd_pd(av, b1, c41);
    av = _mm512_set1_pd(a5[off]);
    c50 = _mm512_fmadd_pd(av, b0, c50);
    c51 = _mm512_fmadd_pd(av, b1, c51);
    av = _mm512_set1_pd(a6[off]);
    c60 = _mm512_fmadd_pd(av, b0, c60);
    c61 = _mm512_fmadd_pd(av, b1, c61);
    av = _mm512_set1_pd(a7[off]);
    c70 = _mm512_fmadd_pd(av, b0, c70);
    c71 = _mm512_fmadd_pd(av, b1, c71);
  }

  const auto store_row = [lo_mask, hi_mask, accumulate](
                             double* crow, __m512d lo, __m512d hi) {
    if constexpr (kMasked) {
      if (accumulate) {
        lo = _mm512_add_pd(_mm512_maskz_loadu_pd(lo_mask, crow), lo);
        hi = _mm512_add_pd(_mm512_maskz_loadu_pd(hi_mask, crow + 8), hi);
      }
      _mm512_mask_storeu_pd(crow, lo_mask, lo);
      _mm512_mask_storeu_pd(crow + 8, hi_mask, hi);
    } else {
      if (accumulate) {
        lo = _mm512_add_pd(_mm512_loadu_pd(crow), lo);
        hi = _mm512_add_pd(_mm512_loadu_pd(crow + 8), hi);
      }
      _mm512_storeu_pd(crow, lo);
      _mm512_storeu_pd(crow + 8, hi);
    }
  };
  store_row(c, c00, c01);
  if (rows > 1) store_row(c + 1 * ldc, c10, c11);
  if (rows > 2) store_row(c + 2 * ldc, c20, c21);
  if (rows > 3) store_row(c + 3 * ldc, c30, c31);
  if (rows > 4) store_row(c + 4 * ldc, c40, c41);
  if (rows > 5) store_row(c + 5 * ldc, c50, c51);
  if (rows > 6) store_row(c + 6 * ldc, c60, c61);
  if (rows > 7) store_row(c + 7 * ldc, c70, c71);
}

void Avx512Kernel8x16(std::size_t kc, const double* a, std::size_t a_rs,
                      std::size_t a_cs, const double* b, std::size_t ldb,
                      double* c, std::size_t ldc, std::size_t rows,
                      std::size_t cols, bool accumulate) {
  if (cols < kNr) {
    Avx512Tile<true, false>(kc, a, a_rs, a_cs, b, ldb, c, ldc, rows, cols,
                            accumulate);
  } else if (a_rs == 1 && rows == kMr) {
    Avx512Tile<false, true>(kc, a, a_rs, a_cs, b, ldb, c, ldc, rows, cols,
                            accumulate);
  } else {
    Avx512Tile<false, false>(kc, a, a_rs, a_cs, b, ldb, c, ldc, rows, cols,
                             accumulate);
  }
}

constexpr GemmMicrokernel kAvx512Microkernel{&Avx512Kernel8x16, kMr, kNr};

}  // namespace

const GemmMicrokernel* Avx512Microkernel() { return &kAvx512Microkernel; }

}  // namespace vfl::la::internal

#else  // !__AVX512F__

namespace vfl::la::internal {
const GemmMicrokernel* Avx512Microkernel() { return nullptr; }
}  // namespace vfl::la::internal

#endif
