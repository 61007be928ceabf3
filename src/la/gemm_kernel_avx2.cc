// AVX2/FMA microkernel TU. Built with -mavx2 -mfma regardless of the global
// -march (see the set_source_files_properties block in the root
// CMakeLists.txt); the code is only ever executed after cpuid-based dispatch
// confirms the host supports AVX2+FMA, so nothing here may leak into a
// static initializer or inline header function.
#include "la/gemm_packed.h"

#if defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

namespace vfl::la::internal {
namespace {

// 6x8 doubles of accumulators: 12 YMM accumulator registers plus two B loads
// and one rotating broadcast leave headroom in the 16-register file. Each
// accumulator is one ascending-k FMA chain; with 2 FMAs issued per cycle and
// 4-cycle latency, 12 independent chains keep both FMA ports saturated.
constexpr std::size_t kMr = 6;
constexpr std::size_t kNr = 8;

/// The 6x8 tile. kMasked reads B and C through lane masks for tiles
/// narrower than 8 columns; full tiles use plain unaligned loads.
/// kAdjacentRows marks a full-height tile whose A rows are adjacent doubles
/// (a packed panel, or a transposed A read in place): one pointer with
/// constant offsets reaches all six, which keeps the hot loop of large
/// packed products as compact as a dedicated packed kernel. Either way each
/// valid element gets the same FMA chain.
template <bool kMasked, bool kAdjacentRows>
void Avx2Tile(std::size_t kc, const double* a, std::size_t a_rs,
              std::size_t a_cs, const double* b, std::size_t ldb, double* c,
              std::size_t ldc, std::size_t rows, std::size_t cols,
              bool accumulate) {
  // Lane l of the low/high half is live when l (resp. 4 + l) < cols.
  const __m256i live = _mm256_set1_epi64x(static_cast<long long>(cols));
  const __m256i lo_mask =
      _mm256_cmpgt_epi64(live, _mm256_setr_epi64x(0, 1, 2, 3));
  const __m256i hi_mask =
      _mm256_cmpgt_epi64(live, _mm256_setr_epi64x(4, 5, 6, 7));
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

  __m256d c00 = _mm256_setzero_pd(), c01 = _mm256_setzero_pd();
  __m256d c10 = _mm256_setzero_pd(), c11 = _mm256_setzero_pd();
  __m256d c20 = _mm256_setzero_pd(), c21 = _mm256_setzero_pd();
  __m256d c30 = _mm256_setzero_pd(), c31 = _mm256_setzero_pd();
  __m256d c40 = _mm256_setzero_pd(), c41 = _mm256_setzero_pd();
  __m256d c50 = _mm256_setzero_pd(), c51 = _mm256_setzero_pd();

  for (std::size_t p = 0, off = 0; p < kc; ++p, off += a_cs, b += ldb) {
    __m256d b0, b1;
    if constexpr (kMasked) {
      b0 = _mm256_maskload_pd(b, lo_mask);
      b1 = _mm256_maskload_pd(b + 4, hi_mask);
    } else {
      b0 = _mm256_loadu_pd(b);
      b1 = _mm256_loadu_pd(b + 4);
    }
    __m256d av;
    av = _mm256_broadcast_sd(a0 + off);
    c00 = _mm256_fmadd_pd(av, b0, c00);
    c01 = _mm256_fmadd_pd(av, b1, c01);
    av = _mm256_broadcast_sd(a1 + off);
    c10 = _mm256_fmadd_pd(av, b0, c10);
    c11 = _mm256_fmadd_pd(av, b1, c11);
    av = _mm256_broadcast_sd(a2 + off);
    c20 = _mm256_fmadd_pd(av, b0, c20);
    c21 = _mm256_fmadd_pd(av, b1, c21);
    av = _mm256_broadcast_sd(a3 + off);
    c30 = _mm256_fmadd_pd(av, b0, c30);
    c31 = _mm256_fmadd_pd(av, b1, c31);
    av = _mm256_broadcast_sd(a4 + off);
    c40 = _mm256_fmadd_pd(av, b0, c40);
    c41 = _mm256_fmadd_pd(av, b1, c41);
    av = _mm256_broadcast_sd(a5 + off);
    c50 = _mm256_fmadd_pd(av, b0, c50);
    c51 = _mm256_fmadd_pd(av, b1, c51);
  }

  const auto store_row = [lo_mask, hi_mask, accumulate](
                             double* crow, __m256d lo, __m256d hi) {
    if constexpr (kMasked) {
      if (accumulate) {
        lo = _mm256_add_pd(_mm256_maskload_pd(crow, lo_mask), lo);
        hi = _mm256_add_pd(_mm256_maskload_pd(crow + 4, hi_mask), hi);
      }
      _mm256_maskstore_pd(crow, lo_mask, lo);
      _mm256_maskstore_pd(crow + 4, hi_mask, hi);
    } else {
      if (accumulate) {
        lo = _mm256_add_pd(_mm256_loadu_pd(crow), lo);
        hi = _mm256_add_pd(_mm256_loadu_pd(crow + 4), hi);
      }
      _mm256_storeu_pd(crow, lo);
      _mm256_storeu_pd(crow + 4, hi);
    }
  };
  store_row(c, c00, c01);
  if (rows > 1) store_row(c + 1 * ldc, c10, c11);
  if (rows > 2) store_row(c + 2 * ldc, c20, c21);
  if (rows > 3) store_row(c + 3 * ldc, c30, c31);
  if (rows > 4) store_row(c + 4 * ldc, c40, c41);
  if (rows > 5) store_row(c + 5 * ldc, c50, c51);
}

void Avx2Kernel6x8(std::size_t kc, const double* a, std::size_t a_rs,
                   std::size_t a_cs, const double* b, std::size_t ldb,
                   double* c, std::size_t ldc, std::size_t rows,
                   std::size_t cols, bool accumulate) {
  if (cols < kNr) {
    Avx2Tile<true, false>(kc, a, a_rs, a_cs, b, ldb, c, ldc, rows, cols,
                          accumulate);
  } else if (a_rs == 1 && rows == kMr) {
    Avx2Tile<false, true>(kc, a, a_rs, a_cs, b, ldb, c, ldc, rows, cols,
                          accumulate);
  } else {
    Avx2Tile<false, false>(kc, a, a_rs, a_cs, b, ldb, c, ldc, rows, cols,
                           accumulate);
  }
}

constexpr GemmMicrokernel kAvx2Microkernel{&Avx2Kernel6x8, kMr, kNr};

}  // namespace

const GemmMicrokernel* Avx2Microkernel() { return &kAvx2Microkernel; }

}  // namespace vfl::la::internal

#else  // !(__AVX2__ && __FMA__)

namespace vfl::la::internal {
const GemmMicrokernel* Avx2Microkernel() { return nullptr; }
}  // namespace vfl::la::internal

#endif
