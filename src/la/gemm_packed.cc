#include "la/gemm_packed.h"

#include <algorithm>
#include <cstring>
#include <memory>
#include <new>

namespace vfl::la::internal {

namespace {

// Cache blocking, shared by every microkernel tier. A kBlockKc x nr B strip
// (320 x 8/16 doubles = 20/40 KiB) stays L1-resident across the whole row
// block; an mc x kc A block (<= ~320 KiB) stays in L2 while it streams
// against every B strip of the column block; nc bounds the packed-B
// footprint for very wide outputs.
constexpr std::size_t kBlockMc = 128;
constexpr std::size_t kBlockNc = 4096;

/// A row range packs its operands only with at least kPackMinMacs
/// multiply-adds over more than kInPlaceMaxRows rows: panels copied into
/// contiguous scratch pay for the copy once enough row tiles reuse them.
/// Below 2^21 MACs the skinny products of training spent 20-45% of a packed
/// call copying. Ranges of up to 64 rows ran in place as fast or faster at
/// every paper shape on one AVX-512 core, e.g. one lane's 32 x 59 x 2000
/// forward in 78 us against 112 us packed; at 128 rows packing won for
/// some shapes.
constexpr std::size_t kPackMinMacs = std::size_t{1} << 21;
constexpr std::size_t kInPlaceMaxRows = 64;

/// 64-byte-aligned grow-only scratch. Ensure() reallocates only when the
/// requested count exceeds capacity, so steady-state GEMM traffic performs
/// zero allocations.
class AlignedBuffer {
 public:
  double* Ensure(std::size_t count) {
    if (count > capacity_) {
      const std::size_t want = std::max(count, capacity_ * 2);
      data_.reset(static_cast<double*>(
          ::operator new[](want * sizeof(double), std::align_val_t{64})));
      capacity_ = want;
    }
    return data_.get();
  }

 private:
  struct AlignedDelete {
    void operator()(double* p) const {
      ::operator delete[](p, std::align_val_t{64});
    }
  };
  std::unique_ptr<double, AlignedDelete> data_;
  std::size_t capacity_ = 0;
};

/// Per-thread packing scratch: ParallelFor workers are long-lived, so each
/// lane's buffers warm up once and are reused for every subsequent call.
struct PackScratch {
  AlignedBuffer a;
  AlignedBuffer b;
};

thread_local PackScratch t_scratch;

/// Packs rows [row0, row0+mc) x k-range [pc, pc+kc) of operand A into
/// ceil(mc/mr) consecutive k-major panels of kc*mr doubles. Rows past mc in
/// the last panel stay unwritten: the microkernel never reads them. With
/// trans, operand element A(i, p) is a(p, i) — the transposed read order is
/// also the sequential one.
void PackPanelsA(const Matrix& a, bool trans, std::size_t row0, std::size_t mc,
                 std::size_t pc, std::size_t kc, std::size_t mr, double* dst) {
  for (std::size_t ip = 0; ip < mc; ip += mr) {
    const std::size_t mre = std::min(mr, mc - ip);
    if (trans) {
      for (std::size_t p = 0; p < kc; ++p) {
        const double* src = a.RowPtr(pc + p) + row0 + ip;
        double* out = dst + p * mr;
        for (std::size_t i = 0; i < mre; ++i) out[i] = src[i];
      }
    } else {
      for (std::size_t i = 0; i < mre; ++i) {
        const double* src = a.RowPtr(row0 + ip + i) + pc;
        for (std::size_t p = 0; p < kc; ++p) dst[p * mr + i] = src[p];
      }
    }
    dst += kc * mr;
  }
}

/// Packs k-range [pc, pc+kc) x columns [col0, col0+nc) of operand B into
/// ceil(nc/nr) consecutive k-major panels of kc*nr doubles; the column tail
/// of the last panel stays unwritten (the microkernel masks it off). With
/// trans, operand element B(p, j) is b(j, p).
void PackPanelsB(const Matrix& b, bool trans, std::size_t pc, std::size_t kc,
                 std::size_t col0, std::size_t nc, std::size_t nr,
                 double* dst) {
  for (std::size_t jp = 0; jp < nc; jp += nr) {
    const std::size_t nre = std::min(nr, nc - jp);
    if (trans) {
      for (std::size_t j = 0; j < nre; ++j) {
        const double* src = b.RowPtr(col0 + jp + j) + pc;
        for (std::size_t p = 0; p < kc; ++p) dst[p * nr + j] = src[p];
      }
    } else {
      for (std::size_t p = 0; p < kc; ++p) {
        const double* src = b.RowPtr(pc + p) + col0 + jp;
        double* out = dst + p * nr;
        for (std::size_t j = 0; j < nre; ++j) out[j] = src[j];
      }
    }
    dst += kc * nr;
  }
}

/// Portable 4x8 microkernel. The accumulator block is sixteen 2-wide
/// GCC/Clang vectors (one SSE2 register each on baseline x86-64, lowered to
/// scalars where the target has no such register) with one ascending-k
/// chain per element. Spelling the vectors out keeps the compiler
/// vectorizing across j: left to the auto-vectorizer, the runtime A stride
/// gets the p loop vectorized instead, at half the speed. A tile narrower
/// than 8 columns loads its B row through a zero-padded copy, so B is never
/// read past `cols`.
constexpr std::size_t kGenericMr = 4;
constexpr std::size_t kGenericNr = 8;
constexpr std::size_t kGenericLanes = 2;
constexpr std::size_t kGenericVecs = kGenericNr / kGenericLanes;
using GenericVec = double __attribute__((vector_size(kGenericLanes * 8)));

template <bool kFullWidth>
void GenericTile(std::size_t kc, const double* a, std::size_t a_rs,
                 std::size_t a_cs, const double* b, std::size_t ldb, double* c,
                 std::size_t ldc, std::size_t rows, std::size_t cols,
                 bool accumulate) {
  // Rows past `rows` reread the last valid row and are never stored.
  const double* arow[kGenericMr];
  for (std::size_t i = 0; i < kGenericMr; ++i) {
    arow[i] = a + std::min(i, rows - 1) * a_rs;
  }
  GenericVec acc[kGenericMr][kGenericVecs] = {};
  double b_tail[kGenericNr] = {};
  for (std::size_t p = 0, off = 0; p < kc; ++p, off += a_cs, b += ldb) {
    const double* brow = b;
    if constexpr (!kFullWidth) {
      // A fixed trip count: a variable-length copy becomes a memcpy call.
      for (std::size_t j = 0; j < kGenericNr; ++j) {
        if (j < cols) b_tail[j] = b[j];
      }
      brow = b_tail;
    }
    GenericVec bv[kGenericVecs];
    std::memcpy(bv, brow, sizeof(bv));
    for (std::size_t i = 0; i < kGenericMr; ++i) {
      const double av = arow[i][off];
      for (std::size_t v = 0; v < kGenericVecs; ++v) acc[i][v] += av * bv[v];
    }
  }
  for (std::size_t i = 0; i < rows; ++i) {
    double* crow = c + i * ldc;
    for (std::size_t j = 0; j < cols; ++j) {
      const double value = acc[i][j / kGenericLanes][j % kGenericLanes];
      crow[j] = accumulate ? crow[j] + value : value;
    }
  }
}

void GenericKernel4x8(std::size_t kc, const double* a, std::size_t a_rs,
                      std::size_t a_cs, const double* b, std::size_t ldb,
                      double* c, std::size_t ldc, std::size_t rows,
                      std::size_t cols, bool accumulate) {
  if (cols == kGenericNr) {
    GenericTile<true>(kc, a, a_rs, a_cs, b, ldb, c, ldc, rows, cols,
                      accumulate);
  } else {
    GenericTile<false>(kc, a, a_rs, a_cs, b, ldb, c, ldc, rows, cols,
                       accumulate);
  }
}

constexpr GemmMicrokernel kGenericMicrokernel{&GenericKernel4x8, kGenericMr,
                                              kGenericNr};

/// The k == 0 product: zero-fills rows [r0, r1) unless accumulating.
void ZeroRowsUnlessAccumulating(Matrix* out, bool accumulate, std::size_t r0,
                                std::size_t r1) {
  if (accumulate) return;
  for (std::size_t i = r0; i < r1; ++i) {
    double* orow = out->RowPtr(i);
    std::fill(orow, orow + out->cols(), 0.0);
  }
}

}  // namespace

const GemmMicrokernel* GenericMicrokernel() { return &kGenericMicrokernel; }

const GemmMicrokernel* MicrokernelForPath(KernelPath path) {
  if (path == KernelPath::kAvx512) {
    if (const GemmMicrokernel* uk = Avx512Microkernel()) return uk;
    path = KernelPath::kAvx2;
  }
  if (path == KernelPath::kAvx2) {
    if (const GemmMicrokernel* uk = Avx2Microkernel()) return uk;
  }
  return GenericMicrokernel();
}

void GemmRowRange(const Matrix& a, bool trans_a, const Matrix& b,
                  bool trans_b, Matrix* out, bool accumulate,
                  const GemmMicrokernel& uk, std::size_t r0, std::size_t r1,
                  bool force_pack) {
  const std::size_t k = trans_a ? a.rows() : a.cols();
  const std::size_t n = out->cols();
  const std::size_t mr = uk.mr;
  const std::size_t nr = uk.nr;
  if (r0 >= r1) return;
  if (k == 0 || n == 0) {
    ZeroRowsUnlessAccumulating(out, accumulate, r0, r1);
    return;
  }
  const bool pack = force_pack || (r1 - r0 > kInPlaceMaxRows &&
                                   (r1 - r0) * k * n >= kPackMinMacs);
  // Operand element A(i, p) is a(i, p), or a(p, i) when transposed.
  const std::size_t a_rs = trans_a ? 1 : a.cols();
  const std::size_t a_cs = trans_a ? a.cols() : 1;
  PackScratch& s = t_scratch;
  const std::size_t mc_block = std::max(mr, kBlockMc / mr * mr);

  for (std::size_t jc = 0; jc < n; jc += kBlockNc) {
    const std::size_t nc = std::min(kBlockNc, n - jc);
    for (std::size_t pc = 0; pc < k; pc += kBlockKc) {
      const std::size_t kc = std::min(kBlockKc, k - pc);
      // The first k block either overwrites C or (with accumulate) adds to
      // the caller's contents; later k blocks always add. One add per block
      // per element, blocks ascending: the same bits for any row split.
      const bool add = accumulate || pc > 0;
      // Column strip jp of the B block starts at bdata + jp * b_strip, rows
      // ldb apart: in B itself, or in kc x nr panels packed for this block.
      const double* bdata = nullptr;
      std::size_t ldb = nr;
      std::size_t b_strip = kc;
      if (pack || trans_b) {
        double* bp = s.b.Ensure(kc * ((nc + nr - 1) / nr * nr));
        PackPanelsB(b, trans_b, pc, kc, jc, nc, nr, bp);
        bdata = bp;
      } else {
        bdata = b.RowPtr(pc) + jc;
        ldb = n;
        b_strip = 1;
      }
      for (std::size_t ic = r0; ic < r1; ic += mc_block) {
        const std::size_t mc = std::min(mc_block, r1 - ic);
        // Row tile ip of the A block starts at adata + ip * a_tile, its
        // elements (a_rs, a_cs) apart as in A, or in packed panels.
        const double* adata = a.data() + ic * a_rs + pc * a_cs;
        std::size_t a_tile = a_rs;
        std::size_t rs = a_rs;
        std::size_t cs = a_cs;
        if (pack) {
          double* ap = s.a.Ensure((mc + mr - 1) / mr * mr * kc);
          PackPanelsA(a, trans_a, ic, mc, pc, kc, mr, ap);
          adata = ap;
          a_tile = kc;
          rs = 1;
          cs = mr;
        }
        // Column strips outer: a kc x nr strip of B stays in L1 while every
        // row tile of the block streams past it.
        for (std::size_t jp = 0; jp < nc; jp += nr) {
          for (std::size_t ip = 0; ip < mc; ip += mr) {
            uk.kernel(kc, adata + ip * a_tile, rs, cs, bdata + jp * b_strip,
                      ldb, out->RowPtr(ic + ip) + jc + jp, n,
                      std::min(mr, mc - ip), std::min(nr, nc - jp), add);
          }
        }
      }
    }
  }
}

}  // namespace vfl::la::internal
