// Microbenchmark for the la/ math core: GFLOP/s of the deterministic blocked
// GEMM kernels and of the runtime-dispatched packed SIMD microkernels
// (MatMulInto, MatMulTransposedAInto/BInto) against an in-file naive
// reference, plus Transpose bandwidth — the numbers every future kernel
// change has to beat. Results append into BENCH_perf.json (see
// exp::BenchJsonSink) to seed the repository's perf trajectory:
//   la_gemm_<n>_matmul*  — deterministic blocked kernels (the pre-SIMD path)
//   la_gemm_<n>_kernel*  — dispatched packed microkernels (the fast path)
//   la_kernel_path       — numeric dispatch tier the fast path resolved to
//   nn_*_step_*          — one training step through nn::TrainStep (the
//                          RF surrogate at the news shapes, a GRNA
//                          generator, the paper-shape surrogate) at the
//                          default thread count and at 1 thread, repetitions
//                          alternating: _us, _serial_us and
//                          _serial_over_parallel; a weight that differs in
//                          any bit between the two fails the run
//   nn_grna_step_*       — GRNA's Finalize per training step at the news
//                          shape against a frozen distilled surrogate, at
//                          the default thread count and at 1 thread, runs
//                          alternating: _us, _serial_us and
//                          _serial_over_parallel; outputs that differ in any
//                          bit fail the run
//   nn_surrogate_step_over_gemm — the 1-thread surrogate step against the
//                          GEMM calls it makes, timed in the same run: the
//                          step's non-GEMM overhead (printed, not gated)
//   nn_adam_step_us      — Adam::Step alone on that network's 11,973
//                          parameters
//   la_region_us/_macs   — one fork-join of empty chunks on la's team, and
//                          the multiply-adds the serial surrogate step runs
//                          in that time (what la::kMinChunkMacs encodes)
//   nn_*_step_gemm*      — the GEMM calls of one surrogate step and of one
//                          GRNA generator step, through the public entry
//                          points (skinny products read their operands in
//                          place) and with both operands forced into packed
//                          panels, same run; *_gemm_over_packed is the
//                          public route / forced packing
//   la_paper_*           — the paper-scale GEMMs (59-2000-200-5 surrogate at
//                          batch 128, the generator's 600-200 layer at batch
//                          64) through MatMul*Into at the default thread
//                          count and at 1 thread, repetitions alternating:
//                          _us, _serial_us and _serial_over_parallel; a
//                          product that differs in any bit fails the run
//   rf_fit_*, dt_fit_us  — RandomForest::Fit at the `news` shapes (800 x 59,
//                          5 classes, 32 trees of depth 3) at the default
//                          thread count and at 1 thread, repetitions
//                          alternating, and one depth-5 DecisionTree::Fit;
//                          rf_fit_serial_over_parallel is serial / default
//   la_host_concurrency  — how many cores the host ran at once in this run:
//                          N spin threads of equal work (N = the la thread
//                          count) timed against one, N x t(1) / t(N)
//
// Usage:
//   bench_la [--smoke] [--threads=N] [--json=PATH] [--assert-speedup=X]
//
// --smoke shrinks sizes/repetitions to CI scale and doubles as a Release
// (-O3 -DNDEBUG) correctness gate: every timed kernel result — on every
// dispatch path the host supports — is checked against the naive reference
// and any mismatch exits non-zero, so UB that only bites with optimizations
// on shows up here, not in production runs. Every mode also exits non-zero
// if a step GEMM's public result differs in any bit from the forced-pack
// one, if a paper-scale GEMM, a training step's weights or GRNA's output
// differ between 1 thread and the default, or if the serial and the
// parallel forest differ in any node.
//
// --assert-speedup=X exits non-zero unless the packed microkernels beat the
// deterministic blocked kernels by at least X (geometric mean over the
// MatMul ratios at sizes >= 128, both measured in this same run so machine
// throttling cancels out) — the release-perf CI gate. The packed side runs on
// every la thread, so the gate is printed next to la_host_concurrency: on a
// host that runs threads one at a time a miss says nothing about the code.
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "attack/grna.h"
#include "core/rng.h"
#include "core/timer.h"
#include "exp/bench_json.h"
#include "exp/workload.h"
#include "fed/query_channel.h"
#include "fed/scenario.h"
#include "la/cpu_features.h"
#include "la/gemm_packed.h"
#include "la/matrix.h"
#include "la/matrix_ops.h"
#include "la/parallel.h"
#include "models/decision_tree.h"
#include "models/random_forest.h"
#include "models/rf_surrogate.h"
#include "nn/activation.h"
#include "nn/layer_norm.h"
#include "nn/linear.h"
#include "nn/loss.h"
#include "nn/optimizer.h"
#include "nn/sequential.h"
#include "nn/trainer.h"

namespace {

using vfl::la::KernelPath;
using vfl::la::Matrix;

Matrix RandomMatrix(std::size_t rows, std::size_t cols, vfl::core::Rng& rng) {
  Matrix m(rows, cols);
  for (std::size_t i = 0; i < m.size(); ++i) {
    m.data()[i] = rng.Uniform(-1.0, 1.0);
  }
  return m;
}

/// The pre-optimization MatMul, verbatim (scalar ikj with a zero-skip
/// branch): both the correctness reference and the "before" timing column.
Matrix NaiveMatMul(const Matrix& a, const Matrix& b) {
  Matrix out(a.rows(), b.cols());
  const std::size_t n = a.rows(), k = a.cols(), m = b.cols();
  for (std::size_t i = 0; i < n; ++i) {
    const double* arow = a.RowPtr(i);
    double* orow = out.RowPtr(i);
    for (std::size_t p = 0; p < k; ++p) {
      const double aval = arow[p];
      if (aval == 0.0) continue;
      const double* brow = b.RowPtr(p);
      for (std::size_t j = 0; j < m; ++j) orow[j] += aval * brow[j];
    }
  }
  return out;
}

/// Max |x - y| over two equal-shaped matrices, as a fraction of the largest
/// magnitude involved (0-safe).
double RelErr(const Matrix& x, const Matrix& y) {
  double max_abs = 1e-30;
  for (std::size_t i = 0; i < x.size(); ++i) {
    max_abs = std::max({max_abs, std::abs(x.data()[i]),
                        std::abs(y.data()[i])});
  }
  return vfl::la::MaxAbsDiff(x, y) / max_abs;
}

struct Options {
  bool smoke = false;
  std::size_t threads = 0;  // 0 = library default
  std::string json_path;
  double assert_speedup = 0.0;  // 0 = no gate
};

bool failed = false;

void CheckClose(const Matrix& got, const Matrix& want, const char* what) {
  const double err = RelErr(got, want);
  if (err > 1e-12) {
    std::fprintf(stderr, "FAIL: %s deviates from naive reference (rel err %g)\n",
                 what, err);
    failed = true;
  }
}

/// Times `fn` (which must fully recompute its result) and returns the best
/// seconds over `reps` runs — the standard microbenchmark estimator.
template <typename Fn>
double BestSeconds(std::size_t reps, Fn fn) {
  double best = 1e100;
  for (std::size_t r = 0; r < reps; ++r) {
    vfl::core::Timer timer;
    fn();
    best = std::min(best, timer.ElapsedSeconds());
  }
  return best;
}

/// GFLOP/s of the three GEMM ops on the currently active kernel path,
/// verifying each result against the naive reference.
struct GemmGflops {
  double mm = 0.0;
  double ta = 0.0;
  double tb = 0.0;
};

GemmGflops TimeGemms(const Matrix& a, const Matrix& b, const Matrix& naive_out,
                     std::size_t reps, const char* label) {
  const std::size_t n = a.rows();
  const double flops = 2.0 * static_cast<double>(n) * n * n;
  char what[64];
  GemmGflops g;

  Matrix out;
  const double mm = BestSeconds(reps, [&] { vfl::la::MatMulInto(a, b, &out); });
  std::snprintf(what, sizeof(what), "MatMulInto[%s]", label);
  CheckClose(out, naive_out, what);
  g.mm = flops / mm / 1e9;

  Matrix out_ta;
  const double ta = BestSeconds(
      reps, [&] { vfl::la::MatMulTransposedAInto(a, b, &out_ta); });
  std::snprintf(what, sizeof(what), "MatMulTransposedAInto[%s]", label);
  CheckClose(out_ta, NaiveMatMul(vfl::la::Transpose(a), b), what);
  g.ta = flops / ta / 1e9;

  Matrix out_tb;
  const double tb = BestSeconds(
      reps, [&] { vfl::la::MatMulTransposedBInto(a, b, &out_tb); });
  std::snprintf(what, sizeof(what), "MatMulTransposedBInto[%s]", label);
  CheckClose(out_tb, NaiveMatMul(a, vfl::la::Transpose(b)), what);
  g.tb = flops / tb / 1e9;
  return g;
}

/// Per-size measurement: ratios feed the --assert-speedup gate.
struct SizeResult {
  std::size_t n = 0;
  double blocked_mm = 0.0;
  double kernel_mm = 0.0;
};

SizeResult BenchGemmSize(std::size_t n, std::size_t reps, bool smoke,
                         vfl::exp::BenchJsonSink& sink) {
  vfl::core::Rng rng(7 + n);
  const Matrix a = RandomMatrix(n, n, rng);
  const Matrix b = RandomMatrix(n, n, rng);
  const double flops = 2.0 * static_cast<double>(n) * n * n;

  Matrix naive_out;
  const double naive =
      BestSeconds(std::max<std::size_t>(reps / 2, 1),
                  [&] { naive_out = NaiveMatMul(a, b); });
  const double naive_gflops = flops / naive / 1e9;

  // Deterministic blocked kernels: the pre-SIMD baseline the gate divides
  // by, timed in the same run as the fast path.
  vfl::la::SetKernelPath(KernelPath::kDeterministic);
  const GemmGflops blocked = TimeGemms(a, b, naive_out, reps, "deterministic");

  // Dispatched packed microkernels (VFLFIA_LA_KERNEL still applies: reset
  // re-reads the environment, so a forced-generic CI run times generic).
  const KernelPath fast = vfl::la::ResetKernelPathToAuto();
  const GemmGflops kernel =
      TimeGemms(a, b, naive_out, reps, vfl::la::KernelPathName(fast).data());

  // In smoke mode, additionally verify every other supported dispatch tier
  // against the naive reference (timing only the tiers above).
  if (smoke) {
    for (const KernelPath path : {KernelPath::kGeneric, KernelPath::kAvx2,
                                  KernelPath::kAvx512}) {
      if (path == fast || !vfl::la::CpuSupportsKernelPath(path)) continue;
      vfl::la::SetKernelPath(path);
      TimeGemms(a, b, naive_out, 1, vfl::la::KernelPathName(path).data());
    }
    vfl::la::ResetKernelPathToAuto();
  }

  Matrix out_t;
  const double tr = BestSeconds(reps, [&] { vfl::la::TransposeInto(a, &out_t); });
  const double tr_gbps = 2.0 * static_cast<double>(a.size()) * sizeof(double) /
                         tr / 1e9;

  std::printf("%4zu  %8.3f  %9.3f  %9.3f  %8.2f\n", n, naive_gflops,
              blocked.mm, kernel.mm, tr_gbps);
  const std::string prefix = "la_gemm_" + std::to_string(n);
  sink.Record(prefix + "_naive", naive_gflops, "gflops");
  sink.Record(prefix + "_matmul", blocked.mm, "gflops");
  sink.Record(prefix + "_matmul_ta", blocked.ta, "gflops");
  sink.Record(prefix + "_matmul_tb", blocked.tb, "gflops");
  sink.Record(prefix + "_kernel", kernel.mm, "gflops");
  sink.Record(prefix + "_kernel_ta", kernel.ta, "gflops");
  sink.Record(prefix + "_kernel_tb", kernel.tb, "gflops");
  sink.Record("la_transpose_" + std::to_string(n), tr_gbps, "GB/s");
  return {n, blocked.mm, kernel.mm};
}

/// The GEMM calls of one training step through `widths` at `batch` rows,
/// alone at the same shapes, in the order nn::Sequential::BackwardParams
/// makes them: each Linear runs X*W and dW += X^T*dY; all but the first also
/// run dX = dY*W^T. Timed twice in the same run — through the public entry
/// points (the route the nn layers take) and through GemmRowRange with both
/// operands forced into packed panels — and the two results compared bit
/// for bit.
struct StepGemmTiming {
  double public_us = 0.0;
  double packed_us = 0.0;
  std::size_t calls = 0;
  bool routes_bitwise_equal = true;
};

StepGemmTiming BenchStepGemms(std::size_t batch,
                              const std::vector<std::size_t>& widths,
                              std::size_t reps, std::size_t steps,
                              vfl::core::Rng& rng) {
  const std::size_t num_linear = widths.size() - 1;
  struct LayerShapes {
    Matrix x, w, dy, out, dw, dx;
  };
  std::vector<LayerShapes> pub(num_linear);
  for (std::size_t i = 0; i < num_linear; ++i) {
    pub[i].x = RandomMatrix(batch, widths[i], rng);
    pub[i].w = RandomMatrix(widths[i], widths[i + 1], rng);
    pub[i].dy = RandomMatrix(batch, widths[i + 1], rng);
    pub[i].dw = Matrix(widths[i], widths[i + 1]);
  }
  std::vector<LayerShapes> packed = pub;

  StepGemmTiming timing;
  timing.calls = 3 * num_linear - 1;
  const auto public_gemms = [&] {
    for (std::size_t i = 0; i < num_linear; ++i) {
      LayerShapes& l = pub[i];
      vfl::la::MatMulInto(l.x, l.w, &l.out);
      vfl::la::MatMulTransposedAInto(l.x, l.dy, &l.dw, /*accumulate=*/true);
      if (i > 0) vfl::la::MatMulTransposedBInto(l.dy, l.w, &l.dx);
    }
  };

  namespace internal = vfl::la::internal;
  const KernelPath path = vfl::la::ActiveKernelPath();
  const internal::GemmMicrokernel& uk = *internal::MicrokernelForPath(path);
  const auto packed_gemms = [&] {
    for (std::size_t i = 0; i < num_linear; ++i) {
      LayerShapes& l = packed[i];
      l.out.Resize(batch, widths[i + 1]);
      internal::GemmRowRange(l.x, false, l.w, false, &l.out, false, uk, 0,
                             batch, /*force_pack=*/true);
      internal::GemmRowRange(l.x, true, l.dy, false, &l.dw, true, uk, 0,
                             widths[i], /*force_pack=*/true);
      if (i > 0) {
        l.dx.Resize(batch, widths[i]);
        internal::GemmRowRange(l.dy, false, l.w, true, &l.dx, false, uk, 0,
                               batch, /*force_pack=*/true);
      }
    }
  };
  // Best microseconds per step of each route; repetitions alternate between
  // the routes, so drift in the host's load or clock lands on both.
  const auto step_us = [steps](const auto& gemms) {
    vfl::core::Timer timer;
    for (std::size_t s = 0; s < steps; ++s) gemms();
    return timer.ElapsedSeconds() / static_cast<double>(steps) * 1e6;
  };
  public_gemms();
  packed_gemms();
  timing.public_us = timing.packed_us = 1e100;
  for (std::size_t r = 0; r < reps; ++r) {
    timing.public_us = std::min(timing.public_us, step_us(public_gemms));
    timing.packed_us = std::min(timing.packed_us, step_us(packed_gemms));
  }

  // Both sides ran the same number of accumulating steps, so dW must match
  // too. On the deterministic tier the public route is the blocked kernels,
  // whose bits differ by design.
  if (path != KernelPath::kDeterministic) {
    const auto same = [](const Matrix& x, const Matrix& y) {
      return x.rows() == y.rows() && x.cols() == y.cols() &&
             std::memcmp(x.data(), y.data(), x.size() * sizeof(double)) == 0;
    };
    for (std::size_t i = 0; i < num_linear; ++i) {
      timing.routes_bitwise_equal =
          timing.routes_bitwise_equal && same(pub[i].out, packed[i].out) &&
          same(pub[i].dw, packed[i].dw) &&
          (i == 0 || same(pub[i].dx, packed[i].dx));  // layer 0 has no dX
    }
  }
  return timing;
}

/// One training step through the real parallel path (nn::TrainStep: the
/// batch rows' forward and input-gradient chain over la's team, then the
/// parameter rows' gradients and Adam), at the default thread count and at
/// one thread, in alternating repetitions on two copies of one network.
struct TrainStepTiming {
  double parallel_us = 0.0;
  double serial_us = 0.0;
  double adam_step_us = 0.0;  // Adam::Step alone, one thread
  std::size_t num_params = 0;
  bool same_bits = true;  // both copies' weights after the same steps
};

/// `widths` of Linear layers with ReLU between them (plus LayerNorm with
/// `layer_norm`); `head` ends the network (Softmax for a surrogate, Sigmoid
/// for a GRNA generator).
template <typename Head>
TrainStepTiming BenchTrainStep(std::size_t batch,
                               const std::vector<std::size_t>& widths,
                               bool layer_norm, std::size_t reps,
                               std::size_t steps, vfl::core::Rng& rng) {
  const std::size_t num_linear = widths.size() - 1;
  vfl::nn::Sequential net;
  for (std::size_t i = 0; i < num_linear; ++i) {
    const bool hidden = i + 1 < num_linear;
    net.Emplace<vfl::nn::Linear>(
        widths[i], widths[i + 1], rng,
        hidden ? vfl::nn::Init::kHe : vfl::nn::Init::kXavier);
    if (!hidden) continue;
    net.Emplace<vfl::nn::Relu>();
    if (layer_norm) net.Emplace<vfl::nn::LayerNorm>(widths[i + 1]);
  }
  net.Emplace<Head>();
  std::unique_ptr<vfl::nn::Module> copy = net.Clone();
  auto& serial_net = static_cast<vfl::nn::Sequential&>(*copy);
  vfl::nn::Adam parallel_adam(net.Parameters(), 1e-3);
  vfl::nn::Adam serial_adam(serial_net.Parameters(), 1e-3);
  const Matrix x = RandomMatrix(batch, widths.front(), rng);
  const Matrix target = RandomMatrix(batch, widths.back(), rng);
  std::vector<std::size_t> rows(batch);
  for (std::size_t r = 0; r < batch; ++r) rows[r] = r;
  Matrix batch_x, parallel_grad, serial_grad;
  const auto step = [&](vfl::nn::Sequential& n, vfl::nn::Adam& adam,
                        Matrix* grad) {
    vfl::nn::TrainStep(n, adam, x, rows, &batch_x, grad,
                       [&](const Matrix& out, std::size_t r0, std::size_t r1) {
                         vfl::nn::MseLossGradRows(out, target, r0, r1, grad);
                       });
  };
  const std::size_t threads = vfl::la::NumThreads();
  // Microseconds per step on `threads` lanes, warm buffers.
  const auto time_steps = [&](std::size_t lanes, vfl::nn::Sequential& n,
                              vfl::nn::Adam& adam, Matrix* grad) {
    vfl::la::SetNumThreads(lanes);
    vfl::core::Timer timer;
    for (std::size_t s = 0; s < steps; ++s) step(n, adam, grad);
    return timer.ElapsedSeconds() / static_cast<double>(steps) * 1e6;
  };
  time_steps(threads, net, parallel_adam, &parallel_grad);
  time_steps(1, serial_net, serial_adam, &serial_grad);
  TrainStepTiming timing;
  timing.parallel_us = timing.serial_us = 1e100;
  for (std::size_t r = 0; r < reps; ++r) {
    timing.parallel_us = std::min(
        timing.parallel_us,
        time_steps(threads, net, parallel_adam, &parallel_grad));
    timing.serial_us = std::min(
        timing.serial_us, time_steps(1, serial_net, serial_adam, &serial_grad));
  }
  const std::vector<vfl::nn::Parameter*> got = net.Parameters();
  const std::vector<vfl::nn::Parameter*> want = serial_net.Parameters();
  for (std::size_t i = 0; i < got.size(); ++i) {
    timing.num_params += got[i]->value.size();
    timing.same_bits =
        timing.same_bits &&
        std::memcmp(got[i]->value.data(), want[i]->value.data(),
                    got[i]->value.size() * sizeof(double)) == 0;
  }
  timing.adam_step_us =
      BestSeconds(reps, [&] {
        for (std::size_t s = 0; s < steps; ++s) serial_adam.Step();
      }) / static_cast<double>(steps) * 1e6;
  vfl::la::SetNumThreads(threads);
  return timing;
}

/// GRNA's Finalize (Algorithm 2's generator loop, then the inference pass)
/// per training step at the `news` shape of the default scale: 500
/// prediction rows, half of the 59 features the target's, against a frozen
/// surrogate distilled (59-128-32-5) from the news forest. Runs alternate
/// between the default thread count and one thread; the two outputs must
/// match in every bit.
TrainStepTiming BenchGrnaStep(std::size_t reps, std::size_t epochs) {
  const vfl::exp::ScaleConfig scale;
  const vfl::exp::PreparedData data =
      vfl::exp::PrepareData("news", scale, /*pred_fraction=*/1.0, 1);
  vfl::models::RandomForest forest;
  forest.Fit(data.train, vfl::exp::MakeRfConfig(scale, 1));
  vfl::core::Rng split_rng(1);
  const vfl::fed::FeatureSplit split = vfl::fed::FeatureSplit::RandomFraction(
      data.train.num_features(), 0.5, split_rng);
  const vfl::fed::VflScenario scenario =
      vfl::fed::MakeTwoPartyScenario(data.x_pred, split, &forest);
  vfl::fed::OfflineChannel channel{scenario.CollectView()};
  vfl::models::RfSurrogate surrogate;
  surrogate.DistillConditioned(forest, split.adv_columns(), channel.x_adv(),
                               vfl::exp::MakeSurrogateConfig(scale, 1));
  vfl::attack::GrnaConfig config = vfl::exp::MakeGrnaConfig(scale, 55);
  config.train.weight_decay = 5e-3;  // the registry's surrogate setting
  config.train.epochs = epochs;
  const std::size_t rows = channel.x_adv().rows();
  const double steps = static_cast<double>(
      epochs * ((rows + config.train.batch_size - 1) / config.train.batch_size));

  const std::size_t threads = vfl::la::NumThreads();
  Matrix parallel_out, serial_out;
  // Microseconds per step of one Finalize on `lanes` lanes.
  const auto finalize_us = [&](std::size_t lanes, Matrix* out) {
    vfl::la::SetNumThreads(lanes);
    vfl::attack::GenerativeRegressionNetworkAttack grna(&surrogate, config);
    CHECK(grna.Prepare(channel.split(), channel).ok());
    CHECK(grna.Execute().ok());
    vfl::core::Timer timer;
    vfl::core::StatusOr<Matrix> inferred = grna.Finalize();
    const double us = timer.ElapsedSeconds() / steps * 1e6;
    CHECK(inferred.ok());
    *out = *std::move(inferred);
    return us;
  };
  TrainStepTiming timing;
  timing.parallel_us = timing.serial_us = 1e100;
  for (std::size_t r = 0; r <= reps; ++r) {  // the first pair warms up
    const double parallel_us = finalize_us(threads, &parallel_out);
    const double serial_us = finalize_us(1, &serial_out);
    if (r == 0) continue;
    timing.parallel_us = std::min(timing.parallel_us, parallel_us);
    timing.serial_us = std::min(timing.serial_us, serial_us);
  }
  vfl::la::SetNumThreads(threads);
  timing.same_bits =
      parallel_out.rows() == serial_out.rows() &&
      parallel_out.cols() == serial_out.cols() &&
      std::memcmp(parallel_out.data(), serial_out.data(),
                  parallel_out.size() * sizeof(double)) == 0;
  return timing;
}

/// One GEMM of the paper-scale networks: a rows x cols product over k in
/// orientation `op`, recorded under `key`.
struct PaperGemm {
  const char* key;
  const char* what;
  vfl::la::GemmOp op;
  std::size_t rows, k, cols;
};

/// The 59-2000-200-5 surrogate's products at batch 128 and the first layer
/// of the 600-200-100 generator at batch 64.
constexpr PaperGemm kPaperGemms[] = {
    {"la_paper_128x59x2000", "X*W, surrogate layer 1",
     vfl::la::GemmOp::kNone, 128, 59, 2000},
    {"la_paper_59x128x2000_ta", "X^T*dY, layer 1 weight gradient",
     vfl::la::GemmOp::kTransposeA, 59, 128, 2000},
    {"la_paper_128x200x2000_tb", "dY*W^T, layer 2 input gradient",
     vfl::la::GemmOp::kTransposeB, 128, 200, 2000},
    {"la_paper_128x2000x200", "X*W, surrogate layer 2",
     vfl::la::GemmOp::kNone, 128, 2000, 200},
    {"la_paper_64x600x200", "X*W, generator layer 1",
     vfl::la::GemmOp::kNone, 64, 600, 200},
};

/// One paper-scale GEMM through its MatMul*Into entry point, `calls` calls
/// per sample, at the default thread count and at 1 thread in alternating
/// repetitions (best sample of each); the two products must match in every
/// bit.
TrainStepTiming BenchPaperGemm(const PaperGemm& g, std::size_t reps,
                               std::size_t calls, vfl::core::Rng& rng) {
  using vfl::la::GemmOp;
  const Matrix a = g.op == GemmOp::kTransposeA ? RandomMatrix(g.k, g.rows, rng)
                                               : RandomMatrix(g.rows, g.k, rng);
  const Matrix b = g.op == GemmOp::kTransposeB ? RandomMatrix(g.cols, g.k, rng)
                                               : RandomMatrix(g.k, g.cols, rng);
  const auto product = [&](Matrix* out) {
    switch (g.op) {
      case GemmOp::kNone:
        vfl::la::MatMulInto(a, b, out);
        return;
      case GemmOp::kTransposeA:
        vfl::la::MatMulTransposedAInto(a, b, out);
        return;
      case GemmOp::kTransposeB:
        vfl::la::MatMulTransposedBInto(a, b, out);
        return;
    }
  };
  const std::size_t threads = vfl::la::NumThreads();
  Matrix parallel_out, serial_out;
  // Microseconds per call on `lanes` lanes, after one warm-up call.
  const auto call_us = [&](std::size_t lanes, Matrix* out) {
    vfl::la::SetNumThreads(lanes);
    product(out);
    vfl::core::Timer timer;
    for (std::size_t c = 0; c < calls; ++c) product(out);
    return timer.ElapsedSeconds() / static_cast<double>(calls) * 1e6;
  };
  TrainStepTiming timing;
  timing.parallel_us = timing.serial_us = 1e100;
  for (std::size_t r = 0; r < reps; ++r) {
    timing.parallel_us =
        std::min(timing.parallel_us, call_us(threads, &parallel_out));
    timing.serial_us = std::min(timing.serial_us, call_us(1, &serial_out));
  }
  vfl::la::SetNumThreads(threads);
  timing.same_bits =
      parallel_out.rows() == serial_out.rows() &&
      parallel_out.cols() == serial_out.cols() &&
      std::memcmp(parallel_out.data(), serial_out.data(),
                  parallel_out.size() * sizeof(double)) == 0;
  return timing;
}

/// Microseconds per la::ParallelFor region of one empty chunk per lane, on
/// warm lanes (best of `reps` batches of 2,000 back-to-back regions).
double RegionMicros(std::size_t lanes, std::size_t reps) {
  constexpr std::size_t kRegions = 2000;
  const auto regions = [lanes] {
    for (std::size_t r = 0; r < kRegions; ++r) {
      vfl::la::ParallelFor(0, lanes, 1, [](std::size_t, std::size_t) {});
    }
  };
  regions();
  return BestSeconds(reps, regions) / kRegions * 1e6;
}

/// Prints and records timings at the default thread count and at 1 as
/// <prefix>_us, <prefix>_serial_us and <prefix>_serial_over_parallel; a bit
/// difference between the two thread counts fails the run.
void RecordAgainstSerial(const std::string& prefix, const char* what,
                         const TrainStepTiming& t,
                         vfl::exp::BenchJsonSink& sink) {
  const double ratio = t.serial_us / t.parallel_us;
  std::printf(
      "%s: %.1f us on %zu threads, %.1f us on 1; serial/parallel %.2fx\n",
      what, t.parallel_us, vfl::la::NumThreads(), t.serial_us, ratio);
  sink.Record(prefix + "_us", t.parallel_us, "us");
  sink.Record(prefix + "_serial_us", t.serial_us, "us");
  sink.Record(prefix + "_serial_over_parallel", ratio, "ratio");
  if (!t.same_bits) {
    std::fprintf(stderr,
                 "FAIL: %s: results differ between %zu threads and 1\n",
                 what, vfl::la::NumThreads());
    failed = true;
  }
}

/// Prints and records one step's GEMM timings as <prefix>_gemm_us,
/// <prefix>_gemm_packed_us and <prefix>_gemm_over_packed; a route mismatch
/// fails the run.
void RecordStepGemms(const std::string& prefix, const char* what,
                     const StepGemmTiming& t, vfl::exp::BenchJsonSink& sink) {
  const double ratio = t.public_us / t.packed_us;
  std::printf(
      "%s: its %zu GEMMs %.1f us; with both operands packed %.1f us; "
      "public/packed %.2fx\n",
      what, t.calls, t.public_us, t.packed_us, ratio);
  sink.Record(prefix + "_gemm_us", t.public_us, "us");
  sink.Record(prefix + "_gemm_packed_us", t.packed_us, "us");
  sink.Record(prefix + "_gemm_over_packed", ratio, "ratio");
  if (!t.routes_bitwise_equal) {
    std::fprintf(stderr, "FAIL: %s GEMMs differ between routes\n", what);
    failed = true;
  }
}

/// Node arrays of two forests equal field by field, thresholds by their
/// bits.
bool SameForest(const vfl::models::RandomForest& a,
                const vfl::models::RandomForest& b) {
  if (a.trees().size() != b.trees().size()) return false;
  for (std::size_t t = 0; t < a.trees().size(); ++t) {
    const std::vector<vfl::models::TreeNode>& x = a.trees()[t].nodes();
    const std::vector<vfl::models::TreeNode>& y = b.trees()[t].nodes();
    if (x.size() != y.size()) return false;
    for (std::size_t i = 0; i < x.size(); ++i) {
      if (x[i].present != y[i].present || x[i].is_leaf != y[i].is_leaf ||
          x[i].feature != y[i].feature || x[i].label != y[i].label ||
          std::memcmp(&x[i].threshold, &y[i].threshold, sizeof(double)) !=
              0) {
        return false;
      }
    }
  }
  return true;
}

/// Tree training at the `news` shapes of the default scale: the forest at
/// `threads` and at 1 thread (repetitions alternate, so drift in the host's
/// load lands on both) and one depth-5 tree. A forest that differs between
/// the two thread counts fails the run.
void BenchTreeFits(std::size_t threads, std::size_t reps,
                   vfl::exp::BenchJsonSink& sink) {
  const vfl::exp::ScaleConfig scale;
  const vfl::data::Dataset train =
      vfl::exp::PrepareData("news", scale, /*pred_fraction=*/0.0, 1).train;
  const vfl::models::RfConfig rf_config = vfl::exp::MakeRfConfig(scale, 1);
  const vfl::models::DtConfig dt_config = vfl::exp::MakeDtConfig(scale, 1);

  vfl::models::RandomForest parallel, serial;
  double parallel_us = 1e100, serial_us = 1e100;
  const auto fit_us = [&](std::size_t fit_threads,
                          vfl::models::RandomForest* forest) {
    vfl::la::SetNumThreads(fit_threads);
    vfl::core::Timer timer;
    forest->Fit(train, rf_config);
    return timer.ElapsedSeconds() * 1e6;
  };
  for (std::size_t r = 0; r < reps; ++r) {
    parallel_us = std::min(parallel_us, fit_us(threads, &parallel));
    serial_us = std::min(serial_us, fit_us(1, &serial));
  }
  vfl::la::SetNumThreads(threads);
  vfl::models::DecisionTree tree;
  const double dt_us =
      BestSeconds(reps, [&] { tree.Fit(train, dt_config); }) * 1e6;

  const double ratio = serial_us / parallel_us;
  std::printf(
      "random forest (news, %zux%zu, %zu classes, %zu trees of depth %zu): "
      "%.0f us at %zu threads, %.0f us at 1; serial/parallel %.2fx\n",
      train.num_samples(), train.num_features(), train.num_classes,
      rf_config.num_trees, rf_config.tree.max_depth, parallel_us, threads,
      serial_us, ratio);
  std::printf("decision tree (news, depth %zu): %.0f us\n",
              dt_config.max_depth, dt_us);
  sink.Record("rf_fit_us", parallel_us, "us");
  sink.Record("rf_fit_serial_us", serial_us, "us");
  sink.Record("rf_fit_serial_over_parallel", ratio, "ratio");
  sink.Record("dt_fit_us", dt_us, "us");
  if (!SameForest(parallel, serial)) {
    std::fprintf(stderr,
                 "FAIL: forests fit at %zu threads and at 1 thread differ\n",
                 threads);
    failed = true;
  }
}

/// Cores the host runs at once: `threads` threads each spin through the same
/// `spins` dependent multiply-adds, timed against one thread doing it alone
/// (best of three each). Returns threads x t(1) / t(threads): about
/// `threads` when the process gets that many free cores, about 1 on a host
/// that runs threads one at a time.
double HostConcurrency(std::size_t threads, std::size_t spins) {
  const auto spin = [spins] {
    std::uint64_t x = 1;
    for (std::size_t i = 0; i < spins; ++i) {
      x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    }
    volatile std::uint64_t sink = x;
    (void)sink;
  };
  const double one = BestSeconds(3, spin);
  const double all = BestSeconds(3, [&] {
    std::vector<std::thread> team;
    team.reserve(threads);
    for (std::size_t t = 0; t < threads; ++t) team.emplace_back(spin);
    for (std::thread& t : team) t.join();
  });
  return static_cast<double>(threads) * one / all;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      options.smoke = true;
    } else if (std::strncmp(argv[i], "--threads=", 10) == 0) {
      options.threads = static_cast<std::size_t>(std::atol(argv[i] + 10));
    } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
      options.json_path = argv[i] + 7;
    } else if (std::strncmp(argv[i], "--assert-speedup=", 17) == 0) {
      options.assert_speedup = std::atof(argv[i] + 17);
    } else {
      std::fprintf(stderr,
                   "usage: bench_la [--smoke] [--threads=N] [--json=PATH] "
                   "[--assert-speedup=X]\n");
      return 2;
    }
  }
  if (options.threads > 0) vfl::la::SetNumThreads(options.threads);

  vfl::exp::BenchJsonSink sink(options.json_path);
  const KernelPath auto_path = vfl::la::ResetKernelPathToAuto();
  std::printf("la/ math-core microbenchmark (threads=%zu, dispatch=%s%s)\n",
              vfl::la::NumThreads(),
              vfl::la::KernelPathName(auto_path).data(),
              options.smoke ? ", smoke" : "");
  std::printf("   n     naive    blocked     kernel  transpose\n");
  std::printf("       GFLOP/s    GFLOP/s    GFLOP/s       GB/s\n");

  const std::vector<std::size_t> sizes =
      options.smoke ? std::vector<std::size_t>{33, 64, 96}
                    : std::vector<std::size_t>{64, 128, 256, 384, 512};
  const std::size_t reps = options.smoke ? 3 : 7;
  std::vector<SizeResult> results;
  for (const std::size_t n : sizes) {
    results.push_back(BenchGemmSize(n, reps, options.smoke, sink));
  }
  sink.Record("la_kernel_path", static_cast<double>(auto_path), "tier");

  const std::size_t step_reps = options.smoke ? 3 : 7;
  const std::size_t steps = options.smoke ? 10 : 50;
  vfl::core::Rng step_rng(11);
  // The `news` shapes of the default scale, and the paper's surrogate.
  const std::vector<std::size_t> surrogate_widths = {59, 128, 32, 5};
  const TrainStepTiming surrogate_step =
      BenchTrainStep<vfl::nn::Softmax>(128, surrogate_widths,
                                       /*layer_norm=*/false, step_reps, steps,
                                       step_rng);
  const TrainStepTiming generator_step = BenchTrainStep<vfl::nn::Sigmoid>(
      64, {59, 64, 32, 30}, /*layer_norm=*/true, step_reps, steps, step_rng);
  const TrainStepTiming paper_step = BenchTrainStep<vfl::nn::Softmax>(
      128, {59, 2000, 200, 5}, /*layer_norm=*/false, step_reps,
      options.smoke ? 2 : 10, step_rng);
  const StepGemmTiming surrogate =
      BenchStepGemms(128, surrogate_widths, step_reps, steps, step_rng);
  const StepGemmTiming generator =
      BenchStepGemms(64, {59, 64, 32, 30}, step_reps, steps, step_rng);
  // Against the step's GEMMs, which run on one thread at this size.
  const double step_over_gemm = surrogate_step.serial_us / surrogate.public_us;
  RecordAgainstSerial("nn_surrogate_step",
                      "surrogate training step (news, batch 128, 59-128-32-5)",
                      surrogate_step, sink);
  RecordAgainstSerial(
      "nn_generator_step",
      "generator training step (batch 64, 59-64-32-30, LayerNorm)",
      generator_step, sink);
  RecordAgainstSerial("nn_paper_surrogate_step",
                      "paper-shape surrogate step (batch 128, 59-2000-200-5)",
                      paper_step, sink);
  RecordAgainstSerial(
      "nn_grna_step",
      "GRNA step (news, batch 64, frozen 59-128-32-5 surrogate), Finalize",
      BenchGrnaStep(step_reps, options.smoke ? 1 : 4), sink);
  for (const PaperGemm& g : kPaperGemms) {
    const std::string what = std::string("paper GEMM ") +
                             std::to_string(g.rows) + "x" +
                             std::to_string(g.k) + "x" +
                             std::to_string(g.cols) + " (" + g.what + ")";
    RecordAgainstSerial(
        g.key, what.c_str(),
        BenchPaperGemm(g, step_reps, options.smoke ? 2 : 20, step_rng), sink);
  }
  // What one fork-join costs, in the multiply-adds the serial surrogate
  // step runs in that time (its forward, dX and dW products: three per
  // weight per row): a chunk must carry about that much work to pay for
  // its region, which is what la::kMinChunkMacs encodes.
  const double region_us = RegionMicros(vfl::la::NumThreads(), step_reps);
  double surrogate_macs = 0.0;
  for (std::size_t i = 0; i + 1 < surrogate_widths.size(); ++i) {
    surrogate_macs += 3.0 * 128.0 *
                      static_cast<double>(surrogate_widths[i] *
                                          surrogate_widths[i + 1]);
  }
  const double region_macs =
      region_us * surrogate_macs / surrogate_step.serial_us;
  std::printf(
      "one fork-join of %zu empty chunks: %.2f us, the serial step's "
      "work in %.0f multiply-adds (la::kMinChunkMacs %zu)\n",
      vfl::la::NumThreads(), region_us, region_macs, vfl::la::kMinChunkMacs);
  sink.Record("la_region_us", region_us, "us");
  sink.Record("la_region_macs", region_macs, "count");
  std::printf("surrogate step on one thread over its GEMMs: %.2fx\n",
              step_over_gemm);
  std::printf("Adam::Step on its %zu parameters: %.1f us\n",
              surrogate_step.num_params, surrogate_step.adam_step_us);
  sink.Record("nn_surrogate_step_over_gemm", step_over_gemm, "ratio");
  sink.Record("nn_adam_step_us", surrogate_step.adam_step_us, "us");
  RecordStepGemms("nn_surrogate_step", "surrogate step", surrogate, sink);
  RecordStepGemms("nn_generator_step", "generator step (batch 64, 59-64-32-30)",
                  generator, sink);
  BenchTreeFits(vfl::la::NumThreads(), options.smoke ? 2 : 7, sink);
  const double host_concurrency = HostConcurrency(
      vfl::la::NumThreads(), options.smoke ? 2'000'000 : 20'000'000);
  std::printf("host concurrency: %zu spin threads ran as %.2f cores at once\n",
              vfl::la::NumThreads(), host_concurrency);
  sink.Record("la_host_concurrency", host_concurrency, "cores");

  if (failed) {
    std::fprintf(stderr, "bench_la: result mismatch detected\n");
    return 1;
  }
  // Written before the speedup gate, so a miss still leaves the probe on
  // record next to it.
  const vfl::core::Status status = sink.Flush();
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("wrote %s\n", sink.path().c_str());
  if (options.assert_speedup > 0.0) {
    // Geometric mean of the per-size kernel/blocked MatMul ratios, over
    // sizes large enough (>= 128) that packing overhead is amortized; falls
    // back to all sizes when the run has none (smoke).
    double log_sum = 0.0;
    std::size_t count = 0;
    for (const SizeResult& r : results) {
      if (r.n < 128 && results.back().n >= 128) continue;
      log_sum += std::log(r.kernel_mm / r.blocked_mm);
      ++count;
    }
    const double geomean = std::exp(log_sum / static_cast<double>(count));
    std::printf(
        "packed-kernel speedup over blocked: %.2fx (gate %.2fx; host ran "
        "%.2f of %zu threads at once)\n",
        geomean, options.assert_speedup, host_concurrency,
        vfl::la::NumThreads());
    if (geomean < options.assert_speedup) {
      std::fprintf(stderr,
                   "bench_la: packed microkernels %.2fx over blocked kernels, "
                   "below the %.2fx gate (la_host_concurrency %.2f)\n",
                   geomean, options.assert_speedup, host_concurrency);
      return 3;
    }
  }
  return 0;
}
