// Counts heap allocations across steady-state training steps.
#include <cmath>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "alloc_counter.h"
#include "core/rng.h"
#include "la/matrix.h"
#include "la/parallel.h"
#include "nn/activation.h"
#include "nn/layer_norm.h"
#include "nn/linear.h"
#include "nn/loss.h"
#include "nn/optimizer.h"
#include "nn/sequential.h"
#include "nn/trainer.h"

namespace vfl::nn {
namespace {

la::Matrix RandomMatrix(std::size_t rows, std::size_t cols,
                        std::uint64_t seed) {
  core::Rng rng(seed);
  la::Matrix m(rows, cols);
  for (std::size_t i = 0; i < m.size(); ++i) m.data()[i] = rng.Uniform();
  return m;
}

using alloc_counter::CountAllocations;

TEST(NnAllocTest, CounterSeesAllocations) {
  std::vector<double>* v = nullptr;
  // The vector object and its storage.
  EXPECT_EQ(CountAllocations([&] { v = new std::vector<double>(10); }), 2u);
  delete v;
}

// ZeroGrad -> Forward -> MseLossInto -> BackwardParams -> Adam::Step: after
// the first step sized every buffer, later steps reuse them all. 32 rows keep
// every GEMM below la::ParallelFor's threshold, so the step runs serially.
TEST(NnAllocTest, SteadyStateTrainingStepAllocatesNothing) {
  core::Rng rng(1);
  Sequential net;
  net.Emplace<Linear>(59, 128, rng, Init::kHe);
  net.Emplace<Relu>();
  net.Emplace<LayerNorm>(128);
  net.Emplace<Linear>(128, 32, rng, Init::kHe);
  net.Emplace<Relu>();
  net.Emplace<Linear>(32, 5, rng);
  net.Emplace<Softmax>();
  Adam optimizer(net.Parameters(), 1e-3);
  const la::Matrix x = RandomMatrix(32, 59, 2);
  const la::Matrix target = RandomMatrix(32, 5, 3);
  LossResult loss;
  const auto step = [&] {
    optimizer.ZeroGrad();
    const la::Matrix& output = net.Forward(x);
    MseLossInto(output, target, &loss);
    net.BackwardParams(loss.grad);
    optimizer.Step();
  };

  step();
  EXPECT_EQ(CountAllocations([&] {
              for (int i = 0; i < 4; ++i) step();
            }),
            0u);
  EXPECT_TRUE(std::isfinite(loss.value));
}

// The same network through nn::TrainStep at 4 la threads, with batches of
// 128 rows that split over the team: the lanes write into buffers sized
// before each region, so steady-state steps still allocate nothing.
TEST(NnAllocTest, SteadyStateParallelStepAllocatesNothing) {
  const std::size_t saved_threads = la::NumThreads();
  la::SetNumThreads(4);
  core::Rng rng(1);
  Sequential net;
  net.Emplace<Linear>(59, 128, rng, Init::kHe);
  net.Emplace<Relu>();
  net.Emplace<LayerNorm>(128);
  net.Emplace<Linear>(128, 32, rng, Init::kHe);
  net.Emplace<Relu>();
  net.Emplace<Linear>(32, 5, rng);
  net.Emplace<Softmax>();
  Adam optimizer(net.Parameters(), 1e-3);
  const la::Matrix x = RandomMatrix(128, 59, 2);
  const la::Matrix target = RandomMatrix(128, 5, 3);
  la::Matrix grad;
  // Each lane's thread-local GEMM scratch grows on the first chunk it runs,
  // and a lane the host is slow to schedule can see its chunks stolen for a
  // while. So the warm-up records which threads ran rows, and lasts until
  // all four lanes did.
  std::mutex mu;
  std::set<std::thread::id> lanes;
  bool warming = true;
  const auto step = [&] {
    TrainStep(net, optimizer, x, &grad,
              [&](const la::Matrix& output, std::size_t r0, std::size_t r1) {
                MseLossGradRows(output, target, r0, r1, &grad);
                if (warming) {
                  std::lock_guard<std::mutex> lock(mu);
                  lanes.insert(std::this_thread::get_id());
                }
              });
  };
  for (int i = 0; i < 100'000 && (i < 10 || lanes.size() < 4); ++i) step();
  ASSERT_EQ(lanes.size(), 4u) << "a lane never ran a chunk";
  warming = false;
  EXPECT_EQ(CountAllocations([&] {
              for (int i = 0; i < 4; ++i) step();
            }),
            0u);
  EXPECT_TRUE(std::isfinite(MseLossValue(net.Forward(x), target)));
  la::SetNumThreads(saved_threads);
}

}  // namespace
}  // namespace vfl::nn
