// Counts heap allocations across steady-state training steps. The counting
// global operator new lives in this test binary only, so no other suite
// pays for it.
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <new>
#include <vector>

#include <gtest/gtest.h>

#include "core/rng.h"
#include "la/matrix.h"
#include "nn/activation.h"
#include "nn/layer_norm.h"
#include "nn/linear.h"
#include "nn/loss.h"
#include "nn/optimizer.h"
#include "nn/sequential.h"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::size_t> g_allocations{0};

void Count() {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
}

void* CountedAlloc(std::size_t size) {
  Count();
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* CountedAlignedAlloc(std::size_t size, std::align_val_t align) {
  Count();
  const auto alignment = static_cast<std::size_t>(align);
  // aligned_alloc wants a size that is a multiple of the alignment.
  const std::size_t rounded =
      (size + alignment - 1) / alignment * alignment;
  if (void* p = std::aligned_alloc(alignment, rounded == 0 ? alignment
                                                           : rounded)) {
    return p;
  }
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return CountedAlignedAlloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return CountedAlignedAlloc(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace vfl::nn {
namespace {

la::Matrix RandomMatrix(std::size_t rows, std::size_t cols,
                        std::uint64_t seed) {
  core::Rng rng(seed);
  la::Matrix m(rows, cols);
  for (std::size_t i = 0; i < m.size(); ++i) m.data()[i] = rng.Uniform();
  return m;
}

TEST(NnAllocTest, CounterSeesAllocations) {
  g_allocations.store(0);
  g_counting.store(true);
  std::vector<double>* v = new std::vector<double>(10);
  g_counting.store(false);
  delete v;
  EXPECT_EQ(g_allocations.load(), 2u);  // the vector object and its storage
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

  for (int step = 1; step <= 5; ++step) {
    if (step == 2) {
      g_allocations.store(0);
      g_counting.store(true);
    }
    optimizer.ZeroGrad();
    const la::Matrix& output = net.Forward(x);
    MseLossInto(output, target, &loss);
    net.BackwardParams(loss.grad);
    optimizer.Step();
  }
  g_counting.store(false);
  EXPECT_EQ(g_allocations.load(), 0u);
  EXPECT_TRUE(std::isfinite(loss.value));
}

}  // namespace
}  // namespace vfl::nn
