// Counts heap allocations across steady-state training steps.
#include <array>
#include <cmath>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "alloc_counter.h"
#include "attack/grna.h"
#include "core/rng.h"
#include "data/synthetic.h"
#include "fed/scenario.h"
#include "la/matrix.h"
#include "la/parallel.h"
#include "models/mlp.h"
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
  std::vector<std::size_t> rows(128);
  for (std::size_t r = 0; r < rows.size(); ++r) rows[r] = r;
  la::Matrix batch, grad;
  // Each lane's thread-local GEMM scratch grows on the first chunk it runs,
  // and a lane the host is slow to schedule can see its chunks stolen for a
  // while. So the warm-up records which threads ran rows, and lasts until
  // all four lanes did.
  std::mutex mu;
  std::set<std::thread::id> lanes;
  bool warming = true;
  const auto step = [&] {
    TrainStep(net, optimizer, x, rows, &batch, &grad,
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

// Whole epochs of nn::TrainMseRegressor on one thread: after the first
// epoch sized every buffer, an epoch (its order, batches and loss history)
// allocates nothing.
TEST(NnAllocTest, SteadyStateTrainingEpochAllocatesNothing) {
  const std::size_t saved_threads = la::NumThreads();
  la::SetNumThreads(1);
  core::Rng rng(1);
  Sequential net;
  net.Emplace<Linear>(12, 32, rng, Init::kHe);
  net.Emplace<Relu>();
  net.Emplace<Linear>(32, 3, rng);
  const la::Matrix x = RandomMatrix(100, 12, 2);
  const la::Matrix target = RandomMatrix(100, 3, 3);
  TrainConfig config;
  config.epochs = 5;
  config.batch_size = 32;  // a 4-row tail
  std::vector<std::size_t> epoch_ends;
  epoch_ends.reserve(config.epochs);
  alloc_counter::CountAllocations([&] {
    TrainMseRegressor(net, x, target, config, [&](const EpochStats&) {
      epoch_ends.push_back(alloc_counter::g_allocations.load());
    });
  });
  ASSERT_EQ(epoch_ends.size(), config.epochs);
  for (std::size_t epoch = 1; epoch < epoch_ends.size(); ++epoch) {
    EXPECT_EQ(epoch_ends[epoch] - epoch_ends[epoch - 1], 0u)
        << "epoch " << epoch;
  }
  la::SetNumThreads(saved_threads);
}

/// A frozen model that forwards to `inner` and watches the GRNA steps run
/// through it: each step's one serial BeginForwardDiff call snapshots the
/// allocation count, and ForwardDiffRows notes which threads ran rows.
/// Neither allocates.
class StepProbe : public models::DifferentiableModel {
 public:
  StepProbe(models::DifferentiableModel* inner, std::size_t max_steps)
      : inner_(inner) {
    step_starts_.reserve(max_steps);
  }

  void PredictProbaInto(const la::Matrix& x, la::Matrix* out) const override {
    inner_->PredictProbaInto(x, out);
  }
  std::size_t num_features() const override { return inner_->num_features(); }
  std::size_t num_classes() const override { return inner_->num_classes(); }
  std::unique_ptr<models::Model> Clone() const override {
    return inner_->Clone();
  }
  const la::Matrix& BeginForwardDiff(const la::Matrix& x) override {
    if (step_starts_.size() < step_starts_.capacity()) {
      step_starts_.push_back(alloc_counter::g_allocations.load());
    }
    return inner_->BeginForwardDiff(x);
  }
  void ForwardDiffRows(const la::Matrix& x, std::size_t r0,
                       std::size_t r1) override {
    {
      std::lock_guard<std::mutex> lock(mu_);
      const std::thread::id self = std::this_thread::get_id();
      bool seen = false;
      for (std::size_t i = 0; i < num_lanes_; ++i) seen |= lanes_[i] == self;
      if (!seen && num_lanes_ < lanes_.size()) lanes_[num_lanes_++] = self;
    }
    inner_->ForwardDiffRows(x, r0, r1);
  }
  const la::Matrix& BeginBackwardToInput(const la::Matrix& grad) override {
    return inner_->BeginBackwardToInput(grad);
  }
  void BackwardToInputRows(const la::Matrix& grad, std::size_t r0,
                           std::size_t r1) override {
    inner_->BackwardToInputRows(grad, r0, r1);
  }

  /// Allocation counts at each step's start, since counting began.
  const std::vector<std::size_t>& step_starts() const { return step_starts_; }
  void ClearSteps() { step_starts_.clear(); }
  std::size_t num_lanes() const { return num_lanes_; }

 private:
  models::DifferentiableModel* inner_;
  std::vector<std::size_t> step_starts_;
  std::mutex mu_;
  std::array<std::thread::id, 16> lanes_;
  std::size_t num_lanes_ = 0;
};

// GRNA steps at 4 la threads against a frozen MLP: 400 rows in batches of
// 64 (a 16-row tail), rows split over the team. Once every lane has run
// and the first step sized the buffers, a step allocates nothing, the steps
// that end an epoch (the next epoch's order, the loss history) included.
TEST(NnAllocTest, SteadyStateGrnaStepAllocatesNothing) {
  const std::size_t saved_threads = la::NumThreads();
  la::SetNumThreads(4);
  data::ClassificationSpec spec;
  spec.num_samples = 400;
  spec.num_features = 12;
  spec.num_classes = 3;
  spec.num_informative = 6;
  spec.num_redundant = 3;
  spec.seed = 17;
  const data::Dataset dataset = data::MakeClassification(spec);
  models::MlpClassifier mlp;
  models::MlpConfig mlp_config;
  mlp_config.hidden_sizes = {64, 32};
  mlp_config.train.epochs = 1;
  mlp.Fit(dataset, mlp_config);
  core::Rng split_rng(18);
  const fed::FeatureSplit split =
      fed::FeatureSplit::RandomFraction(12, 0.4, split_rng);
  const fed::AdversaryView view =
      fed::MakeTwoPartyScenario(dataset.x, split, &mlp).CollectView();

  attack::GrnaConfig config;
  config.hidden_sizes = {64, 32};
  config.train.epochs = 6;
  const std::size_t steps_per_epoch = 7;
  StepProbe probe(&mlp, config.train.epochs * steps_per_epoch);
  // Warm-up runs last until every lane has run rows: each lane's
  // thread-local GEMM scratch grows on its first chunks.
  for (int run = 0; run < 200 && (run < 2 || probe.num_lanes() < 4); ++run) {
    attack::GenerativeRegressionNetworkAttack(&probe, config).Infer(view);
    probe.ClearSteps();
  }
  ASSERT_EQ(probe.num_lanes(), 4u) << "a lane never ran a chunk";

  attack::GenerativeRegressionNetworkAttack grna(&probe, config);
  alloc_counter::CountAllocations([&] { grna.Infer(view); });
  const std::vector<std::size_t>& starts = probe.step_starts();
  ASSERT_EQ(starts.size(), config.train.epochs * steps_per_epoch);
  // Step 0 sizes the buffers; from step 1 on, nothing allocates.
  for (std::size_t step = 1; step + 1 < starts.size(); ++step) {
    EXPECT_EQ(starts[step + 1] - starts[step], 0u) << "step " << step;
  }
  la::SetNumThreads(saved_threads);
}

}  // namespace
}  // namespace vfl::nn
