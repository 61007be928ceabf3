#include "models/mlp.h"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "data/synthetic.h"
#include "la/matrix_ops.h"
#include "nn/linear.h"

namespace vfl::models {
namespace {

data::Dataset MlpData(std::size_t n = 500, std::uint64_t seed = 71) {
  data::ClassificationSpec spec;
  spec.num_samples = n;
  spec.num_features = 10;
  spec.num_classes = 3;
  spec.num_informative = 6;
  spec.num_redundant = 3;
  spec.class_sep = 2.0;
  spec.seed = seed;
  return data::MakeClassification(spec);
}

bool BitwiseEqual(const la::Matrix& a, const la::Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// Every Linear weight and bias gradient of `network`, in layer order.
std::vector<la::Matrix> LinearGradients(const nn::Sequential& network) {
  std::vector<la::Matrix> grads;
  for (std::size_t i = 0; i < network.num_layers(); ++i) {
    if (const auto* linear =
            dynamic_cast<const nn::Linear*>(network.layer(i))) {
      grads.push_back(linear->weight().grad);
      grads.push_back(linear->bias().grad);
    }
  }
  return grads;
}

MlpConfig SmallConfig() {
  MlpConfig config;
  config.hidden_sizes = {32, 16};
  config.train.epochs = 15;
  return config;
}

TEST(MlpClassifierTest, LearnsSeparableData) {
  const data::Dataset d = MlpData();
  MlpClassifier mlp;
  mlp.Fit(d, SmallConfig());
  EXPECT_GT(Accuracy(mlp, d), 0.8);
  EXPECT_EQ(mlp.num_features(), 10u);
  EXPECT_EQ(mlp.num_classes(), 3u);
}

TEST(MlpClassifierTest, TrainingLossDecreases) {
  const data::Dataset d = MlpData();
  MlpClassifier mlp;
  mlp.Fit(d, SmallConfig());
  const auto& history = mlp.training_history();
  ASSERT_EQ(history.size(), 15u);
  EXPECT_LT(history.back().mean_loss, history.front().mean_loss);
}

TEST(MlpClassifierTest, ProbabilitiesAreDistributions) {
  const data::Dataset d = MlpData(100);
  MlpClassifier mlp;
  mlp.Fit(d, SmallConfig());
  const la::Matrix probs = mlp.PredictProba(d.x);
  for (std::size_t r = 0; r < probs.rows(); ++r) {
    double sum = 0.0;
    for (std::size_t c = 0; c < probs.cols(); ++c) {
      EXPECT_GE(probs(r, c), 0.0);
      sum += probs(r, c);
    }
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }
}

TEST(MlpClassifierTest, ForwardDiffMatchesPredictProba) {
  const data::Dataset d = MlpData(60);
  MlpClassifier mlp;
  mlp.Fit(d, SmallConfig());
  EXPECT_LT(la::MaxAbsDiff(mlp.ForwardDiff(d.x), mlp.PredictProba(d.x)),
            1e-12);
}

TEST(MlpClassifierTest, BackwardToInputLeavesGradientsUntouched) {
  const data::Dataset d = MlpData(80);
  MlpClassifier mlp;
  mlp.Fit(d, SmallConfig());
  // Fit leaves the last batch's gradients in place, so they are not zero.
  const std::vector<la::Matrix> before = LinearGradients(*mlp.network());
  ASSERT_EQ(before.size(), 6u);
  const la::Matrix x = d.x.SliceRows(0, 16);
  la::Matrix probe(16, 3);
  for (std::size_t i = 0; i < probe.size(); ++i) {
    probe.data()[i] = 0.25 * static_cast<double>(i % 7) - 0.5;
  }
  mlp.ForwardDiff(x);
  const la::Matrix got = mlp.BackwardToInput(probe);

  const std::vector<la::Matrix> after = LinearGradients(*mlp.network());
  ASSERT_EQ(after.size(), before.size());
  for (std::size_t i = 0; i < after.size(); ++i) {
    EXPECT_TRUE(BitwiseEqual(after[i], before[i])) << "gradient " << i;
  }
  // The same input gradient as a full Backward through a copy of the net.
  nn::ModulePtr clone = mlp.network()->Clone();
  nn::Softmax softmax;
  softmax.Forward(clone->Forward(x));
  EXPECT_TRUE(BitwiseEqual(got, clone->Backward(softmax.Backward(probe))));
}

TEST(MlpClassifierTest, InputGradientMatchesFiniteDifference) {
  const data::Dataset d = MlpData(80);
  MlpClassifier mlp;
  MlpConfig config;
  config.hidden_sizes = {8};
  config.train.epochs = 3;
  mlp.Fit(d, config);

  la::Matrix x = d.x.SliceRows(0, 1);
  la::Matrix probe(1, 3);
  probe(0, 0) = 1.0;
  probe(0, 1) = -0.25;
  probe(0, 2) = 0.5;

  mlp.ForwardDiff(x);
  const la::Matrix analytic = mlp.BackwardToInput(probe);
  const double step = 1e-6;
  for (std::size_t j = 0; j < x.cols(); ++j) {
    la::Matrix perturbed = x;
    perturbed(0, j) += step;
    const double up =
        la::Sum(la::Hadamard(mlp.PredictProba(perturbed), probe));
    perturbed(0, j) -= 2 * step;
    const double down =
        la::Sum(la::Hadamard(mlp.PredictProba(perturbed), probe));
    EXPECT_NEAR((up - down) / (2 * step), analytic(0, j), 2e-5)
        << "feature " << j;
  }
}

TEST(MlpClassifierTest, DropoutConfigTrains) {
  const data::Dataset d = MlpData(200);
  MlpClassifier mlp;
  MlpConfig config = SmallConfig();
  config.dropout_rate = 0.3;
  mlp.Fit(d, config);
  // Inference must be deterministic (dropout disabled after training).
  EXPECT_LT(la::MaxAbsDiff(mlp.PredictProba(d.x), mlp.PredictProba(d.x)),
            1e-15);
  EXPECT_GT(Accuracy(mlp, d), 0.5);
}

TEST(MlpClassifierTest, PredictBeforeFitDies) {
  MlpClassifier mlp;
  EXPECT_DEATH(mlp.PredictProba(la::Matrix(1, 3)), "");
}

TEST(MlpClassifierTest, WrongWidthDies) {
  const data::Dataset d = MlpData(50);
  MlpClassifier mlp;
  mlp.Fit(d, SmallConfig());
  EXPECT_DEATH(mlp.PredictProba(la::Matrix(1, 3)), "");
}

}  // namespace
}  // namespace vfl::models
