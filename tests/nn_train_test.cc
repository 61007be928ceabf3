#include <cmath>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "core/rng.h"
#include "la/matrix_ops.h"
#include "nn/activation.h"
#include "nn/linear.h"
#include "nn/loss.h"
#include "nn/optimizer.h"
#include "nn/sequential.h"
#include "nn/trainer.h"

namespace vfl::nn {
namespace {

TEST(MseLossTest, ZeroForIdenticalInputs) {
  la::Matrix x{{1, 2}, {3, 4}};
  const LossResult loss = MseLoss(x, x);
  EXPECT_DOUBLE_EQ(loss.value, 0.0);
  EXPECT_EQ(la::FrobeniusNorm(loss.grad), 0.0);
}

TEST(MseLossTest, KnownValueAndGradient) {
  la::Matrix pred{{1.0, 2.0}};
  la::Matrix target{{0.0, 0.0}};
  const LossResult loss = MseLoss(pred, target);
  EXPECT_DOUBLE_EQ(loss.value, 2.5);  // (1 + 4) / 2
  EXPECT_DOUBLE_EQ(loss.grad(0, 0), 1.0);  // 2 * 1 / 2
  EXPECT_DOUBLE_EQ(loss.grad(0, 1), 2.0);
}

TEST(MseLossTest, ShapeMismatchDies) {
  EXPECT_DEATH(MseLoss(la::Matrix(1, 2), la::Matrix(2, 1)), "");
}

TEST(NllLossTest, PerfectPredictionNearZeroLoss) {
  la::Matrix probs{{1.0, 0.0}, {0.0, 1.0}};
  const LossResult loss = NllLoss(probs, {0, 1});
  EXPECT_NEAR(loss.value, 0.0, 1e-10);
}

TEST(NllLossTest, ClampsZeroProbability) {
  la::Matrix probs{{0.0, 1.0}};
  const LossResult loss = NllLoss(probs, {0});
  EXPECT_TRUE(std::isfinite(loss.value));
  EXPECT_TRUE(std::isfinite(loss.grad(0, 0)));
}

TEST(SoftmaxCrossEntropyTest, UniformLogitsGiveLogC) {
  la::Matrix logits(4, 3);  // all zeros -> uniform softmax
  const LossResult loss = SoftmaxCrossEntropyLoss(logits, {0, 1, 2, 0});
  EXPECT_NEAR(loss.value, std::log(3.0), 1e-10);
}

TEST(SoftmaxCrossEntropyTest, GradientIsSoftmaxMinusOneHot) {
  la::Matrix logits{{1.0, 0.0}};
  const LossResult loss = SoftmaxCrossEntropyLoss(logits, {0});
  const la::Matrix probs = SoftmaxRows(logits);
  EXPECT_NEAR(loss.grad(0, 0), probs(0, 0) - 1.0, 1e-12);
  EXPECT_NEAR(loss.grad(0, 1), probs(0, 1), 1e-12);
}

TEST(SoftmaxCrossEntropyTest, GradientMatchesFiniteDifference) {
  core::Rng rng(1);
  la::Matrix logits(2, 3);
  for (std::size_t i = 0; i < logits.size(); ++i) {
    logits.data()[i] = rng.Gaussian();
  }
  const std::vector<int> labels = {2, 0};
  const LossResult analytic = SoftmaxCrossEntropyLoss(logits, labels);
  const double step = 1e-6;
  for (std::size_t i = 0; i < logits.size(); ++i) {
    la::Matrix perturbed = logits;
    perturbed.data()[i] += step;
    const double up = SoftmaxCrossEntropyLoss(perturbed, labels).value;
    perturbed.data()[i] -= 2 * step;
    const double down = SoftmaxCrossEntropyLoss(perturbed, labels).value;
    EXPECT_NEAR((up - down) / (2 * step), analytic.grad.data()[i], 1e-6);
  }
}

TEST(OneHotTest, EncodesLabels) {
  const la::Matrix oh = OneHot({1, 0, 2}, 3);
  EXPECT_EQ(oh(0, 1), 1.0);
  EXPECT_EQ(oh(1, 0), 1.0);
  EXPECT_EQ(oh(2, 2), 1.0);
  EXPECT_DOUBLE_EQ(la::Sum(oh), 3.0);
}

TEST(OneHotTest, OutOfRangeLabelDies) {
  EXPECT_DEATH(OneHot({3}, 3), "");
}

/// Convex quadratic for optimizer convergence: minimize ||x - target||^2.
class QuadraticProblem {
 public:
  explicit QuadraticProblem(std::vector<double> target)
      : target_(la::Matrix::RowVector(target)),
        param_(la::Matrix(1, target.size())) {}

  Parameter* param() { return &param_; }

  double StepOnce(Adam& optimizer) {
    optimizer.ZeroGrad();
    const LossResult loss = MseLoss(param_.value, target_);
    param_.grad = loss.grad;
    optimizer.Step();
    return loss.value;
  }

 private:
  la::Matrix target_;
  Parameter param_;
};

TEST(AdamTest, ConvergesOnQuadratic) {
  QuadraticProblem problem({-1.5, 0.5});
  Adam adam({problem.param()}, 0.05);
  double loss = 0.0;
  for (int i = 0; i < 500; ++i) loss = problem.StepOnce(adam);
  EXPECT_LT(loss, 1e-6);
}

TEST(AdamTest, HandlesIllConditionedScales) {
  // One coordinate's gradient is 1000x the other; Adam's per-coordinate
  // scaling should still converge both.
  Parameter param(la::Matrix(1, 2));
  Adam adam({&param}, 0.05);
  for (int i = 0; i < 2000; ++i) {
    adam.ZeroGrad();
    param.grad(0, 0) = 2000.0 * (param.value(0, 0) - 1.0);
    param.grad(0, 1) = 2.0 * (param.value(0, 1) - 1.0);
    adam.Step();
  }
  EXPECT_NEAR(param.value(0, 0), 1.0, 1e-3);
  EXPECT_NEAR(param.value(0, 1), 1.0, 1e-3);
}

TEST(AdamTest, WeightDecayShrinksSolution) {
  // L2 decay adds weight_decay * x to the gradient 2 (x - 1), which moves the
  // stationary point from 1 to 2 / (2 + weight_decay).
  QuadraticProblem decayed({1.0});
  Adam adam({decayed.param()}, 0.01, 0.9, 0.999, 1e-8, /*weight_decay=*/1.0);
  for (int i = 0; i < 3000; ++i) decayed.StepOnce(adam);
  EXPECT_NEAR(decayed.param()->value(0, 0), 2.0 / 3.0, 1e-3);
}

/// Adam::Step as it was with a scalar std::sqrt pass, kept as the bitwise
/// reference for the vectorized square roots.
class ScalarAdamReference {
 public:
  ScalarAdamReference(std::size_t size, double learning_rate,
                      double weight_decay)
      : learning_rate_(learning_rate),
        weight_decay_(weight_decay),
        m_(size, 0.0),
        v_(size, 0.0) {}

  void Step(la::Matrix& value, const la::Matrix& grad) {
    ++step_count_;
    const double beta1 = 0.9, beta2 = 0.999, epsilon = 1e-8;
    const double bias1 = 1.0 - std::pow(beta1, step_count_);
    const double bias2 = 1.0 - std::pow(beta2, step_count_);
    for (std::size_t j = 0; j < value.size(); ++j) {
      const double g = grad.data()[j] + weight_decay_ * value.data()[j];
      m_[j] = beta1 * m_[j] + (1.0 - beta1) * g;
      v_[j] = beta2 * v_[j] + (1.0 - beta2) * g * g;
      const double root_v_hat = std::sqrt(v_[j] / bias2);
      value.data()[j] -=
          learning_rate_ * (m_[j] / bias1) / (root_v_hat + epsilon);
    }
  }

 private:
  double learning_rate_;
  double weight_decay_;
  long step_count_ = 0;
  std::vector<double> m_, v_;
};

TEST(AdamTest, StepMatchesScalarReferenceBitwise) {
  // Sizes around the square-root pairs and the 256-element chunks, and an
  // odd size past the news surrogate's 59 x 128 first-layer weights.
  for (const std::size_t size : {1, 2, 3, 255, 256, 257, 7553}) {
    for (const double weight_decay : {0.0, 5e-3}) {
      core::Rng rng(size);
      la::Matrix start(1, size);
      for (std::size_t j = 0; j < size; ++j) start(0, j) = rng.Gaussian();
      Parameter param(start);
      la::Matrix want = start;
      Adam adam({&param}, 1e-2, 0.9, 0.999, 1e-8, weight_decay);
      ScalarAdamReference reference(size, 1e-2, weight_decay);
      for (int step = 0; step < 50; ++step) {
        for (std::size_t j = 0; j < size; ++j) {
          param.grad(0, j) = rng.Gaussian() * std::exp(rng.Gaussian());
        }
        adam.Step();
        reference.Step(want, param.grad);
      }
      EXPECT_EQ(std::memcmp(param.value.data(), want.data(),
                            size * sizeof(double)),
                0)
          << "size " << size << " weight_decay " << weight_decay;
    }
  }
}

/// Two interleaved Gaussian blobs — linearly separable.
void MakeBlobs(std::size_t n, la::Matrix* x, std::vector<int>* y) {
  core::Rng rng(7);
  *x = la::Matrix(n, 2);
  y->resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const int label = static_cast<int>(rng.UniformInt(2));
    (*x)(i, 0) = rng.Gaussian(label == 0 ? -1.0 : 1.0, 0.4);
    (*x)(i, 1) = rng.Gaussian(label == 0 ? 1.0 : -1.0, 0.4);
    (*y)[i] = label;
  }
}

TEST(TrainerTest, LearnsLinearlySeparableBlobs) {
  la::Matrix x;
  std::vector<int> y;
  MakeBlobs(300, &x, &y);
  core::Rng rng(8);
  Sequential net;
  net.Emplace<Linear>(2, 8, rng, Init::kHe);
  net.Emplace<Relu>();
  net.Emplace<Linear>(8, 2, rng);
  TrainConfig config;
  config.epochs = 30;
  config.learning_rate = 0.01;
  const std::vector<EpochStats> history =
      TrainSoftmaxClassifier(net, x, y, config);
  ASSERT_EQ(history.size(), 30u);
  EXPECT_LT(history.back().mean_loss, 0.25 * history.front().mean_loss);

  // Training accuracy should be near perfect on separable data.
  const la::Matrix probs = SoftmaxRows(net.Forward(x));
  std::size_t correct = 0;
  for (std::size_t i = 0; i < x.rows(); ++i) {
    const int pred = probs(i, 0) > probs(i, 1) ? 0 : 1;
    if (pred == y[i]) ++correct;
  }
  EXPECT_GT(static_cast<double>(correct) / x.rows(), 0.95);
}

TEST(TrainerTest, LearnsXorWithHiddenLayer) {
  // XOR is not linearly separable; success requires working hidden-layer
  // backprop end to end.
  la::Matrix x{{0, 0}, {0, 1}, {1, 0}, {1, 1}};
  std::vector<int> y = {0, 1, 1, 0};
  core::Rng rng(9);
  Sequential net;
  net.Emplace<Linear>(2, 16, rng, Init::kHe);
  net.Emplace<Tanh>();
  net.Emplace<Linear>(16, 2, rng);
  TrainConfig config;
  config.epochs = 400;
  config.batch_size = 4;
  config.learning_rate = 0.02;
  TrainSoftmaxClassifier(net, x, y, config);
  const la::Matrix probs = SoftmaxRows(net.Forward(x));
  for (std::size_t i = 0; i < 4; ++i) {
    const int pred = probs(i, 0) > probs(i, 1) ? 0 : 1;
    EXPECT_EQ(pred, y[i]) << "sample " << i;
  }
}

TEST(TrainerTest, MseRegressorFitsLinearTargets) {
  core::Rng rng(10);
  la::Matrix x(200, 3);
  for (std::size_t i = 0; i < x.size(); ++i) x.data()[i] = rng.Uniform();
  // Target: y = [x0 + 2*x1, x2].
  la::Matrix targets(200, 2);
  for (std::size_t i = 0; i < 200; ++i) {
    targets(i, 0) = x(i, 0) + 2.0 * x(i, 1);
    targets(i, 1) = x(i, 2);
  }
  Sequential net;
  net.Emplace<Linear>(3, 2, rng);
  TrainConfig config;
  config.epochs = 200;
  config.learning_rate = 0.02;
  const auto history = TrainMseRegressor(net, x, targets, config);
  EXPECT_LT(history.back().mean_loss, 1e-3);
}

TEST(TrainerTest, EpochCallbackInvoked) {
  la::Matrix x(8, 2, 0.5);
  std::vector<int> y(8, 0);
  core::Rng rng(11);
  Sequential net;
  net.Emplace<Linear>(2, 2, rng);
  TrainConfig config;
  config.epochs = 5;
  std::size_t calls = 0;
  TrainSoftmaxClassifier(net, x, y, config,
                         [&calls](const EpochStats&) { ++calls; });
  EXPECT_EQ(calls, 5u);
}

TEST(TrainerTest, LabelCountMismatchDies) {
  la::Matrix x(4, 2);
  std::vector<int> y(3, 0);
  core::Rng rng(12);
  Sequential net;
  net.Emplace<Linear>(2, 2, rng);
  EXPECT_DEATH(TrainSoftmaxClassifier(net, x, y, TrainConfig{}), "");
}

}  // namespace
}  // namespace vfl::nn
