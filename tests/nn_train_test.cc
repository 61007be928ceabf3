#include <cmath>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "attack/grna.h"
#include "core/rng.h"
#include "data/normalize.h"
#include "data/synthetic.h"
#include "fed/scenario.h"
#include "la/matrix_ops.h"
#include "la/parallel.h"
#include "models/logistic_regression.h"
#include "models/mlp.h"
#include "models/random_forest.h"
#include "models/rf_surrogate.h"
#include "nn/activation.h"
#include "nn/dropout.h"
#include "nn/layer_norm.h"
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

// ---------------------------------------------------------------------------
// Training steps split over la's team: weights, loss histories and GRNA
// outputs carry the same bits at every thread count.
// ---------------------------------------------------------------------------

la::Matrix UniformMatrix(std::size_t rows, std::size_t cols,
                         std::uint64_t seed) {
  core::Rng rng(seed);
  la::Matrix m(rows, cols);
  for (std::size_t i = 0; i < m.size(); ++i) m.data()[i] = rng.Uniform();
  return m;
}

/// A trained network's bits: every parameter value, then every epoch loss.
std::vector<double> TrainedBits(Sequential& net,
                                const std::vector<EpochStats>& history) {
  std::vector<double> bits;
  for (const Parameter* p : net.Parameters()) {
    bits.insert(bits.end(), p->value.data(), p->value.data() + p->value.size());
  }
  for (const EpochStats& stats : history) bits.push_back(stats.mean_loss);
  return bits;
}

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// Runs `run` (which builds, trains and returns bits) at 1 thread and then
/// at 2, 3 and 4, expecting the 1-thread bits every time.
template <typename Run>
void ExpectSameBitsAtEveryThreadCount(Run run) {
  const std::size_t saved = la::NumThreads();
  la::SetNumThreads(1);
  const std::vector<double> want = run();
  ASSERT_FALSE(want.empty());
  for (const std::size_t threads : {2, 3, 4}) {
    la::SetNumThreads(threads);
    EXPECT_TRUE(SameBits(run(), want)) << threads << " threads";
  }
  la::SetNumThreads(saved);
}

/// Linear layers through `widths`, each hidden one followed by ReLU and
/// `extra` (LayerNorm, Dropout, or nothing).
template <typename Extra>
void BuildMlp(Sequential& net, const std::vector<std::size_t>& widths,
              core::Rng& rng, Extra extra) {
  for (std::size_t i = 0; i + 1 < widths.size(); ++i) {
    net.Emplace<Linear>(widths[i], widths[i + 1], rng, Init::kHe);
    if (i + 2 == widths.size()) break;
    net.Emplace<Relu>();
    extra(net, widths[i + 1], rng);
  }
}

const auto kNoExtra = [](Sequential&, std::size_t, core::Rng&) {};

/// The RF surrogate's default-scale shape distilled on `rows` dummy rows
/// (batch 128).
std::vector<double> TrainSurrogateShape(std::size_t rows) {
  core::Rng rng(3);
  Sequential net;
  BuildMlp(net, {59, 128, 32, 5}, rng, kNoExtra);
  net.Emplace<Softmax>();
  TrainConfig config;
  config.epochs = 2;
  config.batch_size = 128;
  config.learning_rate = 1e-3;
  const la::Matrix x = UniformMatrix(rows, 59, 4);
  const la::Matrix targets = SoftmaxRows(UniformMatrix(rows, 5, 5));
  const std::vector<EpochStats> history =
      TrainMseRegressor(net, x, targets, config);
  return TrainedBits(net, history);
}

TEST(ParallelStepTest, SurrogateShapeIsBitIdenticalAtEveryThreadCount) {
  ExpectSameBitsAtEveryThreadCount([] { return TrainSurrogateShape(512); });
}

TEST(ParallelStepTest, TailBatchIsBitIdenticalAtEveryThreadCount) {
  // 4000 = 31 x 128 + 32: every epoch ends on a 32-row batch.
  ExpectSameBitsAtEveryThreadCount([] { return TrainSurrogateShape(4000); });
}

/// A softmax classifier over 600 rows of 20 features (batch 64, so each
/// epoch ends on a 24-row batch), with `extra` after each hidden ReLU.
template <typename Extra>
std::vector<double> TrainClassifier(const std::vector<std::size_t>& widths,
                                    Extra extra) {
  core::Rng rng(6);
  Sequential net;
  BuildMlp(net, widths, rng, extra);
  const la::Matrix x = UniformMatrix(600, widths.front(), 7);
  std::vector<int> labels(600);
  core::Rng label_rng(8);
  for (int& label : labels) {
    label = static_cast<int>(label_rng.UniformInt(widths.back()));
  }
  TrainConfig config;
  config.epochs = 3;
  config.batch_size = 64;
  const std::vector<EpochStats> history =
      TrainSoftmaxClassifier(net, x, labels, config);
  return TrainedBits(net, history);
}

TEST(ParallelStepTest, LayerNormMlpIsBitIdenticalAtEveryThreadCount) {
  ExpectSameBitsAtEveryThreadCount([] {
    return TrainClassifier(
        {20, 48, 24, 3}, [](Sequential& net, std::size_t width, core::Rng&) {
          net.Emplace<LayerNorm>(width);
        });
  });
}

TEST(ParallelStepTest, DropoutMlpIsBitIdenticalAtEveryThreadCount) {
  ExpectSameBitsAtEveryThreadCount([] {
    return TrainClassifier(
        {20, 48, 24, 3}, [](Sequential& net, std::size_t, core::Rng& rng) {
          net.Emplace<Dropout>(0.3, rng);
        });
  });
}

TEST(ParallelStepTest, ProductsUnderTheMicrokernelCutoffAreBitIdentical) {
  // 16-row batches through 4-8-3: every product is under 2^13 multiply-adds,
  // so the blocked kernels run on each lane's rows.
  ExpectSameBitsAtEveryThreadCount([] {
    core::Rng rng(9);
    Sequential net;
    BuildMlp(net, {4, 8, 3}, rng, kNoExtra);
    const la::Matrix x = UniformMatrix(200, 4, 10);
    const la::Matrix targets = UniformMatrix(200, 3, 11);
    TrainConfig config;
    config.epochs = 3;
    config.batch_size = 16;
    const std::vector<EpochStats> history =
        TrainMseRegressor(net, x, targets, config);
    return TrainedBits(net, history);
  });
}

/// GRNA's output and loss history against `model` on a 400-row scenario.
std::vector<double> GrnaBits(models::DifferentiableModel* model,
                             const data::Dataset& dataset) {
  core::Rng split_rng(12);
  const fed::FeatureSplit split =
      fed::FeatureSplit::RandomFraction(dataset.num_features(), 0.4, split_rng);
  const fed::VflScenario scenario =
      fed::MakeTwoPartyScenario(dataset.x, split, model);
  attack::GrnaConfig config;
  config.hidden_sizes = {32, 16};
  config.train.epochs = 3;
  attack::GenerativeRegressionNetworkAttack grna(model, config);
  const la::Matrix inferred = grna.Infer(scenario.CollectView());
  std::vector<double> bits(inferred.data(), inferred.data() + inferred.size());
  for (const EpochStats& stats : grna.training_history()) {
    bits.push_back(stats.mean_loss);
  }
  return bits;
}

data::Dataset GrnaDataset() {
  data::ClassificationSpec spec;
  spec.num_samples = 400;
  spec.num_features = 10;
  spec.num_classes = 3;
  spec.num_informative = 5;
  spec.num_redundant = 3;
  spec.seed = 13;
  data::Dataset dataset = data::MakeClassification(spec);
  data::MinMaxNormalizer normalizer;
  dataset.x = normalizer.FitTransform(dataset.x);
  return dataset;
}

TEST(ParallelStepTest, GrnaOutputIsBitIdenticalAtEveryThreadCount) {
  const data::Dataset dataset = GrnaDataset();
  // Against LR, an MLP (fit at each thread count too) and an RF surrogate
  // distilled at each thread count.
  ExpectSameBitsAtEveryThreadCount([&dataset] {
    models::LogisticRegression lr;
    lr.Fit(dataset);
    return GrnaBits(&lr, dataset);
  });
  ExpectSameBitsAtEveryThreadCount([&dataset] {
    models::MlpClassifier mlp;
    models::MlpConfig config;
    config.hidden_sizes = {16, 8};
    config.train.epochs = 3;
    mlp.Fit(dataset, config);
    return GrnaBits(&mlp, dataset);
  });
  ExpectSameBitsAtEveryThreadCount([&dataset] {
    models::RandomForest forest;
    models::RfConfig forest_config;
    forest_config.num_trees = 8;
    forest_config.tree.max_depth = 3;
    forest.Fit(dataset, forest_config);
    models::RfSurrogate surrogate;
    models::SurrogateConfig config;
    config.num_dummy_samples = 600;
    config.hidden_sizes = {32, 16};
    config.train.epochs = 2;
    surrogate.Distill(forest, config);
    std::vector<double> bits = GrnaBits(&surrogate, dataset);
    for (const EpochStats& stats : surrogate.training_history()) {
      bits.push_back(stats.mean_loss);
    }
    return bits;
  });
}

// A frozen Linear stores W^T once W held still across two backward passes;
// any later write to W must retire that copy. Each test below freezes a
// model, writes its weights one way, then expects the input gradient of a
// clone (which stores no W^T) or of the closed form, bit for bit, twice in
// a row (the second pass may store W^T again).

/// dL/dInput of `model` for batch `x` and dL/dConfidences `probe` (copied).
la::Matrix InputGradient(models::DifferentiableModel& model,
                         const la::Matrix& x, const la::Matrix& probe) {
  model.ForwardDiff(x);
  return model.BackwardToInput(probe);
}

la::Matrix InputGradient(Sequential& net, const la::Matrix& x,
                         const la::Matrix& probe) {
  net.Forward(x);
  return net.BackwardInput(probe);
}

bool SameBits(const la::Matrix& a, const la::Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// Freezes `model` (two backward passes), runs `write`, then expects the
/// input gradient want() twice.
template <typename Model, typename Write, typename Want>
void ExpectFreshGradientAfter(Model& model, const la::Matrix& x,
                              const la::Matrix& probe, Write write,
                              Want want) {
  InputGradient(model, x, probe);
  InputGradient(model, x, probe);
  write();
  const la::Matrix expected = want();
  EXPECT_TRUE(SameBits(InputGradient(model, x, probe), expected));
  EXPECT_TRUE(SameBits(InputGradient(model, x, probe), expected));
}

/// The input gradient of a clone, which packs W^T afresh.
la::Matrix CloneGradient(const models::Model& model, const la::Matrix& x,
                         const la::Matrix& probe) {
  const std::unique_ptr<models::Model> clone = model.Clone();
  return InputGradient(dynamic_cast<models::DifferentiableModel&>(*clone), x,
                       probe);
}

la::Matrix CloneGradient(const Sequential& net, const la::Matrix& x,
                         const la::Matrix& probe) {
  const ModulePtr clone = net.Clone();
  return InputGradient(static_cast<Sequential&>(*clone), x, probe);
}

/// A 59-64-32-5 softmax network.
void BuildFrozenShape(Sequential& net, std::uint64_t seed) {
  core::Rng rng(seed);
  BuildMlp(net, {59, 64, 32, 5}, rng, kNoExtra);
  net.Emplace<Softmax>();
}

TEST(FrozenWeightsTest, AdamStepsRetireTheStoredTranspose) {
  Sequential net;
  BuildFrozenShape(net, 41);
  const la::Matrix x = UniformMatrix(16, 59, 42);
  const la::Matrix probe = UniformMatrix(16, 5, 43);
  const la::Matrix targets = SoftmaxRows(UniformMatrix(16, 5, 44));
  Adam optimizer(net.Parameters(), 1e-2);
  std::vector<std::size_t> rows(16);
  for (std::size_t r = 0; r < rows.size(); ++r) rows[r] = r;
  la::Matrix batch, grad;
  LossResult loss;
  ExpectFreshGradientAfter(
      net, x, probe,
      [&] {
        // A whole-batch step, then one through TrainStep's regions.
        optimizer.ZeroGrad();
        MseLossInto(net.Forward(x), targets, &loss);
        net.BackwardParams(loss.grad);
        optimizer.Step();
        TrainStep(net, optimizer, x, rows, &batch, &grad,
                  [&](const la::Matrix& out, std::size_t r0, std::size_t r1) {
                    MseLossGradRows(out, targets, r0, r1, &grad);
                  });
      },
      [&] { return CloneGradient(net, x, probe); });
}

TEST(FrozenWeightsTest, GradientCheckRetiresTheStoredTranspose) {
  Sequential net;
  BuildFrozenShape(net, 45);
  const la::Matrix x = UniformMatrix(4, 59, 46);
  const la::Matrix probe = UniformMatrix(4, 5, 47);
  ExpectFreshGradientAfter(
      net, x, probe,
      [&] { EXPECT_LT(GradientCheckParameters(net, x, probe), 1e-6); },
      [&] { return CloneGradient(net, x, probe); });
}

TEST(FrozenWeightsTest, MlpWeightLoadRetiresTheStoredTranspose) {
  const auto load = [](models::MlpClassifier& mlp, std::uint64_t seed) {
    Sequential net;
    BuildFrozenShape(net, seed);
    std::vector<la::Matrix> weights;
    std::vector<std::vector<double>> biases;
    for (std::size_t i = 0; i < net.num_layers(); ++i) {
      if (auto* linear = dynamic_cast<Linear*>(net.layer(i))) {
        weights.push_back(linear->weight().value);
        biases.push_back(linear->bias().value.Row(0));
      }
    }
    mlp.SetParameters(std::move(weights), std::move(biases));
  };
  models::MlpClassifier mlp;
  load(mlp, 48);
  const la::Matrix x = UniformMatrix(16, 59, 49);
  const la::Matrix probe = UniformMatrix(16, 5, 50);
  ExpectFreshGradientAfter(
      mlp, x, probe, [&] { load(mlp, 51); },
      [&] { return CloneGradient(mlp, x, probe); });
}

TEST(FrozenWeightsTest, SecondDistillationRetiresTheStoredTranspose) {
  const data::Dataset dataset = GrnaDataset();
  models::LogisticRegression teacher;
  teacher.Fit(dataset);
  models::SurrogateConfig config;
  config.num_dummy_samples = 300;
  config.hidden_sizes = {32, 16};
  config.train.epochs = 2;
  models::RfSurrogate surrogate;
  surrogate.Distill(teacher, config);
  const la::Matrix x = UniformMatrix(16, dataset.num_features(), 52);
  const la::Matrix probe = UniformMatrix(16, dataset.num_classes, 53);
  config.train.seed = 7;
  ExpectFreshGradientAfter(
      surrogate, x, probe, [&] { surrogate.Distill(teacher, config); },
      [&] { return CloneGradient(surrogate, x, probe); });
}

/// LR's input gradient in closed form: the softmax backward of `probe`
/// times W^T.
la::Matrix LrInputGradient(const models::LogisticRegression& lr,
                           const la::Matrix& x, const la::Matrix& probe) {
  const la::Matrix proba = lr.PredictProba(x);
  la::Matrix grad_logits(proba.rows(), proba.cols());
  SoftmaxBackwardRows(proba, probe, 0, proba.rows(), &grad_logits);
  return la::MatMulTransposedB(grad_logits, lr.weights());
}

TEST(FrozenWeightsTest, LrWeightWritesRefreshTheTranspose) {
  const data::Dataset dataset = GrnaDataset();
  const std::size_t d = dataset.num_features();
  const std::size_t c = dataset.num_classes;
  const la::Matrix x = UniformMatrix(16, d, 54);
  const la::Matrix probe = UniformMatrix(16, c, 55);
  models::LogisticRegression lr;
  lr.SetParameters(UniformMatrix(d, c, 56), std::vector<double>(c, 0.1));
  const auto want = [&] { return LrInputGradient(lr, x, probe); };
  ExpectFreshGradientAfter(
      lr, x, probe,
      [&] {
        lr.SetParameters(UniformMatrix(d, c, 57), std::vector<double>(c, 0.2));
      },
      want);
  models::LrConfig config;
  config.epochs = 2;
  ExpectFreshGradientAfter(lr, x, probe, [&] { lr.Fit(dataset, config); },
                           want);
}

}  // namespace
}  // namespace vfl::nn
