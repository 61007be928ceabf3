#include <cmath>
#include <cstring>
#include <limits>
#include <tuple>

#include <gtest/gtest.h>

#include "core/rng.h"
#include "la/matrix_ops.h"
#include "nn/activation.h"
#include "nn/dropout.h"
#include "nn/layer_norm.h"
#include "nn/linear.h"
#include "nn/sequential.h"
#include "nn/trainer.h"

namespace vfl::nn {
namespace {

la::Matrix RandomMatrix(std::size_t rows, std::size_t cols,
                        std::uint64_t seed) {
  core::Rng rng(seed);
  la::Matrix m(rows, cols);
  for (std::size_t i = 0; i < m.size(); ++i) m.data()[i] = rng.Gaussian();
  return m;
}

/// Same shape and the same bits in every element (unlike operator==, tells
/// -0.0 from +0.0 and matches NaN with NaN).
bool BitwiseEqual(const la::Matrix& a, const la::Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

TEST(LinearTest, ForwardComputesAffineMap) {
  core::Rng rng(1);
  Linear layer(2, 2, rng, Init::kZero);
  layer.weight().value = la::Matrix{{1, 2}, {3, 4}};
  layer.bias().value = la::Matrix{{10, 20}};
  const la::Matrix out = layer.Forward(la::Matrix{{1, 1}});
  EXPECT_DOUBLE_EQ(out(0, 0), 14.0);  // 1*1 + 1*3 + 10
  EXPECT_DOUBLE_EQ(out(0, 1), 26.0);  // 1*2 + 1*4 + 20
}

TEST(LinearTest, XavierInitBounded) {
  core::Rng rng(2);
  Linear layer(100, 50, rng, Init::kXavier);
  const double bound = std::sqrt(6.0 / 150.0);
  for (std::size_t i = 0; i < layer.weight().value.size(); ++i) {
    EXPECT_LE(std::abs(layer.weight().value.data()[i]), bound);
  }
  // Bias starts at zero.
  EXPECT_EQ(la::Sum(layer.bias().value), 0.0);
}

TEST(LinearTest, ParametersExposesWeightAndBias) {
  core::Rng rng(3);
  Linear layer(4, 3, rng);
  EXPECT_EQ(layer.Parameters().size(), 2u);
  EXPECT_EQ(layer.in_features(), 4u);
  EXPECT_EQ(layer.out_features(), 3u);
}

TEST(LinearTest, ZeroGradClearsAccumulation) {
  core::Rng rng(4);
  Linear layer(2, 2, rng);
  layer.Forward(RandomMatrix(3, 2, 5));
  layer.Backward(RandomMatrix(3, 2, 6));
  EXPECT_GT(la::FrobeniusNorm(layer.weight().grad), 0.0);
  layer.ZeroGrad();
  EXPECT_EQ(la::FrobeniusNorm(layer.weight().grad), 0.0);
}

TEST(SigmoidScalarTest, StableAtExtremes) {
  EXPECT_NEAR(SigmoidScalar(0.0), 0.5, 1e-12);
  EXPECT_NEAR(SigmoidScalar(1000.0), 1.0, 1e-12);
  EXPECT_NEAR(SigmoidScalar(-1000.0), 0.0, 1e-12);
  EXPECT_TRUE(std::isfinite(SigmoidScalar(-1e308)));
}

TEST(SoftmaxTest, RowsSumToOne) {
  const la::Matrix logits = RandomMatrix(5, 4, 7);
  const la::Matrix probs = SoftmaxRows(logits);
  for (std::size_t r = 0; r < 5; ++r) {
    double sum = 0.0;
    for (std::size_t c = 0; c < 4; ++c) {
      EXPECT_GT(probs(r, c), 0.0);
      sum += probs(r, c);
    }
    EXPECT_NEAR(sum, 1.0, 1e-12);
  }
}

TEST(SoftmaxTest, InvariantToRowShift) {
  la::Matrix a{{1.0, 2.0, 3.0}};
  la::Matrix b{{101.0, 102.0, 103.0}};
  EXPECT_LT(la::MaxAbsDiff(SoftmaxRows(a), SoftmaxRows(b)), 1e-12);
}

TEST(SoftmaxTest, StableUnderHugeLogits) {
  la::Matrix logits{{1e30, -1e30, 0.0}};
  const la::Matrix probs = SoftmaxRows(logits);
  EXPECT_NEAR(probs(0, 0), 1.0, 1e-12);
  EXPECT_TRUE(std::isfinite(probs(0, 1)));
}

TEST(ReluTest, ForwardClampsNegatives) {
  Relu relu;
  const la::Matrix out = relu.Forward(la::Matrix{{-1.0, 0.0, 2.0}});
  EXPECT_EQ(out(0, 0), 0.0);
  EXPECT_EQ(out(0, 1), 0.0);
  EXPECT_EQ(out(0, 2), 2.0);
}

TEST(ReluTest, BackwardMasksOnInputSign) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const la::Matrix input{{-1.0, -0.0, +0.0, 5e-324, 2.0, nan}};
  const la::Matrix grad_output{{1.5, -2.5, 3.5, -4.5, 5.5, -6.5}};
  Relu relu;
  relu.Forward(input);
  const la::Matrix& grad = relu.Backward(grad_output);
  // The gradient passes exactly where the input is > 0 and is +0.0 elsewhere.
  la::Matrix want(1, input.cols());
  for (std::size_t c = 0; c < input.cols(); ++c) {
    want(0, c) = input(0, c) > 0.0 ? grad_output(0, c) : 0.0;
  }
  EXPECT_TRUE(BitwiseEqual(grad, want)) << grad.ToString();
  EXPECT_EQ(grad(0, 3), -4.5);
  EXPECT_EQ(grad(0, 4), 5.5);
  EXPECT_FALSE(std::signbit(grad(0, 1)));
}

TEST(DropoutTest, IdentityAtInference) {
  core::Rng rng(8);
  Dropout dropout(0.5, rng);
  dropout.SetTraining(false);
  const la::Matrix input = RandomMatrix(4, 4, 9);
  EXPECT_TRUE(dropout.Forward(input) == input);
}

TEST(DropoutTest, DropsApproximatelyRateFraction) {
  core::Rng rng(10);
  Dropout dropout(0.3, rng);
  dropout.SetTraining(true);
  const la::Matrix input(100, 100, 1.0);
  const la::Matrix out = dropout.Forward(input);
  std::size_t zeros = 0;
  for (std::size_t i = 0; i < out.size(); ++i) {
    if (out.data()[i] == 0.0) ++zeros;
  }
  EXPECT_NEAR(static_cast<double>(zeros) / out.size(), 0.3, 0.02);
}

TEST(DropoutTest, SurvivorsScaledByKeepInverse) {
  core::Rng rng(11);
  Dropout dropout(0.5, rng);
  const la::Matrix out = dropout.Forward(la::Matrix(10, 10, 1.0));
  for (std::size_t i = 0; i < out.size(); ++i) {
    const double v = out.data()[i];
    EXPECT_TRUE(v == 0.0 || std::abs(v - 2.0) < 1e-12);
  }
}

TEST(DropoutTest, BackwardUsesSameMask) {
  core::Rng rng(12);
  Dropout dropout(0.5, rng);
  const la::Matrix out = dropout.Forward(la::Matrix(5, 5, 1.0));
  const la::Matrix grad = dropout.Backward(la::Matrix(5, 5, 1.0));
  EXPECT_TRUE(grad == out);  // identical mask and scaling
}

TEST(DropoutTest, InvalidRateDies) {
  core::Rng rng(13);
  EXPECT_DEATH(Dropout(1.0, rng), "");
  EXPECT_DEATH(Dropout(-0.1, rng), "");
}

TEST(LayerNormTest, NormalizesRows) {
  LayerNorm norm(4);
  const la::Matrix out = norm.Forward(la::Matrix{{1.0, 2.0, 3.0, 4.0}});
  double mean = 0.0;
  for (std::size_t c = 0; c < 4; ++c) mean += out(0, c);
  EXPECT_NEAR(mean / 4.0, 0.0, 1e-9);
  double var = 0.0;
  for (std::size_t c = 0; c < 4; ++c) var += out(0, c) * out(0, c);
  EXPECT_NEAR(var / 4.0, 1.0, 1e-3);
}

TEST(LayerNormTest, HasGainAndBiasParameters) {
  LayerNorm norm(3);
  EXPECT_EQ(norm.Parameters().size(), 2u);
}

/// LayerNorm's Forward and BackwardInput one row at a time, each sum a
/// single chain over ascending columns: the bitwise reference for the
/// layer's four-row reductions.
struct PerRowLayerNorm {
  la::Matrix output, grad_input;

  PerRowLayerNorm(const la::Matrix& x, const la::Matrix& gain,
                  const la::Matrix& bias, const la::Matrix& grad_output,
                  double epsilon)
      : output(x.rows(), x.cols()), grad_input(x.rows(), x.cols()) {
    const std::size_t d = x.cols();
    la::Matrix norm(x.rows(), d);
    for (std::size_t r = 0; r < x.rows(); ++r) {
      double mean = 0.0;
      for (std::size_t c = 0; c < d; ++c) mean += x(r, c);
      mean /= static_cast<double>(d);
      double var = 0.0;
      for (std::size_t c = 0; c < d; ++c) {
        const double diff = x(r, c) - mean;
        var += diff * diff;
      }
      var /= static_cast<double>(d);
      const double inv_stddev = 1.0 / std::sqrt(var + epsilon);
      for (std::size_t c = 0; c < d; ++c) {
        norm(r, c) = (x(r, c) - mean) * inv_stddev;
        output(r, c) = norm(r, c) * gain(0, c) + bias(0, c);
      }
      const double inv_d = 1.0 / static_cast<double>(d);
      double mean_h = 0.0, mean_h_norm = 0.0;
      for (std::size_t c = 0; c < d; ++c) {
        const double h = grad_output(r, c) * gain(0, c);
        mean_h += h;
        mean_h_norm += h * norm(r, c);
      }
      mean_h *= inv_d;
      mean_h_norm *= inv_d;
      for (std::size_t c = 0; c < d; ++c) {
        const double h = grad_output(r, c) * gain(0, c);
        grad_input(r, c) =
            inv_stddev * (h - mean_h - norm(r, c) * mean_h_norm);
      }
    }
  }
};

TEST(LayerNormTest, MatchesPerRowReferenceBitwise) {
  // Row counts around the four-row blocks, widths from one column up.
  std::uint64_t seed = 500;
  for (const std::size_t rows : {1, 2, 3, 4, 5, 7, 63, 64, 65}) {
    for (const std::size_t width : {1, 2, 31, 64}) {
      ++seed;
      LayerNorm norm(width);
      la::Matrix& gain = norm.Parameters()[0]->value;
      la::Matrix& bias = norm.Parameters()[1]->value;
      gain = RandomMatrix(1, width, seed);
      bias = RandomMatrix(1, width, seed + 1000);
      // Offset rows, so a mean taken from the wrong row shows.
      la::Matrix x = RandomMatrix(rows, width, seed + 2000);
      for (std::size_t r = 0; r < rows; ++r) {
        for (std::size_t c = 0; c < width; ++c) {
          x(r, c) += 3.0 * static_cast<double>(r);
        }
      }
      const la::Matrix grad_output = RandomMatrix(rows, width, seed + 3000);
      const PerRowLayerNorm want(x, gain, bias, grad_output, 1e-5);
      EXPECT_TRUE(BitwiseEqual(norm.Forward(x), want.output))
          << rows << " x " << width;
      EXPECT_TRUE(BitwiseEqual(norm.InferenceForward(x), want.output))
          << rows << " x " << width;
      EXPECT_TRUE(BitwiseEqual(norm.BackwardInput(grad_output),
                               want.grad_input))
          << rows << " x " << width;
    }
  }
}

TEST(SequentialTest, ChainsLayersInOrder) {
  core::Rng rng(14);
  Sequential net;
  auto* l1 = net.Emplace<Linear>(2, 2, rng, Init::kZero);
  net.Emplace<Relu>();
  l1->weight().value = la::Matrix{{1, 0}, {0, -1}};
  const la::Matrix out = net.Forward(la::Matrix{{3.0, 5.0}});
  EXPECT_DOUBLE_EQ(out(0, 0), 3.0);
  EXPECT_DOUBLE_EQ(out(0, 1), 0.0);  // -5 clipped by ReLU
}

TEST(ModuleBufferTest, ReferenceSurvivesOtherLayersCalls) {
  core::Rng rng(16);
  Linear first(3, 4, rng);
  Linear second(5, 2, rng);
  const auto run_second = [&second](std::uint64_t seed) {
    second.Forward(RandomMatrix(7, 5, seed));
    second.Backward(RandomMatrix(7, 2, seed + 1));
  };
  const la::Matrix& out = first.Forward(RandomMatrix(6, 3, 17));
  const la::Matrix out_copy = out;
  run_second(18);
  EXPECT_TRUE(BitwiseEqual(out, out_copy));
  const la::Matrix& grad = first.Backward(RandomMatrix(6, 4, 20));
  const la::Matrix grad_copy = grad;
  run_second(21);
  EXPECT_TRUE(BitwiseEqual(grad, grad_copy));
}

TEST(SequentialTest, CollectsAllParameters) {
  core::Rng rng(15);
  Sequential net;
  net.Emplace<Linear>(2, 3, rng);
  net.Emplace<Relu>();
  net.Emplace<Linear>(3, 1, rng);
  EXPECT_EQ(net.Parameters().size(), 4u);
  EXPECT_EQ(net.num_layers(), 3u);
}

// ---------------------------------------------------------------------------
// Gradient checks: analytic backward vs central finite differences, for both
// the input gradient and the parameter gradients of every layer type.
// ---------------------------------------------------------------------------

struct GradCheckCase {
  std::string name;
  std::function<ModulePtr(core::Rng&)> make;
  std::size_t features;
};

class LayerGradients : public ::testing::TestWithParam<GradCheckCase> {};

TEST_P(LayerGradients, InputGradientMatchesFiniteDifference) {
  core::Rng rng(100);
  ModulePtr layer = GetParam().make(rng);
  const la::Matrix input = RandomMatrix(3, GetParam().features, 101);
  la::Matrix output = layer->Forward(input);
  const la::Matrix probe = RandomMatrix(output.rows(), output.cols(), 102);
  EXPECT_LT(GradientCheckInput(*layer, input, probe), 1e-5);
}

TEST_P(LayerGradients, ParameterGradientMatchesFiniteDifference) {
  core::Rng rng(103);
  ModulePtr layer = GetParam().make(rng);
  const la::Matrix input = RandomMatrix(3, GetParam().features, 104);
  la::Matrix output = layer->Forward(input);
  const la::Matrix probe = RandomMatrix(output.rows(), output.cols(), 105);
  EXPECT_LT(GradientCheckParameters(*layer, input, probe), 1e-5);
}

TEST_P(LayerGradients, BackwardParamsMatchesBackwardBitwise) {
  core::Rng rng(106);
  ModulePtr full = GetParam().make(rng);
  ModulePtr params_only = full->Clone();
  const la::Matrix input = RandomMatrix(3, GetParam().features, 107);
  const la::Matrix& output = full->Forward(input);
  const la::Matrix probe = RandomMatrix(output.rows(), output.cols(), 108);
  full->Backward(probe);
  params_only->Forward(input);
  params_only->BackwardParams(probe);
  const std::vector<Parameter*> want = full->Parameters();
  const std::vector<Parameter*> got = params_only->Parameters();
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_TRUE(BitwiseEqual(got[i]->grad, want[i]->grad)) << "parameter " << i;
  }
}

TEST_P(LayerGradients, BackwardInputMatchesBackwardBitwise) {
  core::Rng rng(113);
  ModulePtr full = GetParam().make(rng);
  ModulePtr frozen = full->Clone();
  const la::Matrix input = RandomMatrix(3, GetParam().features, 114);
  const la::Matrix& output = full->Forward(input);
  const la::Matrix probe = RandomMatrix(output.rows(), output.cols(), 115);
  const la::Matrix want = full->Backward(probe);
  frozen->Forward(input);
  // Random (not zero) gradients: "untouched" must differ from "re-zeroed".
  std::vector<la::Matrix> before;
  std::uint64_t seed = 116;
  for (Parameter* p : frozen->Parameters()) {
    p->grad = RandomMatrix(p->grad.rows(), p->grad.cols(), seed++);
    before.push_back(p->grad);
  }
  EXPECT_TRUE(BitwiseEqual(frozen->BackwardInput(probe), want));
  const std::vector<Parameter*> after = frozen->Parameters();
  ASSERT_EQ(after.size(), before.size());
  for (std::size_t i = 0; i < after.size(); ++i) {
    EXPECT_TRUE(BitwiseEqual(after[i]->grad, before[i])) << "parameter " << i;
  }
}

TEST_P(LayerGradients, SameShapeCallsReuseTheirBuffers) {
  core::Rng rng(109);
  ModulePtr layer = GetParam().make(rng);
  const la::Matrix& output =
      layer->Forward(RandomMatrix(3, GetParam().features, 110));
  const double* output_data = output.data();
  const la::Matrix probe = RandomMatrix(output.rows(), output.cols(), 111);
  const double* grad_data = layer->Backward(probe).data();
  EXPECT_EQ(layer->Forward(RandomMatrix(3, GetParam().features, 112)).data(),
            output_data);
  EXPECT_EQ(layer->Backward(probe).data(), grad_data);
}

INSTANTIATE_TEST_SUITE_P(
    AllLayers, LayerGradients,
    ::testing::Values(
        GradCheckCase{"linear",
                      [](core::Rng& rng) {
                        return std::make_unique<Linear>(4, 3, rng);
                      },
                      4},
        GradCheckCase{"sigmoid",
                      [](core::Rng&) { return std::make_unique<Sigmoid>(); },
                      4},
        GradCheckCase{"tanh",
                      [](core::Rng&) { return std::make_unique<Tanh>(); }, 4},
        GradCheckCase{"softmax",
                      [](core::Rng&) { return std::make_unique<Softmax>(); },
                      5},
        GradCheckCase{"layernorm",
                      [](core::Rng&) { return std::make_unique<LayerNorm>(6); },
                      6},
        GradCheckCase{"mlp",
                      [](core::Rng& rng) {
                        auto net = std::make_unique<Sequential>();
                        net->Emplace<Linear>(4, 8, rng);
                        net->Emplace<Tanh>();
                        net->Emplace<LayerNorm>(8);
                        net->Emplace<Linear>(8, 2, rng);
                        net->Emplace<Softmax>();
                        return net;
                      },
                      4}),
    [](const ::testing::TestParamInfo<GradCheckCase>& info) {
      return info.param.name;
    });

// ReLU gradient-checked away from the kink (finite differences are invalid
// exactly at 0).
TEST(ReluGradientTest, MatchesFiniteDifferenceAwayFromKink) {
  Relu relu;
  la::Matrix input = RandomMatrix(3, 4, 106);
  for (std::size_t i = 0; i < input.size(); ++i) {
    if (std::abs(input.data()[i]) < 0.1) input.data()[i] = 0.5;
  }
  relu.Forward(input);
  const la::Matrix probe = RandomMatrix(3, 4, 107);
  EXPECT_LT(GradientCheckInput(relu, input, probe), 1e-6);
}

}  // namespace
}  // namespace vfl::nn
