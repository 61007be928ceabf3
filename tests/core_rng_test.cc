#include "core/rng.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace vfl::core {
namespace {

TEST(RngTest, SameSeedSameStream) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextUint64(), b.NextUint64());
  }
}

TEST(RngTest, DifferentSeedsDifferentStreams) {
  Rng a(1), b(2);
  bool any_diff = false;
  for (int i = 0; i < 16; ++i) {
    any_diff |= a.NextUint64() != b.NextUint64();
  }
  EXPECT_TRUE(any_diff);
}

TEST(RngTest, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.Uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, UniformMeanNearHalf) {
  Rng rng(11);
  double sum = 0.0;
  constexpr int kDraws = 20000;
  for (int i = 0; i < kDraws; ++i) sum += rng.Uniform();
  EXPECT_NEAR(sum / kDraws, 0.5, 0.02);
}

TEST(RngTest, UniformRangeRespectsBounds) {
  Rng rng(13);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.Uniform(-2.5, 4.0);
    EXPECT_GE(v, -2.5);
    EXPECT_LT(v, 4.0);
  }
}

TEST(RngTest, UniformIntCoversRangeUniformly) {
  Rng rng(17);
  std::vector<int> counts(10, 0);
  constexpr int kDraws = 50000;
  for (int i = 0; i < kDraws; ++i) ++counts[rng.UniformInt(10)];
  for (const int count : counts) {
    EXPECT_NEAR(static_cast<double>(count) / kDraws, 0.1, 0.02);
  }
}

TEST(RngTest, UniformIntZeroDies) {
  Rng rng(1);
  EXPECT_DEATH(rng.UniformInt(0), "n > 0");
}

TEST(RngTest, GaussianMomentsMatch) {
  Rng rng(19);
  constexpr int kDraws = 40000;
  double sum = 0.0, sum_sq = 0.0;
  for (int i = 0; i < kDraws; ++i) {
    const double g = rng.Gaussian();
    sum += g;
    sum_sq += g * g;
  }
  EXPECT_NEAR(sum / kDraws, 0.0, 0.03);
  EXPECT_NEAR(sum_sq / kDraws, 1.0, 0.05);
}

TEST(RngTest, GaussianShiftScale) {
  Rng rng(23);
  constexpr int kDraws = 40000;
  double sum = 0.0;
  for (int i = 0; i < kDraws; ++i) sum += rng.Gaussian(3.0, 0.5);
  EXPECT_NEAR(sum / kDraws, 3.0, 0.02);
}

// DrawGaussians + ValuesInto against successive Gaussian() calls: every
// value's bits, then the generator state (the next Uniform() and
// Gaussian()), with and without a variate cached before the block.
TEST(GaussianBlockTest, MatchesSuccessiveGaussianCalls) {
  for (const std::size_t count : {0u, 1u, 2u, 7u, 64u * 17u}) {
    for (const bool pending : {false, true}) {
      Rng serial(97), split(97);
      if (pending) {
        // One call leaves the pair's second variate cached.
        ASSERT_EQ(serial.Gaussian(), split.Gaussian());
      }
      std::vector<double> want(count);
      for (double& v : want) v = serial.Gaussian();
      GaussianBlock block;
      split.DrawGaussians(count, &block);
      ASSERT_EQ(block.size(), count);
      std::vector<double> got(count);
      block.ValuesInto(0, count, got.data());
      const std::string what = "count " + std::to_string(count) +
                               (pending ? " after a cached variate" : "");
      for (std::size_t i = 0; i < count; ++i) {
        ASSERT_EQ(std::memcmp(&got[i], &want[i], sizeof(double)), 0)
            << what << " value " << i;
      }
      // A Gaussian() first takes whatever variate the block left cached.
      const double next_gaussian = serial.Gaussian();
      const double split_gaussian = split.Gaussian();
      EXPECT_EQ(std::memcmp(&next_gaussian, &split_gaussian, sizeof(double)),
                0)
          << what;
      EXPECT_EQ(serial.Uniform(), split.Uniform()) << what;
      EXPECT_EQ(serial.Gaussian(), split.Gaussian()) << what;
    }
  }
}

TEST(GaussianBlockTest, RangesMatchTheWholeBlock) {
  // Rows of 17 values split the Box–Muller pairs between ranges, as the
  // lanes of a GRNA step do.
  constexpr std::size_t kRows = 64, kCols = 17;
  for (const bool pending : {false, true}) {
    Rng rng(5);
    if (pending) rng.Gaussian();
    GaussianBlock block;
    rng.DrawGaussians(kRows * kCols, &block);
    std::vector<double> whole(kRows * kCols), by_row(kRows * kCols);
    block.ValuesInto(0, whole.size(), whole.data());
    for (std::size_t r = 0; r < kRows; ++r) {
      block.ValuesInto(r * kCols, (r + 1) * kCols, by_row.data() + r * kCols);
    }
    EXPECT_EQ(std::memcmp(whole.data(), by_row.data(),
                          whole.size() * sizeof(double)),
              0);
    for (std::size_t i = 0; i < whole.size(); ++i) {
      double one;
      block.ValuesInto(i, i + 1, &one);
      ASSERT_EQ(std::memcmp(&one, &whole[i], sizeof(double)), 0) << i;
    }
  }
}

TEST(GaussianBlockTest, ReusedBlockHoldsOnlyTheNewDraw) {
  Rng serial(3), split(3);
  GaussianBlock block;
  split.DrawGaussians(101, &block);  // odd: leaves a variate cached
  split.DrawGaussians(10, &block);
  for (int i = 0; i < 101; ++i) serial.Gaussian();
  ASSERT_EQ(block.size(), 10u);
  std::vector<double> values(10);
  block.ValuesInto(0, 10, values.data());
  for (const double v : values) EXPECT_EQ(v, serial.Gaussian());
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(29);
  int hits = 0;
  constexpr int kDraws = 20000;
  for (int i = 0; i < kDraws; ++i) hits += rng.Bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / kDraws, 0.3, 0.02);
}

TEST(RngTest, VectorsHaveRequestedSize) {
  Rng rng(31);
  EXPECT_EQ(rng.UniformVector(17).size(), 17u);
  EXPECT_EQ(rng.GaussianVector(23).size(), 23u);
  EXPECT_TRUE(rng.UniformVector(0).empty());
}

TEST(RngTest, PermutationIsPermutation) {
  Rng rng(37);
  const std::vector<std::size_t> perm = rng.Permutation(50);
  std::set<std::size_t> seen(perm.begin(), perm.end());
  EXPECT_EQ(seen.size(), 50u);
  EXPECT_EQ(*seen.begin(), 0u);
  EXPECT_EQ(*seen.rbegin(), 49u);
}

TEST(RngTest, PermutationOfZeroAndOne) {
  Rng rng(38);
  EXPECT_TRUE(rng.Permutation(0).empty());
  EXPECT_EQ(rng.Permutation(1), std::vector<std::size_t>{0});
}

TEST(RngTest, SampleWithoutReplacementDistinct) {
  Rng rng(41);
  const std::vector<std::size_t> sample = rng.SampleWithoutReplacement(100, 30);
  EXPECT_EQ(sample.size(), 30u);
  std::set<std::size_t> seen(sample.begin(), sample.end());
  EXPECT_EQ(seen.size(), 30u);
  for (const std::size_t s : sample) EXPECT_LT(s, 100u);
}

TEST(RngTest, SampleAllElements) {
  Rng rng(43);
  const std::vector<std::size_t> sample = rng.SampleWithoutReplacement(5, 5);
  std::set<std::size_t> seen(sample.begin(), sample.end());
  EXPECT_EQ(seen.size(), 5u);
}

TEST(RngTest, SampleTooManyDies) {
  Rng rng(47);
  EXPECT_DEATH(rng.SampleWithoutReplacement(3, 4), "");
}

TEST(RngTest, ShufflePreservesMultiset) {
  Rng rng(53);
  std::vector<int> values = {1, 2, 2, 3, 3, 3};
  std::vector<int> shuffled = values;
  rng.Shuffle(shuffled);
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, values);
}

TEST(RngTest, ForkIsIndependentButDeterministic) {
  Rng a(59), b(59);
  Rng fa = a.Fork(), fb = b.Fork();
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(fa.NextUint64(), fb.NextUint64());
  }
  // Parent stream continues deterministically too.
  EXPECT_EQ(a.NextUint64(), b.NextUint64());
}

TEST(DeriveSeedTest, DeterministicPerStream) {
  EXPECT_EQ(DeriveSeed(42, 0), DeriveSeed(42, 0));
  EXPECT_EQ(DeriveSeed(42, 7), DeriveSeed(42, 7));
}

TEST(DeriveSeedTest, SequentialStreamsDecorrelated) {
  // Sequential stream ids (the common case: trial index, client index) must
  // not produce related seeds.
  std::set<std::uint64_t> seeds;
  for (std::uint64_t stream = 0; stream < 1000; ++stream) {
    seeds.insert(DeriveSeed(42, stream));
  }
  EXPECT_EQ(seeds.size(), 1000u);
  // No two adjacent seeds should be a small offset apart.
  for (std::uint64_t stream = 1; stream < 100; ++stream) {
    const std::uint64_t a = DeriveSeed(42, stream - 1);
    const std::uint64_t b = DeriveSeed(42, stream);
    EXPECT_GT(a > b ? a - b : b - a, 1u << 20);
  }
}

TEST(DeriveSeedTest, DistinctBasesDistinctStreams) {
  EXPECT_NE(DeriveSeed(1, 0), DeriveSeed(2, 0));
  EXPECT_NE(DeriveSeed(1, 5), DeriveSeed(2, 5));
}

TEST(DeriveSeedTest, IndependentOfDerivationOrder) {
  // Stateless: stream k's seed is the same whether or not other streams were
  // derived first (unlike Fork, which advances the parent).
  const std::uint64_t direct = DeriveSeed(99, 3);
  (void)DeriveSeed(99, 0);
  (void)DeriveSeed(99, 1);
  EXPECT_EQ(DeriveSeed(99, 3), direct);
}

TEST(DeriveSeedTest, ForStreamMatchesDeriveSeed) {
  Rng direct(DeriveSeed(7, 11));
  Rng via_stream = Rng::ForStream(7, 11);
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(direct.NextUint64(), via_stream.NextUint64());
  }
}

TEST(SplitMix64Test, AdvancesStateDeterministically) {
  std::uint64_t a = 123, b = 123;
  for (int i = 0; i < 32; ++i) {
    EXPECT_EQ(SplitMix64Next(a), SplitMix64Next(b));
  }
  EXPECT_EQ(a, b);
  EXPECT_NE(a, 123u);  // state advanced
}

TEST(SplitMix64Test, OutputsWellDistributed) {
  // Cheap equidistribution check over the low byte.
  std::uint64_t state = 42;
  std::vector<int> counts(256, 0);
  constexpr int kDraws = 64 * 256;
  for (int i = 0; i < kDraws; ++i) ++counts[SplitMix64Next(state) & 0xff];
  for (const int count : counts) {
    EXPECT_GT(count, 16);
    EXPECT_LT(count, 192);
  }
}

/// Property sweep: every seed gives in-range uniforms and valid permutations.
class RngSeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RngSeedSweep, UniformStaysInRange) {
  Rng rng(GetParam());
  for (int i = 0; i < 512; ++i) {
    const double u = rng.Uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
  }
}

TEST_P(RngSeedSweep, PermutationValid) {
  Rng rng(GetParam());
  const auto perm = rng.Permutation(20);
  std::set<std::size_t> seen(perm.begin(), perm.end());
  ASSERT_EQ(seen.size(), 20u);
}

TEST_P(RngSeedSweep, GaussianIsFinite) {
  Rng rng(GetParam());
  for (int i = 0; i < 512; ++i) {
    ASSERT_TRUE(std::isfinite(rng.Gaussian()));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RngSeedSweep,
                         ::testing::Values(0ull, 1ull, 42ull, 1337ull,
                                           0xffffffffffffffffull,
                                           0x123456789abcdefull));

}  // namespace
}  // namespace vfl::core
