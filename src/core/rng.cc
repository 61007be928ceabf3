#include "core/rng.h"

#include <cmath>
#include <numbers>

#include "core/check.h"

namespace vfl::core {

namespace {

inline std::uint64_t Rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

/// SplitMix64: expands a single seed into full generator state. Standard
/// companion to xoshiro.
inline std::uint64_t SplitMix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// The Box–Muller transform of one uniform pair: values[0] = r cos(theta),
/// values[1] = r sin(theta). Gaussian() and GaussianBlock both call this one
/// out-of-line body, so they compute every variate with the same code.
[[gnu::noinline]] void BoxMuller(double u1, double u2, double values[2]) {
  const double radius = std::sqrt(-2.0 * std::log(u1));
  const double angle = 2.0 * std::numbers::pi * u2;
  values[0] = radius * std::cos(angle);
  values[1] = radius * std::sin(angle);
}

}  // namespace

std::uint64_t SplitMix64Next(std::uint64_t& state) {
  return SplitMix64(state);
}

std::uint64_t DeriveSeed(std::uint64_t base, std::uint64_t stream) {
  // Fold the stream id into the base with the golden-ratio increment (the
  // same constant SplitMix64 steps by, so stream k lands on a different
  // point of the sequence than base alone), then mix twice — adjacent
  // stream ids come out fully decorrelated.
  std::uint64_t state = base ^ (0x9e3779b97f4a7c15ULL * (stream + 1));
  (void)SplitMix64(state);
  return SplitMix64(state);
}

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& word : state_) word = SplitMix64(sm);
  // All-zero state would lock xoshiro at zero forever; SplitMix64 cannot
  // produce four zero words from any seed, but guard anyway.
  if ((state_[0] | state_[1] | state_[2] | state_[3]) == 0) state_[0] = 1;
}

std::uint64_t Rng::NextUint64() {
  const std::uint64_t result = Rotl(state_[0] + state_[3], 23) + state_[0];
  const std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = Rotl(state_[3], 45);
  return result;
}

double Rng::Uniform() {
  // 53 high bits -> double in [0, 1).
  return static_cast<double>(NextUint64() >> 11) * 0x1.0p-53;
}

double Rng::Uniform(double lo, double hi) {
  CHECK_LE(lo, hi);
  return lo + (hi - lo) * Uniform();
}

std::size_t Rng::UniformInt(std::size_t n) {
  CHECK_GT(n, 0u);
  // Rejection sampling to remove modulo bias.
  const std::uint64_t bound = n;
  const std::uint64_t limit = UINT64_MAX - UINT64_MAX % bound;
  std::uint64_t value = NextUint64();
  while (value >= limit) value = NextUint64();
  return static_cast<std::size_t>(value % bound);
}

void Rng::DrawUniformPair(double* u1, double* u2) {
  *u1 = Uniform();
  while (*u1 <= 0.0) *u1 = Uniform();
  *u2 = Uniform();
}

double Rng::Gaussian() {
  if (have_cached_gaussian_) {
    have_cached_gaussian_ = false;
    return cached_gaussian_;
  }
  // Box–Muller transform; caches the second variate.
  double u1, u2;
  DrawUniformPair(&u1, &u2);
  double values[2];
  BoxMuller(u1, u2, values);
  cached_gaussian_ = values[1];
  have_cached_gaussian_ = true;
  return values[0];
}

void Rng::DrawGaussians(std::size_t count, GaussianBlock* block) {
  block->count_ = count;
  block->has_cached_ = count > 0 && have_cached_gaussian_;
  if (block->has_cached_) {
    block->cached_ = cached_gaussian_;
    have_cached_gaussian_ = false;
  }
  const std::size_t fresh = count - (block->has_cached_ ? 1 : 0);
  const std::size_t pairs = (fresh + 1) / 2;
  std::vector<double>& u = block->uniforms_;
  u.resize(2 * pairs);
  for (std::size_t p = 0; p < pairs; ++p) {
    DrawUniformPair(&u[2 * p], &u[2 * p + 1]);
  }
  if (fresh % 2 == 1) {
    double values[2];
    BoxMuller(u[2 * pairs - 2], u[2 * pairs - 1], values);
    cached_gaussian_ = values[1];
    have_cached_gaussian_ = true;
  }
}

void GaussianBlock::ValuesInto(std::size_t i0, std::size_t i1,
                               double* out) const {
  CHECK_LE(i0, i1);
  CHECK_LE(i1, count_);
  std::size_t i = i0;
  if (i == 0 && i < i1 && has_cached_) {
    *out++ = cached_;
    ++i;
  }
  const std::size_t offset = has_cached_ ? 1 : 0;
  while (i < i1) {
    // Fresh variate j is pair j / 2's cosine when j is even, its sine when
    // odd; a range that starts or ends mid-pair transforms that pair for
    // the one value it needs.
    const std::size_t j = i - offset;
    double values[2];
    BoxMuller(uniforms_[j - j % 2], uniforms_[j - j % 2 + 1], values);
    for (std::size_t v = j % 2; v < 2 && i < i1; ++v, ++i) *out++ = values[v];
  }
}

double Rng::Gaussian(double mean, double stddev) {
  return mean + stddev * Gaussian();
}

bool Rng::Bernoulli(double p) { return Uniform() < p; }

std::vector<double> Rng::UniformVector(std::size_t n) {
  std::vector<double> out(n);
  for (auto& x : out) x = Uniform();
  return out;
}

std::vector<double> Rng::GaussianVector(std::size_t n, double mean,
                                        double stddev) {
  std::vector<double> out(n);
  for (auto& x : out) x = Gaussian(mean, stddev);
  return out;
}

std::vector<std::size_t> Rng::Permutation(std::size_t n) {
  std::vector<std::size_t> perm(n);
  for (std::size_t i = 0; i < n; ++i) perm[i] = i;
  Shuffle(perm);
  return perm;
}

std::vector<std::size_t> Rng::SampleWithoutReplacement(std::size_t n,
                                                       std::size_t k) {
  CHECK_LE(k, n);
  std::vector<std::size_t> perm = Permutation(n);
  perm.resize(k);
  return perm;
}

Rng Rng::Fork() { return Rng(NextUint64()); }

}  // namespace vfl::core
