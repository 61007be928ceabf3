#ifndef VFLFIA_CORE_RNG_H_
#define VFLFIA_CORE_RNG_H_

#include <cstdint>
#include <vector>

namespace vfl::core {

/// The next `count` values of Rng::Gaussian(), drawn in two halves: the
/// generator draws their uniforms serially (Rng::DrawGaussians), and
/// ValuesInto turns any range of them into normals, on any thread. Both
/// halves run the code Gaussian() runs, so the values are its bits, and the
/// generator is left where `count` Gaussian() calls would leave it.
class GaussianBlock {
 public:
  std::size_t size() const { return count_; }

  /// Writes values [i0, i1) of the block to out[0, i1 - i0). Reads the
  /// block only, so threads may fill disjoint ranges at once.
  void ValuesInto(std::size_t i0, std::size_t i1, double* out) const;

 private:
  friend class Rng;

  std::size_t count_ = 0;
  /// Whether value 0 is the variate the generator had cached.
  bool has_cached_ = false;
  double cached_ = 0.0;
  /// (u1, u2) per Box–Muller pair; pair p gives values 2p and 2p + 1 after
  /// the cached one.
  std::vector<double> uniforms_;
};

/// One step of the SplitMix64 sequence: advances `state` and returns the
/// next 64-bit output. Exposed because it is the cheapest decent-quality
/// per-stream generator in the library — the traffic simulator keeps one
/// 8-byte SplitMix64 state per simulated client where a full Rng would be
/// 7x larger.
std::uint64_t SplitMix64Next(std::uint64_t& state);

/// Splittable seed derivation: maps (base, stream) to an independent child
/// seed, deterministically and platform-stably. Streams derived from one
/// base are decorrelated for any stream ids (sequential ids included —
/// the mapping is two full SplitMix64 mixes, not an offset), so callers can
/// hand stream = client id / trial index / shard index directly:
///
///   core::Rng rng(core::DeriveSeed(spec.seed, trial));
///
/// Unlike Rng::Fork() this is stateless: stream k's seed does not depend on
/// how many other streams were derived before it, which is what makes
/// per-client and per-trial randomness independent of iteration order and
/// thread count.
std::uint64_t DeriveSeed(std::uint64_t base, std::uint64_t stream);

/// Deterministic pseudo-random generator (xoshiro256++) plus the handful of
/// distributions the library needs. A seeded Rng produces identical streams
/// on every platform, which keeps tests and experiment reruns reproducible —
/// std::mt19937 distributions are not guaranteed stable across standard
/// library implementations.
class Rng {
 public:
  /// Seeds the generator. Equal seeds give equal streams.
  explicit Rng(std::uint64_t seed = 42);

  Rng(const Rng&) = default;
  Rng& operator=(const Rng&) = default;

  /// Next raw 64-bit value.
  std::uint64_t NextUint64();

  /// Uniform double in [0, 1).
  double Uniform();

  /// Uniform double in [lo, hi).
  double Uniform(double lo, double hi);

  /// Uniform integer in [0, n). Requires n > 0.
  std::size_t UniformInt(std::size_t n);

  /// Standard normal via Box–Muller.
  double Gaussian();

  /// Normal with the given mean and standard deviation.
  double Gaussian(double mean, double stddev);

  /// Draws the uniforms behind the next `count` Gaussian() values into
  /// `block` (its capacity reused): a pending cached variate first, then
  /// Box–Muller pairs. After an odd number of fresh values the generator
  /// caches the last pair's second variate, as Gaussian() would.
  void DrawGaussians(std::size_t count, GaussianBlock* block);

  /// Bernoulli draw with probability p of true.
  bool Bernoulli(double p);

  /// Vector of n i.i.d. U[0,1) draws.
  std::vector<double> UniformVector(std::size_t n);

  /// Vector of n i.i.d. N(mean, stddev^2) draws.
  std::vector<double> GaussianVector(std::size_t n, double mean = 0.0,
                                     double stddev = 1.0);

  /// In-place Fisher–Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>& items) {
    if (items.empty()) return;
    for (std::size_t i = items.size() - 1; i > 0; --i) {
      std::size_t j = UniformInt(i + 1);
      std::swap(items[i], items[j]);
    }
  }

  /// Returns a random permutation of {0, ..., n-1}.
  std::vector<std::size_t> Permutation(std::size_t n);

  /// Samples k distinct indices from {0, ..., n-1} (k <= n), in random order.
  std::vector<std::size_t> SampleWithoutReplacement(std::size_t n,
                                                    std::size_t k);

  /// Derives an independent child generator; useful for giving each trial or
  /// each tree its own stream while keeping the parent deterministic.
  Rng Fork();

  /// Stateless companion to Fork(): the generator for stream `stream` of
  /// `base` — Rng(DeriveSeed(base, stream)).
  static Rng ForStream(std::uint64_t base, std::uint64_t stream) {
    return Rng(DeriveSeed(base, stream));
  }

 private:
  /// One Box–Muller pair's uniforms, u1 in (0, 1) and u2 in [0, 1).
  void DrawUniformPair(double* u1, double* u2);

  std::uint64_t state_[4];
  bool have_cached_gaussian_ = false;
  double cached_gaussian_ = 0.0;
};

}  // namespace vfl::core

#endif  // VFLFIA_CORE_RNG_H_
