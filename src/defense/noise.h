#ifndef VFLFIA_DEFENSE_NOISE_H_
#define VFLFIA_DEFENSE_NOISE_H_

#include "core/rng.h"
#include "fed/output_defense.h"

namespace vfl::defense {

/// Additive-noise output defense: perturbs each confidence with Gaussian
/// noise, clamps to [0, 1], and re-normalizes the vector to sum to 1. A
/// natural strengthening of rounding discussed alongside the paper's
/// Section VII countermeasures; the DP discussion there explains why
/// calibrated noise large enough for formal guarantees destroys utility.
class NoiseDefense : public fed::OutputDefense {
 public:
  NoiseDefense(double stddev, std::uint64_t seed = 42);

  std::vector<double> Apply(const std::vector<double>& scores) override;

  double stddev() const { return stddev_; }

 private:
  double stddev_;
  core::Rng rng_;
};

}  // namespace vfl::defense

#endif  // VFLFIA_DEFENSE_NOISE_H_
