#ifndef VFLFIA_DEFENSE_ROUNDING_H_
#define VFLFIA_DEFENSE_ROUNDING_H_

#include "fed/output_defense.h"

namespace vfl::defense {

/// Section VII "rounding confidence scores": every confidence is rounded
/// down to `digits` floating-point digits before the protocol reveals it.
/// With digits = 1 (round to 0.1) ESA's equations break badly (Fig. 11a-b);
/// with digits = 3 the attack barely notices; GRNA is insensitive either way
/// (Fig. 11c-d).
class RoundingDefense : public fed::OutputDefense {
 public:
  /// `digits` = b in the paper: scores keep b digits after the decimal point.
  explicit RoundingDefense(int digits);

  std::vector<double> Apply(const std::vector<double>& scores) override;

  int digits() const { return digits_; }

  /// Rounds a single score down to the configured precision.
  double RoundScore(double score) const;

 private:
  int digits_;
  double scale_;
};

}  // namespace vfl::defense

#endif  // VFLFIA_DEFENSE_ROUNDING_H_
