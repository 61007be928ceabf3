#ifndef VFLFIA_FED_OUTPUT_DEFENSE_H_
#define VFLFIA_FED_OUTPUT_DEFENSE_H_

#include <vector>

namespace vfl::fed {

/// Transformation applied to a confidence vector before it leaves the secure
/// protocol boundary. Section VII's output-side countermeasures (rounding,
/// noise) implement this interface.
///
/// Lives in its own header so serve::PredictionServer and the fed/ query
/// channels can install defenses without depending on each other.
class OutputDefense {
 public:
  virtual ~OutputDefense() = default;

  /// Returns the (possibly degraded) scores revealed to the active party.
  virtual std::vector<double> Apply(const std::vector<double>& scores) = 0;
};

}  // namespace vfl::fed

#endif  // VFLFIA_FED_OUTPUT_DEFENSE_H_
