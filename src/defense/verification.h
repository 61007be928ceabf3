#ifndef VFLFIA_DEFENSE_VERIFICATION_H_
#define VFLFIA_DEFENSE_VERIFICATION_H_

#include <memory>

#include "attack/esa.h"
#include "fed/feature_split.h"
#include "fed/output_defense.h"
#include "la/matrix.h"
#include "models/logistic_regression.h"

namespace vfl::defense {

/// Section VII "post-processing for verification": before a confidence
/// vector leaves the (simulated) secure enclave, the parties mimic the
/// strongest applicable attack against it inside the enclave — where the
/// ground truth is legitimately available — and withhold the full scores
/// when the attack would reconstruct the target's features too well.
///
/// This implementation mimics ESA against an LR model. When the per-sample
/// reconstruction error falls below `mse_threshold`, the defense releases
/// only the arg-max decision (a one-hot vector) instead of the raw scores.
/// As the paper notes, this check "may incur huge overheads": it runs one
/// full attack per prediction.
class VerificationDefense : public fed::OutputDefense {
 public:
  /// `model` is the released LR model; `split` the collaboration partition;
  /// `x_adv` / `x_target` the aligned prediction blocks (the enclave holds
  /// both sides). Samples are verified in Apply() call order, which is
  /// ascending sample-id order on a scenario's synchronous protocol server
  /// (fed::MakeProtocolServer) during a PredictAll.
  VerificationDefense(const models::LogisticRegression* model,
                      fed::FeatureSplit split, la::Matrix x_adv,
                      la::Matrix x_target, double mse_threshold);

  std::vector<double> Apply(const std::vector<double>& scores) override;

  /// Number of predictions whose scores were suppressed so far.
  std::size_t num_suppressed() const { return num_suppressed_; }

  /// Resets the call-order cursor (e.g., before a second PredictAll pass).
  void ResetCursor() { next_sample_ = 0; }

 private:
  attack::EqualitySolvingAttack esa_;
  fed::FeatureSplit split_;
  la::Matrix x_adv_;
  la::Matrix x_target_;
  double mse_threshold_;
  std::size_t next_sample_ = 0;
  std::size_t num_suppressed_ = 0;
};

}  // namespace vfl::defense

#endif  // VFLFIA_DEFENSE_VERIFICATION_H_
