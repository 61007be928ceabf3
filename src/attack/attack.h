#ifndef VFLFIA_ATTACK_ATTACK_H_
#define VFLFIA_ATTACK_ATTACK_H_

#include <string>

#include "core/status.h"
#include "fed/query_channel.h"
#include "la/matrix.h"

namespace vfl::attack {

/// A feature inference attack A that estimates the target party's feature
/// values (Eqn 2 of the paper) from model predictions it obtains through a
/// fed::QueryChannel — the adversary's only source of confidence vectors, so
/// query budgets and the channel's defense pipeline bind on the attack path.
///
/// Query-driven lifecycle, driven end to end by Run():
///   1. Prepare(split, channel) — bind to the channel, reset per-run state,
///      precompute anything derivable from the released model alone;
///   2. Execute() — issue queries through the channel and observe the
///      returned (post-defense) confidence vectors; budget exhaustion and
///      audit denials propagate as typed errors (kResourceExhausted) and no
///      partial inference is produced;
///   3. Finalize() — turn the observations into the inferred target block,
///      shape (n x d_target), rows in sample-id order, columns in the order
///      of FeatureSplit::target_columns().
///
/// Implementations only ever see the channel's outputs plus the released
/// model — ground-truth target features are never reachable from here.
class FeatureInferenceAttack {
 public:
  virtual ~FeatureInferenceAttack() = default;

  /// Short identifier used in experiment reports ("ESA", "GRNA", ...).
  virtual std::string name() const = 0;

  /// Phase 1: binds the attack to its prediction source. The base
  /// implementation stores the split and channel for the later phases;
  /// overrides must call it (or replicate the binding) before adding their
  /// own precomputation.
  virtual core::Status Prepare(const fed::FeatureSplit& split,
                               fed::QueryChannel& channel);

  /// Phase 2: issues this attack's queries and accumulates observations.
  virtual core::Status Execute() = 0;

  /// Phase 3: returns the inferred target block from the observations.
  virtual core::StatusOr<la::Matrix> Finalize() = 0;

  /// Drives Prepare → Execute → Finalize against `channel`.
  core::StatusOr<la::Matrix> Run(fed::QueryChannel& channel);

  /// One-shot convenience over a precollected adversary view: wraps `view`
  /// in an unlimited OfflineChannel and runs the lifecycle. CHECK-fails on
  /// error — a precollected view has no budget to exhaust.
  la::Matrix Infer(const fed::AdversaryView& view);

 protected:
  /// Channel bound by Prepare; valid through Finalize. Null before Prepare.
  fed::QueryChannel* channel_ = nullptr;
  fed::FeatureSplit split_;
};

}  // namespace vfl::attack

#endif  // VFLFIA_ATTACK_ATTACK_H_
