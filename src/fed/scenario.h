#ifndef VFLFIA_FED_SCENARIO_H_
#define VFLFIA_FED_SCENARIO_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "core/status.h"
#include "fed/feature_split.h"
#include "fed/party.h"
#include "fed/query_channel.h"
#include "models/model.h"
#include "serve/prediction_server.h"

namespace vfl::fed {

/// A fully wired two-party attack scenario (the m-party abstraction of
/// Sec. III-C): an adversary party and a target party over a joint
/// prediction dataset, plus the joint prediction protocol of Sec. II-B. Owns
/// the parties and the server; the model is borrowed and must outlive the
/// scenario.
///
/// `x_target_ground_truth` is the target's private block — experiment
/// harnesses use it ONLY to score attack output (MSE / CBR), never as attack
/// input.
struct VflScenario {
  FeatureSplit split;
  std::unique_ptr<Party> adversary_party;
  std::unique_ptr<Party> target_party;
  /// The joint prediction protocol over both parties (MakeProtocolServer):
  /// the active party submits sample ids as `client_id` and only the
  /// post-defense confidence vectors come back.
  std::unique_ptr<serve::PredictionServer> server;
  /// The active party's client id on `server`.
  std::uint64_t client_id = 0;
  la::Matrix x_adv;
  la::Matrix x_target_ground_truth;
  /// The released VFL model the server serves (borrowed).
  const models::Model* model = nullptr;

  /// Predicts every aligned sample through `server` (in sample-id order) and
  /// bundles the adversary's view. CHECK-fails if the server rejects the
  /// query, which it cannot without a budget set on `client_id`.
  AdversaryView CollectView() const;
};

/// Stands up the synchronous joint-prediction server a scenario or
/// federation owns: no worker threads, one row per forward pass, no cache.
/// Defenses installed on it (AddOutputDefense) therefore see one row at a
/// time, in the caller's thread and in request order — the order
/// VerificationDefense's cursor and seeded-noise streams depend on. `model`
/// and `parties` must outlive the server.
std::unique_ptr<serve::PredictionServer> MakeProtocolServer(
    const models::Model* model, std::vector<const Party*> parties);

/// Splits the joint prediction block `x_pred` by `split`, builds both
/// parties, and stands up the prediction server over `model`. Returns
/// InvalidArgument when `model` is null, the split does not cover `x_pred`'s
/// columns or the model expects a different feature width, and
/// FailedPrecondition when `x_pred` has no rows or the split leaves the
/// target party no columns.
core::StatusOr<VflScenario> TryMakeTwoPartyScenario(const la::Matrix& x_pred,
                                                    const FeatureSplit& split,
                                                    const models::Model* model);

/// TryMakeTwoPartyScenario that CHECK-fails with the Status message.
VflScenario MakeTwoPartyScenario(const la::Matrix& x_pred,
                                 const FeatureSplit& split,
                                 const models::Model* model);

}  // namespace vfl::fed

#endif  // VFLFIA_FED_SCENARIO_H_
