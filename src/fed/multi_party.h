#ifndef VFLFIA_FED_MULTI_PARTY_H_
#define VFLFIA_FED_MULTI_PARTY_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/status.h"
#include "fed/feature_split.h"
#include "fed/party.h"
#include "fed/query_channel.h"
#include "models/model.h"
#include "serve/prediction_server.h"

namespace vfl::fed {

/// An m-party federation (Sec. III-A/B): party 0 is the active party; it may
/// collude with any subset of the passive parties. The adversary/target
/// abstraction of Sec. III-C is derived by merging the colluders' columns —
/// the strongest notion being all m-1 other parties colluding against one.
struct MultiPartyFederation {
  /// One Party per organization, in declaration order (0 = active).
  std::vector<std::unique_ptr<Party>> parties;
  /// The joint prediction protocol over all parties (MakeProtocolServer).
  std::unique_ptr<serve::PredictionServer> server;
  /// The active party's client id on `server`.
  std::uint64_t client_id = 0;
  /// Two-party abstraction: colluders' columns vs the rest.
  FeatureSplit split;
  /// Adversary block (colluders' columns of the prediction data).
  la::Matrix x_adv;
  /// Ground-truth block of the non-colluding parties (metrics only).
  la::Matrix x_target_ground_truth;

  /// Predicts every aligned sample through `server` (in sample-id order) and
  /// bundles the adversary view, like VflScenario::CollectView.
  AdversaryView CollectView() const;
};

/// Describes one party's share of the feature space.
struct PartySpec {
  std::string name;
  /// Global column indices owned by this party.
  std::vector<std::size_t> columns;
};

/// Builds an m-party federation over the joint prediction block `x_pred`.
/// `party_specs[0]` is the active party. `colluding_parties` lists the party
/// indices on the adversary side and must include 0 (the active party holds
/// the model and the predictions; passive-only collusion is outside the
/// paper's threat model). The specs' columns must partition the feature
/// space. `model` must outlive the federation.
///
/// Mirroring TryMakeTwoPartyScenario, returns InvalidArgument when the specs
/// don't partition the feature space, the model is null or its width
/// disagrees, the colluder set is malformed (missing the active party,
/// duplicates, out of range), or fewer than two parties are declared;
/// FailedPrecondition when no party remains as the attack target or the
/// prediction block has no rows.
core::StatusOr<MultiPartyFederation> TryMakeMultiPartyFederation(
    const la::Matrix& x_pred, const std::vector<PartySpec>& party_specs,
    const std::vector<std::size_t>& colluding_parties,
    const models::Model* model);

/// TryMakeMultiPartyFederation that CHECK-fails with the Status message.
MultiPartyFederation MakeMultiPartyFederation(
    const la::Matrix& x_pred, const std::vector<PartySpec>& party_specs,
    const std::vector<std::size_t>& colluding_parties,
    const models::Model* model);

/// Splits d columns into `num_parties` contiguous, near-equal shares — a
/// convenience for experiments that don't care about which columns go where.
std::vector<PartySpec> EvenPartySpecs(std::size_t num_features,
                                      std::size_t num_parties);

}  // namespace vfl::fed

#endif  // VFLFIA_FED_MULTI_PARTY_H_
