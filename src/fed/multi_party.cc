#include "fed/multi_party.h"

#include <algorithm>
#include <utility>

#include "fed/scenario.h"

namespace vfl::fed {

AdversaryView MultiPartyFederation::CollectView() const {
  core::StatusOr<la::Matrix> confidences = server->PredictAll(client_id);
  CHECK(confidences.ok()) << confidences.status().ToString();
  return AdversaryView{x_adv, *std::move(confidences), server->model(), split};
}

core::StatusOr<MultiPartyFederation> TryMakeMultiPartyFederation(
    const la::Matrix& x_pred, const std::vector<PartySpec>& party_specs,
    const std::vector<std::size_t>& colluding_parties,
    const models::Model* model) {
  if (model == nullptr) {
    return core::Status::InvalidArgument("federation model is null");
  }
  if (party_specs.size() < 2) {
    return core::Status::InvalidArgument(
        "federation needs at least 2 parties, got " +
        std::to_string(party_specs.size()));
  }
  if (std::find(colluding_parties.begin(), colluding_parties.end(), 0u) ==
      colluding_parties.end()) {
    return core::Status::InvalidArgument(
        "the active party (index 0) must be on the adversary side");
  }
  if (colluding_parties.size() >= party_specs.size()) {
    return core::Status::FailedPrecondition(
        "at least one party must remain as the attack target");
  }
  std::vector<bool> is_colluder(party_specs.size(), false);
  for (const std::size_t index : colluding_parties) {
    if (index >= party_specs.size()) {
      return core::Status::InvalidArgument(
          "colluder index " + std::to_string(index) + " out of range for " +
          std::to_string(party_specs.size()) + " parties");
    }
    if (is_colluder[index]) {
      return core::Status::InvalidArgument("duplicate colluder index " +
                                           std::to_string(index));
    }
    is_colluder[index] = true;
  }
  // The specs' columns must partition {0, ..., d-1} exactly.
  std::vector<bool> covered(x_pred.cols(), false);
  std::size_t total_columns = 0;
  for (const PartySpec& spec : party_specs) {
    for (const std::size_t col : spec.columns) {
      if (col >= covered.size()) {
        return core::Status::InvalidArgument(
            "party '" + spec.name + "' owns column " + std::to_string(col) +
            " but the prediction block has " +
            std::to_string(x_pred.cols()) + " columns");
      }
      if (covered[col]) {
        return core::Status::InvalidArgument(
            "column " + std::to_string(col) + " owned by two parties");
      }
      covered[col] = true;
      ++total_columns;
    }
  }
  if (total_columns != x_pred.cols()) {
    return core::Status::InvalidArgument(
        "party columns cover " + std::to_string(total_columns) + " of " +
        std::to_string(x_pred.cols()) + " prediction columns");
  }
  if (x_pred.cols() != model->num_features()) {
    return core::Status::InvalidArgument(
        "model expects " + std::to_string(model->num_features()) +
        " features but the prediction block has " +
        std::to_string(x_pred.cols()));
  }
  if (x_pred.rows() == 0) {
    return core::Status::FailedPrecondition(
        "prediction block has no samples");
  }

  // Derive the two-party abstraction (Sec. III-C).
  std::vector<std::size_t> adv_columns, target_columns;
  for (std::size_t p = 0; p < party_specs.size(); ++p) {
    auto& side = is_colluder[p] ? adv_columns : target_columns;
    side.insert(side.end(), party_specs[p].columns.begin(),
                party_specs[p].columns.end());
  }
  std::sort(adv_columns.begin(), adv_columns.end());
  std::sort(target_columns.begin(), target_columns.end());

  MultiPartyFederation federation;
  federation.split = FeatureSplit(adv_columns, target_columns);
  federation.parties.reserve(party_specs.size());
  std::vector<const Party*> party_ptrs;
  for (const PartySpec& spec : party_specs) {
    federation.parties.push_back(std::make_unique<Party>(
        spec.name, spec.columns, x_pred.GatherCols(spec.columns)));
    party_ptrs.push_back(federation.parties.back().get());
  }
  federation.server = MakeProtocolServer(model, std::move(party_ptrs));
  federation.client_id = federation.server->RegisterClient("active-party");
  federation.x_adv = federation.split.ExtractAdv(x_pred);
  federation.x_target_ground_truth = federation.split.ExtractTarget(x_pred);
  return federation;
}

MultiPartyFederation MakeMultiPartyFederation(
    const la::Matrix& x_pred, const std::vector<PartySpec>& party_specs,
    const std::vector<std::size_t>& colluding_parties,
    const models::Model* model) {
  core::StatusOr<MultiPartyFederation> federation = TryMakeMultiPartyFederation(
      x_pred, party_specs, colluding_parties, model);
  CHECK(federation.ok()) << federation.status().ToString();
  return *std::move(federation);
}

std::vector<PartySpec> EvenPartySpecs(std::size_t num_features,
                                      std::size_t num_parties) {
  CHECK_GT(num_parties, 0u);
  CHECK_GE(num_features, num_parties);
  std::vector<PartySpec> specs(num_parties);
  const std::size_t base = num_features / num_parties;
  const std::size_t remainder = num_features % num_parties;
  std::size_t next_column = 0;
  for (std::size_t p = 0; p < num_parties; ++p) {
    specs[p].name = p == 0 ? "active" : "passive_" + std::to_string(p);
    const std::size_t share = base + (p < remainder ? 1 : 0);
    for (std::size_t j = 0; j < share; ++j) {
      specs[p].columns.push_back(next_column++);
    }
  }
  CHECK_EQ(next_column, num_features);
  return specs;
}

}  // namespace vfl::fed
