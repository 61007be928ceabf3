#include "fed/scenario.h"

#include <string>
#include <utility>

namespace vfl::fed {

AdversaryView VflScenario::CollectView() const {
  core::StatusOr<la::Matrix> confidences = server->PredictAll(client_id);
  CHECK(confidences.ok()) << confidences.status().ToString();
  return AdversaryView{x_adv, *std::move(confidences), model, split};
}

std::unique_ptr<serve::PredictionServer> MakeProtocolServer(
    const models::Model* model, std::vector<const Party*> parties) {
  serve::PredictionServerConfig config;
  config.num_threads = 0;
  config.max_batch_size = 1;
  config.cache_capacity = 0;
  return std::make_unique<serve::PredictionServer>(model, std::move(parties),
                                                   config);
}

namespace {

VflScenario BuildScenario(const la::Matrix& x_pred, const FeatureSplit& split,
                          const models::Model* model) {
  VflScenario scenario;
  scenario.split = split;
  scenario.model = model;
  scenario.x_adv = split.ExtractAdv(x_pred);
  scenario.x_target_ground_truth = split.ExtractTarget(x_pred);
  scenario.adversary_party = std::make_unique<Party>(
      "adversary", split.adv_columns(), scenario.x_adv);
  scenario.target_party = std::make_unique<Party>(
      "target", split.target_columns(), scenario.x_target_ground_truth);
  scenario.server = MakeProtocolServer(
      model, {scenario.adversary_party.get(), scenario.target_party.get()});
  scenario.client_id = scenario.server->RegisterClient("active-party");
  return scenario;
}

}  // namespace

core::StatusOr<VflScenario> TryMakeTwoPartyScenario(
    const la::Matrix& x_pred, const FeatureSplit& split,
    const models::Model* model) {
  if (model == nullptr) {
    return core::Status::InvalidArgument("scenario model is null");
  }
  if (x_pred.cols() != split.num_features()) {
    return core::Status::InvalidArgument(
        "feature split covers " + std::to_string(split.num_features()) +
        " columns but the prediction block has " +
        std::to_string(x_pred.cols()));
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
  if (split.num_target_features() == 0) {
    return core::Status::FailedPrecondition(
        "feature split leaves the target party no columns to attack");
  }
  return BuildScenario(x_pred, split, model);
}

VflScenario MakeTwoPartyScenario(const la::Matrix& x_pred,
                                 const FeatureSplit& split,
                                 const models::Model* model) {
  core::StatusOr<VflScenario> scenario =
      TryMakeTwoPartyScenario(x_pred, split, model);
  CHECK(scenario.ok()) << scenario.status().ToString();
  return *std::move(scenario);
}

}  // namespace vfl::fed
