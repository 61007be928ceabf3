#include "serve/server_channel.h"

#include <utility>
#include <vector>

#include "core/check.h"
#include "serve/adversary_client.h"

namespace vfl::serve {

ServerChannel::ServerChannel(PredictionServer* server,
                             const fed::FeatureSplit& split, la::Matrix x_adv,
                             fed::ChannelOptions options,
                             std::size_t fetch_clients)
    : QueryChannel(split, std::move(x_adv), server->num_classes(),
                   server->model(), std::move(options)),
      server_(server),
      flood_(fetch_clients) {
  CHECK_EQ(server_->num_samples(), num_samples());
  client_id_ = server_->RegisterClient("adversary");
}

ServerChannel::ServerChannel(const fed::VflScenario& scenario,
                             PredictionServerConfig server_config,
                             fed::ChannelOptions options,
                             std::size_t fetch_clients)
    : QueryChannel(scenario.split, scenario.x_adv,
                   scenario.model->num_classes(), scenario.model,
                   std::move(options)),
      owned_server_(MakeScenarioServer(scenario, server_config)),
      server_(owned_server_.get()),
      flood_(fetch_clients) {
  client_id_ = server_->RegisterClient("adversary");
}

core::StatusOr<la::Matrix> ServerChannel::Fetch(
    const std::vector<std::size_t>& sample_ids) {
  return flood_.Run(sample_ids, num_classes(),
                    [this](const std::vector<std::size_t>& ids) {
                      return server_->PredictBatch(client_id_, ids);
                    });
}

}  // namespace vfl::serve
