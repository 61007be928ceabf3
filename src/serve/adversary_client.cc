#include "serve/adversary_client.h"

#include <vector>

namespace vfl::serve {

std::unique_ptr<PredictionServer> MakeScenarioServer(
    const fed::VflScenario& scenario, PredictionServerConfig config) {
  return std::make_unique<PredictionServer>(
      scenario.model,
      std::vector<const fed::Party*>{scenario.adversary_party.get(),
                                     scenario.target_party.get()},
      config);
}

}  // namespace vfl::serve
