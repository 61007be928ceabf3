#ifndef VFLFIA_SERVE_ADVERSARY_CLIENT_H_
#define VFLFIA_SERVE_ADVERSARY_CLIENT_H_

#include <memory>

#include "fed/scenario.h"
#include "serve/prediction_server.h"

namespace vfl::serve {

/// Stands up a concurrent PredictionServer over an existing two-party
/// scenario (borrowing its parties and model; the scenario must outlive the
/// server).
std::unique_ptr<PredictionServer> MakeScenarioServer(
    const fed::VflScenario& scenario, PredictionServerConfig config);

}  // namespace vfl::serve

#endif  // VFLFIA_SERVE_ADVERSARY_CLIENT_H_
