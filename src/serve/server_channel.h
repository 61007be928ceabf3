#ifndef VFLFIA_SERVE_SERVER_CHANNEL_H_
#define VFLFIA_SERVE_SERVER_CHANNEL_H_

#include <cstdint>
#include <memory>
#include <string_view>

#include "fed/query_channel.h"
#include "fed/scenario.h"
#include "serve/prediction_server.h"
#include "serve/thread_pool.h"

namespace vfl::serve {

/// Query channel backed by a PredictionServer: every fetch is attack traffic
/// through the server's query auditor, result cache, and (with worker
/// threads) batcher. The channel registers one "adversary" client on the
/// server; server-side auditor denials — the per-client budget from
/// PredictionServerConfig or an operator's SetQueryBudget — surface as typed
/// kResourceExhausted errors exactly like a channel-level budget, and the
/// audit log stays readable afterwards.
///
/// `fetch_clients` > 1 floods the server from that many concurrent
/// submitters (FetchFlood), each pushing a contiguous chunk of the fetch as
/// its own batch (the long-term accumulation expressed as concurrent
/// traffic). Rows land in request order regardless of completion order, so
/// the fetched bits are deterministic. Admission is all-or-nothing per chunk
/// and the chunks race the budget exactly like real concurrent clients
/// would: on a denial the CALLER receives nothing (the channel discards any
/// fetched rows and returns an error), but chunks the auditor admitted
/// before the budget ran out were already revealed on the wire and consumed
/// budget — the audit log records that wire-level served/denied split.
class ServerChannel : public fed::QueryChannel {
 public:
  /// Borrows an existing server (must outlive the channel).
  ServerChannel(PredictionServer* server, const fed::FeatureSplit& split,
                la::Matrix x_adv, fed::ChannelOptions options = {},
                std::size_t fetch_clients = 1);

  /// Owns a fresh server over the scenario's parties and model (the scenario
  /// must outlive the channel).
  ServerChannel(const fed::VflScenario& scenario,
                PredictionServerConfig server_config,
                fed::ChannelOptions options = {},
                std::size_t fetch_clients = 1);

  /// "service" when the server executes synchronously in the caller's
  /// thread (no worker threads), "server" otherwise.
  std::string_view kind() const override {
    return server_->config().num_threads == 0 ? "service" : "server";
  }

  const PredictionServer* server() const { return server_; }
  PredictionServer* server() { return server_; }
  /// The channel's client id on the server (SetQueryBudget target).
  std::uint64_t client_id() const { return client_id_; }

 protected:
  core::StatusOr<la::Matrix> Fetch(
      const std::vector<std::size_t>& sample_ids) override;

 private:
  std::unique_ptr<PredictionServer> owned_server_;
  PredictionServer* server_;
  std::uint64_t client_id_ = 0;
  /// Declared last: its pool joins before the server it floods goes away.
  FetchFlood flood_;
};

}  // namespace vfl::serve

#endif  // VFLFIA_SERVE_SERVER_CHANNEL_H_
