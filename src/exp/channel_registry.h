#ifndef VFLFIA_EXP_CHANNEL_REGISTRY_H_
#define VFLFIA_EXP_CHANNEL_REGISTRY_H_

#include <functional>
#include <memory>
#include <string>
#include <string_view>

#include "defense/pipeline.h"
#include "exp/config_map.h"
#include "exp/experiment.h"
#include "exp/registry.h"
#include "fed/query_channel.h"
#include "fed/scenario.h"

namespace vfl::exp {

/// Everything a channel factory may consume when standing up the adversary's
/// query path for one trial. The scenario must outlive the channel.
struct ChannelRequest {
  const fed::VflScenario* scenario = nullptr;
  /// Server tuning (threads, batch, cache, flood clients) for the "server"
  /// and "net" kinds; "service" keeps all but threads and clients. Its
  /// query_budget (0 = unlimited) is enforced in the channel for the
  /// "offline" kind and by the server's query auditor for the
  /// "service"/"server"/"net" kinds — same typed kResourceExhausted either
  /// way.
  ServingSpec serving;
  /// Reveal-point defense stack, moved into the channel.
  defense::DefensePipeline pipeline;
  /// Per-kind options from the channel spec's "kind:k=v,..." tail (e.g.
  /// "net:port=0,clients=8"); factories must ExpectConsumed() it so unknown
  /// keys fail loudly.
  ConfigMap config;
};

using ChannelFactory =
    std::function<core::StatusOr<std::unique_ptr<fed::QueryChannel>>(
        ChannelRequest&& request)>;

using ChannelRegistry = Registry<ChannelFactory>;

/// The process-wide channel registry, populated with the built-ins on first
/// access: "offline", "service", "server", "net".
const ChannelRegistry& GlobalChannelRegistry();

/// The registry-kind part of a channel spec string: "net:port=0,clients=8"
/// -> "net" (a bare kind passes through unchanged).
std::string_view ChannelSpecKind(std::string_view spec);

/// Resolves a channel spec "KIND[:k=v,...]": looks the kind up, parses the
/// config tail into request.config, and builds the channel.
core::StatusOr<std::unique_ptr<fed::QueryChannel>> MakeChannel(
    const std::string& spec, ChannelRequest&& request);

}  // namespace vfl::exp

#endif  // VFLFIA_EXP_CHANNEL_REGISTRY_H_
