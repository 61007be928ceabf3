#include "exp/channel_registry.h"

#include <algorithm>
#include <utility>

#include "net/channel.h"
#include "serve/server_channel.h"

namespace vfl::exp {

namespace {

core::Status RequireScenario(const ChannelRequest& request,
                             const char* kind) {
  if (request.scenario == nullptr || request.scenario->server == nullptr ||
      request.scenario->model == nullptr) {
    return core::Status::InvalidArgument(
        std::string("channel '") + kind + "': request has no wired scenario");
  }
  return core::Status::Ok();
}

fed::ChannelOptions ToChannelOptions(ChannelRequest&& request) {
  fed::ChannelOptions options;
  options.pipeline = std::move(request.pipeline);
  return options;
}

core::Status RejectConfig(const ChannelRequest& request, const char* kind) {
  if (!request.config.empty()) {
    return core::Status::InvalidArgument(
        std::string("channel '") + kind +
        "' takes no config keys (got '" + request.config.ToString() + "')");
  }
  return core::Status::Ok();
}

serve::PredictionServerConfig ToServerConfig(const ServingSpec& serving) {
  serve::PredictionServerConfig config;
  config.num_threads = serving.threads;
  config.max_batch_size = serving.batch;
  config.cache_capacity = serving.cache_entries;
  config.auditor.default_query_budget = serving.query_budget;
  config.auditor.max_audit_events = serving.audit_events;
  config.audit_wal_dir = serving.audit_wal_dir;
  return config;
}

core::StatusOr<std::unique_ptr<fed::QueryChannel>> MakeOffline(
    ChannelRequest&& request) {
  VFL_RETURN_IF_ERROR(RequireScenario(request, "offline"));
  VFL_RETURN_IF_ERROR(RejectConfig(request, "offline"));
  fed::AdversaryView view = request.scenario->CollectView();
  const std::uint64_t query_budget = request.serving.query_budget;
  fed::ChannelOptions options = ToChannelOptions(std::move(request));
  options.query_budget = query_budget;
  return std::unique_ptr<fed::QueryChannel>(
      std::make_unique<fed::OfflineChannel>(std::move(view),
                                            std::move(options)));
}

core::StatusOr<std::unique_ptr<fed::QueryChannel>> MakeServer(
    ChannelRequest&& request) {
  VFL_RETURN_IF_ERROR(RequireScenario(request, "server"));
  VFL_RETURN_IF_ERROR(RejectConfig(request, "server"));
  const fed::VflScenario& scenario = *request.scenario;
  const std::size_t fetch_clients = request.serving.clients;
  const serve::PredictionServerConfig config = ToServerConfig(request.serving);
  // On the server kind the budget is the SERVER-SIDE countermeasure: the
  // query auditor enforces it (all-or-nothing per admitted batch) and logs
  // the denial per client, instead of the channel pre-filtering requests the
  // server would never see. Denials still reach the adversary as the same
  // typed kResourceExhausted.
  return std::unique_ptr<fed::QueryChannel>(
      std::make_unique<serve::ServerChannel>(
          scenario, config, ToChannelOptions(std::move(request)),
          fetch_clients));
}

/// The synchronous protocol simulation is the server kind with no worker
/// threads and one submitter: every fetch runs in the caller's thread.
core::StatusOr<std::unique_ptr<fed::QueryChannel>> MakeService(
    ChannelRequest&& request) {
  VFL_RETURN_IF_ERROR(RejectConfig(request, "service"));
  request.serving.threads = 0;
  request.serving.clients = 1;
  return MakeServer(std::move(request));
}

core::StatusOr<std::unique_ptr<fed::QueryChannel>> MakeNet(
    ChannelRequest&& request) {
  VFL_RETURN_IF_ERROR(RequireScenario(request, "net"));
  // Per-spec keys: port=0 (0 = kernel-assigned ephemeral loopback port),
  // clients=N (concurrent submitter connections per fetch; default the
  // ServingSpec's flood width), rows=N (sample ids per wire request; larger
  // fetches pipeline several requests per connection).
  VFL_ASSIGN_OR_RETURN(const std::uint64_t port,
                       request.config.GetUint64("port", 0));
  if (port > 65535) {
    return core::Status::OutOfRange("channel 'net': port must be <= 65535");
  }
  VFL_ASSIGN_OR_RETURN(
      const std::size_t clients,
      request.config.GetSize("clients", request.serving.clients));
  VFL_ASSIGN_OR_RETURN(const std::size_t rows,
                       request.config.GetSize("rows", 1024));
  if (rows == 0) {
    return core::Status::InvalidArgument(
        "channel 'net': rows must be >= 1");
  }
  VFL_RETURN_IF_ERROR(request.config.ExpectConsumed("channel 'net'"));

  const fed::VflScenario& scenario = *request.scenario;
  const serve::PredictionServerConfig server_config =
      ToServerConfig(request.serving);
  net::NetServerConfig net_config;
  net_config.port = static_cast<std::uint16_t>(port);
  net_config.connection_threads = std::max<std::size_t>(clients, 1) + 1;
  net_config.trace_sink = request.serving.trace_sink;
  net::NetChannelOptions net_options;
  net_options.fetch_clients = clients;
  net_options.max_rows_per_request = rows;
  // Like the in-process "server" kind, the budget is the SERVER-SIDE
  // countermeasure: the backend's query auditor enforces it and the denial
  // crosses the wire as a typed kResourceExhausted status frame.
  VFL_ASSIGN_OR_RETURN(
      std::unique_ptr<net::NetChannel> channel,
      net::NetChannel::TryMake(scenario, server_config, net_config,
                               ToChannelOptions(std::move(request)),
                               net_options));
  return std::unique_ptr<fed::QueryChannel>(std::move(channel));
}

ChannelRegistry BuildChannelRegistry() {
  ChannelRegistry registry("channel");
  CHECK(registry
            .Register({"offline",
                       "precomputed confidence table (one-shot adversary "
                       "view), replayed with budget/defense semantics",
                       "", MakeOffline})
            .ok());
  CHECK(registry
            .Register({"service",
                       "on-demand queries through a synchronous "
                       "serve::PredictionServer (the server kind with "
                       "--serve-threads=0 --clients=1)",
                       "serving flags: --serve-batch, --cache, "
                       "--query-budget",
                       MakeService})
            .ok());
  CHECK(registry
            .Register({"server",
                       "concurrent serve::PredictionServer traffic "
                       "(batcher, cache, query auditor)",
                       "serving flags: --serve-threads, --serve-batch, "
                       "--cache, --query-budget",
                       MakeServer})
            .ok());
  CHECK(registry
            .Register({"net",
                       "framed TCP wire protocol against a loopback "
                       "net::NetServer (per-trial spin-up; attacks run over "
                       "real sockets)",
                       "port=0 (0 = ephemeral), clients=N (submitter "
                       "connections; default --clients), rows=N (ids per "
                       "request; deeper fetches pipeline)",
                       MakeNet})
            .ok());
  return registry;
}

}  // namespace

const ChannelRegistry& GlobalChannelRegistry() {
  static const ChannelRegistry registry = BuildChannelRegistry();
  return registry;
}

std::string_view ChannelSpecKind(std::string_view spec) {
  return spec.substr(0, spec.find(':'));
}

core::StatusOr<std::unique_ptr<fed::QueryChannel>> MakeChannel(
    const std::string& spec, ChannelRequest&& request) {
  const std::string_view kind = ChannelSpecKind(spec);
  VFL_ASSIGN_OR_RETURN(const ChannelRegistry::Entry* entry,
                       GlobalChannelRegistry().Find(kind));
  if (kind.size() < spec.size()) {
    VFL_ASSIGN_OR_RETURN(
        request.config,
        ConfigMap::Parse(std::string_view(spec).substr(kind.size() + 1)));
  }
  return entry->factory(std::move(request));
}

}  // namespace vfl::exp
