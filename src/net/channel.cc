#include "net/channel.h"

#include <algorithm>
#include <utility>
#include <variant>

#include "obs/snapshot_io.h"
#include "serve/adversary_client.h"

namespace vfl::net {

namespace {

/// Shared scrape transport: dial with the retry schedule, arm the deadline,
/// send one request frame, read + decode one response frame.
core::StatusOr<Message> ScrapeRoundTrip(std::uint16_t port,
                                        const std::string& request_frame,
                                        const ScrapeOptions& options) {
  VFL_ASSIGN_OR_RETURN(Socket conn, ConnectLoopback(port));
  if (options.timeout.count() > 0) {
    VFL_RETURN_IF_ERROR(conn.SetRecvTimeout(options.timeout));
    VFL_RETURN_IF_ERROR(conn.SetSendTimeout(options.timeout));
  }
  VFL_RETURN_IF_ERROR(conn.SendAll(request_frame));
  VFL_ASSIGN_OR_RETURN(const std::vector<std::uint8_t> payload,
                       conn.RecvFrame(kDefaultMaxFrameBytes));
  return DecodeFrame(payload.data(), payload.size());
}

}  // namespace

core::StatusOr<obs::MetricsSnapshot> ScrapeStats(std::uint16_t port,
                                                 ScrapeOptions options) {
  GetStatsRequest request;
  request.request_id = 1;
  VFL_ASSIGN_OR_RETURN(
      const Message message,
      ScrapeRoundTrip(port, EncodeGetStats(request), options));
  if (const auto* failure = std::get_if<StatusResponse>(&message)) {
    return failure->status;
  }
  const auto* stats = std::get_if<StatsOkResponse>(&message);
  if (stats == nullptr || stats->request_id != request.request_id) {
    return core::Status::Internal("unexpected scrape response frame");
  }
  return obs::DecodeSnapshot(stats->payload);
}

core::StatusOr<std::vector<obs::TimeseriesFrame>> ScrapeTimeseries(
    std::uint16_t port, std::uint32_t max_frames, ScrapeOptions options) {
  GetTimeseriesRequest request;
  request.request_id = 1;
  request.max_frames = max_frames;
  VFL_ASSIGN_OR_RETURN(
      const Message message,
      ScrapeRoundTrip(port, EncodeGetTimeseries(request), options));
  if (const auto* failure = std::get_if<StatusResponse>(&message)) {
    return failure->status;
  }
  const auto* response = std::get_if<TimeseriesOkResponse>(&message);
  if (response == nullptr || response->request_id != request.request_id) {
    return core::Status::Internal("unexpected timeseries response frame");
  }
  std::vector<obs::TimeseriesFrame> frames;
  frames.reserve(response->frames.size());
  for (const std::string& bytes : response->frames) {
    VFL_ASSIGN_OR_RETURN(auto frame, obs::DecodeTimeseriesFrame(bytes));
    frames.push_back(std::move(frame));
  }
  return frames;
}

NetChannel::NetChannel(const fed::VflScenario& scenario,
                       serve::PredictionServerConfig server_config,
                       NetServerConfig net_config, fed::ChannelOptions options,
                       NetChannelOptions net_options)
    : QueryChannel(scenario.split, scenario.x_adv,
                   scenario.model->num_classes(), scenario.model,
                   std::move(options)),
      owned_backend_(serve::MakeScenarioServer(scenario, server_config)),
      owned_server_(std::make_unique<NetServer>(owned_backend_.get(),
                                                net_config)),
      net_options_(net_options),
      flood_(net_options.fetch_clients) {}

core::StatusOr<std::unique_ptr<NetChannel>> NetChannel::TryMake(
    const fed::VflScenario& scenario,
    serve::PredictionServerConfig server_config, NetServerConfig net_config,
    fed::ChannelOptions options, NetChannelOptions net_options) {
  std::unique_ptr<NetChannel> channel(
      new NetChannel(scenario, server_config, net_config, std::move(options),
                     net_options));
  VFL_RETURN_IF_ERROR(channel->StartAndConnect());
  return channel;
}

core::Status NetChannel::StartAndConnect() {
  VFL_RETURN_IF_ERROR(owned_server_->Start());
  port_ = owned_server_->port();
  VFL_ASSIGN_OR_RETURN(Socket conn, AcquireConnection());
  VFL_RETURN_IF_ERROR(Handshake(conn, "adversary"));
  if (static_cast<std::size_t>(wire_num_samples_) != num_samples() ||
      static_cast<std::size_t>(wire_num_classes_) != num_classes()) {
    return core::Status::Internal(
        "server's wire shape does not match the scenario");
  }
  ReleaseConnection(std::move(conn));
  return core::Status::Ok();
}

NetChannel::~NetChannel() {
  {
    std::lock_guard<std::mutex> lock(pool_mu_);
    idle_conns_.clear();
  }
  owned_server_->Stop();
}

core::StatusOr<Socket> NetChannel::AcquireConnection() {
  {
    std::lock_guard<std::mutex> lock(pool_mu_);
    if (!idle_conns_.empty()) {
      Socket conn = std::move(idle_conns_.back());
      idle_conns_.pop_back();
      return conn;
    }
  }
  return ConnectLoopback(port_);
}

void NetChannel::ReleaseConnection(Socket conn) {
  if (!conn.valid()) return;
  std::lock_guard<std::mutex> lock(pool_mu_);
  idle_conns_.push_back(std::move(conn));
}

core::Status NetChannel::Handshake(Socket& conn,
                                   std::string_view client_name) {
  HelloRequest hello;
  hello.request_id = next_request_id_.fetch_add(1, std::memory_order_relaxed);
  hello.client_name = std::string(client_name);
  VFL_RETURN_IF_ERROR(conn.SendAll(EncodeHello(hello)));
  VFL_ASSIGN_OR_RETURN(const std::vector<std::uint8_t> payload,
                       conn.RecvFrame(kDefaultMaxFrameBytes));
  VFL_ASSIGN_OR_RETURN(const Message message,
                       DecodeFrame(payload.data(), payload.size()));
  if (const auto* failure = std::get_if<StatusResponse>(&message)) {
    return failure->status;
  }
  const auto* ok = std::get_if<HelloResponse>(&message);
  if (ok == nullptr || ok->request_id != hello.request_id) {
    return core::Status::Internal("unexpected handshake response frame");
  }
  client_id_ = ok->client_id;
  wire_num_samples_ = ok->num_samples;
  wire_num_classes_ = ok->num_classes;
  return core::Status::Ok();
}

core::Status NetChannel::FetchChunkOn(Socket& conn,
                                      const std::vector<std::size_t>& ids,
                                      la::Matrix& out) {
  const std::size_t stride = std::max<std::size_t>(
      net_options_.max_rows_per_request, 1);

  // Pipeline: send every request frame of the chunk before reading the
  // first response. Responses come back in order on the stream.
  struct Pending {
    std::uint64_t request_id = 0;
    std::size_t begin = 0;
    std::size_t end = 0;
  };
  std::vector<Pending> pending;
  pending.reserve((ids.size() + stride - 1) / stride);
  for (std::size_t begin = 0; begin < ids.size(); begin += stride) {
    const std::size_t end = std::min(begin + stride, ids.size());
    PredictRequest request;
    request.request_id =
        next_request_id_.fetch_add(1, std::memory_order_relaxed);
    request.client_id = client_id_;
    request.sample_ids.assign(ids.begin() + begin, ids.begin() + end);
    VFL_RETURN_IF_ERROR(conn.SendAll(EncodePredict(request)));
    pending.push_back({request.request_id, begin, end});
  }

  for (const Pending& want : pending) {
    VFL_ASSIGN_OR_RETURN(const std::vector<std::uint8_t> payload,
                         conn.RecvFrame(kDefaultMaxFrameBytes));
    VFL_ASSIGN_OR_RETURN(const Message message,
                         DecodeFrame(payload.data(), payload.size()));
    if (const auto* failure = std::get_if<StatusResponse>(&message)) {
      // The typed backend error (kResourceExhausted on an auditor denial,
      // kOutOfRange on a bad id) crossed the wire intact.
      return failure->status;
    }
    const auto* scores = std::get_if<ScoresResponse>(&message);
    if (scores == nullptr || scores->request_id != want.request_id) {
      return core::Status::Internal(
          "out-of-order or unexpected response frame");
    }
    const std::size_t rows = want.end - want.begin;
    if (scores->scores.rows() != rows ||
        scores->scores.cols() != num_classes()) {
      return core::Status::Internal("response shape mismatch");
    }
    for (std::size_t r = 0; r < rows; ++r) {
      out.SetRow(want.begin + r, scores->scores.Row(r));
    }
  }
  return core::Status::Ok();
}

core::StatusOr<la::Matrix> NetChannel::FetchChunk(
    const std::vector<std::size_t>& ids) {
  la::Matrix out(ids.size(), num_classes());
  VFL_ASSIGN_OR_RETURN(Socket conn, AcquireConnection());
  core::Status status = FetchChunkOn(conn, ids, out);
  if (status.code() == core::StatusCode::kIoError) {
    // Broken connection (server restarted, pooled socket went stale):
    // reconnect with backoff and replay the chunk once. Requests are
    // idempotent reads; only requests the server actually admitted consumed
    // budget, exactly like a real client resending after a reset.
    conn.Close();
    VFL_ASSIGN_OR_RETURN(conn, ConnectLoopback(port_));
    status = FetchChunkOn(conn, ids, out);
  }
  if (!status.ok()) return status;
  ReleaseConnection(std::move(conn));
  return out;
}

core::StatusOr<la::Matrix> NetChannel::Fetch(
    const std::vector<std::size_t>& sample_ids) {
  // Each flood chunk travels over its own pooled connection; admission is
  // all-or-nothing per wire request, so chunks race the server-side budget
  // like independent remote clients.
  return flood_.Run(sample_ids, num_classes(),
                    [this](const std::vector<std::size_t>& ids) {
                      return FetchChunk(ids);
                    });
}

}  // namespace vfl::net
