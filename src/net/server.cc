#include "net/server.h"

#include <sys/socket.h>

#include <memory>
#include <optional>
#include <string_view>
#include <utility>

#include "core/check.h"
#include "obs/snapshot_io.h"

namespace vfl::net {

namespace {

/// Encodes a reply the server sends (any response type).
std::string EncodeReply(const Message& reply) {
  if (const auto* hello = std::get_if<HelloResponse>(&reply)) {
    return EncodeHelloOk(*hello);
  }
  if (const auto* scores = std::get_if<ScoresResponse>(&reply)) {
    return EncodeScores(*scores);
  }
  if (const auto* stats = std::get_if<StatsOkResponse>(&reply)) {
    return EncodeStatsOk(*stats);
  }
  if (const auto* frames = std::get_if<TimeseriesOkResponse>(&reply)) {
    return EncodeTimeseriesOk(*frames);
  }
  return EncodeStatus(std::get<StatusResponse>(reply));
}

}  // namespace

NetServer::NetServer(serve::PredictionServer* backend, NetServerConfig config)
    : backend_(backend), config_(config) {
  CHECK(backend_ != nullptr);
  if (config_.connection_threads == 0) config_.connection_threads = 1;

  obs::MetricsRegistry& registry = obs::RegistryOr(config_.metrics);
  registrations_.push_back(registry.RegisterCounter(
      "net.connections_accepted", "connections", &connections_accepted_));
  registrations_.push_back(registry.RegisterCounter(
      "net.requests_served", "requests", &requests_served_));
  registrations_.push_back(registry.RegisterCounter(
      "net.requests_failed", "requests", &requests_failed_));
  registrations_.push_back(registry.RegisterCounter("net.decode_rejects",
                                                    "frames",
                                                    &decode_rejects_));
  registrations_.push_back(registry.RegisterCounter("net.protocol_errors",
                                                    "frames",
                                                    &protocol_errors_));
  registrations_.push_back(
      registry.RegisterCounter("net.frames_in", "frames", &frames_in_));
  registrations_.push_back(
      registry.RegisterCounter("net.frames_out", "frames", &frames_out_));
  registrations_.push_back(
      registry.RegisterHistogram("net.hello_ns", "ns", &hello_ns_));
  registrations_.push_back(
      registry.RegisterHistogram("net.predict_ns", "ns", &predict_ns_));
  registrations_.push_back(
      registry.RegisterHistogram("net.stats_ns", "ns", &stats_ns_));
  registrations_.push_back(
      registry.RegisterHistogram("net.timeseries_ns", "ns", &timeseries_ns_));
}

NetServer::~NetServer() { Stop(); }

core::Status NetServer::Start() {
  if (running_.load(std::memory_order_acquire)) {
    return core::Status::FailedPrecondition("NetServer already started");
  }
  VFL_ASSIGN_OR_RETURN(listener_, Listener::BindLoopback(config_.port));
  port_ = listener_.port();
  handlers_ = std::make_unique<serve::ThreadPool>(config_.connection_threads);
  running_.store(true, std::memory_order_release);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return core::Status::Ok();
}

void NetServer::Stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  listener_.Shutdown();
  if (accept_thread_.joinable()) accept_thread_.join();
  {
    // Sever every live connection so handlers blocked in RecvAll unwind;
    // the fds stay open (owned by their handlers) until those return.
    std::lock_guard<std::mutex> lock(conns_mu_);
    for (const auto& [id, fd] : conns_) ::shutdown(fd, SHUT_RDWR);
  }
  if (handlers_ != nullptr) handlers_->Shutdown();
}

void NetServer::AcceptLoop() {
  while (running_.load(std::memory_order_acquire)) {
    core::StatusOr<Socket> accepted = listener_.Accept();
    if (!accepted.ok()) break;  // listener shut down (or fatal accept error)
    connections_accepted_.Add();

    auto conn = std::make_shared<Socket>(std::move(*accepted));
    std::uint64_t conn_id = 0;
    {
      std::lock_guard<std::mutex> lock(conns_mu_);
      conn_id = next_conn_id_++;
      conns_.emplace(conn_id, conn->fd());
    }
    const bool submitted = handlers_->Submit([this, conn, conn_id] {
      ServeConnection(*conn);
      std::lock_guard<std::mutex> lock(conns_mu_);
      conns_.erase(conn_id);
    });
    if (!submitted) {
      // Pool already draining: we lost the race with Stop().
      std::lock_guard<std::mutex> lock(conns_mu_);
      conns_.erase(conn_id);
      break;
    }
  }
}

void NetServer::ServeConnection(Socket& conn) {
  for (;;) {
    // The read stage covers waiting for and draining the request frame; on a
    // keep-alive connection that includes client think time.
    const std::uint64_t read_start_ns = obs::MetricsNowNanos();
    core::StatusOr<std::vector<std::uint8_t>> payload =
        conn.RecvFrame(kDefaultMaxFrameBytes);
    const std::uint64_t read_ns = obs::MetricsNowNanos() - read_start_ns;
    if (!payload.ok()) {
      // Clean close, peer reset, or an oversized/undersized length prefix.
      // For parseable-prefix violations tell the client why before hanging
      // up; a transport error just ends the session.
      if (payload.status().code() != core::StatusCode::kIoError) {
        decode_rejects_.Add();
        protocol_errors_.Add();
        StatusResponse rejection;
        rejection.status = payload.status();
        frames_out_.Add();
        (void)conn.SendAll(EncodeStatus(rejection));
      }
      return;
    }
    frames_in_.Add();

    const std::uint64_t decode_start_ns = obs::MetricsNowNanos();
    core::StatusOr<Message> message =
        DecodeFrame(payload->data(), payload->size());
    const std::uint64_t decode_ns = obs::MetricsNowNanos() - decode_start_ns;
    if (!message.ok()) {
      // Garbage on the wire: reply with the typed decode error, then drop
      // the connection — framing can no longer be trusted.
      decode_rejects_.Add();
      protocol_errors_.Add();
      StatusResponse rejection;
      rejection.status = message.status();
      frames_out_.Add();
      (void)conn.SendAll(EncodeStatus(rejection));
      return;
    }
    const std::uint64_t handle_start_ns = obs::MetricsNowNanos();

    // Every request kind opens its span here, builds its reply, and leaves
    // the send to the shared tail below.
    std::optional<obs::TraceSpan> span;
    const auto open_span = [&](std::string_view kind, std::uint64_t request_id,
                               std::uint64_t client_id) {
      span.emplace(config_.trace_sink, kind, request_id, client_id);
      span->AddStageNs("read", read_ns);
      span->AddStageNs("decode", decode_ns);
    };
    Message reply;
    obs::LatencyHistogram* latency = nullptr;

    if (const auto* hello = std::get_if<HelloRequest>(&*message)) {
      HelloResponse response;
      response.request_id = hello->request_id;
      response.client_id = backend_->RegisterClient(
          hello->client_name.empty() ? "remote" : hello->client_name);
      response.num_samples = backend_->num_samples();
      response.num_classes =
          static_cast<std::uint32_t>(backend_->num_classes());
      open_span("hello", hello->request_id, response.client_id);
      reply = std::move(response);
      latency = &hello_ns_;
    } else if (const auto* predict = std::get_if<PredictRequest>(&*message)) {
      open_span("predict", predict->request_id, predict->client_id);
      const std::vector<std::size_t> ids(predict->sample_ids.begin(),
                                         predict->sample_ids.end());
      core::StatusOr<la::Matrix> rows = backend_->PredictBatch(
          predict->client_id, ids, span->active() ? &*span : nullptr);
      if (rows.ok()) {
        requests_served_.Add();
        reply = ScoresResponse{predict->request_id, std::move(*rows)};
      } else {
        // Typed failure (kResourceExhausted on an auditor denial, OutOfRange
        // on a bad id, NotFound for an unknown client id) crosses the wire
        // as a status frame; the connection stays usable.
        requests_failed_.Add();
        span->SetAttr("failed", 1);
        reply = StatusResponse{predict->request_id, rows.status()};
      }
      latency = &predict_ns_;
    } else if (const auto* get_stats =
                   std::get_if<GetStatsRequest>(&*message)) {
      open_span("get_stats", get_stats->request_id, /*client_id=*/0);
      // The snapshot is taken before this request finishes, so a scrape sees
      // its own frame in net.frames_in but never itself in net.stats_ns or
      // net.frames_out — scrapes do not inflate the activity they measure.
      reply = StatsOkResponse{
          get_stats->request_id,
          obs::EncodeSnapshot(obs::RegistryOr(config_.metrics).Snapshot())};
      latency = &stats_ns_;
    } else if (const auto* get_ts =
                   std::get_if<GetTimeseriesRequest>(&*message)) {
      open_span("get_timeseries", get_ts->request_id, /*client_id=*/0);
      if (config_.timeseries == nullptr) {
        // No collector is wired in: a typed reply, not a protocol error —
        // the connection stays usable.
        requests_failed_.Add();
        reply = StatusResponse{get_ts->request_id,
                               core::Status::FailedPrecondition(
                                   "server has no timeseries collector")};
      } else {
        // Like kGetStats: the ring is read before this request's own
        // response is counted, so scrapes never see themselves.
        TimeseriesOkResponse response;
        response.request_id = get_ts->request_id;
        for (const obs::TimeseriesFrame& frame :
             config_.timeseries->Frames(get_ts->max_frames)) {
          response.frames.push_back(obs::EncodeTimeseriesFrame(frame));
        }
        reply = std::move(response);
      }
      latency = &timeseries_ns_;
    } else {
      // A response type arriving at the server is a protocol violation.
      protocol_errors_.Add();
      StatusResponse rejection;
      rejection.status = core::Status::InvalidArgument(
          "server received a response-only message type");
      frames_out_.Add();
      (void)conn.SendAll(EncodeStatus(rejection));
      return;
    }

    // The request's latency ends where the write stage starts, and is
    // recorded before the reply goes out: a client that holds the reply can
    // already see the request counted. The write stage covers encoding the
    // reply plus the socket write — the response path's cost, symmetric to
    // the read stage.
    const std::uint64_t write_start_ns = obs::MetricsNowNanos();
    latency->Record(write_start_ns - handle_start_ns);
    frames_out_.Add();
    const bool sent = conn.SendAll(EncodeReply(reply)).ok();
    span->AddStageNs("write", obs::MetricsNowNanos() - write_start_ns);
    if (!sent) return;
  }
}

NetServerStats NetServer::stats() const {
  NetServerStats stats;
  stats.connections_accepted = connections_accepted_.Value();
  stats.requests_served = requests_served_.Value();
  stats.requests_failed = requests_failed_.Value();
  stats.decode_rejects = decode_rejects_.Value();
  stats.protocol_errors = protocol_errors_.Value();
  stats.frames_in = frames_in_.Value();
  stats.frames_out = frames_out_.Value();
  return stats;
}

}  // namespace vfl::net
