#include "net/server.h"

#include <sys/socket.h>

#include <memory>
#include <utility>

#include "core/check.h"
#include "obs/snapshot_io.h"

namespace vfl::net {

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
      ServeConnection(conn_id, *conn);
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

void NetServer::ServeConnection(std::uint64_t conn_id, Socket& conn) {
  (void)conn_id;
  for (;;) {
    // The read stage covers waiting for and draining the request frame; on a
    // keep-alive connection that includes client think time.
    const std::uint64_t read_start_ns = obs::MetricsNowNanos();
    core::StatusOr<std::vector<std::uint8_t>> payload =
        conn.RecvFrame(config_.max_frame_bytes);
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

    if (const auto* hello = std::get_if<HelloRequest>(&*message)) {
      HelloResponse response;
      response.request_id = hello->request_id;
      response.client_id = backend_->RegisterClient(
          hello->client_name.empty() ? "remote" : hello->client_name);
      response.num_samples = backend_->num_samples();
      response.num_classes =
          static_cast<std::uint32_t>(backend_->num_classes());
      obs::TraceSpan span(config_.trace_sink, "hello", hello->request_id,
                          response.client_id);
      span.AddStageNs("read", read_ns);
      span.AddStageNs("decode", decode_ns);
      const std::uint64_t write_start_ns = obs::MetricsNowNanos();
      frames_out_.Add();
      const bool sent = conn.SendAll(EncodeHelloOk(response)).ok();
      span.AddStageNs("write", obs::MetricsNowNanos() - write_start_ns);
      hello_ns_.Record(obs::MetricsNowNanos() - handle_start_ns);
      if (!sent) return;
      continue;
    }

    if (const auto* predict = std::get_if<PredictRequest>(&*message)) {
      obs::TraceSpan span(config_.trace_sink, "predict", predict->request_id,
                          predict->client_id);
      span.AddStageNs("read", read_ns);
      span.AddStageNs("decode", decode_ns);
      std::vector<std::size_t> ids;
      ids.reserve(predict->sample_ids.size());
      for (const std::uint64_t id : predict->sample_ids) {
        ids.push_back(static_cast<std::size_t>(id));
      }
      core::StatusOr<la::Matrix> rows = backend_->PredictBatch(
          predict->client_id, ids, span.active() ? &span : nullptr);
      if (!rows.ok()) {
        // Typed failure (kResourceExhausted on an auditor denial, OutOfRange
        // on a bad id, NotFound for an unknown client id) crosses the wire
        // as a status frame; the connection stays usable.
        requests_failed_.Add();
        span.SetAttr("failed", 1);
        StatusResponse response;
        response.request_id = predict->request_id;
        response.status = rows.status();
        const std::uint64_t write_start_ns = obs::MetricsNowNanos();
        frames_out_.Add();
        const bool sent = conn.SendAll(EncodeStatus(response)).ok();
        span.AddStageNs("write", obs::MetricsNowNanos() - write_start_ns);
        predict_ns_.Record(obs::MetricsNowNanos() - handle_start_ns);
        if (!sent) return;
        continue;
      }
      requests_served_.Add();
      ScoresResponse response;
      response.request_id = predict->request_id;
      response.scores = std::move(*rows);
      // The write stage covers serializing the score matrix plus the socket
      // write — the response path's cost, symmetric to the read stage.
      const std::uint64_t write_start_ns = obs::MetricsNowNanos();
      frames_out_.Add();
      const bool sent = conn.SendAll(EncodeScores(response)).ok();
      span.AddStageNs("write", obs::MetricsNowNanos() - write_start_ns);
      predict_ns_.Record(obs::MetricsNowNanos() - handle_start_ns);
      if (!sent) return;
      continue;
    }

    if (const auto* get_stats = std::get_if<GetStatsRequest>(&*message)) {
      obs::TraceSpan span(config_.trace_sink, "get_stats",
                          get_stats->request_id, /*client_id=*/0);
      span.AddStageNs("read", read_ns);
      span.AddStageNs("decode", decode_ns);
      // The snapshot is taken before this request finishes, so a scrape sees
      // its own frame in net.frames_in but never itself in net.stats_ns or
      // net.frames_out — scrapes do not inflate the activity they measure.
      StatsOkResponse response;
      response.request_id = get_stats->request_id;
      response.payload =
          obs::EncodeSnapshot(obs::RegistryOr(config_.metrics).Snapshot());
      const std::uint64_t write_start_ns = obs::MetricsNowNanos();
      frames_out_.Add();
      const bool sent = conn.SendAll(EncodeStatsOk(response)).ok();
      span.AddStageNs("write", obs::MetricsNowNanos() - write_start_ns);
      stats_ns_.Record(obs::MetricsNowNanos() - handle_start_ns);
      if (!sent) return;
      continue;
    }

    if (const auto* get_ts = std::get_if<GetTimeseriesRequest>(&*message)) {
      obs::TraceSpan span(config_.trace_sink, "get_timeseries",
                          get_ts->request_id, /*client_id=*/0);
      span.AddStageNs("read", read_ns);
      span.AddStageNs("decode", decode_ns);
      if (config_.timeseries == nullptr) {
        // No collector is wired in: a typed reply, not a protocol error —
        // the connection stays usable.
        requests_failed_.Add();
        StatusResponse response;
        response.request_id = get_ts->request_id;
        response.status = core::Status::FailedPrecondition(
            "server has no timeseries collector");
        frames_out_.Add();
        const bool sent = conn.SendAll(EncodeStatus(response)).ok();
        timeseries_ns_.Record(obs::MetricsNowNanos() - handle_start_ns);
        if (!sent) return;
        continue;
      }
      // Like kGetStats: the ring is read before this request's own response
      // is counted, so scrapes never see themselves.
      TimeseriesOkResponse response;
      response.request_id = get_ts->request_id;
      const std::vector<obs::TimeseriesFrame> frames =
          config_.timeseries->Frames(get_ts->max_frames);
      response.frames.reserve(frames.size());
      for (const obs::TimeseriesFrame& frame : frames) {
        response.frames.push_back(obs::EncodeTimeseriesFrame(frame));
      }
      const std::uint64_t write_start_ns = obs::MetricsNowNanos();
      frames_out_.Add();
      const bool sent = conn.SendAll(EncodeTimeseriesOk(response)).ok();
      span.AddStageNs("write", obs::MetricsNowNanos() - write_start_ns);
      timeseries_ns_.Record(obs::MetricsNowNanos() - handle_start_ns);
      if (!sent) return;
      continue;
    }

    // A response type arriving at the server is a protocol violation.
    protocol_errors_.Add();
    StatusResponse rejection;
    rejection.status = core::Status::InvalidArgument(
        "server received a response-only message type");
    frames_out_.Add();
    (void)conn.SendAll(EncodeStatus(rejection));
    return;
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
