#ifndef VFLFIA_NET_SERVER_H_
#define VFLFIA_NET_SERVER_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/status.h"
#include "net/socket.h"
#include "net/wire.h"
#include "obs/metrics.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "serve/prediction_server.h"
#include "serve/thread_pool.h"

namespace vfl::net {

/// Tuning knobs for the socket front-end.
struct NetServerConfig {
  /// TCP port to listen on (loopback only); 0 = kernel-assigned ephemeral
  /// port, readable via NetServer::port() once Start() returned.
  std::uint16_t port = 0;
  /// Connection-handler threads (a serve::ThreadPool): each live connection
  /// occupies one until it closes, so this bounds concurrent connections —
  /// further accepted connections queue until a handler frees up.
  std::size_t connection_threads = 8;
  /// Registry the server's net.* instruments register with AND the registry
  /// served on kGetStats scrapes; null means the process-global registry.
  obs::MetricsRegistry* metrics = nullptr;
  /// When non-null, every decoded request gets a TraceSpan (stamped with the
  /// wire request_id/client_id, per-stage timings across read → decode →
  /// backend → write) emitted to this sink as one JSONL line. Borrowed; must
  /// outlive the server. Null (the default) disables tracing entirely.
  obs::TraceSink* trace_sink = nullptr;
  /// Telemetry history served on kGetTimeseries scrapes (usually a
  /// TimeseriesCollector's ring). Borrowed; must outlive the server. Null
  /// makes kGetTimeseries answer with kFailedPrecondition.
  const obs::TimeseriesRing* timeseries = nullptr;
};

/// Monotonic wire-level counters.
struct NetServerStats {
  std::uint64_t connections_accepted = 0;
  std::uint64_t requests_served = 0;
  /// Requests answered with a kStatus frame (budget denials, bad ids, ...).
  std::uint64_t requests_failed = 0;
  /// Frames that failed length validation or DecodeFrame.
  std::uint64_t decode_rejects = 0;
  /// All protocol violations: decode rejects plus well-formed frames that
  /// are illegal here (e.g. a response type sent to the server). The
  /// connection is closed after the reply.
  std::uint64_t protocol_errors = 0;
  /// Frames successfully read off sockets (requests).
  std::uint64_t frames_in = 0;
  /// Frames written to sockets (responses, including error replies).
  std::uint64_t frames_out = 0;
};

/// TCP front-end over a serve::PredictionServer: accepts concurrent loopback
/// connections, speaks the net/wire.h framed protocol, and dispatches every
/// kPredict into the backend's batcher + auditor + defense stack — so the
/// query budgets and defenses the in-process channels exercise hold
/// unchanged across a real network boundary, and auditor denials surface to
/// remote clients as typed kResourceExhausted status frames.
///
/// `backend` is borrowed and must outlive the server. Thread model: one
/// accept-loop thread plus a connection-handler pool; handlers block in
/// PredictionServer::PredictBatch, which runs the backend's own worker pool,
/// so wire handling never starves model execution.
class NetServer {
 public:
  explicit NetServer(serve::PredictionServer* backend,
                     NetServerConfig config = {});

  /// Stops accepting, severs live connections, drains the handler pool.
  ~NetServer();

  NetServer(const NetServer&) = delete;
  NetServer& operator=(const NetServer&) = delete;

  /// Binds + listens + spawns the accept loop. Fails with IoError when the
  /// port is taken. Must be called once before any client connects.
  core::Status Start();

  /// Idempotent shutdown: unblocks the accept loop, severs every live
  /// connection (in-flight requests finish with a transport error on the
  /// client), joins the handlers.
  void Stop();

  /// The bound port (the resolved ephemeral port when config.port was 0).
  std::uint16_t port() const { return port_; }
  bool running() const { return running_.load(std::memory_order_acquire); }

  serve::PredictionServer* backend() { return backend_; }
  const serve::PredictionServer* backend() const { return backend_; }

  NetServerStats stats() const;

 private:
  void AcceptLoop();
  /// Serves one connection until it closes or a frame fails to parse.
  void ServeConnection(Socket& conn);

  serve::PredictionServer* backend_;
  NetServerConfig config_;

  Listener listener_;
  std::uint16_t port_ = 0;
  std::atomic<bool> running_{false};
  std::thread accept_thread_;
  std::unique_ptr<serve::ThreadPool> handlers_;

  /// Raw fds of live connections (the handler task owns the Socket); Stop()
  /// shuts them all down so blocked handlers unwind. An fd is only closed by
  /// its owning handler, so a concurrent shutdown() can never hit a recycled
  /// descriptor.
  std::mutex conns_mu_;
  std::unordered_map<std::uint64_t, int> conns_;
  std::uint64_t next_conn_id_ = 1;

  /// net.* instruments; stats() and registry snapshots read the same cells.
  obs::Counter connections_accepted_;
  obs::Counter requests_served_;
  obs::Counter requests_failed_;
  obs::Counter decode_rejects_;
  obs::Counter protocol_errors_;
  obs::Counter frames_in_;
  obs::Counter frames_out_;
  /// Per-message-type handling latency, decode-complete to response written.
  obs::LatencyHistogram hello_ns_;
  obs::LatencyHistogram predict_ns_;
  obs::LatencyHistogram stats_ns_;
  obs::LatencyHistogram timeseries_ns_;
  std::vector<obs::MetricsRegistry::Registration> registrations_;
};

}  // namespace vfl::net

#endif  // VFLFIA_NET_SERVER_H_
