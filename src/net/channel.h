#ifndef VFLFIA_NET_CHANNEL_H_
#define VFLFIA_NET_CHANNEL_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string_view>
#include <vector>

#include "fed/query_channel.h"
#include "fed/scenario.h"
#include "net/server.h"
#include "net/socket.h"
#include "net/wire.h"
#include "obs/metrics.h"
#include "obs/timeseries.h"
#include "serve/prediction_server.h"
#include "serve/thread_pool.h"

namespace vfl::net {

/// Knobs shared by the one-shot scrape clients. They dial with
/// ConnectLoopback's default retry schedule and accept frames up to
/// kDefaultMaxFrameBytes.
struct ScrapeOptions {
  /// Per-socket-operation deadline. A server that accepts but never answers
  /// surfaces as kDeadlineExceeded instead of blocking the caller forever;
  /// zero restores fully blocking reads/writes.
  std::chrono::milliseconds timeout{5000};
};

/// Remote metrics scrape: dials a NetServer at loopback `port`, issues one
/// kGetStats frame (no Hello needed), and decodes the returned snapshot.
/// Every failure is a typed Status — connect errors, a timeout
/// (kDeadlineExceeded), a kStatus rejection from the server, or a payload
/// that fails snapshot validation.
core::StatusOr<obs::MetricsSnapshot> ScrapeStats(std::uint16_t port,
                                                 ScrapeOptions options = {});

/// Remote telemetry-history scrape: issues one kGetTimeseries frame and
/// decodes every returned frame through the validating timeseries codec.
/// `max_frames` == 0 fetches the server's whole retained ring; otherwise the
/// newest `max_frames` frames. Frames arrive oldest first.
core::StatusOr<std::vector<obs::TimeseriesFrame>> ScrapeTimeseries(
    std::uint16_t port, std::uint32_t max_frames = 0,
    ScrapeOptions options = {});

/// Client-side tuning knobs.
struct NetChannelOptions {
  /// Concurrent submitters per fetch (serve::FetchFlood, like
  /// ServerChannel's flood) — each pushes a contiguous chunk of the fetch
  /// over its own pooled connection, the long-term accumulation expressed as
  /// concurrent remote clients.
  std::size_t fetch_clients = 1;
  /// Ceiling on sample ids per wire request. A chunk larger than this is
  /// split into several requests *pipelined* on one connection: all frames
  /// are sent before the first response is read, so a deep fetch costs one
  /// round trip, not one per request.
  std::size_t max_rows_per_request = 1024;
};

/// fed::QueryChannel over real sockets: every fetch is framed wire traffic
/// through a NetServer into the backend PredictionServer stack (batcher,
/// auditor, defenses), so all attacks run unmodified against an actual
/// network boundary. Budget denials arrive as kStatus frames and surface as
/// the same typed kResourceExhausted the in-process channels produce.
///
/// Connections are pooled and reused across fetches, and every dial (and
/// re-dial) uses ConnectLoopback's reconnect-with-backoff schedule; a request
/// that hits a broken connection is retried exactly once on a fresh one (safe
/// because requests are idempotent reads and budget admission happens
/// server-side per delivered request). Rows land in request order whatever the
/// completion order, so deterministic configs reveal the identical byte
/// stream as the in-process `server` channel.
class NetChannel : public fed::QueryChannel {
 public:
  /// Owns the whole loopback serving stack — PredictionServer over the
  /// scenario plus a NetServer on `net_config.port` (0 = ephemeral) — and
  /// connects to it. This is the per-trial spin-up path the experiment
  /// runner uses: channel construction starts the server, destruction tears
  /// it down. The scenario must outlive the channel. A bind failure (e.g. a
  /// fixed port already taken) or handshake failure comes back as the
  /// underlying typed Status.
  static core::StatusOr<std::unique_ptr<NetChannel>> TryMake(
      const fed::VflScenario& scenario,
      serve::PredictionServerConfig server_config, NetServerConfig net_config,
      fed::ChannelOptions options = {}, NetChannelOptions net_options = {});

  ~NetChannel() override;

  std::string_view kind() const override { return "net"; }

  /// The server's TCP port.
  std::uint16_t port() const { return port_; }
  /// The wire client id assigned by the Hello handshake.
  std::uint64_t client_id() const { return client_id_; }
  /// The owned backend stack.
  const serve::PredictionServer* backend() const {
    return owned_backend_.get();
  }
  serve::PredictionServer* backend() { return owned_backend_.get(); }
  const NetServer* server() const { return owned_server_.get(); }

 protected:
  core::StatusOr<la::Matrix> Fetch(
      const std::vector<std::size_t>& sample_ids) override;

 private:
  /// Builds the owned stack without starting it; TryMake finishes with
  /// StartAndConnect().
  NetChannel(const fed::VflScenario& scenario,
             serve::PredictionServerConfig server_config,
             NetServerConfig net_config, fed::ChannelOptions options,
             NetChannelOptions net_options);

  /// Starts the owned server, dials it, handshakes, validates the wire
  /// shape against the scenario.
  core::Status StartAndConnect();

  /// Dials, or reuses a pooled idle connection.
  core::StatusOr<Socket> AcquireConnection();
  void ReleaseConnection(Socket conn);

  /// Sends `ids` over `conn` — pipelining max_rows_per_request-sized
  /// requests — and writes the score rows into `out`, one per id.
  core::Status FetchChunkOn(Socket& conn,
                            const std::vector<std::size_t>& ids,
                            la::Matrix& out);

  /// FetchChunkOn with the retry-once-on-fresh-connection policy.
  core::StatusOr<la::Matrix> FetchChunk(const std::vector<std::size_t>& ids);

  /// Performs the Hello handshake on `conn`; fills client_id_/wire shape.
  core::Status Handshake(Socket& conn, std::string_view client_name);

  std::unique_ptr<serve::PredictionServer> owned_backend_;
  std::unique_ptr<NetServer> owned_server_;
  std::uint16_t port_ = 0;
  NetChannelOptions net_options_;
  std::uint64_t client_id_ = 0;
  std::uint64_t wire_num_samples_ = 0;
  std::uint32_t wire_num_classes_ = 0;
  std::atomic<std::uint64_t> next_request_id_{1};

  std::mutex pool_mu_;
  std::vector<Socket> idle_conns_;
  serve::FetchFlood flood_;
};

}  // namespace vfl::net

#endif  // VFLFIA_NET_CHANNEL_H_
