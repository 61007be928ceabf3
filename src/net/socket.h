#ifndef VFLFIA_NET_SOCKET_H_
#define VFLFIA_NET_SOCKET_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/status.h"

namespace vfl::net {

/// RAII TCP stream socket. Move-only; the destructor closes the fd. Sends
/// suppress SIGPIPE, so a peer that vanished surfaces as an IoError Status
/// instead of killing the process.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket();

  Socket(Socket&& other) noexcept;
  Socket& operator=(Socket&& other) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }

  /// Writes all of `data`, looping over partial sends. IoError on failure.
  core::Status SendAll(const void* data, std::size_t size);
  core::Status SendAll(const std::string& bytes) {
    return SendAll(bytes.data(), bytes.size());
  }

  /// Reads exactly `size` bytes. IoError on failure or premature EOF;
  /// kDeadlineExceeded when a SetRecvTimeout deadline expires mid-read.
  core::Status RecvAll(void* data, std::size_t size);

  /// Arms a receive deadline (SO_RCVTIMEO): a recv that stalls longer than
  /// `timeout` fails with kDeadlineExceeded instead of blocking forever.
  /// Zero disarms (blocking reads). The deadline applies per recv(2) call,
  /// so a trickling peer can extend a multi-byte read — callers that need a
  /// hard wall-clock bound keep `timeout` well under it.
  core::Status SetRecvTimeout(std::chrono::milliseconds timeout);

  /// Same for sends (SO_SNDTIMEO): a peer that stops draining its receive
  /// buffer surfaces as kDeadlineExceeded once the send buffer fills.
  core::Status SetSendTimeout(std::chrono::milliseconds timeout);

  /// Reads one complete frame: the u32 length prefix (validated against
  /// `max_frame_bytes` before any allocation), then the payload. Typed
  /// errors: kOutOfRange for an oversized prefix, kInvalidArgument for an
  /// impossibly short one, kIoError for transport failures / EOF.
  core::StatusOr<std::vector<std::uint8_t>> RecvFrame(
      std::size_t max_frame_bytes);

  void Close();

 private:
  int fd_ = -1;
};

/// Listening TCP socket bound to the loopback interface — the serving stack
/// never exposes itself beyond the machine unless a caller builds its own
/// listener.
class Listener {
 public:
  Listener() = default;
  ~Listener();

  Listener(Listener&& other) noexcept;
  Listener& operator=(Listener&& other) noexcept;
  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;

  /// Binds 127.0.0.1:`port` (0 = kernel-assigned ephemeral port) and
  /// listens. The resolved port is available via port().
  static core::StatusOr<Listener> BindLoopback(std::uint16_t port);

  bool valid() const { return fd_ >= 0; }
  std::uint16_t port() const { return port_; }

  /// Blocks for the next connection. Fails with IoError once Shutdown() ran.
  core::StatusOr<Socket> Accept();

  /// Unblocks Accept() (it returns IoError) and stops accepting. Idempotent.
  void Shutdown();

 private:
  int fd_ = -1;
  std::uint16_t port_ = 0;
};

/// Connects to 127.0.0.1:`port`, retrying up to `attempts` times with the
/// given initial backoff doubled per retry — servers may still be binding
/// when the first client dials, and a NetChannel reconnecting after a broken
/// connection uses the same path.
core::StatusOr<Socket> ConnectLoopback(
    std::uint16_t port, std::size_t attempts = 10,
    std::chrono::milliseconds initial_backoff = std::chrono::milliseconds(1));

}  // namespace vfl::net

#endif  // VFLFIA_NET_SOCKET_H_
