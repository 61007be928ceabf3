#include "net/socket.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <thread>
#include <utility>

#include "net/wire.h"

namespace vfl::net {

namespace {

core::Status Errno(const char* what) {
  return core::Status::IoError(std::string(what) + ": " +
                               std::strerror(errno));
}

sockaddr_in LoopbackAddr(std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  return addr;
}

core::Status SetSocketTimeout(int fd, int option,
                              std::chrono::milliseconds timeout,
                              const char* what) {
  if (fd < 0) return core::Status::IoError("setsockopt on a closed socket");
  if (timeout.count() < 0) {
    return core::Status::InvalidArgument("negative socket timeout");
  }
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(timeout.count() / 1000);
  tv.tv_usec = static_cast<suseconds_t>((timeout.count() % 1000) * 1000);
  if (::setsockopt(fd, SOL_SOCKET, option, &tv, sizeof(tv)) != 0) {
    return Errno(what);
  }
  return core::Status::Ok();
}

}  // namespace

Socket::~Socket() { Close(); }

Socket::Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

core::Status Socket::SendAll(const void* data, std::size_t size) {
  if (!valid()) return core::Status::IoError("send on a closed socket");
  const char* p = static_cast<const char*>(data);
  while (size > 0) {
    const ssize_t n = ::send(fd_, p, size, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        return core::Status::DeadlineExceeded("send timed out");
      }
      return Errno("send");
    }
    p += n;
    size -= static_cast<std::size_t>(n);
  }
  return core::Status::Ok();
}

core::Status Socket::RecvAll(void* data, std::size_t size) {
  if (!valid()) return core::Status::IoError("recv on a closed socket");
  char* p = static_cast<char*>(data);
  while (size > 0) {
    const ssize_t n = ::recv(fd_, p, size, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        return core::Status::DeadlineExceeded("recv timed out");
      }
      return Errno("recv");
    }
    if (n == 0) {
      return core::Status::IoError("connection closed by peer");
    }
    p += n;
    size -= static_cast<std::size_t>(n);
  }
  return core::Status::Ok();
}

core::StatusOr<std::vector<std::uint8_t>> Socket::RecvFrame(
    std::size_t max_frame_bytes) {
  std::uint8_t prefix[kLengthPrefixBytes];
  VFL_RETURN_IF_ERROR(RecvAll(prefix, sizeof(prefix)));
  std::uint32_t payload_length = 0;
  for (std::size_t i = 0; i < kLengthPrefixBytes; ++i) {
    payload_length |= static_cast<std::uint32_t>(prefix[i]) << (8 * i);
  }
  VFL_RETURN_IF_ERROR(ValidateFrameLength(payload_length, max_frame_bytes));
  std::vector<std::uint8_t> payload(payload_length);
  VFL_RETURN_IF_ERROR(RecvAll(payload.data(), payload.size()));
  return payload;
}

core::Status Socket::SetRecvTimeout(std::chrono::milliseconds timeout) {
  return SetSocketTimeout(fd_, SO_RCVTIMEO, timeout, "setsockopt(SO_RCVTIMEO)");
}

core::Status Socket::SetSendTimeout(std::chrono::milliseconds timeout) {
  return SetSocketTimeout(fd_, SO_SNDTIMEO, timeout, "setsockopt(SO_SNDTIMEO)");
}

void Socket::Close() {
  if (valid()) {
    ::close(fd_);
    fd_ = -1;
  }
}

Listener::~Listener() {
  if (valid()) {
    ::close(fd_);
    fd_ = -1;
  }
}

Listener::Listener(Listener&& other) noexcept
    : fd_(other.fd_), port_(other.port_) {
  other.fd_ = -1;
  other.port_ = 0;
}

Listener& Listener::operator=(Listener&& other) noexcept {
  if (this != &other) {
    if (valid()) ::close(fd_);
    fd_ = other.fd_;
    port_ = other.port_;
    other.fd_ = -1;
    other.port_ = 0;
  }
  return *this;
}

core::StatusOr<Listener> Listener::BindLoopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Errno("socket");
  Listener listener;
  listener.fd_ = fd;

  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr = LoopbackAddr(port);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    return Errno("bind");
  }
  if (::listen(fd, SOMAXCONN) != 0) return Errno("listen");

  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
    return Errno("getsockname");
  }
  listener.port_ = ntohs(bound.sin_port);
  return listener;
}

core::StatusOr<Socket> Listener::Accept() {
  if (!valid()) return core::Status::IoError("accept on a closed listener");
  for (;;) {
    const int fd = ::accept(fd_, nullptr, nullptr);
    if (fd >= 0) {
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      return Socket(fd);
    }
    if (errno == EINTR) continue;
    return Errno("accept");
  }
}

void Listener::Shutdown() {
  // shutdown() on a listening socket makes a blocked accept() return with an
  // error on Linux; the fd itself is released by the destructor so no racing
  // thread can observe a recycled descriptor number.
  if (valid()) ::shutdown(fd_, SHUT_RDWR);
}

core::StatusOr<Socket> ConnectLoopback(std::uint16_t port,
                                       std::size_t attempts,
                                       std::chrono::milliseconds
                                           initial_backoff) {
  if (attempts == 0) attempts = 1;
  std::chrono::milliseconds backoff = initial_backoff;
  core::Status last = core::Status::IoError("connect never attempted");
  for (std::size_t attempt = 0; attempt < attempts; ++attempt) {
    if (attempt > 0) {
      std::this_thread::sleep_for(backoff);
      backoff *= 2;
    }
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
      last = Errno("socket");
      continue;
    }
    sockaddr_in addr = LoopbackAddr(port);
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) == 0) {
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      return Socket(fd);
    }
    last = Errno("connect");
    ::close(fd);
  }
  return core::Status::IoError(
      "cannot connect to 127.0.0.1:" + std::to_string(port) + " after " +
      std::to_string(attempts) + " attempt(s): " + last.message());
}

}  // namespace vfl::net
