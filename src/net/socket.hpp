// Thin RAII wrappers over POSIX loopback sockets.
//
// The alert service (service/alert_service.hpp) runs over real kernel
// sockets on 127.0.0.1: UDP datagrams for the front links (cheap,
// connectionless, multicast-like — the paper's datagram argument) and
// TCP streams to subscribers and the admin tool (connection-oriented,
// lossless — the paper's TCP argument). Loopback-only by design.
//
// All operations throw std::system_error on OS errors; receive paths
// take millisecond timeouts so shutdown flags can be polled.
#pragma once

#include <chrono>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

namespace rcm::net {

/// Owning file descriptor.
class FdHandle {
 public:
  FdHandle() = default;
  explicit FdHandle(int fd) noexcept : fd_(fd) {}
  ~FdHandle();
  FdHandle(FdHandle&& other) noexcept : fd_(other.release()) {}
  FdHandle& operator=(FdHandle&& other) noexcept;
  FdHandle(const FdHandle&) = delete;
  FdHandle& operator=(const FdHandle&) = delete;

  [[nodiscard]] int get() const noexcept { return fd_; }
  [[nodiscard]] bool valid() const noexcept { return fd_ >= 0; }
  int release() noexcept {
    const int fd = fd_;
    fd_ = -1;
    return fd;
  }
  void reset() noexcept;

 private:
  int fd_ = -1;
};

/// UDP socket bound to a loopback port.
class UdpSocket {
 public:
  /// Binds to 127.0.0.1:0 (ephemeral).
  UdpSocket() : UdpSocket(0) {}

  /// Binds to 127.0.0.1:`port` (0 = ephemeral). A restarting service
  /// replica uses this to reclaim the port its producers already know;
  /// throws std::system_error if the port is taken.
  explicit UdpSocket(std::uint16_t port);

  /// The port the kernel assigned.
  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

  /// Sends one datagram to 127.0.0.1:`port`.
  void send_to(std::uint16_t port, std::span<const std::uint8_t> bytes);

  /// send_to for a lossy front link: a failed send is a lost datagram,
  /// reported as false instead of thrown. A closed replica port can
  /// surface as ECONNREFUSED on a later send (the ICMP echo of an earlier
  /// drop); that IS the lossy link, not an error.
  bool try_send_to(std::uint16_t port, std::span<const std::uint8_t> bytes);

  /// Receives one datagram, waiting up to `timeout`; nullopt on timeout.
  [[nodiscard]] std::optional<std::vector<std::uint8_t>> receive(
      std::chrono::milliseconds timeout);

 private:
  FdHandle fd_;
  std::uint16_t port_ = 0;
};

class TcpStream;

/// Listening TCP socket on a loopback port (ephemeral by default).
class TcpListener {
 public:
  TcpListener();

  /// Binds the given fixed port (0 = ephemeral, same as the default
  /// constructor). Throws on bind failure (port already in use).
  explicit TcpListener(std::uint16_t port);

  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

  /// Accepts one connection, waiting up to `timeout`; nullopt on timeout.
  [[nodiscard]] std::optional<TcpStream> accept(
      std::chrono::milliseconds timeout);

 private:
  FdHandle fd_;
  std::uint16_t port_ = 0;
};

/// Connected TCP stream. Nagle's algorithm is off on every stream
/// (TCP_NODELAY, set by connect and accept): each write here is a whole
/// framed message, so holding a small frame back until the previous
/// segment is ACKed only adds latency.
class TcpStream {
 public:
  /// Connects to 127.0.0.1:`port`.
  static TcpStream connect(std::uint16_t port);

  /// Writes the whole buffer (looping over partial writes).
  void write_all(std::span<const std::uint8_t> bytes);

  /// Reads up to 64 KiB, waiting up to `timeout`. Returns nullopt on
  /// timeout and an empty vector on orderly EOF.
  [[nodiscard]] std::optional<std::vector<std::uint8_t>> read_some(
      std::chrono::milliseconds timeout);

  /// Switches the socket in or out of non-blocking mode (for
  /// readiness-driven event loops that poll() the raw fd).
  void set_nonblocking(bool enabled);

  /// Writes as much as the kernel will take without blocking. Returns
  /// the byte count written — 0 when the send buffer is full (EAGAIN,
  /// meaningful only in non-blocking mode). Throws on a broken peer.
  [[nodiscard]] std::size_t write_some(std::span<const std::uint8_t> bytes);

  /// Reads whatever is already buffered without blocking. Returns
  /// nullopt when nothing is available (EAGAIN) and an empty vector on
  /// orderly EOF.
  [[nodiscard]] std::optional<std::vector<std::uint8_t>> read_available();

  /// Half-closes the write side (sends FIN; the peer sees EOF).
  void shutdown_write();

  /// The raw fd, for poll()-style readiness loops. Ownership stays here.
  [[nodiscard]] int native_handle() const noexcept { return fd_.get(); }

 private:
  friend class TcpListener;
  explicit TcpStream(FdHandle fd);
  FdHandle fd_;
};

/// Self-pipe for waking a poll()-based event loop from another thread.
class WakePipe {
 public:
  WakePipe();

  /// Makes the read end readable (idempotent while undrained; safe from
  /// any thread, async-signal-safe write).
  void wake() noexcept;

  /// Consumes all pending wake bytes.
  void drain() noexcept;

  [[nodiscard]] int read_fd() const noexcept { return read_.get(); }

 private:
  FdHandle read_;
  FdHandle write_;
};

}  // namespace rcm::net
