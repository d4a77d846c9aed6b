#include "net/socket.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <cstring>
#include <system_error>

namespace rcm::net {
namespace {

/// Read size: a whole UDP datagram, or one TCP chunk. Reads land in an
/// uninitialized stack array and are copied out at their exact length.
constexpr std::size_t kMaxRead = 65536;

[[noreturn]] void throw_errno(const char* what) {
  throw std::system_error(errno, std::generic_category(), what);
}

sockaddr_in loopback(std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  return addr;
}

std::uint16_t bound_port(int fd) {
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) < 0)
    throw_errno("getsockname");
  return ntohs(addr.sin_port);
}

/// Waits until the fd is readable or the timeout elapses.
bool wait_readable(int fd, std::chrono::milliseconds timeout) {
  pollfd pfd{fd, POLLIN, 0};
  const int rc = ::poll(&pfd, 1, static_cast<int>(timeout.count()));
  if (rc < 0) {
    if (errno == EINTR) return false;
    throw_errno("poll");
  }
  return rc > 0;
}

}  // namespace

FdHandle::~FdHandle() { reset(); }

FdHandle& FdHandle::operator=(FdHandle&& other) noexcept {
  if (this != &other) {
    reset();
    fd_ = other.release();
  }
  return *this;
}

void FdHandle::reset() noexcept {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
}

UdpSocket::UdpSocket(std::uint16_t port) {
  fd_ = FdHandle{::socket(AF_INET, SOCK_DGRAM, 0)};
  if (!fd_.valid()) throw_errno("socket(UDP)");
  // Full-speed trace replay can burst thousands of datagrams before the
  // receiver thread is scheduled; a deep receive buffer keeps loopback
  // delivery effectively lossless so injected loss stays the only loss.
  const int rcvbuf = 4 << 20;
  (void)::setsockopt(fd_.get(), SOL_SOCKET, SO_RCVBUF, &rcvbuf,
                     sizeof(rcvbuf));
  const sockaddr_in addr = loopback(port);
  if (::bind(fd_.get(), reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) < 0)
    throw_errno("bind(UDP)");
  port_ = bound_port(fd_.get());
}

void UdpSocket::send_to(std::uint16_t port,
                        std::span<const std::uint8_t> bytes) {
  const sockaddr_in addr = loopback(port);
  const ssize_t sent =
      ::sendto(fd_.get(), bytes.data(), bytes.size(), 0,
               reinterpret_cast<const sockaddr*>(&addr), sizeof(addr));
  if (sent < 0) throw_errno("sendto");
  if (static_cast<std::size_t>(sent) != bytes.size())
    throw std::system_error(EMSGSIZE, std::generic_category(),
                            "sendto: short datagram write");
}

bool UdpSocket::try_send_to(std::uint16_t port,
                            std::span<const std::uint8_t> bytes) {
  try {
    send_to(port, bytes);
    return true;
  } catch (const std::system_error&) {
    return false;
  }
}

std::optional<std::vector<std::uint8_t>> UdpSocket::receive(
    std::chrono::milliseconds timeout) {
  if (!wait_readable(fd_.get(), timeout)) return std::nullopt;
  std::array<std::uint8_t, kMaxRead> buf;
  const ssize_t n = ::recvfrom(fd_.get(), buf.data(), buf.size(), 0,
                               nullptr, nullptr);
  if (n < 0) {
    if (errno == EAGAIN || errno == EWOULDBLOCK) return std::nullopt;
    throw_errno("recvfrom");
  }
  return std::vector<std::uint8_t>(buf.data(), buf.data() + n);
}

TcpListener::TcpListener() : TcpListener(0) {}

TcpListener::TcpListener(std::uint16_t port) {
  fd_ = FdHandle{::socket(AF_INET, SOCK_STREAM, 0)};
  if (!fd_.valid()) throw_errno("socket(TCP)");
  const int one = 1;
  (void)::setsockopt(fd_.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  const sockaddr_in addr = loopback(port);
  if (::bind(fd_.get(), reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) < 0)
    throw_errno("bind(TCP)");
  if (::listen(fd_.get(), 16) < 0) throw_errno("listen");
  port_ = bound_port(fd_.get());
}

std::optional<TcpStream> TcpListener::accept(
    std::chrono::milliseconds timeout) {
  if (!wait_readable(fd_.get(), timeout)) return std::nullopt;
  FdHandle conn{::accept(fd_.get(), nullptr, nullptr)};
  if (!conn.valid()) {
    if (errno == EAGAIN || errno == EWOULDBLOCK) return std::nullopt;
    throw_errno("accept");
  }
  return TcpStream{std::move(conn)};
}

TcpStream::TcpStream(FdHandle fd) : fd_(std::move(fd)) {
  const int one = 1;
  if (::setsockopt(fd_.get(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one)) <
      0)
    throw_errno("setsockopt(TCP_NODELAY)");
}

TcpStream TcpStream::connect(std::uint16_t port) {
  FdHandle fd{::socket(AF_INET, SOCK_STREAM, 0)};
  if (!fd.valid()) throw_errno("socket(TCP client)");
  const sockaddr_in addr = loopback(port);
  if (::connect(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) < 0)
    throw_errno("connect");
  return TcpStream{std::move(fd)};
}

void TcpStream::write_all(std::span<const std::uint8_t> bytes) {
  std::size_t written = 0;
  while (written < bytes.size()) {
    const ssize_t n = ::send(fd_.get(), bytes.data() + written,
                             bytes.size() - written, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw_errno("send");
    }
    written += static_cast<std::size_t>(n);
  }
}

std::optional<std::vector<std::uint8_t>> TcpStream::read_some(
    std::chrono::milliseconds timeout) {
  if (!wait_readable(fd_.get(), timeout)) return std::nullopt;
  std::array<std::uint8_t, kMaxRead> buf;
  const ssize_t n = ::recv(fd_.get(), buf.data(), buf.size(), 0);
  if (n < 0) {
    if (errno == EAGAIN || errno == EWOULDBLOCK) return std::nullopt;
    throw_errno("recv");
  }
  // empty == orderly EOF
  return std::vector<std::uint8_t>(buf.data(), buf.data() + n);
}

void TcpStream::set_nonblocking(bool enabled) {
  const int flags = ::fcntl(fd_.get(), F_GETFL, 0);
  if (flags < 0) throw_errno("fcntl(F_GETFL)");
  const int wanted = enabled ? (flags | O_NONBLOCK) : (flags & ~O_NONBLOCK);
  if (wanted != flags && ::fcntl(fd_.get(), F_SETFL, wanted) < 0)
    throw_errno("fcntl(F_SETFL)");
}

std::size_t TcpStream::write_some(std::span<const std::uint8_t> bytes) {
  while (true) {
    const ssize_t n =
        ::send(fd_.get(), bytes.data(), bytes.size(), MSG_NOSIGNAL);
    if (n >= 0) return static_cast<std::size_t>(n);
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return 0;
    throw_errno("send");
  }
}

std::optional<std::vector<std::uint8_t>> TcpStream::read_available() {
  std::array<std::uint8_t, kMaxRead> buf;
  while (true) {
    const ssize_t n = ::recv(fd_.get(), buf.data(), buf.size(), MSG_DONTWAIT);
    if (n >= 0)  // empty == orderly EOF
      return std::vector<std::uint8_t>(buf.data(), buf.data() + n);
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return std::nullopt;
    throw_errno("recv");
  }
}

void TcpStream::shutdown_write() {
  if (fd_.valid()) (void)::shutdown(fd_.get(), SHUT_WR);
}

WakePipe::WakePipe() {
  int fds[2];
  if (::pipe2(fds, O_NONBLOCK | O_CLOEXEC) < 0) throw_errno("pipe2");
  read_ = FdHandle{fds[0]};
  write_ = FdHandle{fds[1]};
}

void WakePipe::wake() noexcept {
  const std::uint8_t byte = 1;
  // A full pipe already guarantees the loop will wake; EAGAIN is fine.
  (void)::write(write_.get(), &byte, 1);
}

void WakePipe::drain() noexcept {
  std::uint8_t buf[256];
  while (::read(read_.get(), buf, sizeof(buf)) > 0) {
  }
}

}  // namespace rcm::net
