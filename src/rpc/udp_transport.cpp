#include "rpc/udp_transport.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <system_error>

namespace lht::rpc {

namespace {

[[noreturn]] void throwErrno(const char* what) {
  throw std::system_error(errno, std::generic_category(), what);
}

sockaddr_in toSockaddr(const NetAddr& a) {
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_addr.s_addr = htonl(a.host);
  sa.sin_port = htons(a.port);
  return sa;
}

NetAddr fromSockaddr(const sockaddr_in& sa) {
  NetAddr a;
  a.host = ntohl(sa.sin_addr.s_addr);
  a.port = ntohs(sa.sin_port);
  return a;
}

}  // namespace

std::string NetAddr::str() const {
  char buf[32];
  const in_addr addr{htonl(host)};
  if (inet_ntop(AF_INET, &addr, buf, sizeof(buf)) == nullptr) buf[0] = '\0';
  return std::string(buf) + ":" + std::to_string(port);
}

UdpTransport::UdpTransport(Options options) {
  fd_ = ::socket(AF_INET, SOCK_DGRAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd_ < 0) throwErrno("UdpTransport: socket");
  if (options.rcvbufBytes > 0) {
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVBUF, &options.rcvbufBytes,
                 sizeof(options.rcvbufBytes));
  }
  sockaddr_in bindAddr = toSockaddr(NetAddr{options.bindHost, options.bindPort});
  if (::bind(fd_, reinterpret_cast<sockaddr*>(&bindAddr), sizeof(bindAddr)) != 0) {
    const int err = errno;
    ::close(fd_);
    fd_ = -1;
    errno = err;
    throwErrno("UdpTransport: bind");
  }
  sockaddr_in actual{};
  socklen_t len = sizeof(actual);
  if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&actual), &len) != 0) {
    const int err = errno;
    ::close(fd_);
    fd_ = -1;
    errno = err;
    throwErrno("UdpTransport: getsockname");
  }
  local_ = fromSockaddr(actual);
}

UdpTransport::~UdpTransport() {
  if (fd_ >= 0) ::close(fd_);
}

bool UdpTransport::send(const NetAddr& to, std::string_view payload) {
  if (payload.size() > kMaxDatagramBytes) {
    stats_.sendErrors += 1;
    return false;
  }
  sockaddr_in sa = toSockaddr(to);
  const ssize_t n =
      ::sendto(fd_, payload.data(), payload.size(), 0,
               reinterpret_cast<sockaddr*>(&sa), sizeof(sa));
  if (n != static_cast<ssize_t>(payload.size())) {
    // ECONNREFUSED / ENOBUFS / EAGAIN: the datagram is gone either way;
    // the RPC layer's retransmit timer owns recovery.
    stats_.sendErrors += 1;
    return false;
  }
  stats_.datagramsSent += 1;
  stats_.bytesSent += payload.size();
  return true;
}

size_t UdpTransport::drain(std::vector<Datagram>& out) {
  size_t appended = 0;
  char buf[65536];
  for (;;) {
    sockaddr_in from{};
    socklen_t fromLen = sizeof(from);
    const ssize_t n = ::recvfrom(fd_, buf, sizeof(buf), 0,
                                 reinterpret_cast<sockaddr*>(&from), &fromLen);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR ||
          errno == ECONNREFUSED) {
        break;  // drained (ECONNREFUSED: a stale ICMP error, not data)
      }
      throwErrno("UdpTransport: recvfrom");
    }
    out.push_back(Datagram{fromSockaddr(from),
                           std::string(buf, static_cast<size_t>(n))});
    stats_.datagramsReceived += 1;
    stats_.bytesReceived += static_cast<u64>(n);
    appended += 1;
  }
  return appended;
}

size_t UdpTransport::receive(std::vector<Datagram>& out, u64 timeoutMs) {
  size_t appended = drain(out);
  if (appended > 0 || timeoutMs == 0) return appended;
  constexpr u64 kMaxWait = 1u << 30;
  pollfd pfd{fd_, POLLIN, 0};
  // A signal ends the wait early (EINTR); the caller re-checks its state.
  if (::poll(&pfd, 1, static_cast<int>(std::min(timeoutMs, kMaxWait))) < 0 &&
      errno != EINTR) {
    throwErrno("UdpTransport: poll");
  }
  return appended + drain(out);
}

u64 UdpTransport::nowMs() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<u64>(ts.tv_sec) * 1000u +
         static_cast<u64>(ts.tv_nsec) / 1'000'000u;
}

}  // namespace lht::rpc
