// Real-socket transport: one non-blocking UDP socket.
//
// send() is a sendto(); receive() drains the socket without blocking and,
// when it found nothing, waits in one poll() on the socket up to the
// caller's timeout, then drains again. A signal ends the wait early (no
// SA_RESTART), which is how lht_noded notices SIGTERM. One UdpTransport is
// one endpoint: a daemon binds a fixed port, a client binds an ephemeral
// one (bindPort 0) and learns it from localAddr(). All RPC reliability
// (retransmit, deadlines, dedup) lives above, in rpc_client/node_server —
// this layer is datagrams in, datagrams out.
#pragma once

#include "rpc/transport.h"

namespace lht::rpc {

class UdpTransport final : public Transport {
 public:
  struct Options {
    u16 bindPort = 0;          ///< 0 = ephemeral
    u32 bindHost = kLoopbackHost;
    /// Kernel buffer request (SO_RCVBUF); bursts of batched replies from
    /// 8+ nodes can exceed the default on some systems.
    int rcvbufBytes = 1 << 20;
  };

  /// Binds the socket; throws std::system_error on failure (port in use).
  explicit UdpTransport(Options options);
  ~UdpTransport() override;

  bool send(const NetAddr& to, std::string_view payload) override;
  size_t receive(std::vector<Datagram>& out, u64 timeoutMs) override;
  u64 nowMs() override;
  [[nodiscard]] NetAddr localAddr() const override { return local_; }

 private:
  /// Drains every datagram currently readable (non-blocking) into `out`.
  size_t drain(std::vector<Datagram>& out);

  int fd_ = -1;
  NetAddr local_;
};

}  // namespace lht::rpc
