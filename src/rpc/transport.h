// Datagram transport seam: the real network and its deterministic twin.
//
// Everything above this interface — the RPC client's request table, the
// node server, RoutedNetDht — is written against Transport, so the same
// code runs over real UDP sockets (UdpTransport) and over the in-process
// SimHub (SimTransport, seeded loss/reorder injection, virtual time).
// That is the twin structure DESIGN.md §14 describes: ctest drives
// the full RPC stack deterministically without opening a socket, while
// lht_noded and the cluster bench run the identical bytes over localhost
// UDP.
//
// The model is unreliable datagrams: send() may silently lose the message
// (the receiver is gone, the queue is full, the simulator dropped it), and
// delivery order is not guaranteed. Reliability lives one layer up, in the
// RPC request table (retransmit + deadline).
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "common/relaxed_counter.h"
#include "common/types.h"

namespace lht::rpc {

using common::u32;
using common::u64;
using u16 = std::uint16_t;

/// A peer address. Over UDP this is an IPv4 host (host byte order) and
/// port; the simulated hub uses host 0 and the endpoint's registered port.
struct NetAddr {
  u32 host = 0;
  u16 port = 0;

  friend bool operator==(const NetAddr&, const NetAddr&) = default;
  [[nodiscard]] std::string str() const;
};

/// 127.0.0.1 in host byte order (the deployment target is a localhost
/// multi-process cluster; remote hosts only need a different constant).
inline constexpr u32 kLoopbackHost = 0x7F000001;

/// One received datagram: payload plus the source address replies go to.
struct Datagram {
  NetAddr from;
  std::string payload;
};

/// Traffic counters every transport keeps (relaxed atomics: exact totals,
/// statistical cross-field snapshots — the DhtStats convention).
struct TransportStats {
  common::RelaxedCounter datagramsSent;
  common::RelaxedCounter datagramsReceived;
  common::RelaxedCounter bytesSent;
  common::RelaxedCounter bytesReceived;
  common::RelaxedCounter sendErrors;  ///< local send failures / drops
};

class Transport {
 public:
  virtual ~Transport() = default;

  /// Sends one datagram. Returns false when the transport knows it was
  /// lost locally (unknown peer, oversized, socket error); true means
  /// handed to the network, NOT that it will arrive.
  virtual bool send(const NetAddr& to, std::string_view payload) = 0;

  /// Waits up to `timeoutMs` (0 = poll) for inbound datagrams and appends
  /// them to `out`. Returns the number appended. A simulated transport
  /// advances its virtual clock by the time "waited".
  virtual size_t receive(std::vector<Datagram>& out, u64 timeoutMs) = 0;

  /// Monotonic milliseconds on this transport's clock: CLOCK_MONOTONIC
  /// for UDP, the endpoint's virtual clock for the simulator. Deadlines
  /// and retransmit timers in the RPC layer are all measured on this.
  virtual u64 nowMs() = 0;

  /// The address peers reach this endpoint at (for UDP: the bound port,
  /// resolved after an ephemeral bind).
  [[nodiscard]] virtual NetAddr localAddr() const = 0;

  [[nodiscard]] const TransportStats& stats() const { return stats_; }

 protected:
  TransportStats stats_;
};

/// Largest payload the RPC layer will put in one datagram. Loopback UDP
/// carries up to ~65.5 KB; staying under 56 KB leaves header room and
/// keeps the simulated twin honest about what a real socket accepts.
inline constexpr size_t kMaxDatagramBytes = 56 * 1024;

/// Batch packing caps, for the client's MultiGet/MultiCas chunks and the
/// daemon's handoff batches alike: keys per datagram, and a soft byte
/// budget per datagram (kMaxDatagramBytes is the hard cap).
inline constexpr size_t kBatchKeysPerDatagram = 32;
inline constexpr size_t kBatchBytesPerDatagram = 48 * 1024;

}  // namespace lht::rpc
