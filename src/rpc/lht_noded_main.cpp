// lht_noded: one storage peer of a networked LHT cluster.
//
// Binds a UDP port on localhost and answers the wire protocol
// (rpc/wire.h) until SIGTERM/SIGINT. The store sits inside an
// overlay::OverlayNode — gossip membership, a redirect to the owner for
// every misrouted op, and live join/leave. The node starts from one of:
//
//  * a static launch set (--peers=9301,9302,... — every daemon of a
//    fixed launch seeds the same table, the one a client given the same
//    members starts from; overlay::launchTable);
//  * a running cluster, joined via any live member (--seed-port=9301);
//  * neither: a cluster of one, which others may then join.
//
// SIGUSR1 triggers a graceful leave: stream every key to its new owner,
// announce Left, exit 0.
//
//   lht_noded --port=9101 --name=node-1
//   lht_noded --port=0 --seed-port=9101 --port-file=/tmp/n2
//
// Prints exactly one line when it is ready to serve:
//   lht_noded: ready on 127.0.0.1:<port>
// and, when --port-file is given, writes the bound port (digits only) to
// that file — the race-free handshake run_cluster.sh relies on with
// ephemeral ports. Both are part of the daemon's contract.
//
// Exit codes: 0 clean shutdown (including leave), 1 bind/setup failure,
// 2 flag error (including a malformed port or port list), 3 join failed
// (seed never answered / all refused).

#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "common/flags.h"
#include "overlay/overlay_node.h"
#include "rpc/udp_transport.h"

namespace {

std::atomic<bool> g_stop{false};
std::atomic<bool> g_leave{false};

void onSignal(int) { g_stop.store(true, std::memory_order_relaxed); }
void onLeave(int) { g_leave.store(true, std::memory_order_relaxed); }

}  // namespace

int main(int argc, char** argv) {
  using namespace lht;
  common::Flags flags("lht_noded",
                      "networked LHT storage peer (UDP, localhost): an overlay "
                      "node that gossips membership and redirects misrouted "
                      "ops to their owner");
  flags.define("port", "0", "UDP port to bind (0 = ephemeral)");
  flags.define("name", "node", "peer name reported by ping");
  flags.define("quiet", "false", "suppress the shutdown summary");
  flags.define("port-file", "",
               "write the bound port to this file once ready");
  flags.define("overlay", "true",
               "ignored: every daemon runs the overlay (accepted so older "
               "launch scripts keep working)");
  flags.define("peers", "", "comma-separated ports of the static launch set");
  flags.define("seed-port", "0", "join a live cluster via this member port");
  flags.define("join-deadline-ms", "10000", "join handshake budget");
  flags.define("leave-deadline-ms", "10000", "graceful-leave streaming budget");
  flags.define("virtual-nodes", "32", "ring points per member");
  flags.define("replication", "1", "copies per key (crash repair)");
  flags.define("gossip-interval-ms", "250", "anti-entropy cadence");
  if (!flags.parse(argc, argv)) return 2;
  const auto port = common::parsePort(flags.getString("port"));
  const auto peerPorts = common::parsePortList(flags.getString("peers"));
  const auto seedPort = common::parsePort(flags.getString("seed-port"));
  if (!port || !peerPorts || !seedPort) {
    std::fprintf(stderr,
                 "lht_noded: --port, --seed-port and --peers take decimal "
                 "ports in [0, 65535] (--peers: comma-separated, no empty "
                 "entries)\n");
    return 2;
  }

  // SIGTERM/SIGINT flip the stop flag; the transport's poll() returns
  // with EINTR and the pump loop below notices. No SA_RESTART, by design.
  // SIGUSR1 asks the node to leave gracefully.
  struct sigaction sa{};
  sa.sa_handler = onSignal;
  sigaction(SIGTERM, &sa, nullptr);
  sigaction(SIGINT, &sa, nullptr);
  struct sigaction sl{};
  sl.sa_handler = onLeave;
  sigaction(SIGUSR1, &sl, nullptr);

  rpc::UdpTransport::Options topts;
  topts.bindPort = *port;
  std::unique_ptr<rpc::UdpTransport> transport;
  try {
    transport = std::make_unique<rpc::UdpTransport>(topts);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "lht_noded: %s\n", e.what());
    return 1;
  }

  const std::string name = flags.getString("name");
  const std::string portFile = flags.getString("port-file");
  auto announceReady = [&] {
    if (!portFile.empty()) {
      // Write to a temp name then rename: a reader never sees a partial
      // file, so "file exists" == "port is valid".
      const std::string tmp = portFile + ".tmp";
      if (std::FILE* f = std::fopen(tmp.c_str(), "w")) {
        std::fprintf(f, "%u\n", unsigned{transport->localAddr().port});
        std::fclose(f);
        std::rename(tmp.c_str(), portFile.c_str());
      } else {
        std::fprintf(stderr, "lht_noded: cannot write %s\n", portFile.c_str());
      }
    }
    std::printf("lht_noded: ready on %s\n",
                transport->localAddr().str().c_str());
    std::fflush(stdout);
  };

  overlay::OverlayNode::Options oopts;
  oopts.name = name;
  oopts.server.name = name;
  oopts.virtualNodes = static_cast<size_t>(flags.getInt("virtual-nodes"));
  oopts.replication = static_cast<size_t>(flags.getInt("replication"));
  oopts.gossipIntervalMs =
      static_cast<common::u64>(flags.getInt("gossip-interval-ms"));
  overlay::OverlayNode node(oopts, *transport);

  if (!peerPorts->empty()) {
    std::vector<rpc::NetAddr> members;
    for (const rpc::u16 p : *peerPorts) {
      members.push_back(rpc::NetAddr{rpc::kLoopbackHost, p});
    }
    node.seedMembership(overlay::launchTable(members));
  }

  if (*seedPort != 0) {
    // Announce readiness BEFORE joining: the parent may gate the next
    // daemon's launch on this one's port file, and the join handshake
    // below already serves traffic (pumpOnce-driven).
    announceReady();
    const rpc::NetAddr seed{rpc::kLoopbackHost, *seedPort};
    if (!node.joinCluster(
            seed, static_cast<common::u64>(flags.getInt("join-deadline-ms")))) {
      std::fprintf(stderr, "lht_noded: %s failed to join via %s\n",
                   name.c_str(), seed.str().c_str());
      return 3;
    }
    std::fprintf(stderr, "lht_noded: %s joined (%zu members known)\n",
                 name.c_str(), node.membership().ringMemberCount());
  } else {
    announceReady();
  }

  size_t keysStreamedOut = 0;
  while (!g_stop.load(std::memory_order_relaxed)) {
    node.pumpOnce(200);
    if (g_leave.load(std::memory_order_relaxed)) {
      keysStreamedOut = node.leaveGracefully(
          static_cast<common::u64>(flags.getInt("leave-deadline-ms")));
      break;
    }
  }

  if (!flags.getBool("quiet")) {
    const auto& st = node.overlayStats();
    std::fprintf(
        stderr,
        "lht_noded: %s stopping (handled=%llu redirects=%llu "
        "gossip_rounds=%llu joins_served=%llu handoff_keys=%llu "
        "promoted=%llu left_streamed=%zu primary_keys=%zu)\n",
        name.c_str(),
        static_cast<unsigned long long>(node.server().stats().requestsHandled),
        static_cast<unsigned long long>(st.redirects),
        static_cast<unsigned long long>(st.gossipRounds),
        static_cast<unsigned long long>(st.joinsServed),
        static_cast<unsigned long long>(st.handoffKeysSent),
        static_cast<unsigned long long>(st.replicasPromoted), keysStreamedOut,
        node.server().primaryKeyCount());
  }
  return 0;
}
