// SimCluster: a static cluster of NodeServers answering inline on one
// SimHub, on ports basePort, basePort + 1, ... No threads and no overlay:
// a call is answered inside the send that carries it, and a clean hub
// never retransmits, so per-datagram counts are exact. A client given
// `addrs` as its launch set routes on the ring an `lht_noded --peers`
// launch of the same members would seed (DESIGN.md §15).
#pragma once

#include <memory>
#include <vector>

#include "common/types.h"
#include "rpc/node_server.h"
#include "rpc/sim_transport.h"

namespace lht::rpc {

struct SimCluster {
  SimCluster(size_t n, u16 basePort, SimHub::Options hubOptions = {})
      : hub(hubOptions) {
    for (size_t i = 0; i < n; ++i) {
      NodeServer::Options opts;
      opts.name = common::numbered("n", i);
      servers.push_back(std::make_unique<NodeServer>(opts));
      addrs.push_back(NetAddr{0, static_cast<u16>(basePort + i)});
      hub.registerHandler(
          addrs[i].port,
          [srv = servers[i].get()](const Datagram& d, const auto& reply) {
            std::string out = srv->handle(d.from, d.payload);
            if (!out.empty()) reply(std::move(out));
          });
    }
  }

  SimHub hub;
  std::vector<std::unique_ptr<NodeServer>> servers;
  std::vector<NetAddr> addrs;  ///< servers[i] answers at addrs[i]
};

}  // namespace lht::rpc
