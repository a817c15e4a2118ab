// rpc.* metrics exporters (S-task of the overlay PR): the RPC layer's
// raw RelaxedCounters must land in a MetricsRegistry under the dotted
// naming scheme, so bench/daemon JSON carries the wire-level story next
// to the index metrics.
#include "rpc/rpc_metrics.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "obs/metrics.h"
#include "rpc/sim_transport.h"

namespace lht::rpc {
namespace {

TEST(RpcMetrics, ClientCountersLand) {
  RpcClient::Stats stats;
  stats.requestsStarted += 5;
  stats.retransmits += 4;
  stats.timeouts += 3;
  stats.staleReplies += 2;
  stats.oversized += 1;
  obs::MetricsRegistry reg;
  exportRpcClientMetrics(stats, reg);
  EXPECT_EQ(reg.counterValue("rpc.client.requests_started"), 5u);
  EXPECT_EQ(reg.counterValue("rpc.client.retransmits"), 4u);
  EXPECT_EQ(reg.counterValue("rpc.client.timeouts"), 3u);
  EXPECT_EQ(reg.counterValue("rpc.client.stale_replies"), 2u);
  EXPECT_EQ(reg.counterValue("rpc.client.oversized"), 1u);
}

TEST(RpcMetrics, ServerCountersLand) {
  NodeServer::Stats stats;
  stats.requestsHandled += 7;
  stats.dedupHits += 6;
  stats.badRequests += 5;
  stats.oversizedReplies += 4;
  stats.prefixReplies += 3;
  stats.unchangedReads += 2;
  stats.casConflicts += 1;
  obs::MetricsRegistry reg;
  exportNodeServerMetrics(stats, reg);
  EXPECT_EQ(reg.counterValue("rpc.server.requests_handled"), 7u);
  EXPECT_EQ(reg.counterValue("rpc.server.dedup_hits"), 6u);
  EXPECT_EQ(reg.counterValue("rpc.server.bad_requests"), 5u);
  EXPECT_EQ(reg.counterValue("rpc.server.oversized_replies"), 4u);
  EXPECT_EQ(reg.counterValue("rpc.server.prefix_replies"), 3u);
  EXPECT_EQ(reg.counterValue("rpc.server.unchanged_reads"), 2u);
  EXPECT_EQ(reg.counterValue("rpc.server.cas_conflicts"), 1u);
}

TEST(RpcMetrics, TransportCountersLand) {
  TransportStats stats;
  stats.datagramsSent += 11;
  stats.datagramsReceived += 10;
  stats.bytesSent += 999;
  stats.bytesReceived += 888;
  stats.sendErrors += 1;
  obs::MetricsRegistry reg;
  exportTransportMetrics(stats, reg);
  EXPECT_EQ(reg.counterValue("rpc.transport.datagrams_sent"), 11u);
  EXPECT_EQ(reg.counterValue("rpc.transport.datagrams_received"), 10u);
  EXPECT_EQ(reg.counterValue("rpc.transport.bytes_sent"), 999u);
  EXPECT_EQ(reg.counterValue("rpc.transport.bytes_received"), 888u);
  EXPECT_EQ(reg.counterValue("rpc.transport.send_errors"), 1u);
}

TEST(RpcMetrics, LiveCountersSurviveIntoJson) {
  // End to end: drive one real RPC through the sim, export both sides,
  // and check the values show up in the registry's JSON dump — the form
  // the daemon's shutdown summary and the benches emit.
  SimHub hub;
  NodeServer server;
  hub.registerHandler(9000, [&](const Datagram& d,
                                const std::function<void(std::string)>& reply) {
    std::string out = server.handle(d.from, d.payload);
    if (!out.empty()) reply(std::move(out));
  });
  auto transport = hub.makeEndpoint();
  RpcClient client(*transport);
  auto r = client.callOne(NetAddr{0, 9000}, wire::PutReq{"k", "v"});
  ASSERT_TRUE(r.ok());
  // A duplicate id is manufactured by the transport layer in real life;
  // here a second call suffices to light up requestsHandled further.
  (void)client.callOne(NetAddr{0, 9000}, wire::GetReq{"k"});

  obs::MetricsRegistry reg;
  exportRpcClientMetrics(client.stats(), reg);
  exportNodeServerMetrics(server.stats(), reg);
  EXPECT_EQ(reg.counterValue("rpc.client.requests_started"), 2u);
  EXPECT_EQ(reg.counterValue("rpc.server.requests_handled"), 2u);

  std::ostringstream os;
  reg.writeJson(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"rpc.client.requests_started\": 2"), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"rpc.server.requests_handled\": 2"), std::string::npos)
      << json;
}

}  // namespace
}  // namespace lht::rpc
