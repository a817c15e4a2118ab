#include "rpc/rpc_metrics.h"

#include "obs/metrics.h"

namespace lht::rpc {

void exportRpcClientMetrics(const RpcClient::Stats& stats,
                            obs::MetricsRegistry& registry) {
  registry.counter("rpc.client.requests_started").add(stats.requestsStarted);
  registry.counter("rpc.client.retransmits").add(stats.retransmits);
  registry.counter("rpc.client.timeouts").add(stats.timeouts);
  registry.counter("rpc.client.stale_replies").add(stats.staleReplies);
  registry.counter("rpc.client.oversized").add(stats.oversized);
}

void exportNodeServerMetrics(const NodeServer::Stats& stats,
                             obs::MetricsRegistry& registry) {
  registry.counter("rpc.server.requests_handled").add(stats.requestsHandled);
  registry.counter("rpc.server.dedup_hits").add(stats.dedupHits);
  registry.counter("rpc.server.bad_requests").add(stats.badRequests);
  registry.counter("rpc.server.oversized_replies").add(stats.oversizedReplies);
  registry.counter("rpc.server.prefix_replies").add(stats.prefixReplies);
  registry.counter("rpc.server.unchanged_reads").add(stats.unchangedReads);
  registry.counter("rpc.server.cas_conflicts").add(stats.casConflicts);
}

void exportTransportMetrics(const TransportStats& stats,
                            obs::MetricsRegistry& registry) {
  registry.counter("rpc.transport.datagrams_sent").add(stats.datagramsSent);
  registry.counter("rpc.transport.datagrams_received")
      .add(stats.datagramsReceived);
  registry.counter("rpc.transport.bytes_sent").add(stats.bytesSent);
  registry.counter("rpc.transport.bytes_received").add(stats.bytesReceived);
  registry.counter("rpc.transport.send_errors").add(stats.sendErrors);
}

}  // namespace lht::rpc
