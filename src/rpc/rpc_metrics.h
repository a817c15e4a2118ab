// Exporters wiring the RPC layer's raw counters into a MetricsRegistry
// under the dotted naming scheme (DESIGN.md §9): rpc.client.* for
// RpcClient, rpc.server.* for NodeServer, rpc.transport.* for the
// datagram layer. The RPC structs are plain RelaxedCounters (hot-path
// cheap, no registry dependency); these helpers snapshot them into a
// registry at scope end, so bench/test JSON output carries the wire-level
// story (retransmits, dedup absorption, oversized downgrades) next to
// the index metrics.
//
// Each call ADDS the current totals to the registry's series — export a
// given stats object once per registry, at the end of the measurement.
#pragma once

#include "rpc/node_server.h"
#include "rpc/rpc_client.h"
#include "rpc/transport.h"

namespace lht::obs {
class MetricsRegistry;
}

namespace lht::rpc {

/// rpc.client.requests_started / retransmits / timeouts / stale_replies /
/// oversized.
void exportRpcClientMetrics(const RpcClient::Stats& stats,
                            obs::MetricsRegistry& registry);

/// rpc.server.requests_handled / dedup_hits / bad_requests /
/// oversized_replies / prefix_replies / unchanged_reads / cas_conflicts.
void exportNodeServerMetrics(const NodeServer::Stats& stats,
                             obs::MetricsRegistry& registry);

/// rpc.transport.datagrams_sent / datagrams_received / bytes_sent /
/// bytes_received / send_errors.
void exportTransportMetrics(const TransportStats& stats,
                            obs::MetricsRegistry& registry);

}  // namespace lht::rpc
