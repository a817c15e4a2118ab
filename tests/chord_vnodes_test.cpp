// Tests for Chord virtual nodes: load-balance improvement and peer-scoped
// membership semantics (all of a peer's ring points join/leave together).
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "dht/chord.h"
#include "net/sim_network.h"

namespace lht::dht {
namespace {

ChordDht makeRing(net::SimNetwork& net, size_t peers, size_t vnodes,
                  size_t replication = 1) {
  ChordDht::Options o;
  o.initialPeers = peers;
  o.virtualNodes = vnodes;
  o.replication = replication;
  o.seed = 7;
  return ChordDht(net, o);
}

/// Largest share of all keys held by a single ring point. Virtual nodes cut
/// every long arc, so this shrinks as vnodes grow.
double maxPeerShare(const ChordDht& d, size_t totalKeys) {
  size_t maxKeys = 0;
  for (auto id : d.nodeIds()) maxKeys = std::max(maxKeys, d.keysOn(id));
  return static_cast<double>(maxKeys) / static_cast<double>(totalKeys);
}

TEST(ChordVirtualNodes, RingHasVnodeTimesPeers) {
  net::SimNetwork net;
  ChordDht d = makeRing(net, 10, 8);
  EXPECT_EQ(d.nodeIds().size(), 80u);
  EXPECT_EQ(d.peerCount(), 10u);
  EXPECT_TRUE(d.checkRing());
}

TEST(ChordVirtualNodes, ImproveKeyBalance) {
  const int keys = 4000;
  net::SimNetwork net1, net2;
  ChordDht flat = makeRing(net1, 16, 1);
  ChordDht smooth = makeRing(net2, 16, 16);
  for (int i = 0; i < keys; ++i) {
    flat.put(common::numbered("k", i), "v");
    smooth.put(common::numbered("k", i), "v");
  }
  // With 16 peers the fair share is 1/16 = 6.25%. A single ring point per
  // peer routinely gives some peer several times that; 16 vnodes per peer
  // divide every arc, so the largest *ring-point* share shrinks sharply.
  EXPECT_LT(maxPeerShare(smooth, keys), maxPeerShare(flat, keys));
  EXPECT_TRUE(smooth.checkRing());
}

TEST(ChordVirtualNodes, LeaveRemovesAllRingPoints) {
  net::SimNetwork net;
  ChordDht d = makeRing(net, 6, 4);
  for (int i = 0; i < 200; ++i) d.put(common::numbered("k", i), common::numbered("v", i));
  auto ids = d.nodeIds();
  d.leave(ids[5]);
  EXPECT_EQ(d.peerCount(), 5u);
  EXPECT_EQ(d.nodeIds().size(), 20u);
  EXPECT_EQ(d.size(), 200u);
  EXPECT_TRUE(d.checkRing());
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(d.get(common::numbered("k", i)), common::numbered("v", i)) << i;
  }
}

TEST(ChordVirtualNodes, ReplicasLandOnDistinctPeers) {
  net::SimNetwork net;
  ChordDht d = makeRing(net, 8, 8, /*replication=*/3);
  for (int i = 0; i < 300; ++i) d.put(common::numbered("k", i), "v");
  ASSERT_TRUE(d.checkReplication());
  // Kill any peer: every key must survive, because its replicas live on
  // other *peers*, not merely other ring points of the same peer.
  auto ids = d.nodeIds();
  d.fail(ids[3]);
  EXPECT_EQ(d.size(), 300u);
  EXPECT_TRUE(d.checkReplication());
}

TEST(ChordVirtualNodes, FailWithVnodesLosesNothingWithReplication) {
  net::SimNetwork net;
  ChordDht d = makeRing(net, 10, 4, /*replication=*/2);
  for (int i = 0; i < 250; ++i) d.put(common::numbered("k", i), common::numbered("v", i));
  common::Pcg32 rng(9);
  for (int round = 0; round < 4; ++round) {
    auto ids = d.nodeIds();
    d.fail(ids[rng.below(static_cast<common::u32>(ids.size()))]);
    d.join("fresh-" + std::to_string(round));
    ASSERT_EQ(d.size(), 250u) << round;
    ASSERT_TRUE(d.checkRing()) << round;
    ASSERT_TRUE(d.checkReplication()) << round;
  }
}

}  // namespace
}  // namespace lht::dht
