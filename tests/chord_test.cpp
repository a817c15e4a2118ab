#include "dht/chord.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "net/sim_network.h"

namespace lht::dht {
namespace {

ChordDht makeRing(net::SimNetwork& net, size_t peers, common::u64 seed = 1) {
  ChordDht::Options o;
  o.initialPeers = peers;
  o.seed = seed;
  return ChordDht(net, o);
}

TEST(ChordDht, BasicPutGet) {
  net::SimNetwork net;
  ChordDht d = makeRing(net, 16);
  d.put("key1", "value1");
  EXPECT_EQ(d.get("key1"), "value1");
  EXPECT_FALSE(d.get("missing").has_value());
  EXPECT_TRUE(d.remove("key1"));
  EXPECT_FALSE(d.get("key1").has_value());
}

TEST(ChordDht, RingInvariantsHold) {
  net::SimNetwork net;
  ChordDht d = makeRing(net, 32);
  for (int i = 0; i < 200; ++i) d.put(common::numbered("k", i), "v");
  EXPECT_TRUE(d.checkRing());
  EXPECT_EQ(d.size(), 200u);
}

TEST(ChordDht, ApplySameSemanticsAsLocal) {
  net::SimNetwork net;
  ChordDht d = makeRing(net, 8);
  EXPECT_FALSE(d.apply("k", [](std::optional<Value>& v) { v = Value("a"); }));
  EXPECT_TRUE(d.apply("k", [](std::optional<Value>& v) { *v += "b"; }));
  EXPECT_EQ(d.get("k"), "ab");
  EXPECT_TRUE(d.apply("k", [](std::optional<Value>& v) { v.reset(); }));
  EXPECT_EQ(d.size(), 0u);
}

TEST(ChordDht, LookupHopsAreLogarithmic) {
  net::SimNetwork net;
  ChordDht d = makeRing(net, 256);
  d.resetStats();
  const int n = 500;
  for (int i = 0; i < n; ++i) d.put(common::numbered("k", i), "v");
  const double meanHops =
      static_cast<double>(d.stats().hops) / static_cast<double>(d.stats().lookups);
  // O(log N): for 256 peers expect on the order of log2(256)/2 = 4 hops,
  // certainly far below N.
  EXPECT_LT(meanHops, 2.0 * std::log2(256.0));
  EXPECT_GT(meanHops, 1.0);
}

TEST(ChordDht, JoinMovesOnlyOwedKeys) {
  net::SimNetwork net;
  ChordDht d = makeRing(net, 8);
  for (int i = 0; i < 300; ++i) d.put(common::numbered("k", i), common::numbered("v", i));
  d.join("late-joiner");
  EXPECT_TRUE(d.checkRing());
  EXPECT_EQ(d.size(), 300u);
  for (int i = 0; i < 300; ++i) {
    EXPECT_EQ(d.get(common::numbered("k", i)), common::numbered("v", i)) << i;
  }
}

TEST(ChordDht, LeaveHandsKeysToSuccessor) {
  net::SimNetwork net;
  ChordDht d = makeRing(net, 8);
  for (int i = 0; i < 200; ++i) d.put(common::numbered("k", i), common::numbered("v", i));
  auto ids = d.nodeIds();
  d.leave(ids[3]);
  d.leave(ids[5]);
  EXPECT_TRUE(d.checkRing());
  EXPECT_EQ(d.size(), 200u);
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(d.get(common::numbered("k", i)), common::numbered("v", i)) << i;
  }
}

TEST(ChordDht, ChurnStorm) {
  net::SimNetwork net;
  ChordDht d = makeRing(net, 16);
  for (int i = 0; i < 100; ++i) d.put(common::numbered("k", i), "v");
  common::Pcg32 rng(99);
  for (int round = 0; round < 30; ++round) {
    if (rng.below(2) == 0 || d.nodeIds().size() < 4) {
      d.join("churn-" + std::to_string(round));
    } else {
      auto ids = d.nodeIds();
      d.leave(ids[rng.below(static_cast<common::u32>(ids.size()))]);
    }
    ASSERT_TRUE(d.checkRing()) << "round " << round;
    ASSERT_EQ(d.size(), 100u) << "round " << round;
  }
  for (int i = 0; i < 100; ++i) EXPECT_TRUE(d.get(common::numbered("k", i)).has_value());
}

TEST(ChordDht, OwnerIsDeterministic) {
  net::SimNetwork net;
  ChordDht d = makeRing(net, 32);
  EXPECT_EQ(d.ownerOf("some-key"), d.ownerOf("some-key"));
  d.put("some-key", "v");
  EXPECT_EQ(d.keysOn(d.ownerOf("some-key")), 1u);
}

TEST(ChordDht, SinglePeerRingWorks) {
  net::SimNetwork net;
  ChordDht d = makeRing(net, 1);
  d.put("k", "v");
  EXPECT_EQ(d.get("k"), "v");
  EXPECT_TRUE(d.checkRing());
}

TEST(ChordDht, NetworkTrafficRecorded) {
  net::SimNetwork net;
  ChordDht d = makeRing(net, 64);
  net.resetStats();
  for (int i = 0; i < 50; ++i) d.put(common::numbered("k", i), "payload");
  EXPECT_GT(net.stats().messages, 0u);
  EXPECT_GT(net.stats().bytes, 0u);
}

}  // namespace
}  // namespace lht::dht
