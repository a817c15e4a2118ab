#include "dht/kademlia.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "net/sim_network.h"

namespace lht::dht {
namespace {

KademliaDht makeKad(net::SimNetwork& net, size_t peers, common::u64 seed = 1) {
  KademliaDht::Options o;
  o.initialPeers = peers;
  o.seed = seed;
  return KademliaDht(net, o);
}

TEST(KademliaDht, BasicPutGet) {
  net::SimNetwork net;
  KademliaDht d = makeKad(net, 16);
  d.put("key1", "value1");
  EXPECT_EQ(d.get("key1"), "value1");
  EXPECT_FALSE(d.get("missing").has_value());
  EXPECT_TRUE(d.remove("key1"));
  EXPECT_FALSE(d.get("key1").has_value());
}

TEST(KademliaDht, GreedyRoutingReachesExactOwner) {
  // The route must terminate at the globally XOR-closest peer for every key
  // (storeDirect places at the exact owner; get must find it).
  net::SimNetwork net;
  KademliaDht d = makeKad(net, 128);
  for (int i = 0; i < 500; ++i) {
    d.storeDirect(common::numbered("k", i), common::numbered("v", i));
  }
  for (int i = 0; i < 500; ++i) {
    EXPECT_EQ(d.get(common::numbered("k", i)), common::numbered("v", i)) << i;
  }
}

TEST(KademliaDht, TablesConsistent) {
  net::SimNetwork net;
  KademliaDht d = makeKad(net, 64);
  for (int i = 0; i < 100; ++i) d.put(common::numbered("k", i), "v");
  EXPECT_TRUE(d.checkTables());
  EXPECT_EQ(d.size(), 100u);
}

TEST(KademliaDht, HopsLogarithmic) {
  net::SimNetwork net;
  KademliaDht d = makeKad(net, 256);
  d.resetStats();
  for (int i = 0; i < 400; ++i) d.put(common::numbered("k", i), "v");
  const double meanHops =
      static_cast<double>(d.stats().hops) / static_cast<double>(d.stats().lookups);
  EXPECT_LT(meanHops, 2.0 * std::log2(256.0));
}

TEST(KademliaDht, JoinAndLeavePreserveData) {
  net::SimNetwork net;
  KademliaDht d = makeKad(net, 8);
  for (int i = 0; i < 150; ++i) d.put(common::numbered("k", i), common::numbered("v", i));
  d.join("newcomer-1");
  d.join("newcomer-2");
  auto ids = d.nodeIds();
  d.leave(ids[2]);
  EXPECT_TRUE(d.checkTables());
  EXPECT_EQ(d.size(), 150u);
  for (int i = 0; i < 150; ++i) {
    EXPECT_EQ(d.get(common::numbered("k", i)), common::numbered("v", i)) << i;
  }
}

TEST(KademliaDht, ApplySemantics) {
  net::SimNetwork net;
  KademliaDht d = makeKad(net, 8);
  EXPECT_FALSE(d.apply("k", [](std::optional<Value>& v) { v = Value("x"); }));
  EXPECT_TRUE(d.apply("k", [](std::optional<Value>& v) { *v += "y"; }));
  EXPECT_EQ(d.get("k"), "xy");
}

}  // namespace
}  // namespace lht::dht
