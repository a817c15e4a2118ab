// Pins the four simulated substrates' observable behaviour: what a seeded
// mix of routed ops plus one join, one leave and one fail costs in
// DhtStats and SimNetwork traffic, and what it leaves stored. The
// expected numbers are exact: they move only when a substrate's routing,
// replication or churn handling changes what it costs. Two replica
// properties ride along on every substrate: after remove(k), failing k's
// owner does not bring k back; after an apply rewrite, the fail keeps the
// new value.
#include <gtest/gtest.h>

#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/types.h"
#include "dht/can.h"
#include "dht/chord.h"
#include "dht/kademlia.h"
#include "dht/pastry.h"
#include "net/sim_network.h"

namespace lht {
namespace {

using common::u64;

constexpr size_t kPeers = 32;
constexpr size_t kReplication = 3;

/// Everything the mix is pinned on.
struct Counts {
  u64 lookups = 0, hops = 0, gets = 0, puts = 0, applies = 0, removes = 0;
  u64 valueBytesMoved = 0;
  u64 messages = 0, bytes = 0;
  u64 size = 0;
  bool operator==(const Counts&) const = default;
};

std::ostream& operator<<(std::ostream& os, const Counts& c) {
  return os << "{" << c.lookups << ", " << c.hops << ", " << c.gets << ", "
            << c.puts << ", " << c.applies << ", " << c.removes << ", "
            << c.valueBytesMoved << ", " << c.messages << ", " << c.bytes
            << ", " << c.size << "}";
}

template <typename D>
struct Substrate;

template <>
struct Substrate<dht::ChordDht> {
  static constexpr const char* kName = "Chord";
  static dht::ChordDht make(net::SimNetwork& net) {
    dht::ChordDht::Options o;
    o.initialPeers = kPeers;
    o.replication = kReplication;
    return dht::ChordDht(net, o);
  }
  static std::vector<u64> ids(const dht::ChordDht& d) { return d.nodeIds(); }
  static Counts expected() {
    return {314, 1344, 70, 80, 86, 78, 827, 1682, 10849, 35};
  }
};

template <>
struct Substrate<dht::KademliaDht> {
  static constexpr const char* kName = "Kademlia";
  static dht::KademliaDht make(net::SimNetwork& net) {
    dht::KademliaDht::Options o;
    o.initialPeers = kPeers;
    o.replication = kReplication;
    return dht::KademliaDht(net, o);
  }
  static std::vector<u64> ids(const dht::KademliaDht& d) { return d.nodeIds(); }
  static Counts expected() {
    return {314, 708, 70, 80, 86, 78, 827, 1044, 7987, 35};
  }
};

template <>
struct Substrate<dht::PastryDht> {
  static constexpr const char* kName = "Pastry";
  static dht::PastryDht make(net::SimNetwork& net) {
    dht::PastryDht::Options o;
    o.initialPeers = kPeers;
    o.replication = kReplication;
    return dht::PastryDht(net, o);
  }
  static std::vector<u64> ids(const dht::PastryDht& d) { return d.nodeIds(); }
  static Counts expected() {
    return {314, 744, 70, 80, 86, 78, 827, 1082, 8104, 35};
  }
};

template <>
struct Substrate<dht::CanDht> {
  static constexpr const char* kName = "Can";
  static dht::CanDht make(net::SimNetwork& net) {
    dht::CanDht::Options o;
    o.initialPeers = kPeers;
    o.replication = kReplication;
    return dht::CanDht(net, o);
  }
  static std::vector<u64> ids(const dht::CanDht& d) { return d.peerIds(); }
  static Counts expected() {
    return {314, 1049, 70, 80, 86, 78, 827, 1388, 9552, 35};
  }
};

template <typename D>
class SimSubstrate : public ::testing::Test {};

using Substrates = ::testing::Types<dht::ChordDht, dht::KademliaDht,
                                    dht::PastryDht, dht::CanDht>;

struct SubstrateName {
  template <typename D>
  static std::string GetName(int) {
    return Substrate<D>::kName;
  }
};

TYPED_TEST_SUITE(SimSubstrate, Substrates, SubstrateName);

/// Appends one mark to a present value, erases it once it is long, and
/// creates an absent one.
void growOrErase(std::optional<dht::Value>& v) {
  if (!v.has_value()) {
    v = "a";
  } else if (v->size() >= 6) {
    v.reset();
  } else {
    v->push_back('+');
  }
}

TYPED_TEST(SimSubstrate, CountsStayPinned) {
  using S = Substrate<TypeParam>;
  net::SimNetwork net;
  TypeParam d = S::make(net);
  d.resetStats();
  net.resetStats();

  common::Pcg32 rng(2025);
  for (u64 i = 0; i < 400; ++i) {
    const std::string key = common::numbered("k", rng.below(60));
    switch (rng.below(5)) {
      case 0:
        d.put(key, common::numbered("put-", i));
        break;
      case 1:
        (void)d.get(key);
        break;
      case 2:
        d.apply(key, growOrErase);
        break;
      case 3:
        d.remove(key);
        break;
      default:
        d.storeDirect(key, common::numbered("direct-", i));
        break;
    }
    if (i == 150) d.join("late-peer");
    if (i == 250 || i == 330) {
      const auto ids = S::ids(d);
      const u64 victim = ids[rng.below(static_cast<common::u32>(ids.size()))];
      if (i == 250) {
        d.leave(victim);
      } else {
        d.fail(victim);
      }
    }
  }

  const dht::DhtStats& s = d.stats();
  const Counts got{s.lookups, s.hops,    s.gets,
                   s.puts,    s.applies, s.removes,
                   s.valueBytesMoved,    net.stats().messages,
                   net.stats().bytes,    d.size()};
  EXPECT_EQ(got, S::expected());
}

TYPED_TEST(SimSubstrate, RemovedKeyStaysGoneAfterOwnerFails) {
  net::SimNetwork net;
  TypeParam d = Substrate<TypeParam>::make(net);
  for (int i = 0; i < 8; ++i) d.put(common::numbered("k", i), "v");
  for (int i = 0; i < 8; ++i) {
    EXPECT_TRUE(d.remove(common::numbered("k", i)));
    d.fail(d.ownerOf(common::numbered("k", i)));
    EXPECT_FALSE(d.get(common::numbered("k", i)).has_value()) << i;
  }
  EXPECT_EQ(d.size(), 0u);
}

TYPED_TEST(SimSubstrate, RewrittenKeyKeepsNewValueAfterOwnerFails) {
  net::SimNetwork net;
  TypeParam d = Substrate<TypeParam>::make(net);
  for (int i = 0; i < 8; ++i) d.put(common::numbered("k", i), "v1");
  for (int i = 0; i < 8; ++i) {
    const std::string key = common::numbered("k", i);
    EXPECT_TRUE(d.apply(key, [](std::optional<dht::Value>& v) { *v = "v2"; }));
    d.fail(d.ownerOf(key));
    for (int j = 0; j <= i; ++j) {
      EXPECT_EQ(d.get(common::numbered("k", j)), "v2") << j;
    }
  }
  EXPECT_EQ(d.size(), 8u);
}

}  // namespace
}  // namespace lht
