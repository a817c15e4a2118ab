#include "dht/local_dht.h"

#include <gtest/gtest.h>

namespace lht::dht {
namespace {

TEST(LocalDht, PutGetRemove) {
  LocalDht d;
  EXPECT_FALSE(d.get("k").has_value());
  d.put("k", "v1");
  EXPECT_EQ(d.get("k"), "v1");
  d.put("k", "v2");
  EXPECT_EQ(d.get("k"), "v2");
  EXPECT_TRUE(d.remove("k"));
  EXPECT_FALSE(d.remove("k"));
  EXPECT_FALSE(d.get("k").has_value());
}

TEST(LocalDht, ApplyCreatesMutatesErases) {
  LocalDht d;
  // Create from absent.
  EXPECT_FALSE(d.apply("k", [](std::optional<Value>& v) {
    EXPECT_FALSE(v.has_value());
    v = "fresh";
  }));
  EXPECT_EQ(d.get("k"), "fresh");
  // Mutate existing.
  EXPECT_TRUE(d.apply("k", [](std::optional<Value>& v) { *v += "!"; }));
  EXPECT_EQ(d.get("k"), "fresh!");
  // Erase via reset.
  EXPECT_TRUE(d.apply("k", [](std::optional<Value>& v) { v.reset(); }));
  EXPECT_FALSE(d.get("k").has_value());
  EXPECT_EQ(d.size(), 0u);
}

TEST(LocalDht, EveryRoutedOpCountsOneLookup) {
  LocalDht d;
  d.put("a", "1");
  d.get("a");
  d.get("missing");
  d.apply("a", [](std::optional<Value>& v) { *v = Value("2"); });
  d.remove("a");
  const auto& st = d.stats();
  EXPECT_EQ(st.lookups, 5u);
  EXPECT_EQ(st.puts, 1u);
  EXPECT_EQ(st.gets, 2u);
  EXPECT_EQ(st.applies, 1u);
  EXPECT_EQ(st.removes, 1u);
  EXPECT_EQ(st.hops, 5u);
}

TEST(LocalDht, StoreDirectBypassesAccounting) {
  LocalDht d;
  d.storeDirect("boot", "strap");
  EXPECT_EQ(d.stats().lookups, 0u);
  EXPECT_EQ(d.size(), 1u);
  EXPECT_EQ(d.get("boot"), "strap");
}

TEST(LocalDht, ResetStats) {
  LocalDht d;
  d.put("a", "1");
  d.resetStats();
  EXPECT_EQ(d.stats().lookups, 0u);
  EXPECT_EQ(d.size(), 1u);
}

}  // namespace
}  // namespace lht::dht
