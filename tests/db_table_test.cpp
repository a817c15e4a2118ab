// Tests for the P2P table layer: multi-column secondary indexes over one
// shared DHT, with SQL-flavoured selections.
#include "db/table.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/random.h"
#include "dht/chord.h"
#include "dht/local_dht.h"
#include "net/sim_network.h"

namespace lht::db {
namespace {

Row makeRow(double price, double rating, const std::string& name) {
  Row r;
  r.values["price"] = price;
  r.values["rating"] = rating;
  r.payload = name;
  return r;
}

Table::Options twoColumnOpts() {
  Table::Options o;
  o.indexedColumns = {"price", "rating"};
  o.index.thetaSplit = 8;
  o.index.maxDepth = 24;
  return o;
}

TEST(Normalizer, MapsDomainToUnit) {
  Normalizer n(10.0, 110.0);
  EXPECT_DOUBLE_EQ(n.toKey(10.0), 0.0);
  EXPECT_DOUBLE_EQ(n.toKey(110.0), 1.0);
  EXPECT_DOUBLE_EQ(n.toKey(60.0), 0.5);
  EXPECT_DOUBLE_EQ(n.fromKey(0.5), 60.0);
  EXPECT_THROW((void)n.toKey(9.0), common::InvariantError);
  EXPECT_THROW(Normalizer(5.0, 5.0), common::InvariantError);
}

TEST(Table, InsertAndSelectOnBothColumns) {
  dht::LocalDht d;
  Table t(d, twoColumnOpts());
  common::Pcg32 rng(1);
  std::vector<Row> rows;
  for (int i = 0; i < 300; ++i) {
    rows.push_back(makeRow(rng.nextDouble(), rng.nextDouble(),
                           "item-" + std::to_string(i)));
    t.insert(rows.back());
  }
  EXPECT_EQ(t.rowCount(), 300u);

  // Range on price: compare against a brute-force filter.
  auto sel = t.selectRange("price", 0.25, 0.5);
  size_t expect = 0;
  for (const auto& r : rows) {
    if (r.values.at("price") >= 0.25 && r.values.at("price") < 0.5) ++expect;
  }
  EXPECT_EQ(sel.rows.size(), expect);
  for (const auto& r : sel.rows) {
    EXPECT_GE(r.values.at("price"), 0.25);
    EXPECT_LT(r.values.at("price"), 0.5);
  }

  // Same data through the rating index.
  auto byRating = t.selectRange("rating", 0.9, 1.0);
  for (const auto& r : byRating.rows) EXPECT_GE(r.values.at("rating"), 0.9);

  // Point select returns the full original row.
  auto eq = t.selectEquals("price", rows[17].values.at("price"));
  ASSERT_FALSE(eq.empty());
  EXPECT_EQ(eq.front(), rows[17]);
}

TEST(Table, MinMaxAreOneLookup) {
  dht::LocalDht d;
  Table t(d, twoColumnOpts());
  common::Pcg32 rng(2);
  double minPrice = 2.0, maxRating = -1.0;
  std::string minName, maxName;
  for (int i = 0; i < 200; ++i) {
    auto row = makeRow(rng.nextDouble(), rng.nextDouble(), common::numbered("r", i));
    if (row.values["price"] < minPrice) {
      minPrice = row.values["price"];
      minName = row.payload;
    }
    if (row.values["rating"] > maxRating) {
      maxRating = row.values["rating"];
      maxName = row.payload;
    }
    t.insert(row);
  }
  auto mn = t.selectMin("price");
  auto mx = t.selectMax("rating");
  ASSERT_TRUE(mn.has_value());
  ASSERT_TRUE(mx.has_value());
  EXPECT_EQ(mn->payload, minName);
  EXPECT_EQ(mx->payload, maxName);
}

TEST(Table, EraseWhereCleansEveryIndex) {
  dht::LocalDht d;
  Table t(d, twoColumnOpts());
  t.insert(makeRow(0.2, 0.9, "keep"));
  t.insert(makeRow(0.5, 0.5, "victim"));
  EXPECT_EQ(t.eraseWhere("price", 0.5), 1u);
  EXPECT_EQ(t.rowCount(), 1u);
  EXPECT_TRUE(t.selectEquals("price", 0.5).empty());
  // The rating index must not still carry the victim.
  EXPECT_TRUE(t.selectEquals("rating", 0.5).empty());
  EXPECT_FALSE(t.selectEquals("rating", 0.9).empty());
  EXPECT_EQ(t.eraseWhere("price", 0.5), 0u);
}

TEST(Table, CountRange) {
  dht::LocalDht d;
  Table t(d, twoColumnOpts());
  for (int i = 0; i < 100; ++i) {
    t.insert(makeRow((i + 0.5) / 100.0, 0.5, common::numbered("r", i)));
  }
  EXPECT_EQ(t.countRange("price", 0.0, 0.5), 50u);
  EXPECT_EQ(t.countRange("price", 0.25, 0.26), 1u);
  EXPECT_EQ(t.countRange("price", 0.0, 1.0), 100u);
}

TEST(Table, IndexesShareOneDhtWithoutCollisions) {
  // Both columns' bucket trees live in the same DHT, disambiguated by key
  // namespace; structural invariants hold for each independently.
  dht::LocalDht d;
  Table t(d, twoColumnOpts());
  common::Pcg32 rng(3);
  for (int i = 0; i < 200; ++i) {
    t.insert(makeRow(rng.nextDouble(), 0.5 + 0.4 * rng.nextDouble(),
                     common::numbered("x", i)));
  }
  EXPECT_GT(t.indexOf("price").meters().maintenance.splits, 0u);
  EXPECT_GT(t.indexOf("rating").meters().maintenance.splits, 0u);
  EXPECT_EQ(t.indexOf("price").recordCount(), 200u);
  EXPECT_EQ(t.indexOf("rating").recordCount(), 200u);
}

TEST(Table, WorksOverChord) {
  net::SimNetwork net;
  dht::ChordDht::Options copts;
  copts.initialPeers = 16;
  dht::ChordDht d(net, copts);
  Table t(d, twoColumnOpts());
  common::Pcg32 rng(4);
  for (int i = 0; i < 150; ++i) {
    t.insert(makeRow(rng.nextDouble(), rng.nextDouble(), common::numbered("c", i)));
  }
  EXPECT_EQ(t.selectRange("price", 0.0, 1.0).rows.size(), 150u);
  EXPECT_TRUE(d.checkRing());
}

TEST(Table, RangeSelectOverChordRunsAsBatchRounds) {
  // Each column's adapter hands batch calls to the substrate as batches,
  // every key prefixed: over Chord a range select's fan-out runs as
  // parallel rounds, and every key Chord stores is a leaf of some column.
  net::SimNetwork net;
  dht::ChordDht::Options copts;
  copts.initialPeers = 16;
  dht::ChordDht d(net, copts);
  Table t(d, twoColumnOpts());
  common::Pcg32 rng(5);
  std::vector<Row> rows;
  for (int i = 0; i < 150; ++i) {
    rows.push_back(
        makeRow(rng.nextDouble(), rng.nextDouble(), common::numbered("c", i)));
    t.insert(rows.back());
  }

  const common::u64 roundsBefore = d.stats().batchRounds.load();
  const auto sel = t.selectRange("price", 0.2, 0.7);
  EXPECT_GT(d.stats().batchRounds.load(), roundsBefore);
  const auto inRange = std::count_if(rows.begin(), rows.end(), [](const Row& r) {
    return r.values.at("price") >= 0.2 && r.values.at("price") < 0.7;
  });
  EXPECT_EQ(sel.rows.size(), static_cast<size_t>(inRange));

  size_t leaves = 0;
  for (const std::string col : {"price", "rating"}) {
    NamespacedDht view(d, col + "/");
    core::LhtIndex::Options o = twoColumnOpts().index;
    o.attachExisting = true;
    core::LhtIndex reader(view, o);
    reader.forEachBucket([&](const core::LeafBucket&) { ++leaves; });
  }
  EXPECT_EQ(leaves, d.size());
}

TEST(Table, RejectsBadUsage) {
  dht::LocalDht d;
  EXPECT_THROW(Table(d, Table::Options{}), common::InvariantError);
  Table t(d, twoColumnOpts());
  EXPECT_THROW(t.selectRange("nope", 0.0, 1.0), common::InvariantError);
  Row incomplete;
  incomplete.values["price"] = 0.5;  // missing "rating"
  EXPECT_THROW(t.insert(incomplete), common::InvariantError);
}

}  // namespace
}  // namespace lht::db
