// Shared end-to-end check for the networked Dht clients: a theta=100
// LhtIndex whose buckets are big enough that one node's share of a
// fan-out or snapshot round overflows a reply datagram, so MultiGet
// replies answer prefixes and the client re-sends tails.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "common/random.h"
#include "dht/dht.h"
#include "lht/lht_index.h"

namespace lht::testing_support {

/// Bulk-loads 20k records (two insertBatch halves, so the second half's
/// snapshot round re-reads the leaves the first built) into a theta=100
/// index over `dht`, then checks a [0, 1) sweep and 16 slices against the
/// oracle.
inline void expectBulkLoadAndSweepsMatchOracle(dht::Dht& dht) {
  core::LhtIndex::Options o;
  o.thetaSplit = 100;
  o.useLeafCache = true;
  o.cacheDecodedBuckets = true;
  o.crashConsistentSplits = true;
  core::LhtIndex idx(dht, o);

  // 40-byte payloads: ~3.5 KB buckets, so a 32-key chunk of them is about
  // twice what one datagram carries.
  common::Pcg32 rng(2024);
  std::set<double> used;
  std::vector<index::Record> recs;
  while (recs.size() < 20000) {
    const double k = rng.nextDouble();
    if (k <= 0.0 || k >= 1.0 || !used.insert(k).second) continue;
    std::string payload(32, static_cast<char>('a' + recs.size() % 26));
    payload += std::to_string(recs.size());
    recs.push_back(index::Record{k, std::move(payload)});
  }
  const auto mid = recs.begin() + static_cast<long>(recs.size() / 2);
  ASSERT_TRUE(idx.insertBatch({recs.begin(), mid}).ok);
  ASSERT_TRUE(idx.insertBatch({mid, recs.end()}).ok);
  EXPECT_EQ(idx.recordCount(), recs.size());

  std::sort(recs.begin(), recs.end(), index::recordLess);
  auto expectRange = [&](double lo, double hi) {
    auto got = idx.rangeQuery(lo, hi);
    std::vector<index::Record> want;
    for (const auto& r : recs) {
      if (r.key >= lo && r.key < hi) want.push_back(r);
    }
    ASSERT_EQ(got.records.size(), want.size()) << "[" << lo << "," << hi << ")";
    EXPECT_TRUE(got.records == want) << "[" << lo << "," << hi << ")";
  };
  expectRange(0.0, 1.0);
  for (int s = 0; s < 16; ++s) expectRange(s / 16.0, (s + 1) / 16.0);
}

}  // namespace lht::testing_support
