// Hammers every substrate from multiple threads and feeds the recorded
// per-thread histories to the single-key linearizability checker: with the
// striped-lock substrates (DESIGN.md §10) every interleaving must be
// linearizable per key, under both a quiet topology and concurrent churn.
#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "dht/can.h"
#include "dht/chord.h"
#include "dht/kademlia.h"
#include "dht/local_dht.h"
#include "dht/pastry.h"
#include "exec/history.h"
#include "exec/linearizability.h"
#include "net/sim_network.h"

namespace lht {
namespace {

constexpr size_t kThreads = 4;
constexpr size_t kRounds = 12;
const std::vector<std::string> kKeys = {"alpha", "beta",  "gamma",
                                        "delta", "kappa", "omega"};

/// Runs the standard put/get/remove hammer against `dht` and returns the
/// merged history. Each (thread, round) writes a unique value, so the
/// register checker can distinguish every write.
std::vector<exec::OpRecord> hammer(dht::Dht& dht) {
  std::vector<exec::History> histories;
  histories.reserve(kThreads);
  for (size_t t = 0; t < kThreads; ++t) histories.emplace_back(t);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&dht, &histories, t] {
      exec::History& h = histories[t];
      for (size_t r = 0; r < kRounds; ++r) {
        const std::string& key = kKeys[(t + r) % kKeys.size()];
        exec::OpRecord rec;
        rec.dhtKey = key;
        rec.invokeMs = exec::nextTick();
        switch (r % 3) {
          case 0: {
            rec.kind = exec::OpKind::Put;
            rec.value = common::numbered("t", t) + "-r" + std::to_string(r);
            dht.put(key, *rec.value);
            rec.ok = true;
            break;
          }
          case 1: {
            rec.kind = exec::OpKind::Get;
            rec.value = dht.get(key);
            rec.ok = true;
            break;
          }
          default: {
            rec.kind = exec::OpKind::Remove;
            dht.remove(key);
            rec.ok = true;
            break;
          }
        }
        rec.returnMs = exec::nextTick();
        h.append(std::move(rec));
      }
    });
  }
  for (auto& t : threads) t.join();
  return exec::mergeHistories(histories);
}

TEST(ConcurrentSubstrateTest, LocalDhtIsLinearizablePerKey) {
  dht::LocalDht dht;
  const auto merged = hammer(dht);
  const auto r = exec::checkSingleKeyHistories(merged);
  EXPECT_TRUE(r.ok) << r.explanation;
}

TEST(ConcurrentSubstrateTest, ChordIsLinearizablePerKey) {
  net::SimNetwork net;
  dht::ChordDht dht(net, {.initialPeers = 16, .seed = 7, .replication = 3});
  const auto merged = hammer(dht);
  const auto r = exec::checkSingleKeyHistories(merged);
  EXPECT_TRUE(r.ok) << r.explanation;
  EXPECT_TRUE(dht.checkRing());
  EXPECT_TRUE(dht.checkReplication());
}

TEST(ConcurrentSubstrateTest, KademliaIsLinearizablePerKey) {
  net::SimNetwork net;
  dht::KademliaDht dht(net, {.initialPeers = 16, .seed = 7});
  const auto merged = hammer(dht);
  const auto r = exec::checkSingleKeyHistories(merged);
  EXPECT_TRUE(r.ok) << r.explanation;
  EXPECT_TRUE(dht.checkTables());
}

TEST(ConcurrentSubstrateTest, PastryIsLinearizablePerKey) {
  net::SimNetwork net;
  dht::PastryDht dht(net, {.initialPeers = 16, .seed = 7});
  const auto merged = hammer(dht);
  const auto r = exec::checkSingleKeyHistories(merged);
  EXPECT_TRUE(r.ok) << r.explanation;
  EXPECT_TRUE(dht.checkTables());
}

TEST(ConcurrentSubstrateTest, CanIsLinearizablePerKey) {
  net::SimNetwork net;
  dht::CanDht dht(net, {.initialPeers = 16, .seed = 7});
  const auto merged = hammer(dht);
  const auto r = exec::checkSingleKeyHistories(merged);
  EXPECT_TRUE(r.ok) << r.explanation;
  EXPECT_TRUE(dht.checkZones());
}

TEST(ConcurrentSubstrateTest, ChordStaysLinearizableUnderConcurrentChurn) {
  net::SimNetwork net;
  dht::ChordDht dht(net, {.initialPeers = 16, .seed = 11, .replication = 2});
  std::vector<exec::History> histories;
  for (size_t t = 0; t < kThreads; ++t) histories.emplace_back(t);
  std::atomic<bool> stopChurn{false};
  std::thread churn([&] {
    size_t n = 0;
    while (!stopChurn.load(std::memory_order_acquire)) {
      const common::u64 id = dht.join("churn-" + std::to_string(n++));
      dht.leave(id);  // graceful: keys rehome, nothing is lost
    }
  });
  std::vector<std::thread> workers;
  for (size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&dht, &histories, t] {
      exec::History& h = histories[t];
      for (size_t r = 0; r < kRounds; ++r) {
        const std::string& key = kKeys[(t + r) % kKeys.size()];
        exec::OpRecord rec;
        rec.dhtKey = key;
        rec.invokeMs = exec::nextTick();
        if (r % 2 == 0) {
          rec.kind = exec::OpKind::Put;
          rec.value = common::numbered("t", t) + "-r" + std::to_string(r);
          dht.put(key, *rec.value);
        } else {
          rec.kind = exec::OpKind::Get;
          rec.value = dht.get(key);
        }
        rec.ok = true;
        rec.returnMs = exec::nextTick();
        h.append(std::move(rec));
      }
    });
  }
  for (auto& w : workers) w.join();
  stopChurn.store(true, std::memory_order_release);
  churn.join();
  const auto r = exec::checkSingleKeyHistories(exec::mergeHistories(histories));
  EXPECT_TRUE(r.ok) << r.explanation;
  EXPECT_TRUE(dht.checkRing());
  EXPECT_TRUE(dht.checkReplication());
}

TEST(ConcurrentSubstrateTest, CanSurvivesConcurrentChurn) {
  net::SimNetwork net;
  dht::CanDht dht(net, {.initialPeers = 12, .seed = 3});
  std::atomic<bool> stopChurn{false};
  std::thread churn([&] {
    size_t n = 0;
    while (!stopChurn.load(std::memory_order_acquire)) {
      const common::u64 id = dht.join("churn-" + std::to_string(n++));
      dht.leave(id);
    }
  });
  std::vector<std::thread> workers;
  for (size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&dht, t] {
      for (size_t r = 0; r < kRounds; ++r) {
        const std::string key = common::numbered("k", (t + r) % 5);
        dht.put(key, "v");
        (void)dht.get(key);
      }
    });
  }
  for (auto& w : workers) w.join();
  stopChurn.store(true, std::memory_order_release);
  churn.join();
  EXPECT_TRUE(dht.checkZones());
}

}  // namespace
}  // namespace lht
