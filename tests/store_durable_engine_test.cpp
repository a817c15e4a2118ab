#include "store/durable_engine.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <thread>

#include "dht/local_dht.h"
#include "store/io_file.h"
#include "store/snapshot.h"

namespace lht::store {
namespace {

namespace fs = std::filesystem;

std::string freshDir(const std::string& name) {
  const std::string dir = testing::TempDir() + "lht_durable_" + name;
  fs::remove_all(dir);
  return dir;
}

DurableOptions optionsFor(const std::string& dir) {
  DurableOptions o;
  o.dir = dir;
  return o;
}

TEST(DurableEngine, BehavesLikeMemEngine) {
  const auto dir = freshDir("basic");
  DurableEngine e(optionsFor(dir));
  EXPECT_STREQ(e.name(), "durable");
  EXPECT_FALSE(e.get("k").has_value());
  e.put("k", "v1");
  EXPECT_EQ(e.get("k"), "v1");
  e.put("k", "v2");
  EXPECT_EQ(e.get("k"), "v2");
  EXPECT_FALSE(e.apply("fresh", [](std::optional<Value>& v) { v = "new"; }));
  EXPECT_TRUE(e.apply("fresh", [](std::optional<Value>& v) { *v += "!"; }));
  EXPECT_EQ(e.get("fresh"), "new!");
  EXPECT_TRUE(e.erase("k"));
  EXPECT_FALSE(e.erase("k"));
  EXPECT_EQ(e.size(), 1u);
  e.clear();
  EXPECT_EQ(e.size(), 0u);
}

TEST(DurableEngine, SurvivesRestartFromWalAlone) {
  const auto dir = freshDir("restart_wal");
  {
    DurableEngine e(optionsFor(dir));
    for (int i = 0; i < 100; ++i) {
      e.put("key-" + std::to_string(i), "value-" + std::to_string(i));
    }
    e.erase("key-7");
    e.apply("key-8", [](std::optional<Value>& v) { *v += "-edited"; });
    e.sync();
  }
  DurableEngine e(optionsFor(dir));
  EXPECT_EQ(e.size(), 99u);
  EXPECT_FALSE(e.get("key-7").has_value());
  EXPECT_EQ(e.get("key-8"), "value-8-edited");
  EXPECT_EQ(e.get("key-42"), "value-42");
  EXPECT_EQ(e.recoveryInfo().snapshotLsn, 0u);
  EXPECT_GE(e.recoveryInfo().replayedRecords, 100u);
}

TEST(DurableEngine, CompactionSnapshotsAndTruncatesLog) {
  const auto dir = freshDir("compact");
  {
    DurableEngine e(optionsFor(dir));
    for (int i = 0; i < 50; ++i) e.put(common::numbered("a", i), "1");
    e.compact();
    for (int i = 0; i < 20; ++i) e.put(common::numbered("b", i), "2");
    e.erase("a0");
    e.sync();
    // One snapshot, and only the post-compaction segment.
    EXPECT_EQ(listSnapshots(dir).size(), 1u);
    EXPECT_EQ(listFiles(dir, "wal-", ".log").size(), 1u);
  }
  DurableEngine e(optionsFor(dir));
  EXPECT_EQ(e.size(), 69u);
  EXPECT_FALSE(e.get("a0").has_value());
  EXPECT_EQ(e.get("a49"), "1");
  EXPECT_EQ(e.get("b19"), "2");
  EXPECT_GT(e.recoveryInfo().snapshotLsn, 0u);
  // Only the 21 post-snapshot records replay.
  EXPECT_EQ(e.recoveryInfo().replayedRecords, 21u);
}

TEST(DurableEngine, ClearIsLogged) {
  const auto dir = freshDir("clear");
  {
    DurableEngine e(optionsFor(dir));
    e.put("gone", "x");
    e.clear();
    e.put("kept", "y");
    e.sync();
  }
  DurableEngine e(optionsFor(dir));
  EXPECT_EQ(e.size(), 1u);
  EXPECT_FALSE(e.get("gone").has_value());
  EXPECT_EQ(e.get("kept"), "y");
}

TEST(DurableEngine, TornTailIsDroppedOnRecovery) {
  const auto dir = freshDir("torn");
  {
    DurableEngine e(optionsFor(dir));
    e.put("a", "1");
    e.put("b", "2");
    e.sync();
  }
  const auto segs = listFiles(dir, "wal-", ".log");
  ASSERT_FALSE(segs.empty());
  {
    std::ofstream out(dir + "/" + segs.back(),
                      std::ios::binary | std::ios::app);
    out.write("\x30\x00\x00\x00partial-record", 18);
  }
  DurableEngine e(optionsFor(dir));
  EXPECT_EQ(e.size(), 2u);
  EXPECT_EQ(e.get("a"), "1");
  EXPECT_GT(e.recoveryInfo().tornBytesTruncated, 0u);
}

TEST(DurableEngine, FallsBackToOlderSnapshotWhenNewestIsCorrupt) {
  const auto dir = freshDir("fallback");
  u64 goodLsn = 0;
  {
    DurableEngine e(optionsFor(dir));
    for (int i = 0; i < 30; ++i) e.put(common::numbered("k", i), "v");
    e.compact();
    goodLsn = e.appendedLsn();
    e.put("after", "snapshot");
    e.sync();
  }
  // Plant a "newer" snapshot that is pure garbage — as if a later
  // compaction crashed after publishing a damaged file but before cleanup.
  {
    std::ofstream out(dir + "/" + snapshotName(goodLsn + 1000),
                      std::ios::binary);
    out << "not a snapshot";
  }
  DurableEngine e(optionsFor(dir));
  EXPECT_TRUE(e.recoveryInfo().usedFallbackSnapshot);
  EXPECT_EQ(e.recoveryInfo().snapshotLsn, goodLsn);
  EXPECT_EQ(e.size(), 31u);
  EXPECT_EQ(e.get("after"), "snapshot");
  EXPECT_EQ(e.get("k12"), "v");
}

TEST(DurableEngine, SyncEachCommitAdvancesDurableLsnPerOp) {
  const auto dir = freshDir("synceach");
  DurableOptions o = optionsFor(dir);
  o.syncEachCommit = true;
  DurableEngine e(o);
  e.put("a", "1");
  EXPECT_EQ(e.durableLsn(), e.appendedLsn());
  e.put("b", "2");
  EXPECT_EQ(e.durableLsn(), e.appendedLsn());
}

TEST(DurableEngine, GroupCommitUnderConcurrentWriters) {
  const auto dir = freshDir("group");
  DurableOptions o = optionsFor(dir);
  o.syncEachCommit = true;
  DurableEngine e(o);
  constexpr int kThreads = 8;
  constexpr int kOps = 50;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kOps; ++i) {
        e.put(common::numbered("t", t) + "-" + std::to_string(i), "v");
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(e.size(), static_cast<size_t>(kThreads * kOps));
  EXPECT_EQ(e.durableLsn(), e.appendedLsn());
}

// The ISSUE's "records exceeding RAM" path: with a tiny spill threshold
// every value lives on disk (WAL segment, then snapshot) and is served
// through the mmap reader; the inline table only holds slot refs.
TEST(DurableEngine, SpilledValuesAreServedViaMmapAcrossCompactionAndRestart) {
  const auto dir = freshDir("spill");
  DurableOptions o = optionsFor(dir);
  o.spillValueBytes = 64;
  constexpr int kRecords = 300;  // far above any snapshot/spill threshold
  auto bigValue = [](int i) {
    return "payload-" + std::to_string(i) + "-" +
           std::string(100 + (i % 7), static_cast<char>('a' + i % 26));
  };
  {
    DurableEngine e(o);
    for (int i = 0; i < kRecords; ++i) {
      e.put("big-" + std::to_string(i), bigValue(i));
    }
    e.put("small", "tiny");  // below the threshold: stays inline
    EXPECT_EQ(e.spilledCount(), static_cast<size_t>(kRecords));
    // Served back from the WAL segments through the mmap reader.
    for (int i = 0; i < kRecords; i += 37) {
      EXPECT_EQ(e.get("big-" + std::to_string(i)), bigValue(i));
    }
    // Compaction re-homes every spilled value into the snapshot file.
    e.compact();
    EXPECT_EQ(e.spilledCount(), static_cast<size_t>(kRecords));
    for (int i = 0; i < kRecords; i += 23) {
      EXPECT_EQ(e.get("big-" + std::to_string(i)), bigValue(i));
    }
    // apply() must materialize the spilled value for its mutator.
    e.apply("big-0", [&](std::optional<Value>& v) {
      ASSERT_TRUE(v.has_value());
      EXPECT_EQ(*v, bigValue(0));
      *v += "-mutated";
    });
  }
  DurableEngine e(o);
  EXPECT_EQ(e.size(), static_cast<size_t>(kRecords) + 1);
  EXPECT_EQ(e.spilledCount(), static_cast<size_t>(kRecords));
  EXPECT_EQ(e.get("big-0"), bigValue(0) + "-mutated");
  EXPECT_EQ(e.get("small"), "tiny");
  for (int i = 1; i < kRecords; i += 41) {
    EXPECT_EQ(e.get("big-" + std::to_string(i)), bigValue(i));
  }
  // forEach materializes spilled values too (consistent cut).
  size_t seen = 0;
  e.forEach([&](const Key&, const Value& v) {
    seen += 1;
    EXPECT_FALSE(v.empty());
  });
  EXPECT_EQ(seen, static_cast<size_t>(kRecords) + 1);
}

TEST(LocalDhtDurable, EnginePlugsIntoSubstrateAndSurvivesRestart) {
  const auto dir = freshDir("localdht");
  {
    dht::LocalDht d(makeDurableEngine(optionsFor(dir)));
    d.put("name(x)", "bucket-bytes");
    d.apply("name(x)", [](std::optional<dht::Value>& v) { *v += "!"; });
    d.storeDirect("root", "seed");
    d.syncStorage();     // Dht-level durability barrier
    d.compactStorage();  // Dht-level snapshot + truncate
    EXPECT_EQ(d.size(), 2u);
  }
  dht::LocalDht d(makeDurableEngine(optionsFor(dir)));
  EXPECT_EQ(d.size(), 2u);
  EXPECT_EQ(d.get("name(x)"), "bucket-bytes!");
  EXPECT_EQ(d.get("root"), "seed");
}

}  // namespace
}  // namespace lht::store
