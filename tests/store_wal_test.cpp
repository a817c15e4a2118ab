#include "store/wal.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "store/io_file.h"

namespace lht::store {
namespace {

namespace fs = std::filesystem;

std::string freshDir(const std::string& name) {
  const std::string dir = testing::TempDir() + "lht_wal_" + name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

std::vector<WalRecord> scanAll(const std::string& dir, u64 snapLsn = 0) {
  std::vector<WalRecord> out;
  scanWal(dir, snapLsn, [&](const WalRecord& r) { out.push_back(r); });
  return out;
}

TEST(Wal, AppendScanRoundTrip) {
  const auto dir = freshDir("roundtrip");
  {
    WalWriter w({.dir = dir}, /*segmentSeq=*/1, /*nextLsn=*/1);
    EXPECT_EQ(w.append(WalOp::Put, "a", "1").lsn, 1u);
    EXPECT_EQ(w.append(WalOp::Put, "b", "22").lsn, 2u);
    EXPECT_EQ(w.append(WalOp::Erase, "a", {}).lsn, 3u);
    EXPECT_EQ(w.append(WalOp::Clear, {}, {}).lsn, 4u);
    w.waitDurable(4);
    EXPECT_EQ(w.durableLsn(), 4u);
  }
  const auto recs = scanAll(dir);
  ASSERT_EQ(recs.size(), 4u);
  EXPECT_EQ(recs[0].op, WalOp::Put);
  EXPECT_EQ(recs[0].key, "a");
  EXPECT_EQ(recs[0].value, "1");
  EXPECT_EQ(recs[1].value, "22");
  EXPECT_EQ(recs[2].op, WalOp::Erase);
  EXPECT_EQ(recs[2].key, "a");
  EXPECT_EQ(recs[3].op, WalOp::Clear);
  EXPECT_EQ(recs[3].lsn, 4u);
}

TEST(Wal, SnapLsnSkipsCoveredRecords) {
  const auto dir = freshDir("skip");
  {
    WalWriter w({.dir = dir}, 1, 1);
    for (int i = 0; i < 10; ++i) {
      w.append(WalOp::Put, common::numbered("k", i), "v");
    }
  }
  WalScanResult res;
  std::vector<WalRecord> replayed;
  res = scanWal(dir, /*snapLsn=*/7,
                [&](const WalRecord& r) { replayed.push_back(r); });
  EXPECT_EQ(res.scannedRecords, 10u);
  EXPECT_EQ(res.replayedRecords, 3u);
  ASSERT_EQ(replayed.size(), 3u);
  EXPECT_EQ(replayed.front().lsn, 8u);
  EXPECT_EQ(res.lastLsn, 10u);
}

TEST(Wal, RotatesAcrossSegmentsAndScansInOrder) {
  const auto dir = freshDir("rotate");
  {
    WalWriter w({.dir = dir, .segmentBytes = 128}, 1, 1);
    for (int i = 0; i < 50; ++i) {
      w.append(WalOp::Put, "key-" + std::to_string(i), std::string(16, 'x'));
    }
    EXPECT_GT(w.currentSegmentSeq(), 1u);
  }
  EXPECT_GT(listFiles(dir, "wal-", ".log").size(), 1u);
  const auto recs = scanAll(dir);
  ASSERT_EQ(recs.size(), 50u);
  for (size_t i = 0; i < recs.size(); ++i) {
    EXPECT_EQ(recs[i].lsn, i + 1);
    EXPECT_EQ(recs[i].key, "key-" + std::to_string(i));
  }
}

TEST(Wal, TornTailIsTruncatedNotFatal) {
  const auto dir = freshDir("torn");
  {
    WalWriter w({.dir = dir}, 1, 1);
    w.append(WalOp::Put, "a", "1");
    w.append(WalOp::Put, "b", "2");
  }
  const auto segs = listFiles(dir, "wal-", ".log");
  ASSERT_EQ(segs.size(), 1u);
  const std::string path = dir + "/" + segs[0];
  const u64 before = *fileSize(path);
  {
    // A torn append: a record header promising more payload than exists.
    std::ofstream out(path, std::ios::binary | std::ios::app);
    out.write("\xff\xff\x00\x00garbage", 11);
  }
  const auto res = scanWal(dir, 0, [](const WalRecord&) {});
  EXPECT_EQ(res.scannedRecords, 2u);
  EXPECT_EQ(res.tornBytesTruncated, 11u);
  EXPECT_EQ(*fileSize(path), before);  // tail cut back to the valid prefix
  // A second scan sees a clean log.
  EXPECT_EQ(scanAll(dir).size(), 2u);
}

TEST(Wal, CorruptionInNonLastSegmentIsFatal) {
  const auto dir = freshDir("corrupt");
  {
    WalWriter w({.dir = dir, .segmentBytes = 64}, 1, 1);
    for (int i = 0; i < 20; ++i) {
      w.append(WalOp::Put, "key-" + std::to_string(i), std::string(16, 'x'));
    }
  }
  auto segs = listFiles(dir, "wal-", ".log");
  ASSERT_GT(segs.size(), 1u);
  // Flip a byte in the middle of the FIRST segment's record area.
  const std::string path = dir + "/" + segs.front();
  std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
  f.seekp(static_cast<std::streamoff>(kWalHeaderBytes + 25));
  char c;
  f.seekg(static_cast<std::streamoff>(kWalHeaderBytes + 25));
  f.read(&c, 1);
  c = static_cast<char>(c ^ 0x40);
  f.seekp(static_cast<std::streamoff>(kWalHeaderBytes + 25));
  f.write(&c, 1);
  f.close();
  EXPECT_THROW(scanAll(dir), StoreCorruptionError);
}

TEST(Wal, GapAfterSnapshotIsFatal) {
  const auto dir = freshDir("gap");
  {
    // A segment starting at lsn 100 with nothing covering lsn 1..99.
    WalWriter w({.dir = dir}, 5, 100);
    w.append(WalOp::Put, "k", "v");
  }
  EXPECT_THROW(scanAll(dir, /*snapLsn=*/50), StoreCorruptionError);
  // With a snapshot covering lsn 99 the same log is fine.
  EXPECT_EQ(scanAll(dir, /*snapLsn=*/99).size(), 1u);
}

TEST(Wal, InjectedCrashTearsExactlyOneWrite) {
  const auto dir = freshDir("inject");
  CrashInjector injector;
  injector.disarm();
  u64 events = 0;
  {
    WalWriter w({.dir = dir, .injector = &injector}, 1, 1);
    w.append(WalOp::Put, "a", "aaaa");
    w.append(WalOp::Put, "b", "bbbb");
    w.waitDurable(2);
    events = injector.eventsObserved();
  }
  ASSERT_GT(events, 0u);

  // Crash at every boundary with a torn write; recovery must always yield
  // a prefix of the appends.
  for (u64 at = 0; at < events; ++at) {
    const auto cdir = freshDir("inject_" + std::to_string(at));
    CrashInjector inj;
    inj.arm(at, /*tornFraction=*/0.5);
    bool crashed = false;
    try {
      WalWriter w({.dir = cdir, .injector = &inj}, 1, 1);
      w.append(WalOp::Put, "a", "aaaa");
      w.append(WalOp::Put, "b", "bbbb");
      w.waitDurable(2);
    } catch (const StoreCrashError&) {
      crashed = true;
    }
    EXPECT_TRUE(crashed) << "boundary " << at;
    const auto recs = scanAll(cdir);
    ASSERT_LE(recs.size(), 2u);
    if (!recs.empty()) {
      EXPECT_EQ(recs[0].key, "a");
      EXPECT_EQ(recs[0].value, "aaaa");
    }
    if (recs.size() == 2) {
      EXPECT_EQ(recs[1].key, "b");
    }
  }
}

TEST(Wal, CrashedWriterRefusesFurtherIo) {
  const auto dir = freshDir("dead");
  CrashInjector inj;
  inj.arm(1, -1.0);
  // Write-through (no log buffer), so the append itself hits the boundary.
  WalWriter w({.dir = dir, .bufferBytes = 0, .injector = &inj}, 1, 1);
  EXPECT_THROW(w.append(WalOp::Put, "a", "1"), StoreCrashError);
  EXPECT_TRUE(inj.crashed());
  EXPECT_THROW(w.append(WalOp::Put, "b", "2"), StoreCrashError);
  EXPECT_THROW(w.waitDurable(1), StoreCrashError);
}

}  // namespace
}  // namespace lht::store
