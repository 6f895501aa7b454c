// Tests for checkpoint + WAL orchestration: recovery equals the offline
// oracle, every crash window of the checkpoint protocol is absorbed, and
// impossible on-disk states fail with Corruption instead of guessing.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "core/segmented_bbs.h"
#include "service/durability.h"
#include "service/snapshot.h"
#include "service/wal.h"
#include "storage/transaction_db.h"
#include "util/status.h"

namespace bbsmine::service {
namespace {

BbsConfig SmallConfig() {
  BbsConfig config;
  config.num_bits = 256;
  config.num_hashes = 3;
  return config;
}

constexpr uint64_t kCapacity = 4;

/// A fresh empty durable directory under the system temp dir.
std::string TempDir(const std::string& name) {
  std::string dir = (std::filesystem::temp_directory_path() /
                     (std::to_string(::getpid()) + "_" + name))
                        .string();
  std::filesystem::remove_all(dir);
  return dir;
}

SegmentedBbs EmptyIndex() {
  return SegmentedBbs::Create(SmallConfig(), kCapacity).value();
}

std::vector<std::vector<Itemset>> SampleBatches() {
  return {
      {{1, 2, 3}},
      {{2, 3}, {4, 5}},
      {{1}, {2}, {3, 4, 5, 6}},
      {{7, 8}},
  };
}

/// The offline oracle: a SegmentedBbs built directly from the batches.
SegmentedBbs Oracle(const std::vector<std::vector<Itemset>>& batches) {
  SegmentedBbs index = EmptyIndex();
  for (const auto& batch : batches) {
    for (const Itemset& items : batch) {
      EXPECT_TRUE(index.Insert(items).ok());
    }
  }
  return index;
}

/// Recovered counts must be bit-identical to the oracle's for every probe.
void ExpectCountParity(const SegmentedBbs& recovered,
                       const SegmentedBbs& oracle) {
  ASSERT_EQ(recovered.num_transactions(), oracle.num_transactions());
  for (ItemId a = 0; a < 10; ++a) {
    Itemset one = {a};
    EXPECT_EQ(recovered.CountItemSet(one), oracle.CountItemSet(one))
        << "item " << a;
    Itemset two = {a, static_cast<ItemId>((a + 2) % 10)};
    Canonicalize(&two);
    EXPECT_EQ(recovered.CountItemSet(two), oracle.CountItemSet(two));
  }
}

TEST(DurabilityTest, FirstStartCreatesWalAndRecoversFromReplayAlone) {
  std::string dir = TempDir("dur_first");
  auto batches = SampleBatches();
  {
    auto mgr = DurabilityManager::Open(DurabilityOptions{dir, WalOptions(), 0},
                                       EmptyIndex(), nullptr);
    ASSERT_TRUE(mgr.ok());
    EXPECT_FALSE((*mgr)->recovery().checkpoint_loaded);
    SegmentedBbs live = (*mgr)->TakeRecoveredIndex();
    for (const auto& batch : batches) {
      ASSERT_TRUE((*mgr)->LogInsert(batch).ok());
      for (const Itemset& items : batch) ASSERT_TRUE(live.Insert(items).ok());
    }
    // No checkpoint, no graceful anything: the manager just goes away, as
    // in a kill -9.
  }
  auto mgr = DurabilityManager::Open(DurabilityOptions{dir, WalOptions(), 0},
                                     EmptyIndex(), nullptr);
  ASSERT_TRUE(mgr.ok());
  const auto& recovery = (*mgr)->recovery();
  EXPECT_FALSE(recovery.checkpoint_loaded);
  EXPECT_EQ(recovery.wal_records_scanned, batches.size());
  EXPECT_EQ(recovery.recovered_records, 7u);
  ExpectCountParity((*mgr)->TakeRecoveredIndex(), Oracle(batches));
}

TEST(DurabilityTest, CheckpointTruncatesWalAndReopenLoadsIt) {
  std::string dir = TempDir("dur_ckpt");
  auto batches = SampleBatches();
  {
    auto opened = DurabilityManager::Open(
        DurabilityOptions{dir, WalOptions(), 0}, EmptyIndex(), nullptr);
    ASSERT_TRUE(opened.ok());
    auto mgr = std::move(*opened);
    auto manager =
        SnapshotManager::FromIndex(mgr->TakeRecoveredIndex()).value();
    for (const auto& batch : batches) {
      ASSERT_TRUE(mgr->LogInsert(batch).ok());
      for (const Itemset& items : batch) {
        ASSERT_TRUE(manager.Insert(items).ok());
      }
    }
    ASSERT_TRUE(mgr->Checkpoint(manager.Acquire(), nullptr).ok());
    EXPECT_EQ(mgr->checkpoints(), 1u);
    EXPECT_EQ(mgr->txns_since_checkpoint(), 0u);
  }
  // The WAL must be back to a bare header covering everything.
  auto base = WriteAheadLog::ReadBaseTxnCount(dir + "/wal");
  ASSERT_TRUE(base.ok());
  EXPECT_EQ(*base, 7u);

  auto mgr = DurabilityManager::Open(DurabilityOptions{dir, WalOptions(), 0},
                                     EmptyIndex(), nullptr);
  ASSERT_TRUE(mgr.ok());
  const auto& recovery = (*mgr)->recovery();
  EXPECT_TRUE(recovery.checkpoint_loaded);
  EXPECT_EQ(recovery.checkpoint_transactions, 7u);
  EXPECT_EQ(recovery.recovered_records, 0u);
  ExpectCountParity((*mgr)->TakeRecoveredIndex(), Oracle(batches));
}

TEST(DurabilityTest, CheckpointPlusWalSuffixMatchesOracle) {
  std::string dir = TempDir("dur_suffix");
  auto batches = SampleBatches();
  {
    auto opened = DurabilityManager::Open(
        DurabilityOptions{dir, WalOptions(), 0}, EmptyIndex(), nullptr);
    ASSERT_TRUE(opened.ok());
    auto mgr = std::move(*opened);
    auto manager =
        SnapshotManager::FromIndex(mgr->TakeRecoveredIndex()).value();
    for (size_t b = 0; b < batches.size(); ++b) {
      ASSERT_TRUE(mgr->LogInsert(batches[b]).ok());
      for (const Itemset& items : batches[b]) {
        ASSERT_TRUE(manager.Insert(items).ok());
      }
      if (b == 1) {
        // Checkpoint mid-stream: recovery must splice checkpoint + suffix.
        ASSERT_TRUE(mgr->Checkpoint(manager.Acquire(), nullptr).ok());
      }
    }
  }
  auto mgr = DurabilityManager::Open(DurabilityOptions{dir, WalOptions(), 0},
                                     EmptyIndex(), nullptr);
  ASSERT_TRUE(mgr.ok());
  const auto& recovery = (*mgr)->recovery();
  EXPECT_TRUE(recovery.checkpoint_loaded);
  EXPECT_EQ(recovery.checkpoint_transactions, 3u);
  EXPECT_EQ(recovery.recovered_records, 4u);
  ExpectCountParity((*mgr)->TakeRecoveredIndex(), Oracle(batches));
}

TEST(DurabilityTest, DatabaseIsRecoveredAlongsideTheIndex) {
  std::string dir = TempDir("dur_db");
  auto batches = SampleBatches();
  {
    TransactionDatabase db;
    auto opened = DurabilityManager::Open(
        DurabilityOptions{dir, WalOptions(), 0}, EmptyIndex(), &db);
    ASSERT_TRUE(opened.ok());
    auto mgr = std::move(*opened);
    auto manager =
        SnapshotManager::FromIndex(mgr->TakeRecoveredIndex()).value();
    for (size_t b = 0; b < batches.size(); ++b) {
      ASSERT_TRUE(mgr->LogInsert(batches[b]).ok());
      for (const Itemset& items : batches[b]) {
        ASSERT_TRUE(manager.Insert(items).ok());
        db.Append(items);
      }
      if (b == 2) {
        ASSERT_TRUE(mgr->Checkpoint(manager.Acquire(), &db).ok());
      }
    }
  }
  TransactionDatabase db;
  auto mgr = DurabilityManager::Open(DurabilityOptions{dir, WalOptions(), 0},
                                     EmptyIndex(), &db);
  ASSERT_TRUE(mgr.ok());
  EXPECT_EQ(db.size(), 7u);
  // Every transaction restored, in insert order.
  size_t t = 0;
  for (const auto& batch : batches) {
    for (const Itemset& items : batch) {
      EXPECT_EQ(db.At(t++).items, items);
    }
  }
}

// -- Crash windows of the checkpoint protocol -------------------------------

TEST(DurabilityTest, CrashBetweenManifestRenameAndWalTruncateIsAbsorbed) {
  std::string dir = TempDir("dur_window");
  auto batches = SampleBatches();
  {
    auto opened = DurabilityManager::Open(
        DurabilityOptions{dir, WalOptions(), 0}, EmptyIndex(), nullptr);
    ASSERT_TRUE(opened.ok());
    auto mgr = std::move(*opened);
    auto manager =
        SnapshotManager::FromIndex(mgr->TakeRecoveredIndex()).value();
    for (const auto& batch : batches) {
      ASSERT_TRUE(mgr->LogInsert(batch).ok());
      for (const Itemset& items : batch) {
        ASSERT_TRUE(manager.Insert(items).ok());
      }
    }
    ASSERT_TRUE(mgr->Checkpoint(manager.Acquire(), nullptr).ok());
  }
  // Simulate the crash window: the checkpoint landed (manifest renamed)
  // but the WAL truncation never happened — rebuild the full pre-truncate
  // WAL covering everything from base 0.
  {
    auto wal = WriteAheadLog::Create(dir + "/wal", 0, WalOptions());
    ASSERT_TRUE(wal.ok());
    for (const auto& batch : batches) ASSERT_TRUE(wal->Append(batch).ok());
  }
  auto mgr = DurabilityManager::Open(DurabilityOptions{dir, WalOptions(), 0},
                                     EmptyIndex(), nullptr);
  ASSERT_TRUE(mgr.ok());
  const auto& recovery = (*mgr)->recovery();
  EXPECT_TRUE(recovery.checkpoint_loaded);
  // Every WAL record was scanned but none re-applied: the checkpoint
  // already covers them.
  EXPECT_EQ(recovery.wal_records_scanned, batches.size());
  EXPECT_EQ(recovery.recovered_records, 0u);
  ExpectCountParity((*mgr)->TakeRecoveredIndex(), Oracle(batches));
}

TEST(DurabilityTest, WalBaseAheadOfCheckpointIsCorruption) {
  std::string dir = TempDir("dur_stale");
  ASSERT_TRUE(std::filesystem::create_directories(dir));
  // A WAL claiming 10 transactions already durable, but no checkpoint at
  // all: someone deleted the checkpoint files. Refuse rather than silently
  // dropping 10 acknowledged transactions.
  {
    auto wal = WriteAheadLog::Create(dir + "/wal", 10, WalOptions());
    ASSERT_TRUE(wal.ok());
  }
  auto mgr = DurabilityManager::Open(DurabilityOptions{dir, WalOptions(), 0},
                                     EmptyIndex(), nullptr);
  EXPECT_EQ(mgr.status().code(), StatusCode::kCorruption);
}

TEST(DurabilityTest, CheckpointBoundaryInsideRecordIsCorruption) {
  std::string dir = TempDir("dur_straddle");
  ASSERT_TRUE(std::filesystem::create_directories(dir));
  // Checkpoint covering 2 transactions, WAL based at 0 whose first record
  // holds 3: the protocol always truncates the WAL on record boundaries,
  // so this state is impossible and must not be "repaired".
  {
    SegmentedBbs index = EmptyIndex();
    ASSERT_TRUE(index.Insert({1}).ok());
    ASSERT_TRUE(index.Insert({2}).ok());
    ASSERT_TRUE(index.Save(dir + "/checkpoint").ok());
    auto wal = WriteAheadLog::Create(dir + "/wal", 0, WalOptions());
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE(wal->Append({{1}, {2}, {3}}).ok());
  }
  auto mgr = DurabilityManager::Open(DurabilityOptions{dir, WalOptions(), 0},
                                     EmptyIndex(), nullptr);
  EXPECT_EQ(mgr.status().code(), StatusCode::kCorruption);
}

TEST(DurabilityTest, WalShortOfCheckpointIsCorruption) {
  std::string dir = TempDir("dur_short");
  ASSERT_TRUE(std::filesystem::create_directories(dir));
  // Checkpoint covers 4 transactions but the whole WAL (base 0) only
  // reaches 2: acknowledged records are missing from the log.
  {
    SegmentedBbs index = EmptyIndex();
    for (ItemId i = 1; i <= 4; ++i) {
      ASSERT_TRUE(index.Insert({i}).ok());
    }
    ASSERT_TRUE(index.Save(dir + "/checkpoint").ok());
    auto wal = WriteAheadLog::Create(dir + "/wal", 0, WalOptions());
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE(wal->Append({{1}, {2}}).ok());
  }
  auto mgr = DurabilityManager::Open(DurabilityOptions{dir, WalOptions(), 0},
                                     EmptyIndex(), nullptr);
  EXPECT_EQ(mgr.status().code(), StatusCode::kCorruption);
}

TEST(DurabilityTest, TornWalTailIsReportedAndRecoverySucceeds) {
  std::string dir = TempDir("dur_torn");
  auto batches = SampleBatches();
  {
    auto mgr = DurabilityManager::Open(DurabilityOptions{dir, WalOptions(), 0},
                                       EmptyIndex(), nullptr);
    ASSERT_TRUE(mgr.ok());
    for (const auto& batch : batches) {
      ASSERT_TRUE((*mgr)->LogInsert(batch).ok());
    }
  }
  // A torn frame header after the last complete record.
  {
    std::ofstream out(dir + "/wal",
                      std::ios::binary | std::ios::app);
    out << "\x11\x22\x33";
  }
  auto mgr = DurabilityManager::Open(DurabilityOptions{dir, WalOptions(), 0},
                                     EmptyIndex(), nullptr);
  ASSERT_TRUE(mgr.ok());
  const auto& recovery = (*mgr)->recovery();
  EXPECT_EQ(recovery.torn_tail_bytes, 3u);
  EXPECT_TRUE(recovery.wal_tail_truncated);
  ExpectCountParity((*mgr)->TakeRecoveredIndex(), Oracle(batches));
}

TEST(DurabilityTest, AutoCheckpointThresholdIsHonored) {
  std::string dir = TempDir("dur_every");
  auto opened = DurabilityManager::Open(
      DurabilityOptions{dir, WalOptions(), /*checkpoint_every=*/3},
      EmptyIndex(), nullptr);
  ASSERT_TRUE(opened.ok());
  auto mgr = std::move(*opened);
  EXPECT_FALSE(mgr->ShouldCheckpoint());
  ASSERT_TRUE(mgr->LogInsert({{1}, {2}}).ok());
  EXPECT_FALSE(mgr->ShouldCheckpoint());
  ASSERT_TRUE(mgr->LogInsert({{3}}).ok());
  EXPECT_TRUE(mgr->ShouldCheckpoint());
}

}  // namespace
}  // namespace bbsmine::service
