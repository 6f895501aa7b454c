// Tests for the deterministic fault-injection harness and the failure
// branches it exists to reach: atomic file replacement under ENOSPC and
// short writes, WAL append repair, checkpoint failures, and crash-points.
//
// These tests mutate process-global fault state (FaultInjector::Arm), so
// they live in their own binary, labeled `faults` in ctest.

#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/segmented_bbs.h"
#include "service/durability.h"
#include "service/snapshot.h"
#include "service/wal.h"
#include "util/fault_injector.h"
#include "util/file_io.h"
#include "util/rng.h"
#include "util/status.h"

namespace bbsmine {
namespace {

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() /
          (std::to_string(::getpid()) + "_" + name))
      .string();
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

/// Disarms around every test so a failing expectation cannot leak an armed
/// registry into the next test.
class FaultInjectionTest : public ::testing::Test {
 protected:
  void SetUp() override { FaultInjector::Disarm(); }
  void TearDown() override { FaultInjector::Disarm(); }
};

TEST_F(FaultInjectionTest, DisarmedHitsAreFreeAndOk) {
  EXPECT_FALSE(FaultInjector::Armed());
  EXPECT_TRUE(FaultInjector::Hit("anything.at.all").ok());
  size_t allowed = 0;
  EXPECT_TRUE(FaultInjector::HitWrite("any.write", 100, &allowed).ok());
  EXPECT_EQ(allowed, 100u);
}

TEST_F(FaultInjectionTest, ArmRejectsMalformedSpecs) {
  EXPECT_EQ(FaultInjector::Arm("no-colon").code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(FaultInjector::Arm("p:unknown_action=1").code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(FaultInjector::Arm("p:fail_after=notanumber").code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(FaultInjector::Arm("p:err=ENOTREAL").code(),
            StatusCode::kInvalidArgument);
  EXPECT_FALSE(FaultInjector::Armed());
}

TEST_F(FaultInjectionTest, FailAfterLetsEarlyHitsThrough) {
  ASSERT_TRUE(FaultInjector::Arm("p:fail_after=2").ok());
  EXPECT_TRUE(FaultInjector::Hit("p").ok());
  EXPECT_TRUE(FaultInjector::Hit("p").ok());
  EXPECT_EQ(FaultInjector::Hit("p").code(), StatusCode::kIoError);
  EXPECT_EQ(FaultInjector::Hit("p").code(), StatusCode::kIoError);
  EXPECT_EQ(FaultInjector::HitCount("p"), 4u);
  // Unrelated points are untouched.
  EXPECT_TRUE(FaultInjector::Hit("q").ok());
}

TEST_F(FaultInjectionTest, ErrnoNameControlsTheReportedError) {
  ASSERT_TRUE(FaultInjector::Arm("p:err=ENOSPC").ok());
  Status status = FaultInjector::Hit("p");
  EXPECT_EQ(status.code(), StatusCode::kIoError);
  EXPECT_NE(status.message().find("errno 28"), std::string::npos)
      << status.ToString();
}

TEST_F(FaultInjectionTest, SemicolonSeparatedSpecsArmMultiplePoints) {
  ASSERT_TRUE(FaultInjector::Arm("a:fail_after=1;b:err=EACCES").ok());
  EXPECT_TRUE(FaultInjector::Hit("a").ok());
  EXPECT_EQ(FaultInjector::Hit("a").code(), StatusCode::kIoError);
  EXPECT_NE(FaultInjector::Hit("b").message().find("errno 13"),
            std::string::npos);
}

// -- WriteBinaryFile: the atomic-replace contract under injected faults ----

TEST_F(FaultInjectionTest, WriteFileOpenFailureCreatesNothing) {
  std::string path = TempPath("fi_open");
  ASSERT_TRUE(FaultInjector::Arm("file.open:err=EACCES").ok());
  EXPECT_EQ(WriteBinaryFile(path, "payload").code(), StatusCode::kIoError);
  EXPECT_FALSE(std::filesystem::exists(path));
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
}

TEST_F(FaultInjectionTest, WriteFailureLeavesPreviousContentIntact) {
  std::string path = TempPath("fi_write");
  ASSERT_TRUE(WriteBinaryFile(path, "generation-1").ok());
  ASSERT_TRUE(FaultInjector::Arm("file.write:err=ENOSPC").ok());
  Status status = WriteBinaryFile(path, "generation-2");
  EXPECT_EQ(status.code(), StatusCode::kIoError);
  EXPECT_NE(status.message().find("errno 28"), std::string::npos);
  FaultInjector::Disarm();
  EXPECT_EQ(ReadFile(path), "generation-1")
      << "a failed replace must not touch the destination";
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
}

TEST_F(FaultInjectionTest, ShortWritePersistsPrefixOnlyInTheTempFile) {
  // The ENOSPC short-write regression: the tmp file may hold a torn
  // prefix, but the destination must still be the previous generation.
  std::string path = TempPath("fi_short");
  ASSERT_TRUE(WriteBinaryFile(path, "old").ok());
  ASSERT_TRUE(
      FaultInjector::Arm("file.write:err=ENOSPC,short_write=4").ok());
  EXPECT_EQ(WriteBinaryFile(path, "new-content-that-is-longer").code(),
            StatusCode::kIoError);
  FaultInjector::Disarm();
  EXPECT_EQ(ReadFile(path), "old");
}

TEST_F(FaultInjectionTest, RenameFailureLeavesPreviousContentIntact) {
  std::string path = TempPath("fi_rename");
  ASSERT_TRUE(WriteBinaryFile(path, "generation-1").ok());
  ASSERT_TRUE(FaultInjector::Arm("file.rename:err=EIO").ok());
  EXPECT_EQ(WriteBinaryFile(path, "generation-2").code(),
            StatusCode::kIoError);
  FaultInjector::Disarm();
  EXPECT_EQ(ReadFile(path), "generation-1");
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
}

TEST_F(FaultInjectionTest, FsyncFailureIsSurfacedToTheCaller) {
  std::string path = TempPath("fi_fsync");
  ASSERT_TRUE(FaultInjector::Arm("file.fsync:err=EIO").ok());
  EXPECT_EQ(WriteBinaryFile(path, "data").code(), StatusCode::kIoError);
  FaultInjector::Disarm();
  EXPECT_FALSE(std::filesystem::exists(path));
}

// -- WAL fault points -------------------------------------------------------

TEST_F(FaultInjectionTest, WalAppendFailureRepairsTheLog) {
  std::string path = TempPath("fi_wal_append");
  auto wal = service::WriteAheadLog::Create(path, 0, service::WalOptions());
  ASSERT_TRUE(wal.ok());
  ASSERT_TRUE(wal->Append({{1, 2}}).ok());

  ASSERT_TRUE(
      FaultInjector::Arm("wal.append:err=ENOSPC,short_write=6").ok());
  EXPECT_EQ(wal->Append({{3, 4}}).code(), StatusCode::kIoError);
  FaultInjector::Disarm();

  // The reported failure truncated the partial frame away; the log accepts
  // appends again and replay sees exactly the acknowledged records.
  ASSERT_TRUE(wal->Append({{5, 6}}).ok());
  std::vector<std::vector<Itemset>> replayed;
  auto stats = service::WriteAheadLog::Replay(
      path, [&](const std::vector<Itemset>& batch) {
        replayed.push_back(batch);
        return Status::Ok();
      });
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->torn_tail_bytes, 0u);
  ASSERT_EQ(replayed.size(), 2u);
  EXPECT_EQ(replayed[0], (std::vector<Itemset>{{1, 2}}));
  EXPECT_EQ(replayed[1], (std::vector<Itemset>{{5, 6}}));
}

TEST_F(FaultInjectionTest, WalSyncFaultFailsAppendUnderAlwaysPolicy) {
  std::string path = TempPath("fi_wal_sync");
  auto wal = service::WriteAheadLog::Create(path, 0, service::WalOptions());
  ASSERT_TRUE(wal.ok());
  ASSERT_TRUE(FaultInjector::Arm("wal.sync:err=EIO").ok());
  EXPECT_EQ(wal->Append({{1}}).code(), StatusCode::kIoError);
}

TEST_F(FaultInjectionTest, WalTruncateFaultIsSurfaced) {
  std::string path = TempPath("fi_wal_trunc");
  auto wal = service::WriteAheadLog::Create(path, 0, service::WalOptions());
  ASSERT_TRUE(wal.ok());
  ASSERT_TRUE(FaultInjector::Arm("wal.truncate:err=EIO").ok());
  EXPECT_EQ(wal->Truncate(5).code(), StatusCode::kIoError);
  FaultInjector::Disarm();
  // The failed truncate left the original log in place.
  auto base = service::WriteAheadLog::ReadBaseTxnCount(path);
  ASSERT_TRUE(base.ok());
  EXPECT_EQ(*base, 0u);
}

// -- Checkpoint fault points ------------------------------------------------

/// Builds a durable state with a few inserts, returning the directory.
std::string SeedDurableDir(const std::string& name) {
  BbsConfig config;
  config.num_bits = 256;
  config.num_hashes = 3;
  std::string dir = TempPath(name);
  std::filesystem::remove_all(dir);
  auto opened = service::DurabilityManager::Open(
      service::DurabilityOptions{dir, service::WalOptions(), 0},
      SegmentedBbs::Create(config, 4).value(), nullptr);
  EXPECT_TRUE(opened.ok());
  auto manager =
      service::SnapshotManager::FromIndex((*opened)->TakeRecoveredIndex())
          .value();
  for (ItemId i = 1; i <= 5; ++i) {
    EXPECT_TRUE((*opened)->LogInsert({{i, static_cast<ItemId>(i + 1)}}).ok());
    EXPECT_TRUE(manager.Insert({i, static_cast<ItemId>(i + 1)}).ok());
  }
  // Try a checkpoint with the currently-armed faults (callers arm first).
  Status checkpointed = (*opened)->Checkpoint(manager.Acquire(), nullptr);
  EXPECT_EQ(checkpointed.ok(), !FaultInjector::Armed())
      << checkpointed.ToString();
  return dir;
}

TEST_F(FaultInjectionTest, CheckpointRenameFaultLosesNothing) {
  ASSERT_TRUE(FaultInjector::Arm("checkpoint.rename:err=EIO").ok());
  std::string dir = SeedDurableDir("fi_ckpt_rename");
  FaultInjector::Disarm();
  // The checkpoint failed before its manifest landed, so recovery comes
  // entirely from the WAL — and must still see all five inserts.
  BbsConfig config;
  config.num_bits = 256;
  config.num_hashes = 3;
  auto reopened = service::DurabilityManager::Open(
      service::DurabilityOptions{dir, service::WalOptions(), 0},
      SegmentedBbs::Create(config, 4).value(), nullptr);
  ASSERT_TRUE(reopened.ok());
  EXPECT_FALSE((*reopened)->recovery().checkpoint_loaded);
  EXPECT_EQ((*reopened)->TakeRecoveredIndex().num_transactions(), 5u);
}

TEST_F(FaultInjectionTest, CheckpointSaveFaultLosesNothing) {
  ASSERT_TRUE(FaultInjector::Arm("checkpoint.save:err=EIO").ok());
  std::string dir = SeedDurableDir("fi_ckpt_save");
  FaultInjector::Disarm();
  BbsConfig config;
  config.num_bits = 256;
  config.num_hashes = 3;
  auto reopened = service::DurabilityManager::Open(
      service::DurabilityOptions{dir, service::WalOptions(), 0},
      SegmentedBbs::Create(config, 4).value(), nullptr);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ((*reopened)->TakeRecoveredIndex().num_transactions(), 5u);
}

TEST_F(FaultInjectionTest, StreamedCheckpointFaultsKeepThePreviousGeneration) {
  // A segment several writer buffers long, so its file goes out in many
  // write(2) calls and a write fault can tear it in the middle.
  BbsConfig config;
  config.num_bits = 1600;
  config.num_hashes = 4;
  constexpr uint64_t kFirst = 3000;
  constexpr uint64_t kMore = 200;
  Rng rng(41);
  std::vector<Itemset> txns;
  for (uint64_t t = 0; t < kFirst + kMore; ++t) {
    Itemset items;
    for (int i = 0; i < 6; ++i) {
      items.push_back(static_cast<ItemId>(rng.Uniform(300)));
    }
    Canonicalize(&items);
    txns.push_back(items);
  }
  BbsIndex oracle = BbsIndex::Create(config).value();
  for (const Itemset& items : txns) oracle.Insert(items);

  // Every fault point of a streamed checkpoint file; the write fault
  // persists 100 bytes of the fourth write, deep inside segment 0.
  for (const char* spec :
       {"checkpoint.open:err=EIO",
        "checkpoint.write:fail_after=3,err=ENOSPC,short_write=100",
        "checkpoint.fsync:err=EIO", "checkpoint.rename:err=EIO"}) {
    SCOPED_TRACE(spec);
    const std::string dir = TempPath("fi_ckpt_stream");
    std::filesystem::remove_all(dir);
    {
      auto opened = service::DurabilityManager::Open(
          service::DurabilityOptions{dir, service::WalOptions(), 0},
          SegmentedBbs::Create(config, 4096).value(), nullptr);
      ASSERT_TRUE(opened.ok());
      auto manager =
          service::SnapshotManager::FromIndex((*opened)->TakeRecoveredIndex())
              .value();
      const std::vector<Itemset> first(txns.begin(), txns.begin() + kFirst);
      const std::vector<Itemset> more(txns.begin() + kFirst, txns.end());
      ASSERT_TRUE((*opened)->LogInsert(first).ok());
      ASSERT_TRUE(manager.InsertBatch(first).ok());
      ASSERT_TRUE((*opened)->Checkpoint(manager.Acquire(), nullptr).ok());
      ASSERT_TRUE((*opened)->LogInsert(more).ok());
      ASSERT_TRUE(manager.InsertBatch(more).ok());
      ASSERT_TRUE(FaultInjector::Arm(spec).ok());
      EXPECT_FALSE((*opened)->Checkpoint(manager.Acquire(), nullptr).ok());
      FaultInjector::Disarm();
    }
    EXPECT_FALSE(std::filesystem::exists(dir + "/checkpoint.seg0.tmp"));

    // The first generation is intact (its segment CRC still matches its
    // manifest) and the WAL supplies the rest: answers are bit-identical.
    auto reopened = service::DurabilityManager::Open(
        service::DurabilityOptions{dir, service::WalOptions(), 0},
        SegmentedBbs::Create(config, 4096).value(), nullptr);
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
    EXPECT_TRUE((*reopened)->recovery().checkpoint_loaded);
    EXPECT_EQ((*reopened)->recovery().checkpoint_transactions, kFirst);
    SegmentedBbs recovered = (*reopened)->TakeRecoveredIndex();
    ASSERT_EQ(recovered.num_transactions(), kFirst + kMore);
    for (int q = 0; q < 50; ++q) {
      Itemset items = {static_cast<ItemId>(rng.Uniform(300)),
                       static_cast<ItemId>(rng.Uniform(300))};
      Canonicalize(&items);
      ASSERT_EQ(recovered.CountItemSet(items), oracle.CountItemSet(items));
    }
  }
}

// -- Crash points -----------------------------------------------------------

TEST_F(FaultInjectionTest, CrashAfterTerminatesTheProcessAtTheBoundary) {
  pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Child: arm a crash-point two hits out, then walk into it.
    if (!FaultInjector::Arm("boom:crash_after=2").ok()) ::_exit(99);
    if (!FaultInjector::Hit("boom").ok()) ::_exit(98);
    if (!FaultInjector::Hit("boom").ok()) ::_exit(97);
    (void)FaultInjector::Hit("boom");  // does not return
    ::_exit(96);
  }
  int wstatus = 0;
  ASSERT_EQ(::waitpid(pid, &wstatus, 0), pid);
  ASSERT_TRUE(WIFEXITED(wstatus));
  EXPECT_EQ(WEXITSTATUS(wstatus), 137);
}

TEST_F(FaultInjectionTest, CrashDuringWalAppendLeavesRecoverableLog) {
  std::string path = TempPath("fi_crash_wal");
  {
    auto wal = service::WriteAheadLog::Create(path, 0, service::WalOptions());
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE(wal->Append({{1, 2}}).ok());
  }
  pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Child: the second append dies at the fault boundary, exactly like a
    // kill -9 between write() and acknowledgment.
    if (!FaultInjector::Arm("wal.append:crash_after=0").ok()) ::_exit(99);
    auto wal =
        service::WriteAheadLog::OpenForAppend(path, service::WalOptions());
    if (!wal.ok()) ::_exit(98);
    (void)wal->Append({{3, 4}});  // does not return
    ::_exit(97);
  }
  int wstatus = 0;
  ASSERT_EQ(::waitpid(pid, &wstatus, 0), pid);
  ASSERT_TRUE(WIFEXITED(wstatus));
  ASSERT_EQ(WEXITSTATUS(wstatus), 137);

  // Parent: the log must replay cleanly — first record intact.
  std::vector<std::vector<Itemset>> replayed;
  auto stats = service::WriteAheadLog::Replay(
      path, [&](const std::vector<Itemset>& batch) {
        replayed.push_back(batch);
        return Status::Ok();
      });
  ASSERT_TRUE(stats.ok());
  ASSERT_GE(replayed.size(), 1u);
  EXPECT_EQ(replayed[0], (std::vector<Itemset>{{1, 2}}));
}

}  // namespace
}  // namespace bbsmine
