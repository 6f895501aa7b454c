// The segment count loop (CountSegments / CountSegmentRange) against its
// definition: over a segment list that mixes every kind of segment the
// daemon serves — mmap-loaded, folded by FoldSegment and by
// CompactColdSegments, sealed resident, and a published tail view whose
// transaction count is not a multiple of 64 — Snapshot::CountItemSet,
// SegmentedBbs::CountItemSet and CountScheduler::Count must return the sum
// of per-segment BbsIndex::CountItemSet counts and charge exactly the sum
// of their IoStats, the scheduler also with a query's segments split over
// several threads. One query's signature is longer than kInlinePositions,
// so the heap fallback of the per-segment tables runs too.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "core/segmented_bbs.h"
#include "service/scheduler.h"
#include "service/snapshot.h"
#include "testing/reference.h"

namespace bbsmine {
namespace {

constexpr uint64_t kCapacity = 100;

BbsConfig Config() {
  BbsConfig config;
  config.num_bits = 256;
  config.num_hashes = 3;
  return config;
}

/// Itemsets to count: short, absent, overlapping, and one long enough that
/// its distinct positions overflow the on-stack tables.
std::vector<Itemset> Queries() {
  Itemset longest;
  for (ItemId item = 0; item < 36; ++item) longest.push_back(item);
  return {{1}, {2, 5}, {0, 3, 7}, {11, 12, 13, 14}, {39}, longest};
}

struct Expected {
  size_t count = 0;
  IoStats io;
};

/// The definition: per-segment CountItemSet, summed.
template <typename Segments>
Expected SumOfSegments(const Segments& segments, const Itemset& items) {
  Expected out;
  for (size_t idx = 0; idx < segments.num_segments(); ++idx) {
    out.count += segments.segment(idx).CountItemSet(items, nullptr, &out.io);
  }
  return out;
}

class SegmentCountTest : public ::testing::Test {
 protected:
  void SetUp() override {
    prefix_ = (std::filesystem::temp_directory_path() /
               (std::to_string(::getpid()) + "_bbsmine_segment_count"))
                  .string();
    db_ = testing::RandomDb(19, 600, 40, 5.0);

    // On disk: segment 0 folded, segments 1 and 2 full width.
    auto base = SegmentedBbs::Create(Config(), kCapacity);
    ASSERT_TRUE(base.ok());
    ASSERT_TRUE(base->InsertAll(db_, 0, 300).ok());
    ASSERT_TRUE(base->FoldSegment(0, 96).ok());
    ASSERT_TRUE(base->Save(prefix_).ok());

    // mixed_: [mmap folded, mmap, resident folded, resident, tail of 70].
    auto mapped = SegmentedBbs::Load(prefix_, nullptr, IndexBackend::kMmap);
    ASSERT_TRUE(mapped.ok());
    mixed_ = std::make_unique<SegmentedBbs>(std::move(mapped).value());
    ASSERT_TRUE(mixed_->InsertAll(db_, 300, 170).ok());
    ASSERT_TRUE(mixed_->FoldSegment(2, 128).ok());
    ASSERT_EQ(mixed_->num_segments(), 5u);
    ASSERT_FALSE(mixed_->segment(0).resident());
    ASSERT_FALSE(mixed_->segment(1).resident());
    ASSERT_TRUE(mixed_->segment(0).is_folded());
    ASSERT_TRUE(mixed_->segment(2).is_folded());
    ASSERT_EQ(mixed_->segment(4).num_transactions() % 64, 6u);

    // The snapshot adopts mixed_, then seals one more segment of its own
    // and leaves a published tail of 37. Compaction folds the segments
    // adopted at creation that are still full width (mmap segment 1 and
    // resident segment 3) and leaves the fresh seal alone.
    auto manager = service::SnapshotManager::FromIndex(*mixed_);
    ASSERT_TRUE(manager.ok());
    manager_ = std::make_unique<service::SnapshotManager>(
        std::move(manager).value());
    for (size_t t = 470; t < 537; ++t) {
      ASSERT_TRUE(manager_->Insert(db_.At(t).items).ok());
    }
    service::CompactionPolicy policy;
    policy.cold_epochs = 50;
    policy.fold_bits = 64;
    ASSERT_EQ(manager_->CompactColdSegments(policy), 2u);

    const service::Snapshot snap = manager_->Acquire();
    ASSERT_EQ(snap.num_segments(), 6u);
    EXPECT_FALSE(snap.segment(0).resident());  // mmap, folded on disk
    EXPECT_EQ(snap.segment(1).num_bits(), 64u);
    EXPECT_EQ(snap.segment(3).num_bits(), 64u);
    EXPECT_FALSE(snap.segment(4).is_folded());
    EXPECT_EQ(snap.segment(4).num_transactions(), kCapacity);
    EXPECT_EQ(snap.segment(5).num_transactions(), 37u);
    EXPECT_EQ(snap.num_transactions(), 537u);
  }

  void TearDown() override {
    std::remove((prefix_ + ".manifest").c_str());
    for (size_t i = 0; i < 3; ++i) {
      std::remove((prefix_ + ".seg" + std::to_string(i)).c_str());
    }
  }

  std::string prefix_;
  TransactionDatabase db_;
  std::unique_ptr<SegmentedBbs> mixed_;
  std::unique_ptr<service::SnapshotManager> manager_;
};

TEST_F(SegmentCountTest, LongQueryOverflowsTheInlineTables) {
  const Itemset longest = Queries().back();
  EXPECT_GT(mixed_->segment(1).Hash(longest).size(), kInlinePositions);
}

TEST_F(SegmentCountTest, SnapshotAndSegmentedCountEqualTheSegmentSum) {
  const service::Snapshot snap = manager_->Acquire();
  std::vector<Itemset> queries = Queries();
  queries.push_back({});  // every transaction
  for (const Itemset& items : queries) {
    SCOPED_TRACE(std::to_string(items.size()) + " items");
    const Expected want_snap = SumOfSegments(snap, items);
    IoStats io;
    EXPECT_EQ(snap.CountItemSet(items, &io), want_snap.count);
    EXPECT_EQ(io, want_snap.io);
    if (!items.empty()) {
      EXPECT_GT(io.slice_words_touched, 0u);
    }

    const Expected want_mixed = SumOfSegments(*mixed_, items);
    IoStats mixed_io;
    EXPECT_EQ(mixed_->CountItemSet(items, &mixed_io), want_mixed.count);
    EXPECT_EQ(mixed_io, want_mixed.io);
  }
}

TEST_F(SegmentCountTest, SchedulerCountEqualsTheSegmentSum) {
  const service::Snapshot snap = manager_->Acquire();
  for (size_t threads : {1, 3}) {
    service::SchedulerOptions options;
    options.num_threads = threads;
    service::CountScheduler scheduler(manager_.get(), options, nullptr);
    for (const Itemset& items : Queries()) {
      SCOPED_TRACE("threads " + std::to_string(threads) + ", " +
                   std::to_string(items.size()) + " items");
      const Expected want = SumOfSegments(snap, items);
      service::CountResult result;
      ASSERT_TRUE(scheduler.Count(items, &result).ok());
      EXPECT_EQ(result.count, want.count);
      EXPECT_EQ(result.slice_words, want.io.slice_words_touched);
      EXPECT_EQ(result.epoch, snap.epoch());
    }
  }
}

}  // namespace
}  // namespace bbsmine
