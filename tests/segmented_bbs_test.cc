#include "core/segmented_bbs.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include "testing/reference.h"

namespace bbsmine {
namespace {

std::string TempPrefix(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

void RemoveSegments(const std::string& prefix, size_t count) {
  std::remove((prefix + ".manifest").c_str());
  for (size_t i = 0; i < count; ++i) {
    std::remove((prefix + ".seg" + std::to_string(i)).c_str());
  }
}

BbsConfig SmallConfig() {
  BbsConfig config;
  config.num_bits = 96;
  config.num_hashes = 3;
  return config;
}

TEST(SegmentedBbsTest, CreateValidates) {
  EXPECT_FALSE(SegmentedBbs::Create(SmallConfig(), 0).ok());
  BbsConfig bad;
  bad.num_bits = 0;
  EXPECT_FALSE(SegmentedBbs::Create(bad, 100).ok());
  EXPECT_TRUE(SegmentedBbs::Create(SmallConfig(), 100).ok());
}

// A segment opens as one block of its capacity. A capacity whose block
// size would wrap a size_t fails with a status instead of opening a small
// block that inserts would write past.
TEST(SegmentedBbsTest, OversizedCapacityFailsCleanly) {
  BbsConfig config;
  config.num_bits = 1600;
  config.num_hashes = 4;
  for (uint64_t capacity : {uint64_t{1} << 61, ~uint64_t{0}}) {
    auto bbs = SegmentedBbs::Create(config, capacity);
    ASSERT_FALSE(bbs.ok()) << capacity;
    EXPECT_EQ(bbs.status().code(), StatusCode::kOutOfRange);
  }
}

TEST(SegmentedBbsTest, SegmentsRollOverAtCapacity) {
  auto bbs = SegmentedBbs::Create(SmallConfig(), 10);
  ASSERT_TRUE(bbs.ok());
  for (int i = 0; i < 25; ++i) {
    ASSERT_TRUE(bbs->Insert({static_cast<ItemId>(i % 7)}).ok());
  }
  EXPECT_EQ(bbs->num_transactions(), 25u);
  EXPECT_EQ(bbs->num_segments(), 3u);
  EXPECT_EQ(bbs->segment(0).num_transactions(), 10u);
  EXPECT_EQ(bbs->segment(1).num_transactions(), 10u);
  EXPECT_EQ(bbs->segment(2).num_transactions(), 5u);
}

TEST(SegmentedBbsTest, CountsMatchMonolithicIndex) {
  TransactionDatabase db = testing::RandomDb(5, 300, 40, 6.0);
  auto segmented = SegmentedBbs::Create(SmallConfig(), 64);
  auto monolithic = BbsIndex::Create(SmallConfig());
  ASSERT_TRUE(segmented.ok() && monolithic.ok());
  ASSERT_TRUE(segmented->InsertAll(db).ok());
  monolithic->InsertAll(db);

  for (Itemset items : std::vector<Itemset>{{1}, {2, 5}, {3, 9, 12}, {}}) {
    EXPECT_EQ(segmented->CountItemSet(items),
              monolithic->CountItemSet(items))
        << ItemsetToString(items);
  }
}

TEST(SegmentedBbsTest, NeverUnderestimates) {
  TransactionDatabase db = testing::RandomDb(9, 400, 30, 5.0);
  auto bbs = SegmentedBbs::Create(SmallConfig(), 50);
  ASSERT_TRUE(bbs.ok());
  ASSERT_TRUE(bbs->InsertAll(db).ok());
  for (Itemset items : std::vector<Itemset>{{1}, {2, 3}, {4, 5, 6}}) {
    EXPECT_GE(bbs->CountItemSet(items), testing::BruteForceSupport(db, items));
  }
}

TEST(SegmentedBbsTest, PerSegmentCountsSumToTotal) {
  TransactionDatabase db = testing::RandomDb(13, 200, 20, 5.0);
  auto bbs = SegmentedBbs::Create(SmallConfig(), 30);
  ASSERT_TRUE(bbs.ok());
  ASSERT_TRUE(bbs->InsertAll(db).ok());

  Itemset items = {1, 2};
  std::vector<size_t> per_segment = bbs->CountPerSegment(items);
  EXPECT_EQ(per_segment.size(), bbs->num_segments());
  size_t sum = 0;
  for (size_t c : per_segment) sum += c;
  EXPECT_EQ(sum, bbs->CountItemSet(items));
}

TEST(SegmentedBbsTest, ExactItemCountsAccumulate) {
  auto bbs = SegmentedBbs::Create(SmallConfig(), 3);
  ASSERT_TRUE(bbs.ok());
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(bbs->Insert({7}).ok());
  EXPECT_EQ(bbs->ExactItemCount(7), 10u);
  EXPECT_EQ(bbs->ExactItemCount(8), 0u);
}

TEST(SegmentedBbsTest, SaveLoadRoundTrip) {
  TransactionDatabase db = testing::RandomDb(17, 120, 30, 5.0);
  auto bbs = SegmentedBbs::Create(SmallConfig(), 40);
  ASSERT_TRUE(bbs.ok());
  ASSERT_TRUE(bbs->InsertAll(db).ok());

  std::string prefix = TempPrefix("bbsmine_segmented_roundtrip");
  ASSERT_TRUE(bbs->Save(prefix).ok());
  auto loaded = SegmentedBbs::Load(prefix);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(*loaded == *bbs);
  EXPECT_EQ(loaded->CountItemSet({1, 2}), bbs->CountItemSet({1, 2}));
  RemoveSegments(prefix, bbs->num_segments());
}

TEST(SegmentedBbsTest, LoadDetectsMissingSegment) {
  auto bbs = SegmentedBbs::Create(SmallConfig(), 5);
  ASSERT_TRUE(bbs.ok());
  for (int i = 0; i < 12; ++i) {
    ASSERT_TRUE(bbs->Insert({static_cast<ItemId>(i)}).ok());
  }
  std::string prefix = TempPrefix("bbsmine_segmented_missing");
  ASSERT_TRUE(bbs->Save(prefix).ok());
  std::remove((prefix + ".seg1").c_str());
  auto loaded = SegmentedBbs::Load(prefix);
  EXPECT_FALSE(loaded.ok());
  RemoveSegments(prefix, bbs->num_segments());
}

TEST(SegmentedBbsTest, SaveToUnwritablePathReportsError) {
  auto bbs = SegmentedBbs::Create(SmallConfig(), 4);
  ASSERT_TRUE(bbs.ok());
  for (int i = 0; i < 6; ++i) ASSERT_TRUE(bbs->Insert({1, 2}).ok());
  EXPECT_FALSE(bbs->Save(TempPrefix("no_such_dir") + "/segmented").ok());
}

TEST(SegmentedBbsTest, AppendAfterLoadKeepsCounting) {
  auto bbs = SegmentedBbs::Create(SmallConfig(), 4);
  ASSERT_TRUE(bbs.ok());
  for (int i = 0; i < 6; ++i) ASSERT_TRUE(bbs->Insert({1, 2}).ok());
  std::string prefix = TempPrefix("bbsmine_segmented_append");
  ASSERT_TRUE(bbs->Save(prefix).ok());

  auto loaded = SegmentedBbs::Load(prefix);
  ASSERT_TRUE(loaded.ok());
  ASSERT_TRUE(loaded->Insert({1, 2}).ok());
  EXPECT_EQ(loaded->num_transactions(), 7u);
  EXPECT_GE(loaded->CountItemSet({1, 2}), 7u);
  EXPECT_EQ(loaded->ExactItemCount(1), 7u);
  RemoveSegments(prefix, loaded->num_segments());
}

TEST(SegmentedBbsTest, LoadRejectsMixedGenerationSegmentSet) {
  // Two saves of the same index, with inserts in between, share their
  // sealed segment files but differ in the tail. Splicing the newer
  // generation's tail under the older manifest simulates a save that was
  // interrupted after rewriting segments but before the manifest rename —
  // the manifest's per-segment CRC must refuse the stale mixture even
  // though the spliced file is a perfectly valid BbsIndex on its own.
  auto bbs = SegmentedBbs::Create(SmallConfig(), 5);
  ASSERT_TRUE(bbs.ok());
  for (int i = 0; i < 7; ++i) {
    ASSERT_TRUE(bbs->Insert({static_cast<ItemId>(i)}).ok());
  }
  std::string old_gen = TempPrefix("bbsmine_segmented_gen1");
  ASSERT_TRUE(bbs->Save(old_gen).ok());
  size_t tail = bbs->num_segments() - 1;

  for (int i = 7; i < 10; ++i) {
    ASSERT_TRUE(bbs->Insert({static_cast<ItemId>(i)}).ok());
  }
  std::string new_gen = TempPrefix("bbsmine_segmented_gen2");
  ASSERT_TRUE(bbs->Save(new_gen).ok());
  ASSERT_EQ(bbs->num_segments() - 1, tail) << "tail must not roll over";

  std::filesystem::copy_file(
      new_gen + ".seg" + std::to_string(tail),
      old_gen + ".seg" + std::to_string(tail),
      std::filesystem::copy_options::overwrite_existing);

  auto loaded = SegmentedBbs::Load(old_gen);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption)
      << loaded.status().ToString();
  EXPECT_NE(loaded.status().ToString().find("mixed-generation"),
            std::string::npos)
      << loaded.status().ToString();

  RemoveSegments(old_gen, bbs->num_segments());
  RemoveSegments(new_gen, bbs->num_segments());
}

}  // namespace
}  // namespace bbsmine
