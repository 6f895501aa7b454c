// Tests for the BBS index: the paper's running example (Tables 1-2,
// Example 2), insertion, counting, constraints, folding and persistence.

#include "core/bbs_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <thread>
#include <vector>

#include "storage/transaction_db.h"
#include "testing/reference.h"
#include "util/crc32.h"
#include "util/file_io.h"

namespace bbsmine {
namespace {

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

/// The paper's BBS: m = 8, one hash h(x) = x mod 8 over PaperExampleDb().
BbsIndex PaperExampleBbs() {
  BbsConfig config;
  config.num_bits = 8;
  config.num_hashes = 1;
  config.hash_kind = HashKind::kModulo;
  auto index = BbsIndex::Create(config);
  EXPECT_TRUE(index.ok());
  TransactionDatabase db = testing::PaperExampleDb();
  index->InsertAll(db);
  return std::move(index).value();
}

TEST(BbsIndexTest, CreateValidatesConfig) {
  BbsConfig bad;
  bad.num_bits = 0;
  EXPECT_FALSE(BbsIndex::Create(bad).ok());
  bad = BbsConfig{};
  bad.num_hashes = 0;
  EXPECT_FALSE(BbsIndex::Create(bad).ok());
}

TEST(BbsIndexTest, PaperTable1Signatures) {
  BbsIndex bbs = PaperExampleBbs();
  TransactionDatabase db = testing::PaperExampleDb();

  // Table 1 gives each transaction's bit vector; the paper writes bit 0
  // (hash value 0) leftmost, so "11111111" = all bits set, "01110111" =
  // bits {1,2,3,5,6,7}.
  struct Expected {
    size_t txn;
    Itemset bits;
  };
  const Expected expected[] = {
      {0, {0, 1, 2, 3, 4, 5, 6, 7}},  // TID 100: 11111111
      {1, {1, 2, 3, 5, 6, 7}},        // TID 200: 01110111
      {2, {1, 5, 6, 7}},              // TID 300: 01000111
      {3, {0, 1, 2, 7}},              // TID 400: 11100001
      {4, {1, 2, 3, 5, 6, 7}},        // TID 500: 01101111
  };
  for (const Expected& e : expected) {
    BitVector signature = bbs.MakeSignature(db.At(e.txn).items);
    for (uint32_t bit = 0; bit < 8; ++bit) {
      EXPECT_EQ(signature.Get(bit), Contains(e.bits, bit))
          << "txn " << e.txn << " bit " << bit;
    }
  }
}

TEST(BbsIndexTest, PaperTable2Slices) {
  // Table 2: the transposed slices. Slice j holds one bit per transaction.
  BbsIndex bbs = PaperExampleBbs();
  const char* expected[8] = {
      "10010",  // slice 0: txns 100,400
      "11111",  // slice 1
      "11011",  // slice 2
      "11001",  // slice 3
      "10000",  // slice 4
      "11101",  // slice 5
      "11101",  // slice 6
      "11111",  // slice 7
  };
  for (uint32_t s = 0; s < 8; ++s) {
    for (size_t t = 0; t < 5; ++t) {
      EXPECT_EQ(bbs.Slice(s).Get(t), expected[s][t] == '1')
          << "slice " << s << " txn " << t;
    }
    EXPECT_EQ(bbs.SlicePopcount(s), bbs.Slice(s).Count());
  }
}

TEST(BbsIndexTest, PaperExample2Counts) {
  BbsIndex bbs = PaperExampleBbs();
  // "the number of transactions containing item set I = {0,1} ... the
  // resultant bit vector of 10010 which indicates that there are two
  // transactions containing I. Here, the answer obtained is accurate."
  BitVector result;
  EXPECT_EQ(bbs.CountItemSet({0, 1}, &result), 2u);
  EXPECT_TRUE(result.Get(0));
  EXPECT_TRUE(result.Get(3));
  EXPECT_EQ(result.Count(), 2u);

  // "if we were to determine the number of transactions containing
  // I = {1,3}, we will obtain a value of 3 ... larger than the actual
  // count of 2."
  EXPECT_EQ(bbs.CountItemSet({1, 3}), 3u);
  TransactionDatabase db = testing::PaperExampleDb();
  EXPECT_EQ(testing::BruteForceSupport(db, {1, 3}), 2u);
}

TEST(BbsIndexTest, EmptyItemsetCountsAllTransactions) {
  BbsIndex bbs = PaperExampleBbs();
  EXPECT_EQ(bbs.CountItemSet({}), 5u);
}

TEST(BbsIndexTest, ExactItemCountsMaintained) {
  BbsIndex bbs = PaperExampleBbs();
  ASSERT_TRUE(bbs.tracks_item_counts());
  EXPECT_EQ(bbs.ExactItemCount(1), 5u);
  EXPECT_EQ(bbs.ExactItemCount(0), 2u);
  EXPECT_EQ(bbs.ExactItemCount(11), 1u);
  EXPECT_EQ(bbs.ExactItemCount(12), 0u);
  EXPECT_EQ(bbs.ExactItemCount(99), 0u) << "unseen item";
}

TEST(BbsIndexTest, InsertIsIncremental) {
  BbsConfig config;
  config.num_bits = 64;
  config.num_hashes = 2;
  auto bbs = BbsIndex::Create(config);
  ASSERT_TRUE(bbs.ok());
  EXPECT_EQ(bbs->num_transactions(), 0u);
  bbs->Insert({1, 2});
  EXPECT_EQ(bbs->num_transactions(), 1u);
  EXPECT_EQ(bbs->CountItemSet({1, 2}), 1u);
  bbs->Insert({2, 3});
  EXPECT_EQ(bbs->num_transactions(), 2u);
  EXPECT_GE(bbs->CountItemSet({2}), 2u);
}

TEST(BbsIndexTest, AndItemSlicesMatchesCountItemSet) {
  TransactionDatabase db = testing::RandomDb(3, 200, 50, 6.0);
  BbsConfig config;
  config.num_bits = 128;
  config.num_hashes = 3;
  auto bbs = BbsIndex::Create(config);
  ASSERT_TRUE(bbs.ok());
  bbs->InsertAll(db);

  // Incremental extension {5} then {5, 9} must equal direct CountItemSet.
  BitVector acc(db.size());
  acc.SetAll();
  size_t c5 = bbs->AndItemSlices(5, &acc);
  EXPECT_EQ(c5, bbs->CountItemSet({5}));
  size_t c59 = bbs->AndItemSlices(9, &acc);
  EXPECT_EQ(c59, bbs->CountItemSet({5, 9}));
}

TEST(BbsIndexTest, ConstrainedCountRestricts) {
  BbsIndex bbs = PaperExampleBbs();
  // Constraint: only the first two transactions.
  BitVector constraint(5);
  constraint.Set(0);
  constraint.Set(1);
  EXPECT_EQ(bbs.CountItemSetConstrained({1}, constraint), 2u);
  EXPECT_EQ(bbs.CountItemSetConstrained({0, 1}, constraint), 1u);
  // Empty itemset under a constraint = constraint cardinality.
  EXPECT_EQ(bbs.CountItemSetConstrained({}, constraint), 2u);
}

TEST(BbsIndexTest, CountChargesSliceReadsWhenAccounted) {
  BbsIndex bbs = PaperExampleBbs();
  IoStats io;
  bbs.CountItemSet({0, 1}, nullptr, &io);
  // Items 0 and 1 select two distinct slices; each slice is under one block.
  EXPECT_EQ(io.sequential_reads, 2u);
}

TEST(BbsIndexTest, FoldPreservesUpperBoundProperty) {
  TransactionDatabase db = testing::RandomDb(11, 300, 100, 8.0);
  BbsConfig config;
  config.num_bits = 256;
  config.num_hashes = 4;
  auto bbs = BbsIndex::Create(config);
  ASSERT_TRUE(bbs.ok());
  bbs->InsertAll(db);

  BbsIndex folded = bbs->Fold(32);
  EXPECT_TRUE(folded.is_folded());
  EXPECT_EQ(folded.num_bits(), 32u);
  EXPECT_EQ(folded.num_transactions(), db.size());

  for (Itemset items : std::vector<Itemset>{{1}, {2, 3}, {10, 20, 30}}) {
    size_t est_full = bbs->CountItemSet(items);
    size_t est_folded = folded.CountItemSet(items);
    uint64_t actual = testing::BruteForceSupport(db, items);
    EXPECT_GE(est_folded, est_full) << ItemsetToString(items);
    EXPECT_GE(est_full, actual) << ItemsetToString(items);
  }
  // Exact 1-itemset counts survive folding.
  EXPECT_EQ(folded.ExactItemCount(1), bbs->ExactItemCount(1));
}

TEST(BbsIndexTest, FoldedInsertStaysConsistent) {
  BbsConfig config;
  config.num_bits = 64;
  config.num_hashes = 2;
  auto bbs = BbsIndex::Create(config);
  ASSERT_TRUE(bbs.ok());
  bbs->Insert({1, 2, 3});
  BbsIndex folded = bbs->Fold(8);
  folded.Insert({4, 5});
  EXPECT_EQ(folded.num_transactions(), 2u);
  EXPECT_GE(folded.CountItemSet({4, 5}), 1u);
  EXPECT_GE(folded.CountItemSet({1, 2, 3}), 1u);
}

TEST(BbsIndexTest, SaveLoadRoundTrip) {
  TransactionDatabase db = testing::RandomDb(17, 150, 80, 5.0);
  BbsConfig config;
  config.num_bits = 100;
  config.num_hashes = 3;
  config.seed = 5;
  auto bbs = BbsIndex::Create(config);
  ASSERT_TRUE(bbs.ok());
  bbs->InsertAll(db);

  std::string path = TempPath("bbsmine_idx_roundtrip.bin");
  ASSERT_TRUE(bbs->Save(path).ok());
  Result<BbsIndex> loaded = BbsIndex::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(*loaded == *bbs);
  // Behavioral equivalence, not just structural.
  EXPECT_EQ(loaded->CountItemSet({1, 2}), bbs->CountItemSet({1, 2}));
  EXPECT_EQ(loaded->ExactItemCount(3), bbs->ExactItemCount(3));
  std::remove(path.c_str());
}

TEST(BbsIndexTest, SaveStreamsTheSerializeImageAndLoadSegmentMatchesLoad) {
  TransactionDatabase db = testing::RandomDb(19, 3000, 200, 6.0);
  BbsConfig config;
  config.num_bits = 1000;
  config.num_hashes = 3;
  config.track_item_counts = true;
  BbsIndex bbs = BbsIndex::Create(config).value();
  bbs.InsertAll(db);

  const std::string path = TempPath("bbsmine_idx_streamed.bin");
  uint32_t file_crc = 0;
  ASSERT_TRUE(bbs.Save(path, WriteFileOptions(), &file_crc).ok());
  Result<std::string> written = ReadBinaryFile(path);
  ASSERT_TRUE(written.ok());
  EXPECT_EQ(*written, bbs.Serialize());
  EXPECT_EQ(file_crc, Crc32(*written));

  Result<BbsIndex> resident = BbsIndex::Load(path);
  uint32_t loaded_crc = 0;
  Result<BbsIndex> block = BbsIndex::Load(path, 4000, &loaded_crc);
  ASSERT_TRUE(resident.ok() && block.ok());
  EXPECT_EQ(loaded_crc, file_crc);
  EXPECT_TRUE(*resident == bbs);
  EXPECT_TRUE(*block == bbs);
  EXPECT_EQ(block->append_capacity(), 4000u);
  // Without a capacity the block holds exactly the file's transactions.
  EXPECT_EQ(resident->append_capacity(), db.size());
  // The block takes inserts in place and stays equal to the original; the
  // exact one moves to a block of twice its capacity.
  for (size_t t = 0; t < 50; ++t) {
    block->Insert(db.At(t).items);
    resident->Insert(db.At(t).items);
    bbs.Insert(db.At(t).items);
  }
  EXPECT_TRUE(*block == bbs);
  EXPECT_TRUE(*resident == bbs);
  EXPECT_EQ(block->append_capacity(), 4000u);
  EXPECT_EQ(resident->append_capacity(), 2 * db.size());
  EXPECT_EQ(block->CountItemSet({1, 2}), bbs.CountItemSet({1, 2}));
  EXPECT_EQ(resident->CountItemSet({1, 2}), bbs.CountItemSet({1, 2}));
  std::remove(path.c_str());
}

TEST(BbsIndexTest, LoadRejectsCorruption) {
  BbsIndex bbs = PaperExampleBbs();
  std::string path = TempPath("bbsmine_idx_corrupt.bin");
  ASSERT_TRUE(bbs.Save(path).ok());
  {
    std::FILE* f = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 25, SEEK_SET);
    int c = std::fgetc(f);
    std::fseek(f, 25, SEEK_SET);
    std::fputc(c ^ 0x55, f);
    std::fclose(f);
  }
  Result<BbsIndex> loaded = BbsIndex::Load(path);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
  std::remove(path.c_str());
}

// The v1 packed layout ("BBSIDX01") is retired: a well-formed v1 image —
// here an empty 8-bit index, checksum and all — is rejected by both loaders
// as Corruption.
TEST(BbsIndexTest, RetiredV1LayoutIsRejected) {
  auto append = [](std::string* out, uint64_t v, int bytes) {
    for (int i = 0; i < bytes; ++i) {
      out->push_back(static_cast<char>(v >> (8 * i)));
    }
  };
  std::string payload;
  append(&payload, 8, 4);  // num_bits
  append(&payload, 1, 4);  // num_hashes
  append(&payload, static_cast<uint64_t>(HashKind::kModulo), 4);
  append(&payload, 0, 8);  // seed
  append(&payload, 0, 4);  // track_item_counts
  append(&payload, 0, 4);  // folded_bits
  append(&payload, 0, 8);  // transactions
  append(&payload, 0, 8);  // item-count table size
  std::string file = "BBSIDX01";
  append(&file, 1, 4);  // format version
  append(&file, Crc32(payload), 4);
  file += payload;

  std::string path = TempPath("bbsmine_idx_v1.bin");
  ASSERT_TRUE(WriteBinaryFile(path, file).ok());
  EXPECT_EQ(BbsIndex::Load(path).status().code(), StatusCode::kCorruption);
  EXPECT_EQ(BbsIndex::OpenMmap(path).status().code(), StatusCode::kCorruption);
  std::remove(path.c_str());
}

TEST(BbsIndexTest, SerializedBytesAndMemoryUsage) {
  BbsIndex bbs = PaperExampleBbs();
  // 8 slices x ceil(5/8) = 8 bytes.
  EXPECT_EQ(bbs.SliceBytes(), 1u);
  EXPECT_EQ(bbs.SerializedBytes(), 8u);
  EXPECT_GT(bbs.MemoryUsage(), 0u);

  IoStats io;
  bbs.ChargeFullScan(&io);
  EXPECT_EQ(io.sequential_reads, 1u);
}

TEST(BbsIndexTest, ConcurrentCountsOnUnseenItemsAreRaceFree) {
  // Two threads count on one index with items it has never hashed, so both
  // take the position table's miss path at once — on the same items, in
  // opposite orders. Run under ThreadSanitizer in CI.
  BbsConfig config;
  config.num_bits = 512;
  config.num_hashes = 3;
  auto index = BbsIndex::Create(config);
  ASSERT_TRUE(index.ok());
  index->InsertAll(testing::RandomDb(5, 200, 20, 4.0));
  constexpr ItemId kFirstUnseen = 1000;
  constexpr ItemId kUnseen = 2000;
  std::vector<size_t> counts[2];
  std::vector<std::thread> threads;
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&, t] {
      for (ItemId i = 0; i < kUnseen; ++i) {
        const ItemId item = t == 0 ? kFirstUnseen + i
                                   : kFirstUnseen + kUnseen - 1 - i;
        BitVector result;
        counts[t].push_back(index->CountItemSet({item}, &result));
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  std::reverse(counts[1].begin(), counts[1].end());
  EXPECT_EQ(counts[0], counts[1]);
  for (ItemId i = 0; i < kUnseen; i += 97) {
    EXPECT_EQ(index->CountItemSet({kFirstUnseen + i}), counts[0][i]);
  }
}

}  // namespace
}  // namespace bbsmine
