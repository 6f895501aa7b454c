// Tests for the transaction model and the transaction database (including
// on-disk round-trips, the TID index and I/O accounting).

#include "storage/transaction_db.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <thread>
#include <vector>

#include "storage/transaction.h"
#include "testing/reference.h"
#include "util/crc32.h"

namespace bbsmine {
namespace {

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

// --- Itemset helpers -----------------------------------------------------------

TEST(ItemsetTest, CanonicalizeSortsAndDedups) {
  Itemset items = {5, 1, 3, 1, 5};
  Canonicalize(&items);
  EXPECT_EQ(items, (Itemset{1, 3, 5}));
}

TEST(ItemsetTest, SubsetChecks) {
  Itemset small = {1, 3};
  Itemset big = {1, 2, 3, 4};
  EXPECT_TRUE(IsSubsetOf(small, big));
  EXPECT_FALSE(IsSubsetOf(big, small));
  EXPECT_TRUE(IsSubsetOf({}, small));
  EXPECT_TRUE(Contains(big, 4));
  EXPECT_FALSE(Contains(big, 5));
}

TEST(ItemsetTest, UnionOf) {
  EXPECT_EQ(UnionOf({1, 3}, {2, 3, 9}), (Itemset{1, 2, 3, 9}));
  EXPECT_EQ(UnionOf({}, {7}), (Itemset{7}));
}

TEST(ItemsetTest, ToString) {
  EXPECT_EQ(ItemsetToString({1, 2, 3}), "{1, 2, 3}");
  EXPECT_EQ(ItemsetToString({}), "{}");
}

// --- TidIndex -------------------------------------------------------------------

TEST(TidIndexTest, OffsetsAndSizes) {
  TidIndex index;
  index.Append(100);
  index.Append(50);
  index.Append(8);
  EXPECT_EQ(index.size(), 3u);
  EXPECT_EQ(index.OffsetOf(0), 0u);
  EXPECT_EQ(index.OffsetOf(1), 100u);
  EXPECT_EQ(index.OffsetOf(2), 150u);
  EXPECT_EQ(index.SizeOf(0), 100u);
  EXPECT_EQ(index.SizeOf(1), 50u);
  EXPECT_EQ(index.SizeOf(2), 8u);
  EXPECT_EQ(index.total_bytes(), 158u);
}

TEST(TidIndexTest, BlockMath) {
  TidIndex index;
  index.Append(100);   // record 0: bytes [0, 100)
  index.Append(4000);  // record 1: bytes [100, 4100) -> blocks 0..1
  index.Append(10);    // record 2: bytes [4100, 4110) -> block 1
  EXPECT_EQ(index.BlockOf(0, 4096), 0u);
  EXPECT_EQ(index.BlockSpan(0, 4096), 1u);
  EXPECT_EQ(index.BlockOf(1, 4096), 0u);
  EXPECT_EQ(index.BlockSpan(1, 4096), 2u);
  EXPECT_EQ(index.BlockOf(2, 4096), 1u);
  EXPECT_EQ(index.BlockSpan(2, 4096), 1u);
}

// --- TransactionDatabase ---------------------------------------------------------

TEST(TransactionDbTest, AppendAssignsSequentialTids) {
  TransactionDatabase db;
  EXPECT_EQ(db.Append({3, 1}), 0u);
  EXPECT_EQ(db.Append({2}), 1u);
  EXPECT_EQ(db.size(), 2u);
  EXPECT_EQ(db.At(0).items, (Itemset{1, 3})) << "items must be canonical";
}

TEST(TransactionDbTest, ExplicitTidsPreserved) {
  TransactionDatabase db = testing::PaperExampleDb();
  EXPECT_EQ(db.At(0).tid, 100u);
  EXPECT_EQ(db.At(4).tid, 500u);
  EXPECT_EQ(db.item_universe(), 16u);
}

TEST(TransactionDbTest, DistinctItems) {
  TransactionDatabase db = testing::MakeDb({{1, 5}, {5, 9}, {1}});
  EXPECT_EQ(db.DistinctItems(), (Itemset{1, 5, 9}));
}

TEST(TransactionDbTest, ForEachVisitsInOrderAndChargesOneScan) {
  TransactionDatabase db = testing::PaperExampleDb();
  IoStats io;
  std::vector<Tid> seen;
  db.ForEach(&io, [&](const Transaction& txn) { seen.push_back(txn.tid); });
  EXPECT_EQ(seen, (std::vector<Tid>{100, 200, 300, 400, 500}));
  EXPECT_EQ(io.sequential_reads,
            BlocksFor(db.SerializedBytes(), db.block_size()));
  EXPECT_EQ(io.random_reads, 0u);
}

TEST(TransactionDbTest, ProbeChargesRandomReads) {
  TransactionDatabase db = testing::PaperExampleDb();
  IoStats io;
  const Transaction& txn = db.Probe(2, &io);
  EXPECT_EQ(txn.tid, 300u);
  EXPECT_EQ(io.random_reads, 1u);
  EXPECT_EQ(io.sequential_reads, 0u);
}

TEST(TransactionDbTest, SerializedBytesMatchesRecordLayout) {
  TransactionDatabase db;
  db.Append({1, 2, 3});  // 8 + 4 + 12 = 24
  db.Append({});         // 8 + 4 = 12
  EXPECT_EQ(db.SerializedBytes(), 36u);
}

TEST(TransactionDbTest, SaveLoadRoundTrip) {
  TransactionDatabase db = testing::PaperExampleDb();
  std::string path = TempPath("bbsmine_db_roundtrip.bin");
  ASSERT_TRUE(db.Save(path).ok());

  Result<TransactionDatabase> loaded = TransactionDatabase::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(*loaded == db);
  EXPECT_EQ(loaded->item_universe(), db.item_universe());
  std::remove(path.c_str());
}

TEST(TransactionDbTest, SaveLoadEmptyDatabase) {
  TransactionDatabase db;
  std::string path = TempPath("bbsmine_db_empty.bin");
  ASSERT_TRUE(db.Save(path).ok());
  Result<TransactionDatabase> loaded = TransactionDatabase::Load(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->size(), 0u);
  std::remove(path.c_str());
}

TEST(TransactionDbTest, LoadMissingFileFails) {
  Result<TransactionDatabase> loaded =
      TransactionDatabase::Load(TempPath("bbsmine_db_does_not_exist.bin"));
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);
}

TEST(TransactionDbTest, LoadRejectsBadMagic) {
  std::string path = TempPath("bbsmine_db_badmagic.bin");
  {
    std::ofstream out(path, std::ios::binary);
    out << "NOTADB!!garbagegarbage";
  }
  Result<TransactionDatabase> loaded = TransactionDatabase::Load(path);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
  std::remove(path.c_str());
}

TEST(TransactionDbTest, LoadRejectsCorruptedPayload) {
  TransactionDatabase db = testing::PaperExampleDb();
  std::string path = TempPath("bbsmine_db_corrupt.bin");
  ASSERT_TRUE(db.Save(path).ok());
  {
    // Flip a byte in the payload region (past the 16-byte header).
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(30);
    char byte;
    f.seekg(30);
    f.get(byte);
    f.seekp(30);
    f.put(static_cast<char>(byte ^ 0x7f));
  }
  Result<TransactionDatabase> loaded = TransactionDatabase::Load(path);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
  std::remove(path.c_str());
}

TEST(TransactionDbTest, LoadRejectsTruncatedFile) {
  TransactionDatabase db = testing::PaperExampleDb();
  std::string path = TempPath("bbsmine_db_truncated.bin");
  ASSERT_TRUE(db.Save(path).ok());
  std::filesystem::resize_file(path, 20);
  Result<TransactionDatabase> loaded = TransactionDatabase::Load(path);
  EXPECT_FALSE(loaded.ok());
  std::remove(path.c_str());
}

/// Writes `payload` behind a valid header (magic, version, its CRC): a file
/// whose checksum passes, so only the length checks can reject it.
void WriteWithValidCrc(const std::string& path, const std::string& payload) {
  std::string file = "BBSTXDB1";
  for (uint32_t v : {1u, Crc32(payload)}) {
    for (int i = 0; i < 4; ++i) file.push_back(static_cast<char>(v >> (8 * i)));
  }
  file += payload;
  std::ofstream(path, std::ios::binary) << file;
}

TEST(TransactionDbTest, LoadChecksLengthFieldsAgainstTheBytesLeft) {
  auto u32 = [](std::string* out, uint32_t v) {
    for (int i = 0; i < 4; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
  };
  auto u64 = [](std::string* out, uint64_t v) {
    for (int i = 0; i < 8; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
  };
  const std::string path = TempPath("bbsmine_db_lengths.bin");

  // A record count no file of this size can hold.
  std::string huge_count;
  u64(&huge_count, uint64_t{1} << 60);
  u32(&huge_count, 4);
  u32(&huge_count, 4096);
  WriteWithValidCrc(path, huge_count);
  Result<TransactionDatabase> loaded = TransactionDatabase::Load(path);
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
  EXPECT_NE(loaded.status().message().find("truncated record"),
            std::string::npos);

  // One record claiming 2^32-1 items: rejected before any item storage is
  // sized by it.
  std::string huge_items;
  u64(&huge_items, 1);
  u32(&huge_items, 4);
  u32(&huge_items, 4096);
  u64(&huge_items, 0);
  u32(&huge_items, 0xffffffffu);
  u32(&huge_items, 3);
  WriteWithValidCrc(path, huge_items);
  loaded = TransactionDatabase::Load(path);
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
  EXPECT_NE(loaded.status().message().find("truncated record items"),
            std::string::npos);

  // The same records behind a wrong checksum report the checksum.
  std::ofstream(path, std::ios::binary | std::ios::app) << "x";
  loaded = TransactionDatabase::Load(path);
  EXPECT_NE(loaded.status().message().find("checksum mismatch"),
            std::string::npos);
  std::remove(path.c_str());
}

TEST(TransactionDbTest, LoadStreamsLargeDatabasesBitIdentically) {
  // Several of the loader's read pieces, records straddling their edges.
  TransactionDatabase db = testing::RandomDb(3, 30'000, 500, 9.0);
  db.set_block_size(512);
  const std::string path = TempPath("bbsmine_db_large.bin");
  ASSERT_TRUE(db.Save(path).ok());
  Result<TransactionDatabase> loaded = TransactionDatabase::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(*loaded == db);
  EXPECT_EQ(loaded->block_size(), 512u);
  EXPECT_EQ(loaded->item_universe(), db.item_universe());
  EXPECT_EQ(loaded->SerializedBytes(), db.SerializedBytes());
  std::remove(path.c_str());
}

// --- Append-stable chunked storage ------------------------------------------------

/// Deterministic transaction t: 0-3 items, so record sizes (and the TID
/// index offsets) vary, empty transactions included.
Itemset ChunkTestItems(size_t t) {
  Itemset items;
  for (size_t k = 0; k < t % 4; ++k) {
    items.push_back(static_cast<ItemId>((t * 7 + k * 13) % 50));
  }
  Canonicalize(&items);
  return items;
}

/// A small block size, so the I/O charge of a scan tracks its byte count.
constexpr uint32_t kChunkTestBlock = 64;

TransactionDatabase ChunkTestDb(size_t n) {
  TransactionDatabase db;
  db.set_block_size(kChunkTestBlock);
  for (size_t t = 0; t < n; ++t) db.Append(ChunkTestItems(t));
  return db;
}

/// Asserts `view` holds exactly transactions [0, n) of ChunkTestDb.
void ExpectChunkTestPrefix(const DatabaseView& view, size_t n) {
  ASSERT_EQ(view.size(), n);
  uint64_t bytes = 0;
  for (size_t t = 0; t < n; ++t) {
    ASSERT_EQ(view.At(t).tid, t);
    ASSERT_EQ(view.At(t).items, ChunkTestItems(t));
    bytes += 12 + 4 * view.At(t).items.size();
  }
  size_t seen = 0;
  IoStats io;
  view.ForEach(&io, [&](const Transaction& txn) {
    EXPECT_EQ(txn.tid, seen);
    ++seen;
  });
  EXPECT_EQ(seen, n);
  EXPECT_EQ(io.sequential_reads, BlocksFor(bytes, kChunkTestBlock));
}

TEST(ChunkedStorageTest, ChunkBoundaryMatrix) {
  constexpr size_t C = kChunkRecords;
  for (size_t n : {size_t{0}, C - 1, C, C + 1, 3 * C + 5}) {
    SCOPED_TRACE("size " + std::to_string(n));
    TransactionDatabase db = ChunkTestDb(n);
    ASSERT_EQ(db.size(), n);

    // At, Probe and the TID index against a flat reference layout.
    uint64_t offset = 0;
    IoStats probe_io;
    uint64_t expected_random = 0;
    for (size_t t = 0; t < n; ++t) {
      const Itemset items = ChunkTestItems(t);
      ASSERT_EQ(db.At(t).tid, t);
      ASSERT_EQ(db.At(t).items, items);
      const uint64_t bytes = 12 + 4 * items.size();
      ASSERT_EQ(db.tid_index().OffsetOf(t), offset);
      ASSERT_EQ(db.tid_index().SizeOf(t), bytes);
      expected_random += (offset + bytes - 1) / db.block_size() -
                         offset / db.block_size() + 1;
      ASSERT_EQ(&db.Probe(t, &probe_io), &db.At(t));
      offset += bytes;
    }
    EXPECT_EQ(probe_io.random_reads, expected_random);
    EXPECT_EQ(db.tid_index().size(), n);
    EXPECT_EQ(db.SerializedBytes(), offset);

    // ForEach, through the database and through its full prefix view.
    std::vector<Tid> seen;
    IoStats scan_io;
    db.ForEach(&scan_io, [&](const Transaction& txn) {
      seen.push_back(txn.tid);
    });
    ASSERT_EQ(seen.size(), n);
    for (size_t t = 0; t < n; ++t) ASSERT_EQ(seen[t], t);
    EXPECT_EQ(scan_io.sequential_reads, BlocksFor(offset, db.block_size()));
    ExpectChunkTestPrefix(db.Prefix(), n);

    // Save -> Load round trip and equality.
    const std::string path = TempPath("bbsmine_db_chunks.bin");
    ASSERT_TRUE(db.Save(path).ok());
    Result<TransactionDatabase> loaded = TransactionDatabase::Load(path);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    EXPECT_TRUE(*loaded == db);
    EXPECT_EQ(loaded->SerializedBytes(), db.SerializedBytes());
    std::remove(path.c_str());
    if (n > 0) {
      TransactionDatabase shorter = ChunkTestDb(n - 1);
      EXPECT_FALSE(shorter == db);
      shorter.Append(Itemset{49});
      EXPECT_FALSE(shorter == db);
    }
  }
}

TEST(ChunkedStorageTest, ViewIsUnchangedByLaterAppends) {
  constexpr size_t C = kChunkRecords;
  TransactionDatabase db = ChunkTestDb(C - 2);
  const DatabaseView early = db.Prefix();
  const DatabaseView partial = db.Prefix(10);
  const Transaction* first = &early.At(0);
  // Fill the open chunk and add two more.
  for (size_t t = C - 2; t < 3 * C + 5; ++t) db.Append(ChunkTestItems(t));
  ExpectChunkTestPrefix(early, C - 2);
  ExpectChunkTestPrefix(partial, 10);
  EXPECT_EQ(&db.At(0), first) << "an append moved a published record";
  ExpectChunkTestPrefix(db.Prefix(), 3 * C + 5);
}

TEST(ChunkedStorageTest, CopyAppendLeavesOriginalAndItsViewsUntouched) {
  constexpr size_t C = kChunkRecords;
  // C + 3 leaves an open chunk both sides could be tempted to share.
  TransactionDatabase original = ChunkTestDb(C + 3);
  const DatabaseView view = original.Prefix();
  TransactionDatabase copy = original;
  EXPECT_TRUE(copy == original);
  EXPECT_NE(&copy.At(C + 2), &original.At(C + 2)) << "copies must be deep";
  for (size_t t = 0; t < 10; ++t) copy.Append(Itemset{99});
  EXPECT_EQ(original.size(), C + 3);
  ExpectChunkTestPrefix(view, C + 3);
  ExpectChunkTestPrefix(original.Prefix(), C + 3);
  EXPECT_EQ(copy.size(), C + 13);
  EXPECT_EQ(copy.At(C + 3).items, (Itemset{99}));
  EXPECT_EQ(copy.item_universe(), 100u);
  EXPECT_EQ(original.item_universe(), 50u);

  // And the other way round: the original grows, the copy stays.
  TransactionDatabase snapshot = original;
  original.Append(Itemset{1});
  EXPECT_EQ(snapshot.size(), C + 3);
  ExpectChunkTestPrefix(snapshot.Prefix(), C + 3);
}

TEST(ChunkedStorageTest, ViewOutlivesTheDatabase) {
  DatabaseView view;
  {
    TransactionDatabase db = ChunkTestDb(kChunkRecords + 1);
    view = db.Prefix();
  }
  ExpectChunkTestPrefix(view, kChunkRecords + 1);
}

TEST(ChunkedStorageTest, ReadersSeeStablePrefixesWhileWriterAppends) {
  // One writer, several readers taking Prefix() views; built to run clean
  // under ThreadSanitizer.
  constexpr size_t kTotal = 2 * kChunkRecords + 100;
  TransactionDatabase db;
  db.set_block_size(kChunkTestBlock);
  std::atomic<bool> done{false};
  std::atomic<uint64_t> bad{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      size_t last = 0;
      while (!done.load(std::memory_order_acquire)) {
        const DatabaseView view = db.Prefix();
        if (view.size() < last) bad.fetch_add(1);
        last = view.size();
        // Spot-check the ends of the view, where the writer is busiest.
        for (size_t t = view.size() > 8 ? view.size() - 8 : 0;
             t < view.size(); ++t) {
          if (view.At(t).tid != t || view.At(t).items != ChunkTestItems(t)) {
            bad.fetch_add(1);
          }
        }
      }
    });
  }
  for (size_t t = 0; t < kTotal; ++t) db.Append(ChunkTestItems(t));
  done.store(true, std::memory_order_release);
  for (std::thread& reader : readers) reader.join();
  EXPECT_EQ(bad.load(), 0u);
  ExpectChunkTestPrefix(db.Prefix(), kTotal);
}

TEST(TransactionDbTest, SaveWritesTheDocumentedImage) {
  // The on-disk image, assembled by hand: magic, version, CRC of the
  // payload, then the payload (count, universe, block size, records).
  TransactionDatabase db;
  db.AppendTransaction(Transaction{7, {3, 1}});
  db.AppendTransaction(Transaction{9, {}});
  db.set_block_size(512);
  auto u32 = [](std::string* out, uint32_t v) {
    for (int i = 0; i < 4; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
  };
  auto u64 = [](std::string* out, uint64_t v) {
    for (int i = 0; i < 8; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
  };
  std::string payload;
  u64(&payload, 2);    // records
  u32(&payload, 4);    // item universe
  u32(&payload, 512);  // block size
  u64(&payload, 7);
  u32(&payload, 2);
  u32(&payload, 1);
  u32(&payload, 3);
  u64(&payload, 9);
  u32(&payload, 0);
  std::string expected = "BBSTXDB1";
  u32(&expected, 1);  // format version
  u32(&expected, Crc32(payload));
  expected += payload;

  const std::string path = TempPath("bbsmine_db_image.bin");
  ASSERT_TRUE(db.Save(path).ok());
  std::ifstream in(path, std::ios::binary);
  const std::string written((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
  EXPECT_EQ(written, expected);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace bbsmine
