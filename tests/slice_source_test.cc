// Tests for the SliceSource read-path backends: mmap/resident parity on
// every query primitive and mining scheme (across every available SIMD
// kernel), the v2 aligned format's corruption handling, fold compaction
// semantics (upper bounds, Save/Load round-trips), synthetic-I/O gating,
// and the SnapshotManager cold-segment compaction hook.

#include "core/slice_source.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/bbs_index.h"
#include "core/miner.h"
#include "core/segmented_bbs.h"
#include "service/snapshot.h"
#include "testing/reference.h"
#include "util/bitvector_kernels.h"
#include "util/crc32.h"

namespace bbsmine {
namespace {

// Pid-qualified: ctest -j runs each test case of a fixture as its own
// process, so a fixed name would let concurrent cases clobber each
// other's files.
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

void WriteFile(const std::string& path, const std::string& contents) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(contents.data(),
            static_cast<std::streamsize>(contents.size()));
}

BbsConfig SmallConfig(uint32_t bits = 128) {
  BbsConfig config;
  config.num_bits = bits;
  config.num_hashes = 3;
  return config;
}

/// Exact support by database scan (canonical itemsets are sorted).
uint64_t ExactCount(const TransactionDatabase& db, const Itemset& query) {
  uint64_t count = 0;
  for (size_t t = 0; t < db.size(); ++t) {
    const Itemset& txn = db.At(t).items;
    if (std::includes(txn.begin(), txn.end(), query.begin(), query.end())) {
      ++count;
    }
  }
  return count;
}

std::vector<Itemset> QuerySet() {
  return {{0}, {3}, {7, 11}, {1, 4, 9}, {2, 5, 8, 13}, {19}, {6, 17}};
}

/// Restores the process-global kernel selection on scope exit.
struct KernelGuard {
  std::string saved = kernels::ActiveName();
  ~KernelGuard() { kernels::SetActive(saved.c_str()); }
};

TEST(SliceSourceTest, ParseIndexBackend) {
  auto resident = ParseIndexBackend("resident");
  ASSERT_TRUE(resident.ok());
  EXPECT_EQ(*resident, IndexBackend::kResident);
  auto mmap = ParseIndexBackend("mmap");
  ASSERT_TRUE(mmap.ok());
  EXPECT_EQ(*mmap, IndexBackend::kMmap);
  EXPECT_EQ(ParseIndexBackend("disk").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_STREQ(IndexBackendName(IndexBackend::kResident), "resident");
  EXPECT_STREQ(IndexBackendName(IndexBackend::kMmap), "mmap");
}

// Every counting primitive must answer bit-identically from the mmap
// backend, under every SIMD kernel the host can run.
TEST(SliceSourceTest, MmapCountParityAcrossKernels) {
  TransactionDatabase db = testing::RandomDb(21, 400, 24, 5.0);
  auto built = BbsIndex::Create(SmallConfig());
  ASSERT_TRUE(built.ok());
  built->InsertAll(db);
  std::string path = TempPath("bbsmine_slicesrc_parity.bbs");
  ASSERT_TRUE(built->Save(path).ok());

  auto resident = BbsIndex::Load(path);
  auto mapped = BbsIndex::OpenMmap(path);
  ASSERT_TRUE(resident.ok());
  ASSERT_TRUE(mapped.ok());
  EXPECT_TRUE(resident->resident());
  EXPECT_FALSE(mapped->resident());
  EXPECT_STREQ(resident->backend_name(), "resident");
  EXPECT_STREQ(mapped->backend_name(), "mmap");

  BitVector constraint(db.size());
  for (size_t t = 0; t < db.size(); t += 3) constraint.Set(t);

  KernelGuard guard;
  for (const char* kernel : kernels::AvailableNames()) {
    ASSERT_TRUE(kernels::SetActive(kernel)) << kernel;
    for (const Itemset& query : QuerySet()) {
      SCOPED_TRACE(std::string(kernel) + " / " + ItemsetToString(query));
      BitVector matches_resident;
      BitVector matches_mapped;
      EXPECT_EQ(resident->CountItemSet(query, &matches_resident),
                mapped->CountItemSet(query, &matches_mapped));
      EXPECT_EQ(matches_resident, matches_mapped);
      EXPECT_EQ(resident->CountItemSetAtLeast(query, 5),
                mapped->CountItemSetAtLeast(query, 5));
      EXPECT_EQ(resident->CountItemSetConstrained(query, constraint),
                mapped->CountItemSetConstrained(query, constraint));
    }
    BitVector and_resident(db.size());
    BitVector and_mapped(db.size());
    and_resident.SetAll();
    and_mapped.SetAll();
    EXPECT_EQ(resident->AndItemSlices(7, &and_resident),
              mapped->AndItemSlices(7, &and_mapped));
    EXPECT_EQ(and_resident, and_mapped);
  }
  std::remove(path.c_str());
}

// All four filter-and-refine schemes must mine the identical pattern set
// from the mmap backend (the miner's decisions must not depend on the
// backend's I/O accounting).
TEST(SliceSourceTest, MmapMineParityAllSchemes) {
  TransactionDatabase db = testing::RandomDb(22, 500, 20, 6.0);
  auto built = BbsIndex::Create(SmallConfig());
  ASSERT_TRUE(built.ok());
  built->InsertAll(db);
  std::string path = TempPath("bbsmine_slicesrc_mine.bbs");
  ASSERT_TRUE(built->Save(path).ok());
  auto resident = BbsIndex::Load(path);
  auto mapped = BbsIndex::OpenMmap(path);
  ASSERT_TRUE(resident.ok());
  ASSERT_TRUE(mapped.ok());

  for (Algorithm algorithm : {Algorithm::kSFS, Algorithm::kSFP,
                              Algorithm::kDFS, Algorithm::kDFP}) {
    SCOPED_TRACE(AlgorithmName(algorithm));
    MineConfig config;
    config.algorithm = algorithm;
    config.min_support = 0.02;
    MiningResult from_resident = MineFrequentPatterns(db, *resident, config);
    MiningResult from_mapped = MineFrequentPatterns(db, *mapped, config);
    from_resident.SortPatterns();
    from_mapped.SortPatterns();
    ASSERT_EQ(from_resident.patterns.size(), from_mapped.patterns.size());
    for (size_t i = 0; i < from_resident.patterns.size(); ++i) {
      EXPECT_EQ(from_resident.patterns[i].items,
                from_mapped.patterns[i].items);
      EXPECT_EQ(from_resident.patterns[i].support,
                from_mapped.patterns[i].support);
    }
  }
  std::remove(path.c_str());
}

// The mmap backend opts out of the paper's synthetic I/O charging (its
// slices are really faulted in by the kernel) while the backend-agnostic
// slice_words_touched instrumentation stays identical.
TEST(SliceSourceTest, MmapSkipsSyntheticIoCharges) {
  TransactionDatabase db = testing::RandomDb(23, 200, 16, 4.0);
  auto built = BbsIndex::Create(SmallConfig());
  ASSERT_TRUE(built.ok());
  built->InsertAll(db);
  std::string path = TempPath("bbsmine_slicesrc_io.bbs");
  ASSERT_TRUE(built->Save(path).ok());
  auto resident = BbsIndex::Load(path);
  auto mapped = BbsIndex::OpenMmap(path);
  ASSERT_TRUE(resident.ok());
  ASSERT_TRUE(mapped.ok());

  IoStats resident_io;
  IoStats mapped_io;
  const Itemset query = {1, 5};
  EXPECT_EQ(resident->CountItemSet(query, nullptr, &resident_io),
            mapped->CountItemSet(query, nullptr, &mapped_io));
  EXPECT_GT(resident_io.sequential_reads, 0u);
  EXPECT_EQ(mapped_io.sequential_reads, 0u);
  EXPECT_GT(mapped_io.slice_words_touched, 0u);
  EXPECT_EQ(resident_io.slice_words_touched, mapped_io.slice_words_touched);

  IoStats scan_io;
  mapped->ChargeFullScan(&scan_io);
  EXPECT_EQ(scan_io.sequential_reads, 0u);
  std::remove(path.c_str());
}

// Resident bytes: heap-backed slices dominate; mmap pins none of them.
TEST(SliceSourceTest, ApproxResidentBytes) {
  TransactionDatabase db = testing::RandomDb(24, 300, 16, 4.0);
  auto built = BbsIndex::Create(SmallConfig());
  ASSERT_TRUE(built.ok());
  built->InsertAll(db);
  std::string path = TempPath("bbsmine_slicesrc_bytes.bbs");
  ASSERT_TRUE(built->Save(path).ok());
  auto resident = BbsIndex::Load(path);
  auto mapped = BbsIndex::OpenMmap(path);
  ASSERT_TRUE(resident.ok());
  ASSERT_TRUE(mapped.ok());
  EXPECT_GT(resident->ApproxResidentBytes(),
            static_cast<size_t>(SmallConfig().num_bits) * db.size() / 8 / 2);
  EXPECT_EQ(mapped->ApproxResidentBytes(), 0u);
  std::remove(path.c_str());
}

// ToTail copies an mmap'd index into a resident block, bit-identical; the
// copy constructor of an mmap-backed index shares the mapping instead.
TEST(SliceSourceTest, ToTailAndCopySemantics) {
  TransactionDatabase db = testing::RandomDb(25, 250, 16, 4.0);
  auto built = BbsIndex::Create(SmallConfig());
  ASSERT_TRUE(built.ok());
  built->InsertAll(db);
  std::string path = TempPath("bbsmine_slicesrc_mat.bbs");
  ASSERT_TRUE(built->Save(path).ok());
  auto resident = BbsIndex::Load(path);
  auto mapped = BbsIndex::OpenMmap(path);
  ASSERT_TRUE(resident.ok());
  ASSERT_TRUE(mapped.ok());

  BbsIndex materialized = mapped->ToTail(0);
  EXPECT_TRUE(materialized.resident());
  EXPECT_EQ(materialized.append_capacity(), db.size());
  EXPECT_TRUE(materialized == *resident);
  for (size_t pos = 0; pos < db.size(); ++pos) {
    ASSERT_EQ(materialized.SignatureBits(pos), resident->SignatureBits(pos));
  }

  BbsIndex shared_copy(*mapped);  // clone shares the mapping
  EXPECT_FALSE(shared_copy.resident());
  EXPECT_EQ(shared_copy.ApproxResidentBytes(), 0u);
  EXPECT_EQ(shared_copy.CountItemSet({3, 7}),
            resident->CountItemSet({3, 7}));
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Fold compaction semantics (satellite a).
// ---------------------------------------------------------------------------

// Folded counts stay upper bounds on exact supports (the MemBBS guarantee).
TEST(FoldTest, FoldedCountsAreUpperBounds) {
  TransactionDatabase db = testing::RandomDb(26, 400, 24, 5.0);
  auto built = BbsIndex::Create(SmallConfig(256));
  ASSERT_TRUE(built.ok());
  built->InsertAll(db);
  BbsIndex folded = built->Fold(64);
  EXPECT_TRUE(folded.is_folded());
  EXPECT_EQ(folded.num_bits(), 64u);
  for (const Itemset& query : QuerySet()) {
    SCOPED_TRACE(ItemsetToString(query));
    const uint64_t exact = ExactCount(db, query);
    EXPECT_GE(folded.CountItemSet(query), exact);
    // Folding can only coarsen: the folded estimate dominates the
    // full-width one, which dominates the truth.
    EXPECT_GE(folded.CountItemSet(query), built->CountItemSet(query));
  }
}

// Folding commutes with persistence: fold-then-save-then-load produces the
// same estimates as folding the loaded index, and is_folded round-trips.
TEST(FoldTest, FoldCommutesWithSaveLoad) {
  TransactionDatabase db = testing::RandomDb(27, 300, 20, 4.0);
  auto built = BbsIndex::Create(SmallConfig(256));
  ASSERT_TRUE(built.ok());
  built->InsertAll(db);

  std::string full_path = TempPath("bbsmine_fold_full.bbs");
  std::string folded_path = TempPath("bbsmine_fold_folded.bbs");
  ASSERT_TRUE(built->Save(full_path).ok());
  BbsIndex folded_first = built->Fold(64);
  ASSERT_TRUE(folded_first.Save(folded_path).ok());

  auto loaded_folded = BbsIndex::Load(folded_path);     // fold, then save
  auto loaded_full = BbsIndex::Load(full_path);         // save, then fold
  ASSERT_TRUE(loaded_folded.ok());
  ASSERT_TRUE(loaded_full.ok());
  EXPECT_TRUE(loaded_folded->is_folded());
  EXPECT_EQ(loaded_folded->num_bits(), 64u);
  BbsIndex folded_after_load = loaded_full->Fold(64);

  EXPECT_TRUE(*loaded_folded == folded_first);
  EXPECT_TRUE(folded_after_load == folded_first);
  for (const Itemset& query : QuerySet()) {
    EXPECT_EQ(loaded_folded->CountItemSet(query),
              folded_after_load.CountItemSet(query));
  }
  // The mmap backend serves the folded file identically too.
  auto mapped_folded = BbsIndex::OpenMmap(folded_path);
  ASSERT_TRUE(mapped_folded.ok());
  EXPECT_TRUE(mapped_folded->is_folded());
  for (const Itemset& query : QuerySet()) {
    EXPECT_EQ(mapped_folded->CountItemSet(query),
              folded_first.CountItemSet(query));
  }
  std::remove(full_path.c_str());
  std::remove(folded_path.c_str());
}

// Signature popcounts are recomputed consistently by fold and verified by
// load: a folded slice set ORs colliding positions, so each transaction's
// signature popcount equals the column sum over the folded slices.
TEST(FoldTest, SignatureBitsConsistentAfterFoldAndLoad) {
  TransactionDatabase db = testing::RandomDb(28, 200, 16, 4.0);
  auto built = BbsIndex::Create(SmallConfig(256));
  ASSERT_TRUE(built.ok());
  built->InsertAll(db);
  BbsIndex folded = built->Fold(64);
  for (size_t pos = 0; pos < db.size(); ++pos) {
    uint32_t column_sum = 0;
    for (uint32_t s = 0; s < folded.num_bits(); ++s) {
      column_sum += folded.Slice(s).Get(pos) ? 1 : 0;
    }
    ASSERT_EQ(folded.SignatureBits(pos), column_sum) << "txn " << pos;
  }
}

// ---------------------------------------------------------------------------
// v2 aligned-format corruption handling (mmap-specific cases; the flip
// matrix for every named region lives in robustness_test.cc).
// ---------------------------------------------------------------------------

class V2CorruptionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    TransactionDatabase db = testing::RandomDb(29, 100, 16, 4.0);
    auto built = BbsIndex::Create(SmallConfig(64));
    ASSERT_TRUE(built.ok());
    built->InsertAll(db);
    path_ = TempPath("bbsmine_v2_corrupt.bbs");
    ASSERT_TRUE(built->Save(path_).ok());
    original_ = ReadFile(path_);
  }

  void TearDown() override { std::remove(path_.c_str()); }

  std::string path_;
  std::string original_;
};

TEST_F(V2CorruptionTest, TruncationIsCleanCorruption) {
  // Truncation anywhere — inside the magic, the header, the metadata
  // arrays, the padding, or the slice data — must be a clean Corruption
  // from both loaders (the mmap path must bound-check before mapping
  // access so a short file cannot SIGBUS).
  uint64_t data_offset = 0;
  std::memcpy(&data_offset, original_.data() + 68, 8);
  for (size_t len : std::vector<size_t>{0, 4, 8, 12, 16, 40, 87, 88,
                                        static_cast<size_t>(data_offset) - 1,
                                        static_cast<size_t>(data_offset),
                                        original_.size() - 64,
                                        original_.size() - 1}) {
    SCOPED_TRACE(len);
    WriteFile(path_, original_.substr(0, len));
    Status loaded = BbsIndex::Load(path_).status();
    EXPECT_EQ(loaded.code(), StatusCode::kCorruption) << loaded.ToString();
    Status mapped = BbsIndex::OpenMmap(path_).status();
    EXPECT_EQ(mapped.code(), StatusCode::kCorruption) << mapped.ToString();
  }
}

TEST_F(V2CorruptionTest, MisalignedSliceOffsetRejected) {
  // Hand-craft a header whose slice_data_offset is valid-range but not
  // 64-byte aligned, with the header CRC recomputed so the parser reaches
  // the alignment check itself.
  std::string mutated = original_;
  uint64_t data_offset = 0;
  std::memcpy(&data_offset, mutated.data() + 68, 8);
  uint64_t crooked = data_offset + 8;
  std::memcpy(mutated.data() + 68, &crooked, 8);
  uint32_t crc = Crc32(std::string_view(mutated.data() + 16,
                                        static_cast<size_t>(crooked) - 16));
  std::memcpy(mutated.data() + 12, &crc, 4);
  WriteFile(path_, mutated);
  Status loaded = BbsIndex::Load(path_).status();
  EXPECT_EQ(loaded.code(), StatusCode::kCorruption) << loaded.ToString();
  Status mapped = BbsIndex::OpenMmap(path_).status();
  EXPECT_EQ(mapped.code(), StatusCode::kCorruption) << mapped.ToString();
}

TEST_F(V2CorruptionTest, TrailingBytesRejected) {
  WriteFile(path_, original_ + std::string(64, '\0'));
  EXPECT_EQ(BbsIndex::Load(path_).status().code(), StatusCode::kCorruption);
  EXPECT_EQ(BbsIndex::OpenMmap(path_).status().code(),
            StatusCode::kCorruption);
}

TEST_F(V2CorruptionTest, SliceDataFlipCaughtByResidentOnly) {
  // The documented trade-off: the resident loader verifies the slice-data
  // checksum; the mmap open (lazy serving) does not.
  std::string mutated = original_;
  mutated[mutated.size() - 1] =
      static_cast<char>(mutated[mutated.size() - 1] ^ 0x40);
  WriteFile(path_, mutated);
  EXPECT_EQ(BbsIndex::Load(path_).status().code(), StatusCode::kCorruption);
  EXPECT_TRUE(BbsIndex::OpenMmap(path_).ok());
}

// ---------------------------------------------------------------------------
// SegmentedBbs: mmap loading and segment-level fold compaction.
// ---------------------------------------------------------------------------

TEST(SegmentedSliceSourceTest, MmapLoadParity) {
  TransactionDatabase db = testing::RandomDb(30, 300, 20, 5.0);
  auto seg = SegmentedBbs::Create(SmallConfig(), 64);
  ASSERT_TRUE(seg.ok());
  ASSERT_TRUE(seg->InsertAll(db).ok());
  std::string prefix = TempPath("bbsmine_seg_mmap");
  ASSERT_TRUE(seg->Save(prefix).ok());

  auto resident = SegmentedBbs::Load(prefix);
  auto mapped = SegmentedBbs::Load(prefix, nullptr, IndexBackend::kMmap);
  ASSERT_TRUE(resident.ok());
  ASSERT_TRUE(mapped.ok());
  EXPECT_EQ(mapped->num_segments(), resident->num_segments());
  for (size_t idx = 0; idx < mapped->num_segments(); ++idx) {
    EXPECT_FALSE(mapped->segment(idx).resident());
  }
  for (const Itemset& query : QuerySet()) {
    EXPECT_EQ(mapped->CountItemSet(query), resident->CountItemSet(query));
  }

  // Inserting into an mmap-loaded index materializes only the tail.
  ASSERT_TRUE(mapped->Insert({1, 2, 3}).ok());
  EXPECT_TRUE(mapped->segment(mapped->num_segments() - 1).resident());
  EXPECT_FALSE(mapped->segment(0).resident());

  for (size_t i = 0; i < seg->num_segments(); ++i) {
    std::remove((prefix + ".seg" + std::to_string(i)).c_str());
  }
  std::remove((prefix + ".manifest").c_str());
}

TEST(SegmentedSliceSourceTest, FoldSegmentValidatesAndShrinks) {
  TransactionDatabase db = testing::RandomDb(31, 200, 20, 5.0);
  auto seg = SegmentedBbs::Create(SmallConfig(), 64);
  ASSERT_TRUE(seg.ok());
  ASSERT_TRUE(seg->InsertAll(db).ok());
  ASSERT_GE(seg->num_segments(), 2u);

  EXPECT_EQ(seg->FoldSegment(seg->num_segments(), 32).code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(seg->FoldSegment(seg->num_segments() - 1, 32).code(),
            StatusCode::kInvalidArgument);  // open tail
  EXPECT_EQ(seg->FoldSegment(0, 0).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(seg->FoldSegment(0, 1000).code(), StatusCode::kInvalidArgument);

  const uint64_t bytes_before = seg->segment(0).SerializedBytes();
  ASSERT_TRUE(seg->FoldSegment(0, 32).ok());
  EXPECT_TRUE(seg->segment(0).is_folded());
  EXPECT_LT(seg->segment(0).SerializedBytes(), bytes_before / 2);
  EXPECT_EQ(seg->FoldSegment(0, 64).code(), StatusCode::kInvalidArgument);

  // Counts across the mixed-width segment list stay upper bounds.
  for (const Itemset& query : QuerySet()) {
    EXPECT_GE(seg->CountItemSet(query), ExactCount(db, query));
  }
}

// ---------------------------------------------------------------------------
// SnapshotManager cold-segment compaction.
// ---------------------------------------------------------------------------

TEST(SnapshotCompactionTest, ColdSealedSegmentsFold) {
  TransactionDatabase db = testing::RandomDb(32, 200, 16, 4.0);
  auto manager = service::SnapshotManager::Create(SmallConfig(256), 32);
  ASSERT_TRUE(manager.ok());
  ASSERT_TRUE(manager->InsertAll(db).ok());
  ASSERT_GT(manager->seals(), 0u);

  service::CompactionPolicy disabled;
  EXPECT_EQ(manager->CompactColdSegments(disabled), 0u);

  service::CompactionPolicy policy;
  policy.cold_epochs = 1;
  policy.fold_bits = 64;
  // Everything sealed so far became cold at least one publication ago
  // (InsertAll published after the last seal).
  const uint64_t epoch_before = manager->Acquire().epoch();
  const size_t compacted = manager->CompactColdSegments(policy);
  EXPECT_EQ(compacted, manager->seals());
  EXPECT_EQ(manager->compactions(), compacted);
  // Idempotent: already-folded segments are skipped.
  EXPECT_EQ(manager->CompactColdSegments(policy), 0u);

  service::Snapshot snap = manager->Acquire();
  EXPECT_GT(snap.epoch(), epoch_before);  // compaction republished
  size_t folded_segments = 0;
  for (size_t idx = 0; idx < snap.num_segments(); ++idx) {
    if (snap.segment(idx).is_folded()) {
      ++folded_segments;
      EXPECT_EQ(snap.segment(idx).num_bits(), 64u);
    }
  }
  EXPECT_EQ(folded_segments, compacted);

  // Counts from the compacted snapshot remain upper bounds.
  for (const Itemset& query : QuerySet()) {
    EXPECT_GE(snap.CountItemSet(query), ExactCount(db, query));
  }
}

TEST(SnapshotCompactionTest, FreshSealsAreNotCold) {
  auto manager = service::SnapshotManager::Create(SmallConfig(256), 4);
  ASSERT_TRUE(manager.ok());
  // Fill exactly one segment; the seal happens lazily on the next insert,
  // so push one more to seal segment 0 at the current epoch.
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(manager->Insert({static_cast<ItemId>(i)}).ok());
  }
  ASSERT_EQ(manager->seals(), 1u);
  service::CompactionPolicy policy;
  policy.cold_epochs = 1'000'000;  // nothing is that cold
  policy.fold_bits = 64;
  EXPECT_EQ(manager->CompactColdSegments(policy), 0u);
}

// Snapshot::ApproxResidentBytes distinguishes heap-backed from mmap'd
// segments end to end through the manager.
TEST(SnapshotCompactionTest, ResidentBytesThroughSnapshots) {
  TransactionDatabase db = testing::RandomDb(33, 150, 16, 4.0);
  auto seg = SegmentedBbs::Create(SmallConfig(), 32);
  ASSERT_TRUE(seg.ok());
  ASSERT_TRUE(seg->InsertAll(db).ok());
  std::string prefix = TempPath("bbsmine_snap_bytes");
  ASSERT_TRUE(seg->Save(prefix).ok());

  auto mapped = SegmentedBbs::Load(prefix, nullptr, IndexBackend::kMmap);
  ASSERT_TRUE(mapped.ok());
  auto from_mmap = service::SnapshotManager::FromIndex(*mapped);
  ASSERT_TRUE(from_mmap.ok());
  auto from_resident = service::SnapshotManager::FromIndex(*seg);
  ASSERT_TRUE(from_resident.ok());

  // The mmap-backed manager pins only its materialized tail; the resident
  // manager pins every sealed segment too.
  EXPECT_LT(from_mmap->Acquire().ApproxResidentBytes(),
            from_resident->Acquire().ApproxResidentBytes());

  // Parity of answers through snapshots.
  for (const Itemset& query : QuerySet()) {
    EXPECT_EQ(from_mmap->Acquire().CountItemSet(query),
              from_resident->Acquire().CountItemSet(query));
  }

  for (size_t i = 0; i < seg->num_segments(); ++i) {
    std::remove((prefix + ".seg" + std::to_string(i)).c_str());
  }
  std::remove((prefix + ".manifest").c_str());
}

}  // namespace
}  // namespace bbsmine
