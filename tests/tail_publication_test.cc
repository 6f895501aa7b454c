// Tail publication: SnapshotManager publishes its open tail as a frozen view
// that shares the writer's slice words (see service/snapshot.h). These
// tests pin that the view answers exactly like an index built fresh from
// the same prefix — at every word and segment boundary, and long after the
// writer has moved on — that consecutive views really share the words,
// that views stay exact while the writer grows its block under them, and
// that checkpoints written from views keep their on-disk bytes.

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/segmented_bbs.h"
#include "service/durability.h"
#include "service/snapshot.h"
#include "util/crc32.h"
#include "util/file_io.h"

namespace bbsmine::service {
namespace {

constexpr uint64_t kCapacity = 150;  // deliberately not a multiple of 64
constexpr ItemId kUniverse = 60;

BbsConfig TailConfig() {
  BbsConfig config;
  config.num_bits = 200;
  config.num_hashes = 3;
  return config;
}

/// Deterministic transaction t (no library RNG, so the checkpoint golden
/// below holds on every platform).
Itemset TailTransaction(size_t t) {
  Itemset items;
  for (size_t j = 0; j <= t % 5; ++j) {
    items.push_back(static_cast<ItemId>((t * 7 + j * 13 + (t * t) % 11) %
                                        kUniverse));
  }
  Canonicalize(&items);
  return items;
}

std::vector<Itemset> Queries() {
  return {{}, {3}, {7, 20}, {1, 2, 3}, {59}, {11, 24, 37}};
}

/// Checks one published segment against the same segment of an index
/// built fresh from the prefix: structure, serialized bytes, counts with
/// result vectors, incremental ANDs, signature bits and item counts.
void ExpectSameSegment(const BbsIndex& got, const BbsIndex& want,
                       const std::string& where) {
  SCOPED_TRACE(where);
  ASSERT_EQ(got.num_transactions(), want.num_transactions());
  EXPECT_TRUE(got == want);
  EXPECT_TRUE(want == got);
  EXPECT_EQ(got.Serialize(), want.Serialize());
  for (uint32_t p = 0; p < got.num_bits(); ++p) {
    ASSERT_EQ(got.SlicePopcount(p), want.SlicePopcount(p)) << "slice " << p;
    ASSERT_EQ(got.Slice(p).Count(), want.SlicePopcount(p)) << "slice " << p;
  }
  for (size_t t = 0; t < got.num_transactions(); ++t) {
    ASSERT_EQ(got.SignatureBits(t), want.SignatureBits(t)) << "txn " << t;
    ASSERT_EQ(got.Slice(7).Get(t), want.Slice(7).Get(t)) << "txn " << t;
  }
  for (ItemId item = 0; item < kUniverse; ++item) {
    ASSERT_EQ(got.ExactItemCount(item), want.ExactItemCount(item));
  }
  for (const Itemset& query : Queries()) {
    BitVector got_vec;
    BitVector want_vec;
    EXPECT_EQ(got.CountItemSet(query, &got_vec),
              want.CountItemSet(query, &want_vec));
    EXPECT_EQ(got_vec, want_vec);
    EXPECT_EQ(got.AndItemSlices(42, &got_vec),
              want.AndItemSlices(42, &want_vec));
    EXPECT_EQ(got_vec, want_vec);
  }
}

/// The non-empty segments of a SegmentedBbs holding the first `n`
/// transactions (snapshots never publish an empty tail).
std::vector<BbsIndex> FreshSegments(size_t n) {
  SegmentedBbs fresh = SegmentedBbs::Create(TailConfig(), kCapacity).value();
  for (size_t t = 0; t < n; ++t) {
    EXPECT_TRUE(fresh.Insert(TailTransaction(t)).ok());
  }
  std::vector<BbsIndex> out;
  for (size_t idx = 0; idx < fresh.num_segments(); ++idx) {
    if (fresh.segment(idx).num_transactions() > 0) {
      out.push_back(fresh.segment(idx));
    }
  }
  return out;
}

void ExpectMatchesFresh(const Snapshot& snap, size_t n) {
  ASSERT_EQ(snap.num_transactions(), n);
  const std::vector<BbsIndex> fresh = FreshSegments(n);
  ASSERT_EQ(snap.num_segments(), fresh.size()) << "at n = " << n;
  for (size_t idx = 0; idx < fresh.size(); ++idx) {
    ExpectSameSegment(snap.segment(idx), fresh[idx],
                      "n = " + std::to_string(n) + ", segment " +
                          std::to_string(idx));
  }
}

TEST(TailPublicationTest, BoundaryMatrixMatchesFreshIndex) {
  constexpr uint64_t C = kCapacity;
  const std::vector<size_t> matrix = {0,     1, 63,    64, 65,
                                      C - 1, C, C + 1, 2 * C + 70};
  auto manager = SnapshotManager::Create(TailConfig(), C);
  ASSERT_TRUE(manager.ok());
  size_t inserted = 0;
  for (size_t n : matrix) {
    for (; inserted < n; ++inserted) {
      ASSERT_TRUE(manager->Insert(TailTransaction(inserted)).ok());
    }
    ExpectMatchesFresh(manager->Acquire(), n);
  }
}

TEST(TailPublicationTest, SnapshotsStayBitIdenticalAfterLaterInsertsAndSeals) {
  constexpr uint64_t C = kCapacity;
  const std::vector<size_t> matrix = {1, 63, 64, 65, C - 1, C, C + 1,
                                      2 * C + 70};
  auto manager = SnapshotManager::Create(TailConfig(), C);
  ASSERT_TRUE(manager.ok());
  std::vector<Snapshot> held;
  std::vector<std::vector<std::string>> images;
  size_t inserted = 0;
  for (size_t n : matrix) {
    for (; inserted < n; ++inserted) {
      ASSERT_TRUE(manager->Insert(TailTransaction(inserted)).ok());
    }
    held.push_back(manager->Acquire());
    images.emplace_back();
    for (size_t idx = 0; idx < held.back().num_segments(); ++idx) {
      images.back().push_back(held.back().segment(idx).Serialize());
    }
  }
  // 500 more inserts through the batch path: several seals, and the
  // writer keeps setting bits in the words the held views share.
  const uint64_t seals_before = manager->seals();
  std::vector<Itemset> batch;
  for (size_t t = inserted; t < inserted + 500; ++t) {
    batch.push_back(TailTransaction(t));
  }
  ASSERT_TRUE(manager->InsertBatch(batch).ok());
  EXPECT_GE(manager->seals(), seals_before + 3);

  for (size_t i = 0; i < held.size(); ++i) {
    ExpectMatchesFresh(held[i], matrix[i]);
    for (size_t idx = 0; idx < held[i].num_segments(); ++idx) {
      EXPECT_EQ(held[i].segment(idx).Serialize(), images[i][idx])
          << "n = " << matrix[i] << ", segment " << idx;
    }
  }
  ExpectMatchesFresh(manager->Acquire(), inserted + 500);
}

TEST(TailPublicationTest, ConsecutiveSnapshotsShareTailWords) {
  // Publication must not copy the tail: every view of one tail reads the
  // writer's slice words in place, across word boundaries too.
  auto manager = SnapshotManager::Create(TailConfig(), 4096);
  ASSERT_TRUE(manager.ok());
  ASSERT_TRUE(manager->Insert(TailTransaction(0)).ok());
  Snapshot previous = manager->Acquire();
  for (size_t t = 1; t < 140; ++t) {
    ASSERT_TRUE(manager->Insert(TailTransaction(t)).ok());
    Snapshot current = manager->Acquire();
    ASSERT_EQ(current.num_segments(), 1u);
    const BbsIndex& before = previous.segment(0);
    const BbsIndex& after = current.segment(0);
    ASSERT_NE(&before, &after);
    for (uint32_t p = 0; p < after.num_bits(); ++p) {
      ASSERT_EQ(before.Slice(p).words, after.Slice(p).words)
          << "slice " << p << " at n = " << t + 1;
    }
    previous = current;
  }
}

TEST(TailPublicationTest, FrozenViewsStayExactWhileTheBlockGrows) {
  // A writable index created without a block grows it while a reader
  // thread counts on Freeze() views: 0 -> 512 -> 1024 -> 2048 -> 4096 bits
  // per slice. Each view reads the block it was frozen from, which the
  // writer copies once and never writes again.
  constexpr size_t kTotal = 3000;
  const std::vector<Itemset> queries = Queries();
  // prefix_counts[q][n]: the oracle count of query q over the first n
  // transactions, from one index built at its exact size (it never grows).
  BbsIndex oracle = BbsIndex::Create(TailConfig()).value().ToTail(kTotal);
  for (size_t t = 0; t < kTotal; ++t) oracle.Insert(TailTransaction(t));
  ASSERT_EQ(oracle.append_capacity(), kTotal);
  std::vector<std::vector<size_t>> prefix_counts(queries.size());
  for (size_t q = 0; q < queries.size(); ++q) {
    BitVector match;
    oracle.CountItemSet(queries[q], &match);
    prefix_counts[q].push_back(0);
    for (size_t t = 0; t < kTotal; ++t) {
      prefix_counts[q].push_back(prefix_counts[q].back() + match.Get(t));
    }
  }

  std::mutex mu;
  std::shared_ptr<const BbsIndex> latest;
  std::atomic<bool> done{false};
  std::atomic<size_t> views_checked{0};
  std::atomic<size_t> mismatches{0};
  std::thread reader([&] {
    for (bool last = false; !last;) {
      last = done.load(std::memory_order_acquire);
      std::shared_ptr<const BbsIndex> view;
      {
        std::lock_guard<std::mutex> lock(mu);
        view = latest;
      }
      if (view == nullptr) continue;
      const size_t n = view->num_transactions();
      for (size_t q = 0; q < queries.size(); ++q) {
        if (view->CountItemSet(queries[q]) != prefix_counts[q][n]) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
      views_checked.fetch_add(1, std::memory_order_relaxed);
    }
  });

  BbsIndex writer = BbsIndex::Create(TailConfig()).value();
  EXPECT_EQ(writer.append_capacity(), 0u);
  std::vector<uint64_t> capacities;
  std::vector<std::shared_ptr<const BbsIndex>> held;
  for (size_t t = 0; t < kTotal; ++t) {
    writer.Insert(TailTransaction(t));
    if (capacities.empty() || writer.append_capacity() != capacities.back()) {
      capacities.push_back(writer.append_capacity());
    }
    auto view = std::make_shared<const BbsIndex>(writer.Freeze());
    // Views frozen just before and just after each growth, and at a word
    // boundary inside a block.
    const size_t n = t + 1;
    if (n == 511 || n == 512 || n == 513 || n == 1025 || n == 2048 ||
        n == 2100) {
      held.push_back(view);
    }
    std::lock_guard<std::mutex> lock(mu);
    latest = std::move(view);
  }
  done.store(true, std::memory_order_release);
  reader.join();
  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_GT(views_checked.load(), 0u);
  EXPECT_EQ(capacities, (std::vector<uint64_t>{512, 1024, 2048, 4096}));

  // Long after the writer moved on, every held view still equals an index
  // built fresh from its prefix, byte for byte.
  for (const auto& view : held) {
    BbsIndex fresh = BbsIndex::Create(TailConfig()).value();
    for (size_t t = 0; t < view->num_transactions(); ++t) {
      fresh.Insert(TailTransaction(t));
    }
    ExpectSameSegment(*view, fresh,
                      "held view at n = " +
                          std::to_string(view->num_transactions()));
  }
}

TEST(TailPublicationTest, CheckpointBytesMatchGolden) {
  // A checkpoint written from published views (sealed segments plus a
  // partial tail) must keep the exact bytes earlier builds wrote for the
  // same insert sequence. The golden CRC covers the manifest and every
  // segment file.
  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("tail_publication_" + std::to_string(::getpid())))
          .string();
  std::filesystem::remove_all(dir);
  DurabilityOptions options;
  options.dir = dir;
  options.checkpoint_every = 0;
  auto durability = DurabilityManager::Open(
      options, SegmentedBbs::Create(TailConfig(), kCapacity).value(),
      nullptr);
  ASSERT_TRUE(durability.ok()) << durability.status().ToString();

  auto manager = SnapshotManager::Create(TailConfig(), kCapacity);
  ASSERT_TRUE(manager.ok());
  for (size_t t = 0; t < 2 * kCapacity + 70; ++t) {
    ASSERT_TRUE(manager->Insert(TailTransaction(t)).ok());
  }
  const Snapshot snap = manager->Acquire();
  ASSERT_EQ(snap.num_segments(), 3u);
  ASSERT_TRUE((*durability)->Checkpoint(snap, nullptr).ok());

  const std::string prefix = dir + "/checkpoint";
  Result<std::string> manifest = ReadBinaryFile(prefix + ".manifest");
  ASSERT_TRUE(manifest.ok());
  uint32_t crc = Crc32(*manifest);
  for (size_t idx = 0; idx < snap.num_segments(); ++idx) {
    Result<std::string> segment = ReadBinaryFile(SegmentFilePath(prefix, idx));
    ASSERT_TRUE(segment.ok());
    crc = Crc32(*segment, crc);
  }
  EXPECT_EQ(crc, 697694472u);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace bbsmine::service
