// The served index holds one copy of what it loads, and the daemon's STATS
// "memory" gauges account for it:
//
//   * SegmentedBbs::Load puts each segment in one block: full segments at
//     their exact size, the last with room for the manifest capacity;
//   * SnapshotManager::FromIndex(std::move(loaded)) adopts those blocks, so
//     the gauges count one copy of the slices;
//   * a loaded last segment takes inserts in place up to its capacity and
//     then seals, with counts bit-identical to a monolithic BbsIndex; the
//     segment opened after it is a block of segment capacity too;
//   * on a fixed workload against a real bbsmined the gauges sum to at most
//     the process's RssAnon and to at least 70 % of it.

#include <gtest/gtest.h>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/bbs_index.h"
#include "core/segmented_bbs.h"
#include "service/client.h"
#include "service/snapshot.h"
#include "service/wire.h"
#include "testing/reference.h"
#include "util/rng.h"

namespace bbsmine {
namespace {

using service::SnapshotManager;

constexpr uint64_t kCapacity = 700;
constexpr size_t kTransactions = 2 * kCapacity + 300;

BbsConfig SmallConfig() {
  BbsConfig config;
  config.num_bits = 256;
  config.num_hashes = 3;
  config.track_item_counts = true;
  return config;
}

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() /
          (std::to_string(::getpid()) + "_mem_" + name))
      .string();
}

/// Bytes of one slice in a block with room for `capacity` transactions:
/// the words, rounded up to a 64-byte line.
uint64_t StrideBytes(uint64_t capacity) {
  const uint64_t words = (capacity + 63) / 64;
  return (words + 7) / 8 * 8 * sizeof(uint64_t);
}

/// kTransactions random transactions saved as a segmented index at
/// `prefix`; also returns the database.
TransactionDatabase SaveSegmented(const std::string& prefix) {
  TransactionDatabase db =
      bbsmine::testing::RandomDb(17, kTransactions, 60, 6.0);
  SegmentedBbs index = SegmentedBbs::Create(SmallConfig(), kCapacity).value();
  EXPECT_TRUE(index.InsertAll(db).ok());
  EXPECT_TRUE(index.Save(prefix).ok());
  return db;
}

std::vector<Itemset> RandomQueries(uint64_t seed) {
  Rng rng(seed);
  std::vector<Itemset> queries;
  for (int q = 0; q < 60; ++q) {
    Itemset items;
    const size_t len = 1 + rng.Uniform(3);
    for (size_t i = 0; i < len; ++i) {
      items.push_back(static_cast<ItemId>(rng.Uniform(60)));
    }
    Canonicalize(&items);
    queries.push_back(items);
  }
  return queries;
}

TEST(MemoryAccountingTest, LoadedSegmentsReportTheirExactBlockBytes) {
  const std::string prefix = TempPath("exact");
  SaveSegmented(prefix);
  Result<SegmentedBbs> loaded = SegmentedBbs::Load(prefix);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->num_segments(), 3u);
  const uint64_t bits = SmallConfig().num_bits;
  for (size_t idx = 0; idx < 2; ++idx) {
    const BbsIndex& full = loaded->segment(idx);
    EXPECT_EQ(full.ApproxResidentBytes(), bits * StrideBytes(kCapacity));
    EXPECT_EQ(full.append_capacity(), kCapacity);  // exactly its own
  }
  // The last segment holds 300 transactions in a block sized for the
  // manifest capacity: wider than its file's 64-byte-rounded slices.
  const BbsIndex& last = loaded->segment(2);
  EXPECT_EQ(last.num_transactions(), 300u);
  EXPECT_EQ(last.append_capacity(), kCapacity);
  EXPECT_EQ(last.ApproxResidentBytes(), bits * StrideBytes(kCapacity));
  EXPECT_GT(StrideBytes(kCapacity), StrideBytes(300));
}

TEST(MemoryAccountingTest, AdoptionByMoveCountsOneCopyOfTheSlices) {
  const std::string prefix = TempPath("adopt");
  SaveSegmented(prefix);
  Result<SegmentedBbs> loaded = SegmentedBbs::Load(prefix);
  ASSERT_TRUE(loaded.ok());
  const size_t segments = loaded->num_segments();
  Result<SnapshotManager> manager =
      SnapshotManager::FromIndex(std::move(*loaded));
  ASSERT_TRUE(manager.ok());

  const uint64_t bits = SmallConfig().num_bits;
  const uint64_t block = bits * StrideBytes(kCapacity);
  const service::IndexMemory memory = manager->Memory();
  EXPECT_EQ(memory.sealed_slices, (segments - 1) * block);
  // The adopted tail block, plus the published view's frozen boundary
  // word per slice (300 is not a multiple of 64).
  EXPECT_EQ(memory.tail_slices, block + bits * sizeof(uint64_t));
  // What readers see is the same single copy.
  EXPECT_EQ(manager->Acquire().ApproxResidentBytes(),
            memory.sealed_slices + memory.tail_slices);
  EXPECT_GT(memory.signature_bits, 0u);
  EXPECT_GT(memory.popcounts, 0u);
  EXPECT_GT(memory.item_counts, 0u);

  // An lvalue still compiles and copies: the original stays usable.
  Result<SegmentedBbs> again = SegmentedBbs::Load(prefix);
  ASSERT_TRUE(again.ok());
  Result<SnapshotManager> copied = SnapshotManager::FromIndex(*again);
  ASSERT_TRUE(copied.ok());
  EXPECT_EQ(again->num_transactions(), kTransactions);
  EXPECT_EQ(copied->Memory().sealed_slices, memory.sealed_slices);
}

TEST(MemoryAccountingTest, LoadedTailFillsInPlaceThenSeals) {
  const std::string prefix = TempPath("fill");
  TransactionDatabase db = SaveSegmented(prefix);
  // More transactions: the rest of the tail's capacity, then some.
  TransactionDatabase more =
      bbsmine::testing::RandomDb(23, kCapacity - 300 + 50, 60, 6.0);
  BbsIndex oracle = BbsIndex::Create(SmallConfig()).value();
  oracle.InsertAll(db);

  Result<SegmentedBbs> loaded = SegmentedBbs::Load(prefix);
  ASSERT_TRUE(loaded.ok());
  Result<SnapshotManager> manager =
      SnapshotManager::FromIndex(std::move(*loaded));
  ASSERT_TRUE(manager.ok());
  const std::vector<Itemset> queries = RandomQueries(5);

  for (size_t i = 0; i < more.size(); ++i) {
    ASSERT_TRUE(manager->Insert(more.At(i).items).ok());
    oracle.Insert(more.At(i).items);
    const size_t total = kTransactions + i + 1;
    EXPECT_EQ(manager->seals(), total > 3 * kCapacity ? 1u : 0u) << total;
    if (total == 3 * kCapacity || total == 3 * kCapacity + 1 ||
        i + 1 == more.size()) {
      service::Snapshot snap = manager->Acquire();
      for (const Itemset& items : queries) {
        ASSERT_EQ(snap.CountItemSet(items), oracle.CountItemSet(items));
      }
    }
  }
  EXPECT_EQ(manager->Acquire().num_segments(), 4u);

  // The WAL-replay path: SegmentedBbs::Insert into the loaded tail.
  Result<SegmentedBbs> replayed = SegmentedBbs::Load(prefix);
  ASSERT_TRUE(replayed.ok());
  ASSERT_TRUE(replayed->InsertAll(more).ok());
  EXPECT_EQ(replayed->num_segments(), 4u);
  EXPECT_EQ(replayed->segment(2).num_transactions(), kCapacity);
  for (const Itemset& items : queries) {
    ASSERT_EQ(replayed->CountItemSet(items), oracle.CountItemSet(items));
  }
  // The segment replay opened is a block of segment capacity, which
  // FromIndex adopts as the tail without copying a word.
  const BbsIndex& fourth = replayed->segment(3);
  EXPECT_EQ(fourth.num_transactions(), 50u);
  EXPECT_EQ(fourth.append_capacity(), kCapacity);
  const uint64_t* fourth_words = fourth.Slice(0).words;
  Result<SnapshotManager> adopted =
      SnapshotManager::FromIndex(std::move(*replayed));
  ASSERT_TRUE(adopted.ok());
  const uint64_t bits = SmallConfig().num_bits;
  // One block, plus the published view's boundary word per slice (50 is
  // not a multiple of 64).
  EXPECT_EQ(adopted->Memory().tail_slices,
            bits * StrideBytes(kCapacity) + bits * sizeof(uint64_t));
  const service::Snapshot snap = adopted->Acquire();
  ASSERT_EQ(snap.num_segments(), 4u);
  EXPECT_EQ(snap.segment(3).Slice(0).words, fourth_words);
  for (const Itemset& items : queries) {
    ASSERT_EQ(snap.CountItemSet(items), oracle.CountItemSet(items));
  }
}

/// RssAnon of `pid` in bytes (0 when unreadable).
uint64_t RssAnonBytes(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("RssAnon:", 0) == 0) {
      return std::stoull(line.substr(8)) * 1024;
    }
  }
  return 0;
}

/// The port a bbsmined logging to `log` listens on, once it does.
uint16_t WaitForPort(const std::string& log, pid_t pid) {
  const std::string needle = "bbsmined listening on ";
  for (int tries = 0; tries < 600; ++tries) {
    std::ifstream in(log);
    std::stringstream text;
    text << in.rdbuf();
    const std::string s = text.str();
    const size_t at = s.find(needle);
    if (at != std::string::npos) {
      const size_t colon = s.find(':', at + needle.size());
      const size_t end = s.find_first_not_of("0123456789", colon + 1);
      if (colon != std::string::npos && end != std::string::npos) {
        return static_cast<uint16_t>(
            std::stoul(s.substr(colon + 1, end - colon - 1)));
      }
    }
    int status = 0;
    if (::waitpid(pid, &status, WNOHANG) == pid) return 0;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return 0;
}

TEST(MemoryAccountingTest, DaemonGaugesSumToMostOfItsAnonymousMemory) {
  // A daemon sized like a small production shard: 20k transactions under
  // 1600 slices, so what it serves dominates what it is.
  const std::string dir = TempPath("daemon");
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  TransactionDatabase db = bbsmine::testing::RandomDb(31, 20'000, 800, 10.0);
  BbsConfig config;
  config.num_bits = 1600;
  config.num_hashes = 4;
  SegmentedBbs index = SegmentedBbs::Create(config, 4096).value();
  ASSERT_TRUE(index.InsertAll(db).ok());
  ASSERT_TRUE(index.Save(dir + "/base").ok());
  ASSERT_TRUE(db.Save(dir + "/base.db").ok());

  const std::string log = dir + "/log";
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    FILE* out = std::freopen(log.c_str(), "w", stdout);
    if (out == nullptr || ::dup2(::fileno(stdout), 2) < 0) ::_exit(126);
    ::execl(BBSMINED_BIN, BBSMINED_BIN, "--index", (dir + "/base").c_str(),
            "--db", (dir + "/base.db").c_str(), "--port", "0", "--threads",
            "2", "--durable-dir", (dir + "/durable").c_str(), "--fsync",
            "none", "--checkpoint-every", "0", static_cast<char*>(nullptr));
    ::_exit(127);
  }
  const uint16_t port = WaitForPort(log, pid);
  ASSERT_NE(port, 0) << "bbsmined did not start";

  // The fixed workload: INSERT batches, COUNTs, one CHECKPOINT.
  Result<service::ClientSession> session =
      service::ClientSession::Connect("127.0.0.1", port);
  ASSERT_TRUE(session.ok());
  Rng rng(9);
  for (int batch = 0; batch < 50; ++batch) {
    obs::JsonValue request = service::VerbRequest(service::Verb::kInsert);
    obs::JsonValue txns = obs::JsonValue::Array();
    for (int t = 0; t < 10; ++t) {
      Itemset items;
      for (int i = 0; i < 8; ++i) {
        items.push_back(static_cast<ItemId>(rng.Uniform(800)));
      }
      Canonicalize(&items);
      txns.Append(service::ItemsToJson(items));
    }
    request.Set("transactions", std::move(txns));
    Result<obs::JsonValue> reply = session->Call(request);
    ASSERT_TRUE(reply.ok() && reply->at("ok").AsBool());
  }
  for (int q = 0; q < 200; ++q) {
    obs::JsonValue request = service::VerbRequest(service::Verb::kCount);
    request.Set("items", service::ItemsToJson(
                             {static_cast<ItemId>(rng.Uniform(800))}));
    Result<obs::JsonValue> reply = session->Call(request);
    ASSERT_TRUE(reply.ok() && reply->at("ok").AsBool());
  }
  Result<obs::JsonValue> checkpoint =
      session->Call(service::VerbRequest(service::Verb::kCheckpoint));
  ASSERT_TRUE(checkpoint.ok() && checkpoint->at("ok").AsBool());
  Result<obs::JsonValue> stats =
      session->Call(service::VerbRequest(service::Verb::kStats));
  ASSERT_TRUE(stats.ok() && stats->at("ok").AsBool());
  const uint64_t rss_anon = RssAnonBytes(pid);

  const obs::JsonValue& memory = stats->at("report").at("memory");
  uint64_t sum = 0;
  for (const std::string& name : memory.keys()) {
    if (name != "total_bytes") sum += memory.at(name).AsUint();
  }
  EXPECT_EQ(sum, memory.at("total_bytes").AsUint());
  EXPECT_GT(memory.at("sealed_slice_bytes").AsUint(), 0u);
  EXPECT_GT(memory.at("db_record_bytes").AsUint(), 0u);
  EXPECT_GT(memory.at("hash_position_bytes").AsUint(), 0u);
  EXPECT_GT(memory.at("wal_buffer_bytes").AsUint(), 0u);
  ASSERT_GT(rss_anon, 0u);
  EXPECT_LE(sum, rss_anon);
  EXPECT_GE(static_cast<double>(sum), 0.7 * static_cast<double>(rss_anon))
      << "gauges " << sum << " B of RssAnon " << rss_anon << " B";

  ::kill(pid, SIGTERM);
  int status = 0;
  ::waitpid(pid, &status, 0);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace bbsmine
