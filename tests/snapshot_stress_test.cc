// Writer-vs-readers stress over the snapshot manager, built to run clean
// under ThreadSanitizer (the CI thread-sanitizer job includes it).
//
// The trick that makes the assertions exact rather than statistical: every
// inserted transaction contains a designated sentinel item. BBS signatures
// of supersets always set every bit the sentinel's slices select, so
// CountItemSet({sentinel}) over any snapshot equals *exactly* the number of
// visible transactions — no false-positive slack. A reader can therefore
// check, with equality, that every observed count is consistent with some
// prefix of the insert sequence and that successive observations are
// monotone (no torn reads, no going back in time).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "baseline/eclat.h"
#include "core/segmented_bbs.h"
#include "service/scheduler.h"
#include "service/server.h"
#include "service/snapshot.h"
#include "service/wire.h"
#include "testing/reference.h"

namespace bbsmine::service {
namespace {

constexpr ItemId kSentinel = 7;

BbsConfig StressConfig() {
  BbsConfig config;
  config.num_bits = 128;
  config.num_hashes = 2;
  return config;
}

/// Deterministic transaction t: the sentinel plus a couple of rotating
/// items, so slices other than the sentinel's churn too.
Itemset StressTransaction(size_t t) {
  Itemset items = {kSentinel, static_cast<ItemId>(t % 16),
                   static_cast<ItemId>((3 * t + 1) % 16)};
  Canonicalize(&items);
  return items;
}

TEST(SnapshotStressTest, ReadersSeeMonotonePrefixesWhileWriterInserts) {
  constexpr size_t kInserts = 400;
  constexpr size_t kReaders = 3;

  auto manager = SnapshotManager::Create(StressConfig(), 32);
  ASSERT_TRUE(manager.ok());

  std::atomic<bool> done{false};
  std::atomic<uint64_t> violations{0};

  std::vector<std::thread> readers;
  for (size_t r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      size_t last_count = 0;
      uint64_t last_epoch = 0;
      while (!done.load(std::memory_order_acquire)) {
        Snapshot snap = manager->Acquire();
        size_t visible = snap.num_transactions();
        size_t count = snap.CountItemSet({kSentinel});
        // Exact prefix consistency: the sentinel count IS the prefix
        // length of this snapshot.
        if (count != visible) violations.fetch_add(1);
        if (count > kInserts) violations.fetch_add(1);
        // Monotone snapshots: epochs and counts never regress.
        if (count < last_count || snap.epoch() < last_epoch) {
          violations.fetch_add(1);
        }
        last_count = count;
        last_epoch = snap.epoch();
      }
    });
  }

  for (size_t t = 0; t < kInserts; ++t) {
    ASSERT_TRUE(manager->Insert(StressTransaction(t)).ok());
  }
  done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();

  EXPECT_EQ(violations.load(), 0u);
  Snapshot final_snap = manager->Acquire();
  EXPECT_EQ(final_snap.num_transactions(), kInserts);
  EXPECT_EQ(final_snap.CountItemSet({kSentinel}), kInserts);
}

TEST(SnapshotStressTest, SchedulerAnswersStayPrefixConsistentUnderInserts) {
  constexpr size_t kInserts = 200;

  auto manager = SnapshotManager::Create(StressConfig(), 32);
  ASSERT_TRUE(manager.ok());
  SchedulerOptions options;
  options.num_threads = 2;
  CountScheduler scheduler(&*manager, options, nullptr);

  std::atomic<bool> done{false};
  std::atomic<uint64_t> violations{0};
  std::atomic<uint64_t> queries{0};

  std::vector<std::thread> clients;
  for (size_t c = 0; c < 2; ++c) {
    clients.emplace_back([&] {
      uint64_t last_count = 0;
      uint64_t last_epoch = 0;
      while (!done.load(std::memory_order_acquire)) {
        CountResult result;
        Status status = scheduler.Count({kSentinel}, &result);
        if (!status.ok()) break;  // drained at shutdown
        queries.fetch_add(1);
        // Every scheduled answer is an exact prefix length, stamped with
        // the epoch it was answered at.
        if (result.count != result.visible_transactions ||
            result.count > kInserts) {
          violations.fetch_add(1);
        }
        if (result.count < last_count || result.epoch < last_epoch) {
          violations.fetch_add(1);
        }
        last_count = result.count;
        last_epoch = result.epoch;
      }
    });
  }

  // Wait until the clients are actually querying before the writer starts:
  // on a loaded machine the 200 inserts can finish before the client
  // threads are even scheduled, which would make the overlap (and the
  // queries > 0 assertion below) vacuous.
  while (queries.load(std::memory_order_acquire) == 0) {
    std::this_thread::yield();
  }

  for (size_t t = 0; t < kInserts; ++t) {
    ASSERT_TRUE(manager->Insert(StressTransaction(t)).ok());
  }
  done.store(true, std::memory_order_release);
  for (std::thread& t : clients) t.join();
  scheduler.Shutdown();

  EXPECT_EQ(violations.load(), 0u);
  EXPECT_GT(queries.load(), 0u);
  CountResult final_result;
  // The scheduler is shut down; verify the final state directly.
  EXPECT_EQ(manager->Acquire().CountItemSet({kSentinel}), kInserts);
  (void)final_result;
}

TEST(SnapshotStressTest, ConcurrentBatchInsertsKeepPrefixExact) {
  auto manager = SnapshotManager::Create(StressConfig(), 16);
  ASSERT_TRUE(manager.ok());

  // Two writers race InsertAll batches; writers serialize internally, so
  // the result must be exactly the union and every intermediate snapshot a
  // prefix-consistent state.
  TransactionDatabase batch_a;
  TransactionDatabase batch_b;
  for (size_t t = 0; t < 60; ++t) batch_a.Append(StressTransaction(t));
  for (size_t t = 60; t < 130; ++t) batch_b.Append(StressTransaction(t));

  std::atomic<bool> done{false};
  std::atomic<uint64_t> violations{0};
  std::thread reader([&] {
    while (!done.load(std::memory_order_acquire)) {
      Snapshot snap = manager->Acquire();
      if (snap.CountItemSet({kSentinel}) != snap.num_transactions()) {
        violations.fetch_add(1);
      }
    }
  });
  std::thread writer_a([&] { ASSERT_TRUE(manager->InsertAll(batch_a).ok()); });
  std::thread writer_b([&] { ASSERT_TRUE(manager->InsertAll(batch_b).ok()); });
  writer_a.join();
  writer_b.join();
  done.store(true, std::memory_order_release);
  reader.join();

  EXPECT_EQ(violations.load(), 0u);
  EXPECT_EQ(manager->num_transactions(), batch_a.size() + batch_b.size());
  EXPECT_EQ(manager->Acquire().CountItemSet({kSentinel}),
            batch_a.size() + batch_b.size());
}

TEST(SnapshotStressTest, BatchInsertPublishesOneEpochAndNoPartialBatch) {
  // A 50-transaction INSERT is one publication: it advances the epoch by
  // exactly 1, and a COUNT racing it sees all of the batch or none of it.
  constexpr size_t kBatch = 50;
  constexpr size_t kBatches = 6;
  auto manager = SnapshotManager::Create(StressConfig(), 64);
  ASSERT_TRUE(manager.ok());
  BbsService service(&*manager, nullptr, ServiceOptions{});

  std::atomic<bool> done{false};
  std::atomic<uint64_t> violations{0};
  std::atomic<uint64_t> answers{0};
  obs::JsonValue count = obs::JsonValue::Object();
  count.Set("verb", obs::JsonValue::String("COUNT"));
  count.Set("items", ItemsToJson({kSentinel}));
  std::vector<std::thread> clients;
  for (size_t c = 0; c < 2; ++c) {
    clients.emplace_back([&] {
      while (!done.load(std::memory_order_acquire)) {
        const obs::JsonValue response = service.Handle(count);
        if (!response.at("ok").AsBool()) continue;
        const uint64_t visible = response.at("visible_transactions").AsUint();
        if (visible % kBatch != 0 ||
            response.at("count").AsUint() != visible) {
          violations.fetch_add(1);
        }
        answers.fetch_add(1);
      }
    });
  }
  while (answers.load(std::memory_order_acquire) == 0) {
    std::this_thread::yield();
  }
  for (size_t b = 0; b < kBatches; ++b) {
    obs::JsonValue transactions = obs::JsonValue::Array();
    for (size_t t = 0; t < kBatch; ++t) {
      transactions.Append(ItemsToJson(StressTransaction(b * kBatch + t)));
    }
    obs::JsonValue insert = obs::JsonValue::Object();
    insert.Set("verb", obs::JsonValue::String("INSERT"));
    insert.Set("transactions", std::move(transactions));
    const uint64_t before = manager->epoch();
    const obs::JsonValue response = service.Handle(insert);
    ASSERT_TRUE(response.at("ok").AsBool()) << response.Serialize(0);
    EXPECT_EQ(response.at("epoch").AsUint(), before + 1);
    EXPECT_EQ(response.at("transactions").AsUint(), (b + 1) * kBatch);
  }
  done.store(true, std::memory_order_release);
  for (std::thread& client : clients) client.join();

  EXPECT_EQ(violations.load(), 0u);
  EXPECT_EQ(manager->Acquire().CountItemSet({kSentinel}), kBatch * kBatches);
}

TEST(SnapshotStressTest, MineAnswersMatchEclatOnTheirPrefixUnderInserts) {
  // One writer INSERTs through the service while readers MINE, which takes
  // no lock: every answer must be exactly Eclat over a copy of the prefix
  // it reports.
  constexpr size_t kBase = 150;
  constexpr size_t kInserts = 250;
  constexpr double kMinsup = 0.05;
  TransactionDatabase db;
  for (size_t t = 0; t < kBase; ++t) db.Append(StressTransaction(t));
  auto index = SegmentedBbs::Create(StressConfig(), 32);
  ASSERT_TRUE(index.ok());
  ASSERT_TRUE(index->InsertAll(db).ok());
  auto manager = SnapshotManager::FromIndex(*index);
  ASSERT_TRUE(manager.ok());
  BbsService service(&*manager, &db, ServiceOptions{});

  std::atomic<bool> done{false};
  std::vector<std::vector<obs::JsonValue>> answers(2);
  std::vector<std::thread> readers;
  for (std::vector<obs::JsonValue>& out : answers) {
    readers.emplace_back([&] {
      obs::JsonValue mine = obs::JsonValue::Object();
      mine.Set("verb", obs::JsonValue::String("MINE"));
      mine.Set("minsup", obs::JsonValue::Double(kMinsup));
      mine.Set("top", obs::JsonValue::Uint(1'000'000));
      do {
        out.push_back(service.Handle(mine));
      } while (!done.load(std::memory_order_acquire));
    });
  }
  for (size_t t = kBase; t < kBase + kInserts; ++t) {
    obs::JsonValue insert = obs::JsonValue::Object();
    insert.Set("verb", obs::JsonValue::String("INSERT"));
    insert.Set("items", ItemsToJson(StressTransaction(t * 5 + 1)));
    EXPECT_TRUE(service.Handle(insert).at("ok").AsBool());
    std::this_thread::yield();
  }
  done.store(true, std::memory_order_release);
  for (std::thread& reader : readers) reader.join();

  size_t checked = 0;
  for (const std::vector<obs::JsonValue>& out : answers) {
    for (const obs::JsonValue& answer : out) {
      ASSERT_TRUE(answer.at("ok").AsBool()) << answer.Serialize(0);
      const size_t n = answer.at("transactions").AsUint();
      ASSERT_GE(n, kBase);
      ASSERT_LE(n, db.size());
      TransactionDatabase prefix;
      for (size_t t = 0; t < n; ++t) prefix.Append(db.At(t).items);
      EclatConfig config;
      config.min_support = kMinsup;
      MiningResult oracle = MineEclat(prefix, config);
      std::sort(oracle.patterns.begin(), oracle.patterns.end(),
                [](const Pattern& a, const Pattern& b) {
                  if (a.support != b.support) return a.support > b.support;
                  return a.items < b.items;
                });
      const obs::JsonValue& patterns = answer.at("patterns");
      ASSERT_EQ(patterns.size(), oracle.patterns.size()) << "at " << n;
      for (size_t i = 0; i < patterns.size(); ++i) {
        Result<Itemset> items = ItemsFromJson(patterns.at(i).at("items"));
        ASSERT_TRUE(items.ok());
        ASSERT_EQ(*items, oracle.patterns[i].items) << "at " << n;
        ASSERT_EQ(patterns.at(i).at("support").AsUint(),
                  oracle.patterns[i].support)
            << "at " << n;
      }
      ++checked;
    }
  }
  EXPECT_GE(checked, 2u);
}

}  // namespace
}  // namespace bbsmine::service
