// Tests for the query service: wire framing, snapshot isolation, the
// batched count scheduler, the verb handler, and a socket round trip.
//
// The load-bearing property throughout is *parity*: any count produced by
// the service — through a Snapshot, the scheduler, BbsService::Handle, or
// a real TCP connection — must be bit-identical to a direct
// SegmentedBbs::CountItemSet over the same insert prefix.

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <fstream>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/segmented_bbs.h"
#include "service/client.h"
#include "service/metrics.h"
#include "service/scheduler.h"
#include "service/server.h"
#include "service/snapshot.h"
#include "service/wire.h"
#include "testing/reference.h"
#include "util/socket.h"
#include "util/status.h"

namespace bbsmine::service {
namespace {

BbsConfig SmallConfig() {
  BbsConfig config;
  config.num_bits = 256;
  config.num_hashes = 3;
  return config;
}

/// A loaded segmented index and the database it was built from.
struct Fixture {
  TransactionDatabase db;
  SegmentedBbs index;
};

Fixture MakeFixture(uint64_t seed, size_t transactions,
                    uint64_t segment_capacity) {
  Fixture out{bbsmine::testing::RandomDb(seed, transactions, 24, 5.0),
              SegmentedBbs::Create(SmallConfig(), segment_capacity).value()};
  EXPECT_TRUE(out.index.InsertAll(out.db).ok());
  return out;
}

std::vector<Itemset> QueryMix() {
  std::vector<Itemset> queries;
  for (ItemId a = 0; a < 24; ++a) {
    queries.push_back({a});
    queries.push_back({a, static_cast<ItemId>((a + 5) % 24)});
    queries.push_back({a, static_cast<ItemId>((a + 1) % 24),
                       static_cast<ItemId>((a + 9) % 24)});
  }
  for (Itemset& q : queries) Canonicalize(&q);
  return queries;
}

// ---------------------------------------------------------------------------
// util satellites: errno-derived statuses.

TEST(StatusFromErrnoTest, CarriesContextAndErrnoText) {
  Status status = StatusFromErrno(ENOENT, "open /nope");
  EXPECT_EQ(status.code(), StatusCode::kIoError);
  EXPECT_NE(status.message().find("open /nope"), std::string::npos);
  EXPECT_NE(status.message().find("errno 2"), std::string::npos);
}

TEST(StatusFromErrnoTest, ReadsCurrentErrno) {
  errno = EACCES;
  Status status = StatusFromErrno("probe");
  EXPECT_EQ(status.code(), StatusCode::kIoError);
  EXPECT_NE(status.message().find("errno 13"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Wire protocol.

TEST(WireTest, FrameRoundTripOverSocketpair) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  OwnedFd a(fds[0]), b(fds[1]);

  obs::JsonValue request = obs::JsonValue::Object();
  request.Set("verb", obs::JsonValue::String("COUNT"));
  request.Set("items", ItemsToJson({3, 1, 2}));
  ASSERT_TRUE(WriteFrame(a.get(), request).ok());

  auto echoed = ReadFrame(b.get(), /*timeout_ms=*/1000);
  ASSERT_TRUE(echoed.ok()) << echoed.status().ToString();
  EXPECT_EQ(echoed->at("verb").AsString(), "COUNT");
  EXPECT_EQ(echoed->at("items").size(), 3u);
}

TEST(WireTest, CleanCloseReadsAsNotFound) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  OwnedFd a(fds[0]), b(fds[1]);
  a.Reset();  // close the writer before any frame
  auto result = ReadFrame(b.get(), /*timeout_ms=*/1000);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST(WireTest, OversizedLengthPrefixIsCorruption) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  OwnedFd a(fds[0]), b(fds[1]);
  // 0xFFFFFFFF little-endian: far beyond any accepted frame.
  ASSERT_TRUE(SendAll(a.get(), std::string(4, '\xff')).ok());
  auto result = ReadFrame(b.get(), /*timeout_ms=*/1000);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCorruption);
}

TEST(WireTest, IdleTimeoutIsUnavailable) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  OwnedFd a(fds[0]), b(fds[1]);
  auto result = ReadFrame(b.get(), /*timeout_ms=*/10);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kUnavailable);
}

TEST(WireTest, ItemsFromJsonValidates) {
  obs::JsonValue bad = obs::JsonValue::Array();
  bad.Append(obs::JsonValue::String("seven"));
  EXPECT_EQ(ItemsFromJson(bad).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ItemsFromJson(obs::JsonValue::Null()).status().code(),
            StatusCode::kInvalidArgument);

  obs::JsonValue dup = obs::JsonValue::Array();
  dup.Append(obs::JsonValue::Uint(9));
  dup.Append(obs::JsonValue::Uint(2));
  dup.Append(obs::JsonValue::Uint(9));
  auto items = ItemsFromJson(dup);
  ASSERT_TRUE(items.ok());
  EXPECT_EQ(*items, (Itemset{2, 9}));  // canonicalized
}

// ---------------------------------------------------------------------------
// Snapshot manager.

TEST(SnapshotManagerTest, CountsMatchDirectIndex) {
  Fixture fx = MakeFixture(11, 300, 64);
  auto manager = SnapshotManager::FromIndex(fx.index);
  ASSERT_TRUE(manager.ok());
  Snapshot snap = manager->Acquire();
  EXPECT_EQ(snap.num_transactions(), fx.db.size());
  for (const Itemset& query : QueryMix()) {
    EXPECT_EQ(snap.CountItemSet(query), fx.index.CountItemSet(query))
        << ItemsetToString(query);
  }
}

TEST(SnapshotManagerTest, WrapsMonolithicIndexAsOneSealedSegment) {
  Fixture fx = MakeFixture(12, 150, 1000);  // one segment
  auto manager =
      SnapshotManager::FromIndex(fx.index.segment(0), /*segment_capacity=*/32);
  ASSERT_TRUE(manager.ok());
  Snapshot snap = manager->Acquire();
  EXPECT_EQ(snap.num_segments(), 1u);
  for (const Itemset& query : QueryMix()) {
    EXPECT_EQ(snap.CountItemSet(query), fx.index.CountItemSet(query));
  }
  // New inserts land in a fresh tail without disturbing the sealed wrap.
  ASSERT_TRUE(manager->Insert({1, 2, 3}).ok());
  EXPECT_EQ(manager->Acquire().num_segments(), 2u);
  EXPECT_EQ(manager->num_transactions(), fx.db.size() + 1);
}

TEST(SnapshotManagerTest, OldSnapshotsAreImmutableUnderInserts) {
  auto manager = SnapshotManager::Create(SmallConfig(), 8);
  ASSERT_TRUE(manager.ok());
  TransactionDatabase db = bbsmine::testing::RandomDb(13, 40, 16, 4.0);

  std::vector<Snapshot> history;
  std::vector<std::vector<size_t>> answers;
  std::vector<Itemset> queries = {{0}, {1, 2}, {3, 4, 5}};
  for (size_t t = 0; t < db.size(); ++t) {
    ASSERT_TRUE(manager->Insert(db.At(t).items).ok());
    Snapshot snap = manager->Acquire();
    EXPECT_EQ(snap.num_transactions(), t + 1);
    std::vector<size_t> at_prefix;
    for (const Itemset& q : queries) at_prefix.push_back(snap.CountItemSet(q));
    history.push_back(snap);
    answers.push_back(std::move(at_prefix));
  }
  // Every retained snapshot still answers exactly as it did when acquired,
  // and matches a SegmentedBbs rebuilt from the same prefix.
  auto rebuilt = SegmentedBbs::Create(SmallConfig(), 8);
  ASSERT_TRUE(rebuilt.ok());
  for (size_t t = 0; t < db.size(); ++t) {
    ASSERT_TRUE(rebuilt->Insert(db.At(t).items).ok());
    for (size_t q = 0; q < queries.size(); ++q) {
      EXPECT_EQ(history[t].CountItemSet(queries[q]), answers[t][q]);
      EXPECT_EQ(answers[t][q], rebuilt->CountItemSet(queries[q]));
    }
  }
}

TEST(SnapshotManagerTest, EpochsAreMonotoneAndSealsTracked) {
  auto manager = SnapshotManager::Create(SmallConfig(), 4);
  ASSERT_TRUE(manager.ok());
  uint64_t last_epoch = manager->epoch();
  for (int t = 0; t < 10; ++t) {
    ASSERT_TRUE(manager->Insert({static_cast<ItemId>(t)}).ok());
    uint64_t epoch = manager->epoch();
    EXPECT_GT(epoch, last_epoch);
    last_epoch = epoch;
  }
  EXPECT_EQ(manager->seals(), 2u);  // 10 transactions / capacity 4
  EXPECT_GE(manager->publications(), 11u);
}

TEST(SnapshotManagerTest, BatchInsertPublishesOnce) {
  auto manager = SnapshotManager::Create(SmallConfig(), 64);
  ASSERT_TRUE(manager.ok());
  TransactionDatabase db = bbsmine::testing::RandomDb(14, 50, 16, 4.0);
  uint64_t before = manager->publications();
  ASSERT_TRUE(manager->InsertAll(db).ok());
  EXPECT_EQ(manager->publications(), before + 1);
  EXPECT_EQ(manager->num_transactions(), db.size());
  EXPECT_EQ(manager->InsertAll(db, db.size(), 1).code(),
            StatusCode::kOutOfRange);
}

// ---------------------------------------------------------------------------
// SegmentedBbs::InsertAll satellite.

TEST(SegmentedInsertAllTest, MatchesPerTransactionInserts) {
  TransactionDatabase db = bbsmine::testing::RandomDb(15, 120, 20, 5.0);
  auto bulk = SegmentedBbs::Create(SmallConfig(), 32);
  auto serial = SegmentedBbs::Create(SmallConfig(), 32);
  ASSERT_TRUE(bulk.ok());
  ASSERT_TRUE(serial.ok());
  ASSERT_TRUE(bulk->InsertAll(db).ok());
  for (size_t t = 0; t < db.size(); ++t) {
    ASSERT_TRUE(serial->Insert(db.At(t).items).ok());
  }
  EXPECT_TRUE(*bulk == *serial);
  // Range variant appends a suffix.
  auto half = SegmentedBbs::Create(SmallConfig(), 32);
  ASSERT_TRUE(half.ok());
  ASSERT_TRUE(half->InsertAll(db, 0, 60).ok());
  ASSERT_TRUE(half->InsertAll(db, 60, db.size() - 60).ok());
  EXPECT_TRUE(*half == *bulk);
  EXPECT_EQ(half->InsertAll(db, db.size(), 1).code(),
            StatusCode::kOutOfRange);
}

// ---------------------------------------------------------------------------
// Count scheduler.

TEST(CountSchedulerTest, AnswersMatchDirectCounts) {
  Fixture fx = MakeFixture(16, 400, 64);
  auto manager = SnapshotManager::FromIndex(fx.index);
  ASSERT_TRUE(manager.ok());
  ServiceMetrics metrics;
  SchedulerOptions options;
  options.num_threads = 2;
  CountScheduler scheduler(&*manager, options, &metrics);

  // Concurrent submitters maximize batching; every answer must still be
  // bit-identical to the direct index count.
  std::vector<Itemset> queries = QueryMix();
  std::vector<CountResult> results(queries.size());
  std::vector<Status> statuses(queries.size());
  {
    std::vector<std::thread> clients;
    for (size_t i = 0; i < queries.size(); ++i) {
      clients.emplace_back([&, i] {
        statuses[i] = scheduler.Count(queries[i], &results[i]);
      });
    }
    for (std::thread& t : clients) t.join();
  }
  for (size_t i = 0; i < queries.size(); ++i) {
    ASSERT_TRUE(statuses[i].ok()) << statuses[i].ToString();
    EXPECT_EQ(results[i].count, fx.index.CountItemSet(queries[i]))
        << ItemsetToString(queries[i]);
    EXPECT_EQ(results[i].visible_transactions, fx.db.size());
    EXPECT_GE(results[i].batch_size, 1u);
  }
  EXPECT_GE(metrics.counter(metrics.batches), 1u);
}

TEST(CountSchedulerTest, RejectsWhenQueueFull) {
  Fixture fx = MakeFixture(17, 50, 32);
  auto manager = SnapshotManager::FromIndex(fx.index);
  ASSERT_TRUE(manager.ok());
  ServiceMetrics metrics;
  SchedulerOptions options;
  options.max_pending = 0;  // every admission bounces
  CountScheduler scheduler(&*manager, options, &metrics);
  CountResult result;
  Status status = scheduler.Count({1}, &result);
  EXPECT_EQ(status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(metrics.counter(metrics.rejected_backpressure), 1u);
}

TEST(CountSchedulerTest, RejectsEmptyAndAfterShutdown) {
  Fixture fx = MakeFixture(18, 50, 32);
  auto manager = SnapshotManager::FromIndex(fx.index);
  ASSERT_TRUE(manager.ok());
  CountScheduler scheduler(&*manager, SchedulerOptions{}, nullptr);
  CountResult result;
  EXPECT_EQ(scheduler.Count({}, &result).code(),
            StatusCode::kInvalidArgument);
  ASSERT_TRUE(scheduler.Count({1}, &result).ok());
  scheduler.Shutdown();
  EXPECT_EQ(scheduler.Count({1}, &result).code(),
            StatusCode::kUnavailable);
}

/// Threads in this process, from /proc/self/status (0 when unreadable).
size_t ProcessThreads() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) return std::stoul(line.substr(8));
  }
  return 0;
}

TEST(CountSchedulerTest, SingleThreadedSchedulerOwnsNoThread) {
  Fixture fx = MakeFixture(20, 100, 32);
  auto manager = SnapshotManager::FromIndex(fx.index);
  ASSERT_TRUE(manager.ok());
  const size_t before = ProcessThreads();
  if (before == 0) GTEST_SKIP() << "no /proc/self/status here";
  SchedulerOptions options;
  options.num_threads = 1;
  CountScheduler scheduler(&*manager, options, nullptr);
  EXPECT_EQ(ProcessThreads(), before);
  // The caller runs its own batch.
  CountResult result;
  ASSERT_TRUE(scheduler.Count({1, 2}, &result).ok());
  EXPECT_EQ(result.count, fx.index.CountItemSet({1, 2}));
  EXPECT_EQ(result.batch_size, 1u);
  EXPECT_EQ(ProcessThreads(), before);
}

// Many callers COUNT while a writer inserts, then Shutdown lands with the
// callers still in flight. Checks the leader/follower batching invariants
// at num_threads 1 (leader alone) and 3 (leader plus two helpers).
TEST(CountSchedulerTest, BatchesKeepTheirInvariantsUnderInsertsAndShutdown) {
  constexpr uint64_t kCapacity = 32;
  constexpr size_t kInitial = 50;
  constexpr size_t kBatches = 25;
  constexpr size_t kPerBatch = 4;
  constexpr size_t kCallers = 6;
  const TransactionDatabase db = bbsmine::testing::RandomDb(
      24, kInitial + kBatches * kPerBatch, 24, 5.0);
  std::vector<Itemset> queries = QueryMix();
  queries.resize(18);

  // The oracle: a direct SegmentedBbs count of every query at every prefix
  // the writer publishes.
  std::map<uint64_t, std::vector<size_t>> oracle;
  {
    auto index = SegmentedBbs::Create(SmallConfig(), kCapacity);
    ASSERT_TRUE(index.ok());
    for (size_t t = 0; t < db.size(); ++t) {
      ASSERT_TRUE(index->Insert(db.At(t).items).ok());
      const size_t n = t + 1;
      if (n >= kInitial && (n - kInitial) % kPerBatch == 0) {
        for (const Itemset& q : queries) {
          oracle[n].push_back(index->CountItemSet(q));
        }
      }
    }
  }

  for (size_t threads : {1u, 3u}) {
    SCOPED_TRACE("num_threads " + std::to_string(threads));
    auto manager = SnapshotManager::Create(SmallConfig(), kCapacity);
    ASSERT_TRUE(manager.ok());
    ASSERT_TRUE(manager->InsertAll(db, 0, kInitial).ok());
    SchedulerOptions options;
    options.num_threads = threads;
    options.max_batch = 8;
    CountScheduler scheduler(&*manager, options, nullptr);

    struct Answer {
      size_t query;
      CountResult result;
    };
    std::mutex answers_mu;
    std::vector<Answer> answers;
    std::atomic<size_t> answered{0};
    std::vector<std::thread> callers;
    for (size_t c = 0; c < kCallers; ++c) {
      callers.emplace_back([&, c] {
        std::vector<Answer> mine;
        for (size_t k = c;; ++k) {
          const size_t q = k % queries.size();
          CountResult result;
          if (!scheduler.Count(queries[q], &result).ok()) break;  // draining
          mine.push_back({q, result});
          answered.fetch_add(1);
        }
        std::lock_guard<std::mutex> lock(answers_mu);
        answers.insert(answers.end(), mine.begin(), mine.end());
      });
    }
    while (answered.load() < kCallers) std::this_thread::yield();
    for (size_t b = 0; b < kBatches; ++b) {
      std::vector<Itemset> batch;
      for (size_t t = 0; t < kPerBatch; ++t) {
        batch.push_back(db.At(kInitial + b * kPerBatch + t).items);
      }
      ASSERT_TRUE(manager->InsertBatch(batch).ok());
    }
    const size_t before_shutdown = answered.load();
    while (answered.load() < before_shutdown + 4 * kCallers) {
      std::this_thread::yield();
    }
    scheduler.Shutdown();  // callers are mid-COUNT
    EXPECT_EQ(scheduler.pending(), 0u);
    for (std::thread& t : callers) t.join();  // none hangs

    // Every answer matches the oracle at its own prefix.
    std::map<uint64_t, std::vector<const CountResult*>> by_batch;
    for (const Answer& a : answers) {
      auto it = oracle.find(a.result.visible_transactions);
      ASSERT_NE(it, oracle.end()) << a.result.visible_transactions;
      EXPECT_EQ(a.result.count, it->second[a.query])
          << ItemsetToString(queries[a.query]) << " at "
          << a.result.visible_transactions;
      by_batch[a.result.batch_id].push_back(&a.result);
    }
    // A batch is one snapshot: its requests agree on epoch, prefix and
    // size, and exactly batch_size answers carry its id (none lost, none
    // answered twice).
    bool fused = false;
    for (const auto& [id, members] : by_batch) {
      EXPECT_GE(id, 1u);
      const CountResult& first = *members.front();
      EXPECT_EQ(members.size(), first.batch_size) << "batch " << id;
      for (const CountResult* r : members) {
        EXPECT_EQ(r->epoch, first.epoch) << "batch " << id;
        EXPECT_EQ(r->visible_transactions, first.visible_transactions);
        EXPECT_EQ(r->batch_size, first.batch_size) << "batch " << id;
      }
      if (first.batch_size > 1) fused = true;
    }
    EXPECT_TRUE(fused) << "six callers never shared a batch";
    // After Shutdown nothing is admitted.
    CountResult late;
    EXPECT_EQ(scheduler.Count({1}, &late).code(), StatusCode::kUnavailable);
  }
}

// ---------------------------------------------------------------------------
// Verb handler.

obs::JsonValue CountRequest(const Itemset& items) {
  obs::JsonValue request = obs::JsonValue::Object();
  request.Set("verb", obs::JsonValue::String("COUNT"));
  request.Set("items", ItemsToJson(items));
  return request;
}

TEST(BbsServiceTest, HandlesEveryVerb) {
  Fixture fx = MakeFixture(19, 200, 64);
  auto manager = SnapshotManager::FromIndex(fx.index);
  ASSERT_TRUE(manager.ok());
  BbsService service(&*manager, &fx.db, ServiceOptions{});

  // PING.
  obs::JsonValue ping = obs::JsonValue::Object();
  ping.Set("verb", obs::JsonValue::String("PING"));
  obs::JsonValue pong = service.Handle(ping);
  EXPECT_TRUE(pong.at("ok").AsBool());

  // COUNT parity against the index the daemon would have loaded.
  for (const Itemset& query : QueryMix()) {
    obs::JsonValue response = service.Handle(CountRequest(query));
    ASSERT_TRUE(response.at("ok").AsBool()) << response.Serialize(0);
    EXPECT_EQ(response.at("count").AsUint(), fx.index.CountItemSet(query));
  }

  // INSERT one transaction; counts shift accordingly.
  size_t before = fx.index.CountItemSet({2, 3});
  obs::JsonValue insert = obs::JsonValue::Object();
  insert.Set("verb", obs::JsonValue::String("INSERT"));
  insert.Set("items", ItemsToJson({2, 3}));
  obs::JsonValue inserted = service.Handle(insert);
  ASSERT_TRUE(inserted.at("ok").AsBool()) << inserted.Serialize(0);
  EXPECT_EQ(inserted.at("inserted").AsUint(), 1u);
  obs::JsonValue recount = service.Handle(CountRequest({2, 3}));
  EXPECT_EQ(recount.at("count").AsUint(), before + 1);
  EXPECT_EQ(fx.db.size(), 201u);  // database moved with the index

  // MINE delegates to exact Eclat over the database.
  obs::JsonValue mine = obs::JsonValue::Object();
  mine.Set("verb", obs::JsonValue::String("MINE"));
  mine.Set("minsup", obs::JsonValue::Double(0.05));
  mine.Set("top", obs::JsonValue::Uint(5));
  obs::JsonValue mined = service.Handle(mine);
  ASSERT_TRUE(mined.at("ok").AsBool()) << mined.Serialize(0);
  EXPECT_LE(mined.at("patterns").size(), 5u);
  EXPECT_GE(mined.at("total_frequent").AsUint(),
            mined.at("patterns").size());

  // STATS carries the schema-versioned service report.
  obs::JsonValue stats = obs::JsonValue::Object();
  stats.Set("verb", obs::JsonValue::String("STATS"));
  obs::JsonValue report = service.Handle(stats);
  ASSERT_TRUE(report.at("ok").AsBool());
  const obs::JsonValue& doc = report.at("report");
  EXPECT_EQ(doc.at("schema_version").AsInt(), kServiceReportSchemaVersion);
  EXPECT_EQ(doc.at("kind").AsString(), "bbsmined_service");
  EXPECT_TRUE(doc.at("service").at("mine_enabled").AsBool());
  // The latency histograms rendered with the run-report histogram shape.
  const obs::JsonValue& latency = doc.at("metrics").at("latency_us");
  for (const char* verb : {"ping", "count", "insert", "mine", "stats"}) {
    ASSERT_TRUE(latency.Has(verb)) << verb;
    EXPECT_TRUE(latency.at(verb).Has("by_depth"));
    EXPECT_TRUE(latency.at(verb).Has("total"));
  }
  EXPECT_GE(latency.at("count").at("total").AsUint(), QueryMix().size());

  // Unknown and malformed verbs answer ok=false, not a dropped connection.
  obs::JsonValue junk = obs::JsonValue::Object();
  junk.Set("verb", obs::JsonValue::String("EXPLODE"));
  EXPECT_FALSE(service.Handle(junk).at("ok").AsBool());
  EXPECT_FALSE(service.Handle(obs::JsonValue::Null()).at("ok").AsBool());
  EXPECT_EQ(service.Handle(obs::JsonValue::Null()).at("error")
                .at("code").AsString(),
            "InvalidArgument");
}

TEST(BbsServiceTest, MineWithoutDatabaseFails) {
  Fixture fx = MakeFixture(20, 60, 32);
  auto manager = SnapshotManager::FromIndex(fx.index);
  ASSERT_TRUE(manager.ok());
  BbsService service(&*manager, nullptr, ServiceOptions{});
  obs::JsonValue mine = obs::JsonValue::Object();
  mine.Set("verb", obs::JsonValue::String("MINE"));
  obs::JsonValue response = service.Handle(mine);
  EXPECT_FALSE(response.at("ok").AsBool());
  obs::JsonValue report = service.BuildStatsReport();
  EXPECT_FALSE(report.at("service").at("mine_enabled").AsBool());
}

TEST(BbsServiceTest, InsertDuringALongMineReturnsFirst) {
  // MINE pins the published prefix and mines it without the write mutex,
  // so an INSERT issued mid-pass must not wait for the pass to finish.
  TransactionDatabase db = bbsmine::testing::RandomDb(61, 4000, 24, 9.0);
  auto index = SegmentedBbs::Create(SmallConfig(), 1024);
  ASSERT_TRUE(index.ok());
  ASSERT_TRUE(index->InsertAll(db).ok());
  auto manager = SnapshotManager::FromIndex(*index);
  ASSERT_TRUE(manager.ok());
  BbsService service(&*manager, &db, ServiceOptions{});
  obs::JsonValue mine = obs::JsonValue::Object();
  mine.Set("verb", obs::JsonValue::String("MINE"));
  mine.Set("minsup", obs::JsonValue::Double(0.004));

  // Calibrate: how long one pass takes on this machine.
  using Clock = std::chrono::steady_clock;
  const auto calibrate_start = Clock::now();
  ASSERT_TRUE(service.Handle(mine).at("ok").AsBool());
  const auto pass = Clock::now() - calibrate_start;

  Clock::time_point mine_done;
  obs::JsonValue mined;
  std::thread miner([&] {
    mined = service.Handle(mine);
    mine_done = Clock::now();
  });
  // A quarter of the way into the pass: were the write mutex held for the
  // whole pass, this INSERT would wait out the other three quarters.
  std::this_thread::sleep_for(pass / 4);
  obs::JsonValue insert = obs::JsonValue::Object();
  insert.Set("verb", obs::JsonValue::String("INSERT"));
  insert.Set("items", ItemsToJson({1, 2, 3}));
  const auto insert_start = Clock::now();
  obs::JsonValue inserted = service.Handle(insert);
  const auto insert_done = Clock::now();
  miner.join();

  ASSERT_TRUE(inserted.at("ok").AsBool()) << inserted.Serialize(0);
  ASSERT_TRUE(mined.at("ok").AsBool()) << mined.Serialize(0);
  EXPECT_LT(insert_done, mine_done) << "the INSERT waited for the MINE";
  EXPECT_LT(insert_done - insert_start, pass / 2)
      << "the INSERT waited out the rest of the MINE pass";
  EXPECT_EQ(inserted.at("transactions").AsUint(), 4001u);
  EXPECT_EQ(db.size(), 4001u);
}

TEST(BbsServiceTest, DrainRefusesNewWork) {
  Fixture fx = MakeFixture(21, 60, 32);
  auto manager = SnapshotManager::FromIndex(fx.index);
  ASSERT_TRUE(manager.ok());
  BbsService service(&*manager, &fx.db, ServiceOptions{});
  service.Drain();
  obs::JsonValue count = service.Handle(CountRequest({1}));
  EXPECT_FALSE(count.at("ok").AsBool());
  EXPECT_EQ(count.at("error").at("code").AsString(), "Unavailable");
  obs::JsonValue insert = obs::JsonValue::Object();
  insert.Set("verb", obs::JsonValue::String("INSERT"));
  insert.Set("items", ItemsToJson({1}));
  EXPECT_FALSE(service.Handle(insert).at("ok").AsBool());
  // PING still answers so a supervisor can watch the drain.
  obs::JsonValue ping = obs::JsonValue::Object();
  ping.Set("verb", obs::JsonValue::String("PING"));
  EXPECT_TRUE(service.Handle(ping).at("ok").AsBool());
}

// ---------------------------------------------------------------------------
// Socket server end to end.

TEST(SocketServerTest, ServesConcurrentClientsBitIdentically) {
  Fixture fx = MakeFixture(22, 300, 64);
  auto manager = SnapshotManager::FromIndex(fx.index);
  ASSERT_TRUE(manager.ok());
  BbsService service(&*manager, &fx.db, ServiceOptions{});
  SocketServerOptions options;
  options.poll_interval_ms = 50;
  SocketServer server(&service, options);
  Status started = server.Start();
  if (!started.ok()) {
    GTEST_SKIP() << "cannot bind a loopback socket here: "
                 << started.ToString();
  }

  std::vector<Itemset> queries = QueryMix();
  std::vector<uint64_t> answers(queries.size(), 0);
  std::vector<std::string> failures;
  std::mutex failures_mu;
  std::vector<std::thread> clients;
  for (size_t c = 0; c < 4; ++c) {
    clients.emplace_back([&, c] {
      auto fd = ConnectTcp("127.0.0.1", server.port());
      if (!fd.ok()) {
        std::lock_guard<std::mutex> lock(failures_mu);
        failures.push_back(fd.status().ToString());
        return;
      }
      // Each client owns a stride of the query mix, several per connection.
      for (size_t i = c; i < queries.size(); i += 4) {
        if (!WriteFrame(fd->get(), CountRequest(queries[i])).ok()) return;
        auto response = ReadFrame(fd->get(), /*timeout_ms=*/10'000);
        if (!response.ok() || !response->at("ok").AsBool()) {
          std::lock_guard<std::mutex> lock(failures_mu);
          failures.push_back("query " + std::to_string(i) + " failed");
          return;
        }
        answers[i] = response->at("count").AsUint();
      }
    });
  }
  for (std::thread& t : clients) t.join();
  server.Stop();
  ASSERT_TRUE(failures.empty()) << failures.front();
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(answers[i], fx.index.CountItemSet(queries[i]))
        << ItemsetToString(queries[i]);
  }
}

/// Sends `payload` as one frame, bypassing WriteFrame's serializer so the
/// bytes can be anything a hostile peer sends.
Status SendRawFrame(int fd, const std::string& payload) {
  std::string frame;
  for (int i = 0; i < 4; ++i) {
    frame.push_back(static_cast<char>(payload.size() >> (8 * i)));
  }
  return SendAll(fd, frame + payload);
}

TEST(SocketServerTest, DeeplyNestedFrameIsRejectedAndTheDaemonLives) {
  Fixture fx = MakeFixture(24, 50, 64);
  auto manager = SnapshotManager::FromIndex(fx.index);
  ASSERT_TRUE(manager.ok());
  BbsService service(&*manager, &fx.db, ServiceOptions{});
  SocketServerOptions options;
  options.poll_interval_ms = 50;
  SocketServer server(&service, options);
  Status started = server.Start();
  if (!started.ok()) {
    GTEST_SKIP() << "cannot bind a loopback socket here: "
                 << started.ToString();
  }
  {
    auto fd = ConnectTcp("127.0.0.1", server.port());
    ASSERT_TRUE(fd.ok());
    ASSERT_TRUE(SendRawFrame(fd->get(), std::string(100'000, '[') +
                                            std::string(100'000, ']'))
                    .ok());
    auto response = ReadFrame(fd->get(), /*timeout_ms=*/10'000);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_FALSE(response->at("ok").AsBool());
    EXPECT_EQ(response->at("error").at("code").AsString(), "InvalidArgument");
  }
  auto fd = ConnectTcp("127.0.0.1", server.port());
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(WriteFrame(fd->get(), VerbRequest(Verb::kPing)).ok());
  auto pong = ReadFrame(fd->get(), /*timeout_ms=*/10'000);
  ASSERT_TRUE(pong.ok()) << pong.status().ToString();
  EXPECT_TRUE(pong->at("ok").AsBool());
  server.Stop();
}

// ---------------------------------------------------------------------------
// The verb table (service/verbs.h).

TEST(VerbTableTest, NamesRoundTripAndRequestsResolve) {
  ASSERT_EQ(AllVerbs().size(), kNumVerbs - 1);
  for (const VerbInfo& info : AllVerbs()) {
    EXPECT_EQ(VerbFromName(info.name), info.verb);
    EXPECT_EQ(&InfoOf(info.verb), &info);
    EXPECT_EQ(VerbOf(VerbRequest(info.verb)), info.verb);
  }
  EXPECT_EQ(VerbFromName("ping"), Verb::kUnknown);  // case-sensitive
  EXPECT_EQ(VerbOf(obs::JsonValue::Null()), Verb::kUnknown);
  obs::JsonValue numeric = obs::JsonValue::Object();
  numeric.Set("verb", obs::JsonValue::Int(1));
  EXPECT_EQ(VerbOf(numeric), Verb::kUnknown);
  EXPECT_FALSE(InfoOf(Verb::kUnknown).idempotent);
  EXPECT_STREQ(VerbName(Verb::kUnknown), "UNKNOWN");
}

// ---------------------------------------------------------------------------
// Client retry: behavior against a saturated scheduler, a healthy daemon,
// and a dead endpoint. Backoffs are shrunk to keep the test fast; jitter is
// seeded, so the schedule is deterministic.

RetryOptions FastRetry(uint32_t retries) {
  RetryOptions retry;
  retry.retries = retries;
  retry.backoff_ms = 1;
  retry.max_backoff_ms = 4;
  retry.timeout_ms = 5'000;
  return retry;
}

TEST(ClientRetryTest, SaturatedSchedulerExhaustsRetriesDistinctly) {
  Fixture fx = MakeFixture(23, 100, 64);
  auto manager = SnapshotManager::FromIndex(fx.index);
  ASSERT_TRUE(manager.ok());
  ServiceOptions options;
  options.scheduler.max_pending = 0;  // every COUNT admission bounces
  BbsService service(&*manager, &fx.db, options);
  SocketServer server(&service, SocketServerOptions{});
  Status started = server.Start();
  if (!started.ok()) {
    GTEST_SKIP() << "cannot bind a loopback socket here: "
                 << started.ToString();
  }

  auto outcome =
      CallWithRetry("127.0.0.1", server.port(), CountRequest({1}),
                    FastRetry(/*retries=*/3));
  server.Stop();

  // Backpressure that outlives the retry budget is NOT a transport error:
  // the call "succeeds" in obtaining a definitive final response, and the
  // exhaustion is flagged so the CLI can exit with its dedicated code.
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_EQ(outcome->attempts, 4u);  // 1 initial + 3 retries
  EXPECT_TRUE(outcome->backpressure_exhausted);
  EXPECT_FALSE(outcome->response.at("ok").AsBool());
  EXPECT_EQ(outcome->response.at("error").at("code").AsString(),
            StatusCodeName(StatusCode::kUnavailable));
}

TEST(ClientRetryTest, HealthyServiceAnswersOnTheFirstAttempt) {
  Fixture fx = MakeFixture(24, 150, 64);
  auto manager = SnapshotManager::FromIndex(fx.index);
  ASSERT_TRUE(manager.ok());
  BbsService service(&*manager, &fx.db, ServiceOptions{});
  SocketServer server(&service, SocketServerOptions{});
  Status started = server.Start();
  if (!started.ok()) {
    GTEST_SKIP() << "cannot bind a loopback socket here: "
                 << started.ToString();
  }

  Itemset query{1, 4};
  auto outcome = CallWithRetry("127.0.0.1", server.port(),
                               CountRequest(query), FastRetry(3));
  server.Stop();
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_EQ(outcome->attempts, 1u);
  EXPECT_FALSE(outcome->backpressure_exhausted);
  ASSERT_TRUE(outcome->response.at("ok").AsBool());
  EXPECT_EQ(outcome->response.at("count").AsUint(),
            fx.index.CountItemSet(query));
}

TEST(ClientRetryTest, IdempotentVerbClassification) {
  EXPECT_TRUE(IsIdempotentVerb("PING"));
  EXPECT_TRUE(IsIdempotentVerb("COUNT"));
  EXPECT_TRUE(IsIdempotentVerb("STATS"));
  EXPECT_TRUE(IsIdempotentVerb("MINE"));
  // INSERT mutates; CHECKPOINT and unknown verbs default to at-most-once.
  EXPECT_FALSE(IsIdempotentVerb("INSERT"));
  EXPECT_FALSE(IsIdempotentVerb("CHECKPOINT"));
  EXPECT_FALSE(IsIdempotentVerb("FROB"));
  EXPECT_FALSE(IsIdempotentVerb(""));
}

TEST(ClientRetryTest, BackoffNeverExceedsConfiguredMaximum) {
  // Regression: jitter used to be added after the clamp, so late attempts
  // could sleep up to ~2x max_backoff_ms. Sweep deep attempt counts and
  // several jitter seeds; no backoff may ever exceed the cap.
  RetryOptions options;
  options.backoff_ms = 100;
  options.max_backoff_ms = 750;
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    uint64_t jitter_state = seed;
    for (uint32_t attempt = 1; attempt <= 30; ++attempt) {
      uint64_t backoff = RetryBackoffMs(options, attempt, &jitter_state);
      EXPECT_LE(backoff, options.max_backoff_ms)
          << "attempt " << attempt << " seed " << seed;
      // The exponential base (pre-jitter) is a floor: backoff dips below
      // it only if jitter could be negative, which it cannot.
      uint64_t base = std::min<uint64_t>(
          static_cast<uint64_t>(options.backoff_ms)
              << std::min<uint32_t>(attempt - 1, 20),
          options.max_backoff_ms);
      EXPECT_GE(backoff, base);
    }
  }
}

// ---------------------------------------------------------------------------
// The at-most-once contract: a response timeout on INSERT must NOT trigger
// a blind re-send. The relay below wraps a real BbsService: it applies
// every request it receives, then answers too slowly for the client's
// timeout — exactly the failure mode where the old retry loop would
// double-apply.

class SlowRelay {
 public:
  SlowRelay(BbsService* service, int delay_ms)
      : service_(service), delay_ms_(delay_ms) {}

  Status Start() {
    Result<OwnedFd> listener = ListenTcp("127.0.0.1", 0);
    if (!listener.ok()) return listener.status();
    Result<uint16_t> port = BoundPort(listener->get());
    if (!port.ok()) return port.status();
    listener_ = std::move(*listener);
    port_ = *port;
    thread_ = std::thread([this] { Loop(); });
    return Status::Ok();
  }

  void Stop() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
  }

  uint16_t port() const { return port_; }
  int handled() const { return handled_.load(); }

  /// Blocks until the relay has applied `n` requests (bounded wait).
  bool WaitForHandled(int n) {
    for (int i = 0; i < 400; ++i) {
      if (handled_.load() >= n) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return false;
  }

 private:
  void Loop() {
    while (!stop_.load()) {
      Result<OwnedFd> conn = AcceptWithTimeout(listener_.get(), 20);
      if (!conn.ok() || !conn->valid()) continue;
      Result<obs::JsonValue> request = ReadFrame(conn->get(), 1000);
      if (!request.ok()) continue;
      obs::JsonValue response = service_->Handle(*request);
      handled_.fetch_add(1);  // the request IS applied at this point
      std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms_));
      (void)WriteFrame(conn->get(), response);  // client is likely gone
    }
  }

  BbsService* service_;
  int delay_ms_;
  OwnedFd listener_;
  uint16_t port_ = 0;
  std::thread thread_;
  std::atomic<bool> stop_{false};
  std::atomic<int> handled_{0};
};

TEST(ClientRetryTest, TimedOutInsertIsIndeterminateAndAppliedExactlyOnce) {
  Fixture fx = MakeFixture(26, 80, 64);
  auto manager = SnapshotManager::FromIndex(fx.index);
  ASSERT_TRUE(manager.ok());
  BbsService service(&*manager, &fx.db, ServiceOptions{});
  SlowRelay relay(&service, /*delay_ms=*/250);
  Status started = relay.Start();
  if (!started.ok()) {
    GTEST_SKIP() << "cannot bind a loopback socket here: "
                 << started.ToString();
  }
  size_t before = manager->num_transactions();

  obs::JsonValue insert = obs::JsonValue::Object();
  insert.Set("verb", obs::JsonValue::String("INSERT"));
  insert.Set("items", ItemsToJson({1, 2, 3}));
  RetryOptions options = FastRetry(/*retries=*/3);
  options.timeout_ms = 100;  // well under the relay's 250 ms stall
  auto outcome = CallWithRetry("127.0.0.1", relay.port(), insert, options);

  // The client must report the unknown outcome, not retry: with the old
  // timeout-retry loop this re-sends the INSERT and the relay applies it
  // again (handled > 1, transactions = before + 2+).
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.status().code(), StatusCode::kIndeterminate)
      << outcome.status().ToString();
  ASSERT_TRUE(relay.WaitForHandled(1));
  relay.Stop();
  EXPECT_EQ(relay.handled(), 1);
  EXPECT_EQ(manager->num_transactions(), before + 1);
}

TEST(ClientRetryTest, TimedOutCountIsStillRetried) {
  Fixture fx = MakeFixture(27, 80, 64);
  auto manager = SnapshotManager::FromIndex(fx.index);
  ASSERT_TRUE(manager.ok());
  BbsService service(&*manager, &fx.db, ServiceOptions{});
  SlowRelay relay(&service, /*delay_ms=*/200);
  Status started = relay.Start();
  if (!started.ok()) {
    GTEST_SKIP() << "cannot bind a loopback socket here: "
                 << started.ToString();
  }

  RetryOptions options = FastRetry(/*retries=*/2);
  options.timeout_ms = 50;
  auto outcome =
      CallWithRetry("127.0.0.1", relay.port(), CountRequest({1}), options);

  // COUNT is idempotent: every attempt may be re-sent, and when they all
  // time out the final status is the retryable kUnavailable — never
  // kIndeterminate.
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.status().code(), StatusCode::kUnavailable)
      << outcome.status().ToString();
  ASSERT_TRUE(relay.WaitForHandled(3));  // 1 initial + 2 retries
  relay.Stop();
  EXPECT_EQ(relay.handled(), 3);
}

TEST(ClientRetryTest, TransportErrorsAreNotRetried) {
  // Grab a port that briefly had a listener, then kill it: the connect is
  // refused, which must surface as an immediate transport error (distinct
  // from kUnavailable) rather than burn the retry budget.
  Fixture fx = MakeFixture(25, 50, 64);
  auto manager = SnapshotManager::FromIndex(fx.index);
  ASSERT_TRUE(manager.ok());
  BbsService service(&*manager, &fx.db, ServiceOptions{});
  SocketServer server(&service, SocketServerOptions{});
  Status started = server.Start();
  if (!started.ok()) {
    GTEST_SKIP() << "cannot bind a loopback socket here: "
                 << started.ToString();
  }
  uint16_t dead_port = server.port();
  server.Stop();

  auto outcome = CallWithRetry("127.0.0.1", dead_port, CountRequest({1}),
                               FastRetry(5));
  ASSERT_FALSE(outcome.ok());
  EXPECT_NE(outcome.status().code(), StatusCode::kUnavailable)
      << outcome.status().ToString();
}

}  // namespace
}  // namespace bbsmine::service
