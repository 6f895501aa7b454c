// Thread-safety and parallel-equivalence tests.
//
//  * The BbsIndex const query path must be callable from many threads at
//    once (no shared mutable scratch) — checked by hammering one shared
//    index and comparing against golden single-threaded answers. Run under
//    -DBBSMINE_SANITIZE=thread to make data races hard errors.
//  * The full mining engine must produce results identical to its serial
//    run at any thread count (the determinism guarantee documented in
//    MineConfig::num_threads).

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <tuple>
#include <vector>

#include "core/adhoc.h"
#include "core/bbs_index.h"
#include "core/miner.h"
#include "testing/reference.h"
#include "util/thread_pool.h"

namespace bbsmine {
namespace {

BbsIndex MakeBbs(const TransactionDatabase& db, uint32_t bits,
                 uint32_t hashes) {
  BbsConfig config;
  config.num_bits = bits;
  config.num_hashes = hashes;
  auto index = BbsIndex::Create(config);
  EXPECT_TRUE(index.ok());
  index->InsertAll(db);
  return std::move(index).value();
}

/// A deterministic spread of query itemsets over the database's universe.
std::vector<Itemset> QueryMix(ItemId universe) {
  std::vector<Itemset> queries;
  for (ItemId a = 0; a < universe; ++a) {
    queries.push_back({a});
    queries.push_back({a, static_cast<ItemId>((a + 3) % universe)});
    queries.push_back({a, static_cast<ItemId>((a + 1) % universe),
                       static_cast<ItemId>((a + 7) % universe)});
  }
  for (Itemset& q : queries) Canonicalize(&q);
  return queries;
}

TEST(ConcurrencyTest, SharedIndexQueriesMatchGoldenAnswers) {
  TransactionDatabase db = testing::RandomDb(3, 500, 32, 6.0);
  BbsIndex bbs = MakeBbs(db, 256, 3);
  std::vector<Itemset> queries = QueryMix(db.item_universe());

  // Golden answers, computed single-threaded.
  std::vector<size_t> golden_count(queries.size());
  std::vector<size_t> golden_at_least(queries.size());
  for (size_t q = 0; q < queries.size(); ++q) {
    golden_count[q] = bbs.CountItemSet(queries[q]);
    golden_at_least[q] = bbs.CountItemSetAtLeast(queries[q], /*tau=*/10);
  }

  constexpr int kThreads = 8;
  constexpr int kRounds = 5;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Offset start positions so threads collide on different queries.
      for (int round = 0; round < kRounds; ++round) {
        for (size_t i = 0; i < queries.size(); ++i) {
          size_t q = (i + static_cast<size_t>(t) * 37) % queries.size();
          BitVector result;
          if (bbs.CountItemSet(queries[q], &result) != golden_count[q] ||
              result.Count() != golden_count[q]) {
            ++mismatches;
          }
          size_t at_least = bbs.CountItemSetAtLeast(queries[q], 10);
          bool reaches = golden_at_least[q] >= 10;
          if (reaches ? at_least != golden_at_least[q] : at_least >= 10) {
            ++mismatches;
          }
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(ConcurrencyTest, ConstrainedCountAndSliceAndAreThreadSafe) {
  TransactionDatabase db = testing::RandomDb(11, 400, 24, 5.0);
  BbsIndex bbs = MakeBbs(db, 192, 2);
  BitVector constraint = MakeConstraintSlice(
      db, [](const Transaction& txn) { return txn.tid % 2 == 0; });
  std::vector<Itemset> queries = QueryMix(db.item_universe());

  std::vector<size_t> golden(queries.size());
  std::vector<size_t> golden_and(queries.size());
  for (size_t q = 0; q < queries.size(); ++q) {
    golden[q] = bbs.CountItemSetConstrained(queries[q], constraint);
    BitVector acc = constraint;
    golden_and[q] = bbs.AndItemSlices(queries[q].front(), &acc);
  }

  constexpr int kThreads = 8;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (size_t i = 0; i < queries.size(); ++i) {
        size_t q = (i + static_cast<size_t>(t) * 53) % queries.size();
        if (bbs.CountItemSetConstrained(queries[q], constraint) != golden[q]) {
          ++mismatches;
        }
        BitVector acc = constraint;
        if (bbs.AndItemSlices(queries[q].front(), &acc) != golden_and[q]) {
          ++mismatches;
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0);
}

using MineParam = std::tuple<Algorithm, uint64_t /*memory budget*/>;

class ParallelMiningTest : public ::testing::TestWithParam<MineParam> {};

// The acceptance contract of MineConfig::num_threads: the same patterns, in
// the same order, with the same supports, as the single-threaded run.
TEST_P(ParallelMiningTest, MultiThreadedRunIsBitIdenticalToSerial) {
  auto [algorithm, budget] = GetParam();
  TransactionDatabase db = testing::RandomDb(23, 500, 40, 6.0);
  BbsIndex bbs = MakeBbs(db, 512, 3);

  MineConfig config;
  config.algorithm = algorithm;
  config.min_support = 0.02;
  config.memory_budget_bytes = budget;

  config.num_threads = 1;
  MiningResult serial = MineFrequentPatterns(db, bbs, config);

  for (uint32_t threads : {2u, 4u}) {
    config.num_threads = threads;
    MiningResult parallel = MineFrequentPatterns(db, bbs, config);
    ASSERT_EQ(parallel.patterns.size(), serial.patterns.size());
    for (size_t i = 0; i < serial.patterns.size(); ++i) {
      EXPECT_EQ(parallel.patterns[i].items, serial.patterns[i].items);
      EXPECT_EQ(parallel.patterns[i].support, serial.patterns[i].support);
      EXPECT_EQ(parallel.patterns[i].kind, serial.patterns[i].kind);
    }
    EXPECT_EQ(parallel.stats.candidates, serial.stats.candidates);
    EXPECT_EQ(parallel.stats.false_drops, serial.stats.false_drops);
    EXPECT_EQ(parallel.stats.certified, serial.stats.certified);
  }

  // And the answers are still the true frequent patterns.
  uint64_t tau = AbsoluteThreshold(config.min_support, db.size());
  std::vector<Pattern> truth = testing::BruteForceMine(db, tau);
  serial.SortPatterns();
  EXPECT_EQ(testing::ItemsetsOf(serial.patterns), testing::ItemsetsOf(truth));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ParallelMiningTest,
    ::testing::Combine(::testing::Values(Algorithm::kSFS, Algorithm::kSFP,
                                         Algorithm::kDFS, Algorithm::kDFP),
                       // 0 = memory-resident; 20000 bytes forces the folded
                       // MemBBS + adaptive three-phase variant.
                       ::testing::Values(0ull, 20'000ull)));

TEST(ParallelMiningTest, AutoThreadCountAlsoMatchesSerial) {
  TransactionDatabase db = testing::RandomDb(29, 300, 30, 5.0);
  BbsIndex bbs = MakeBbs(db, 256, 2);
  MineConfig config;
  config.algorithm = Algorithm::kDFP;
  config.min_support = 0.02;
  config.num_threads = 1;
  MiningResult serial = MineFrequentPatterns(db, bbs, config);
  config.num_threads = 0;  // one thread per hardware thread
  MiningResult parallel = MineFrequentPatterns(db, bbs, config);
  EXPECT_EQ(parallel.patterns, serial.patterns);
}

}  // namespace
}  // namespace bbsmine
