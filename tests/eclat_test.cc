#include "baseline/eclat.h"

#include <gtest/gtest.h>

#include "baseline/fp_tree.h"
#include "testing/reference.h"

namespace bbsmine {
namespace {

TEST(EclatTest, MatchesBruteForce) {
  for (uint64_t seed : {2u, 6u, 10u}) {
    TransactionDatabase db = testing::RandomDb(seed, 300, 40, 6.0);
    EclatConfig config;
    config.min_support = 0.02;
    MiningResult result = MineEclat(db, config);
    result.SortPatterns();
    std::vector<Pattern> truth = testing::BruteForceMine(
        db, AbsoluteThreshold(config.min_support, db.size()));
    ASSERT_EQ(testing::ItemsetsOf(result.patterns),
              testing::ItemsetsOf(truth))
        << "seed " << seed;
    for (size_t i = 0; i < truth.size(); ++i) {
      EXPECT_EQ(result.patterns[i].support, truth[i].support);
    }
  }
}

TEST(EclatTest, ExtensionExactlyAtTheThresholdSurvives) {
  // {1, 2} occurs only in the last 10 of 100 transactions, so the merge of
  // the tid-lists of 1 and 2 reaches its matches only when exactly 10
  // positions are left on each side: at minsup 0.10 (tau = 10) it must not
  // give up, at 0.11 (tau = 11) the pair is infrequent.
  TransactionDatabase db;
  for (int t = 0; t < 40; ++t) {
    db.Append({1});
    db.Append({2});
  }
  for (int t = 0; t < 10; ++t) db.Append({});
  for (int t = 0; t < 10; ++t) db.Append({1, 2});
  for (double minsup : {0.10, 0.11}) {
    EclatConfig config;
    config.min_support = minsup;
    MiningResult result = MineEclat(db, config);
    result.SortPatterns();
    std::vector<Pattern> truth = testing::BruteForceMine(
        db, AbsoluteThreshold(config.min_support, db.size()));
    ASSERT_EQ(testing::ItemsetsOf(result.patterns),
              testing::ItemsetsOf(truth))
        << "minsup " << minsup;
    for (size_t i = 0; i < truth.size(); ++i) {
      EXPECT_EQ(result.patterns[i].support, truth[i].support);
    }
  }
}

TEST(EclatTest, MatchesFpGrowth) {
  TransactionDatabase db = testing::RandomDb(4, 500, 50, 7.0);
  EclatConfig eclat_config;
  eclat_config.min_support = 0.015;
  FpGrowthConfig fp_config;
  fp_config.min_support = 0.015;
  MiningResult eclat = MineEclat(db, eclat_config);
  MiningResult fp = MineFpGrowth(db, fp_config);
  eclat.SortPatterns();
  fp.SortPatterns();
  EXPECT_EQ(testing::ItemsetsOf(eclat.patterns),
            testing::ItemsetsOf(fp.patterns));
}

TEST(EclatTest, SingleScan) {
  TransactionDatabase db = testing::RandomDb(8, 200, 20, 5.0);
  MiningResult result = MineEclat(db, EclatConfig{});
  EXPECT_EQ(result.stats.db_scans, 1u);
}

TEST(EclatTest, EmptyDatabase) {
  TransactionDatabase db;
  MiningResult result = MineEclat(db, EclatConfig{});
  EXPECT_TRUE(result.patterns.empty());
}

TEST(EclatTest, AllPatternsExact) {
  TransactionDatabase db = testing::RandomDb(12, 200, 20, 6.0);
  EclatConfig config;
  config.min_support = 0.03;
  for (const Pattern& p : MineEclat(db, config).patterns) {
    EXPECT_EQ(p.kind, SupportKind::kExact);
    EXPECT_EQ(p.support, testing::BruteForceSupport(db, p.items));
  }
}

}  // namespace
}  // namespace bbsmine
