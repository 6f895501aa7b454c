// Tests for the sharded cluster layer: shard maps, hex signature codec,
// the Bloofi routing tree, deterministic merging, the daemon's SHARDINFO /
// MINE-candidates verbs, the persistent ClientSession, and the router
// itself against live in-process shard servers.
//
// The load-bearing property throughout is *bit-identity*: every COUNT and
// MINE the router answers must match, bit for bit, a single-node oracle
// holding the concatenation of the shard databases — at any shard count,
// with pruning on or off, and (for the surviving subset) even when shards
// are slow or dead.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "baseline/eclat.h"
#include "cluster/bloofi_tree.h"
#include "cluster/merge.h"
#include "cluster/router.h"
#include "cluster/shard_map.h"
#include "core/bbs_index.h"
#include "core/miner.h"
#include "core/mining_types.h"
#include "core/segmented_bbs.h"
#include "service/client.h"
#include "service/server.h"
#include "service/snapshot.h"
#include "service/wire.h"
#include "storage/transaction_db.h"
#include "testing/reference.h"
#include "util/bitvector.h"
#include "util/socket.h"

namespace bbsmine::cluster {
namespace {

using obs::JsonValue;

BbsConfig ClusterConfig() {
  BbsConfig config;
  config.num_bits = 512;
  config.num_hashes = 3;
  return config;
}

JsonValue MakeRequest(const std::string& verb) {
  JsonValue request = JsonValue::Object();
  request.Set("verb", JsonValue::String(verb));
  return request;
}

JsonValue CountRequest(const Itemset& items) {
  JsonValue request = MakeRequest("COUNT");
  request.Set("items", service::ItemsToJson(items));
  return request;
}

JsonValue MineRequest(double minsup, uint64_t top) {
  JsonValue request = MakeRequest("MINE");
  request.Set("minsup", JsonValue::Double(minsup));
  request.Set("top", JsonValue::Uint(top));
  return request;
}

/// One in-process bbsmined shard: database, segmented index, service, and
/// a real TCP server on an ephemeral loopback port.
struct MiniShard {
  TransactionDatabase db;
  std::optional<service::SnapshotManager> manager;
  std::unique_ptr<service::BbsService> service;
  std::unique_ptr<service::SocketServer> server;
};

/// A fleet of in-process shards over a contiguous range partition of
/// `full`, plus the single-node oracle over `full` itself.
class Fleet {
 public:
  Fleet(const TransactionDatabase& full, size_t num_shards,
        uint64_t segment_capacity = 64) {
    const size_t base = full.size() / num_shards;
    const size_t extra = full.size() % num_shards;
    size_t next = 0;
    for (size_t s = 0; s < num_shards; ++s) {
      auto shard = std::make_unique<MiniShard>();
      const size_t take = base + (s < extra ? 1 : 0);
      for (size_t t = 0; t < take; ++t) {
        shard->db.Append(full.At(next++).items);
      }
      auto index = SegmentedBbs::Create(ClusterConfig(), segment_capacity);
      EXPECT_TRUE(index.ok());
      EXPECT_TRUE(index->InsertAll(shard->db).ok());
      auto manager = service::SnapshotManager::FromIndex(*index);
      EXPECT_TRUE(manager.ok());
      shard->manager.emplace(std::move(*manager));
      shard->service = std::make_unique<service::BbsService>(
          &*shard->manager, &shard->db, service::ServiceOptions{});
      shard->server = std::make_unique<service::SocketServer>(
          shard->service.get(), service::SocketServerOptions{});
      EXPECT_TRUE(shard->server->Start().ok());
      shards_.push_back(std::move(shard));
    }

    oracle_db_ = full;
    auto oracle_index = SegmentedBbs::Create(ClusterConfig(), segment_capacity);
    EXPECT_TRUE(oracle_index.ok());
    EXPECT_TRUE(oracle_index->InsertAll(oracle_db_).ok());
    auto oracle_manager = service::SnapshotManager::FromIndex(*oracle_index);
    EXPECT_TRUE(oracle_manager.ok());
    oracle_manager_.emplace(std::move(*oracle_manager));
    oracle_ = std::make_unique<service::BbsService>(
        &*oracle_manager_, &oracle_db_, service::ServiceOptions{});
  }

  ~Fleet() {
    for (auto& shard : shards_) shard->server->Stop();
  }

  ShardMap map() const {
    ShardMap map;
    for (const auto& shard : shards_) {
      ShardEntry entry;
      entry.primary = ShardEndpoint{"127.0.0.1", shard->server->port()};
      map.shards.push_back(std::move(entry));
    }
    return map;
  }

  static RouterOptions FastOptions() {
    RouterOptions options;
    options.connect_retries = 5;
    options.connect_backoff_ms = 50;
    options.fanout_deadline_ms = 10'000;
    // Keep the deterministic tests deterministic: no background prober
    // racing explicit up/down choreography (failover tests opt back in).
    options.probe_interval_ms = 0;
    return options;
  }

  service::BbsService& oracle() { return *oracle_; }
  MiniShard& shard(size_t i) { return *shards_[i]; }
  size_t size() const { return shards_.size(); }

 private:
  std::vector<std::unique_ptr<MiniShard>> shards_;
  TransactionDatabase oracle_db_;
  std::optional<service::SnapshotManager> oracle_manager_;
  std::unique_ptr<service::BbsService> oracle_;
};

std::vector<Itemset> QueryMix(ItemId universe) {
  std::vector<Itemset> queries;
  for (ItemId a = 0; a < universe; ++a) {
    queries.push_back({a});
    queries.push_back({a, static_cast<ItemId>((a + 5) % universe)});
    queries.push_back({a, static_cast<ItemId>((a + 1) % universe),
                       static_cast<ItemId>((a + 9) % universe)});
  }
  // Items past the universe: zero counts, and prime pruning candidates.
  queries.push_back({static_cast<ItemId>(universe + 100)});
  queries.push_back({3, static_cast<ItemId>(universe + 101)});
  for (Itemset& q : queries) Canonicalize(&q);
  return queries;
}

// ---------------------------------------------------------------------------
// Hex signature codec (service/wire.h).

TEST(SignatureHexTest, RoundTripsArbitraryWidths) {
  for (size_t bits : {1u, 7u, 8u, 9u, 63u, 64u, 65u, 512u}) {
    BitVector v(bits);
    for (size_t i = 0; i < bits; i += 3) v.Set(i);
    std::string hex = service::BitsToHex(v);
    EXPECT_EQ(hex.size(), ((bits + 7) / 8) * 2);
    auto back = service::BitsFromHex(hex, bits);
    ASSERT_TRUE(back.ok()) << bits;
    ASSERT_EQ(back->size(), bits);
    for (size_t i = 0; i < bits; ++i) {
      EXPECT_EQ(back->Get(i), v.Get(i)) << "bit " << i << " of " << bits;
    }
  }
}

TEST(SignatureHexTest, RejectsMalformedInput) {
  EXPECT_FALSE(service::BitsFromHex("zz", 8).ok());       // not hex
  EXPECT_FALSE(service::BitsFromHex("ab", 16).ok());      // too short
  EXPECT_FALSE(service::BitsFromHex("abcd", 8).ok());     // too long
  // A set bit beyond num_bits means the widths disagree.
  BitVector v(8);
  v.Set(7);
  EXPECT_FALSE(service::BitsFromHex(service::BitsToHex(v), 7).ok());
}

// ---------------------------------------------------------------------------
// Shard maps.

TEST(ShardMapTest, ParsesSpecAndRejectsGarbage) {
  auto map = ParseShardSpec("127.0.0.1:7071,10.0.0.2:7072");
  ASSERT_TRUE(map.ok());
  ASSERT_EQ(map->size(), 2u);
  EXPECT_EQ(map->shards[0].primary.host, "127.0.0.1");
  EXPECT_EQ(map->shards[0].primary.port, 7071);
  EXPECT_FALSE(map->shards[0].has_replica);
  EXPECT_EQ(map->shards[1].ToString(), "10.0.0.2:7072");

  EXPECT_FALSE(ParseShardSpec("").ok());
  EXPECT_FALSE(ParseShardSpec("nocolon").ok());
  EXPECT_FALSE(ParseShardSpec("host:0").ok());
  EXPECT_FALSE(ParseShardSpec("host:99999").ok());
  // Empty entries are skipped, not errors — a trailing comma is harmless
  // and cannot shift shard indices.
  auto trailing = ParseShardSpec("host:7071,");
  ASSERT_TRUE(trailing.ok());
  EXPECT_EQ(trailing->size(), 1u);
}

TEST(ShardMapTest, ParsesReplicaSuffix) {
  auto map = ParseShardSpec("127.0.0.1:7071/127.0.0.1:8071,10.0.0.2:7072");
  ASSERT_TRUE(map.ok());
  ASSERT_EQ(map->size(), 2u);
  EXPECT_TRUE(map->shards[0].has_replica);
  EXPECT_EQ(map->shards[0].primary.ToString(), "127.0.0.1:7071");
  EXPECT_EQ(map->shards[0].replica.ToString(), "127.0.0.1:8071");
  EXPECT_EQ(map->shards[0].ToString(), "127.0.0.1:7071/127.0.0.1:8071");
  EXPECT_FALSE(map->shards[1].has_replica);

  // A malformed half fails the whole entry, never silently drops it.
  EXPECT_FALSE(ParseShardSpec("host:7071/").ok());
  EXPECT_FALSE(ParseShardSpec("/host:7071").ok());
  EXPECT_FALSE(ParseShardSpec("host:7071/nocolon").ok());
}

TEST(ShardMapTest, LoadsFileWithCommentsPreservingOrder) {
  std::string path = ::testing::TempDir() + "/cluster_test_shards.txt";
  std::FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fputs("# fleet, tail shard last\n"
             "127.0.0.1:7071\n"
             "\n"
             "127.0.0.1:7072/127.0.0.1:8072  # trailing comment\n",
             f);
  std::fclose(f);
  auto map = LoadShardMapFile(path);
  ASSERT_TRUE(map.ok()) << map.status().ToString();
  ASSERT_EQ(map->size(), 2u);
  EXPECT_EQ(map->shards[0].primary.port, 7071);
  EXPECT_EQ(map->shards[1].primary.port, 7072);
  ASSERT_TRUE(map->shards[1].has_replica);
  EXPECT_EQ(map->shards[1].replica.port, 8072);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Bloofi routing tree.

BitVector LeafWithBits(size_t width, std::initializer_list<uint32_t> bits) {
  BitVector v(width);
  for (uint32_t b : bits) v.Set(b);
  return v;
}

TEST(BloofiTreeTest, QueryMatchesExactlyTheCoveringLeaves) {
  std::vector<BitVector> leaves;
  leaves.push_back(LeafWithBits(32, {1, 2, 3}));
  leaves.push_back(LeafWithBits(32, {2, 3, 4}));
  leaves.push_back(LeafWithBits(32, {10, 11}));
  leaves.push_back(LeafWithBits(32, {3, 11}));
  BloofiTree tree = BloofiTree::Build(std::move(leaves), /*branching=*/2);
  EXPECT_EQ(tree.num_leaves(), 4u);

  BloofiTree::QueryStats stats;
  EXPECT_EQ(tree.Query({2, 3}, &stats), (std::vector<size_t>{0, 1}));
  EXPECT_GT(stats.nodes_visited, 0u);
  EXPECT_GT(stats.leaves_pruned, 0u);
  EXPECT_EQ(tree.Query({11}), (std::vector<size_t>{2, 3}));
  EXPECT_EQ(tree.Query({1, 11}), (std::vector<size_t>{}));
  // An empty query constrains nothing.
  EXPECT_EQ(tree.Query({}), (std::vector<size_t>{0, 1, 2, 3}));
  // The root is the OR of everything.
  EXPECT_TRUE(tree.root_signature().Get(1));
  EXPECT_TRUE(tree.root_signature().Get(11));
  EXPECT_FALSE(tree.root_signature().Get(20));

  // A whole-subtree prune: positions covered by no leaf must cut at the
  // root, visiting exactly one node.
  BloofiTree::QueryStats miss;
  EXPECT_EQ(tree.Query({20}, &miss), (std::vector<size_t>{}));
  EXPECT_EQ(miss.nodes_visited, 1u);
  EXPECT_EQ(miss.leaves_pruned, 4u);
}

TEST(BloofiTreeTest, OrIntoLeafPropagatesToRoot) {
  std::vector<BitVector> leaves(4, BitVector(16));
  BloofiTree tree = BloofiTree::Build(std::move(leaves), 2);
  EXPECT_EQ(tree.Query({5}), (std::vector<size_t>{}));
  tree.OrIntoLeaf(2, {5});
  EXPECT_EQ(tree.Query({5}), (std::vector<size_t>{2}));
  EXPECT_TRUE(tree.root_signature().Get(5));
}

TEST(BloofiTreeTest, SetLeafRecomputesAncestorsAfterClearing) {
  std::vector<BitVector> leaves;
  leaves.push_back(LeafWithBits(16, {1}));
  leaves.push_back(LeafWithBits(16, {2}));
  leaves.push_back(LeafWithBits(16, {3}));
  BloofiTree tree = BloofiTree::Build(std::move(leaves), 2);
  ASSERT_EQ(tree.Query({1}), (std::vector<size_t>{0}));
  // Replace leaf 0 with a signature that no longer has bit 1: the ancestor
  // OR must actually lose the bit (an OR-in-place would keep it).
  tree.SetLeaf(0, LeafWithBits(16, {7}));
  EXPECT_EQ(tree.Query({1}), (std::vector<size_t>{}));
  EXPECT_FALSE(tree.root_signature().Get(1));
  EXPECT_EQ(tree.Query({7}), (std::vector<size_t>{0}));
  // Siblings are untouched.
  EXPECT_EQ(tree.Query({2}), (std::vector<size_t>{1}));
  EXPECT_EQ(tree.Query({3}), (std::vector<size_t>{2}));
}

TEST(BloofiTreeTest, OrSignatureIntoLeafAddsWithoutClearing) {
  std::vector<BitVector> leaves;
  leaves.push_back(LeafWithBits(16, {1}));
  leaves.push_back(LeafWithBits(16, {2}));
  BloofiTree tree = BloofiTree::Build(std::move(leaves), 2);
  // A racing INSERT adds bit 5 to leaf 0; a snapshot captured before that
  // insert is then applied additively (the RefreshShard fallback): the
  // insert's bit must survive, the snapshot's bits must land, and nothing
  // is cleared — contrast SetLeaf above, which may clear.
  tree.OrIntoLeaf(0, {5});
  tree.OrSignatureIntoLeaf(0, LeafWithBits(16, {1, 9}));
  EXPECT_EQ(tree.Query({5}), (std::vector<size_t>{0}));
  EXPECT_EQ(tree.Query({9}), (std::vector<size_t>{0}));
  EXPECT_EQ(tree.Query({1}), (std::vector<size_t>{0}));
  EXPECT_TRUE(tree.root_signature().Get(5));
  EXPECT_TRUE(tree.root_signature().Get(9));
  // The sibling is untouched.
  EXPECT_EQ(tree.Query({2}), (std::vector<size_t>{1}));
}

TEST(BloofiTreeTest, SingleLeafAndWideBranchingDegenerate) {
  {
    std::vector<BitVector> one;
    one.push_back(LeafWithBits(8, {0}));
    BloofiTree tree = BloofiTree::Build(std::move(one), 4);
    EXPECT_EQ(tree.Query({0}), (std::vector<size_t>{0}));
    EXPECT_EQ(tree.num_nodes(), 1u);
  }
  {
    // Branching wider than the leaf count: a root directly over leaves.
    std::vector<BitVector> leaves(3, BitVector(8, true));
    BloofiTree tree = BloofiTree::Build(std::move(leaves), 16);
    EXPECT_EQ(tree.num_nodes(), 4u);
    EXPECT_EQ(tree.Query({7}), (std::vector<size_t>{0, 1, 2}));
  }
}

// ---------------------------------------------------------------------------
// Deterministic merge.

TEST(MergeTest, TwoRoundMergeMatchesConcatenatedOracle) {
  // Build two shard databases, mine each locally at the same relative
  // minsup, merge through the helpers, and require exactly the Eclat
  // answer over the concatenation.
  TransactionDatabase full = bbsmine::testing::RandomDb(7, 240, 20, 6.0);
  const double minsup = 0.05;

  std::vector<TransactionDatabase> parts(2);
  for (size_t t = 0; t < full.size(); ++t) {
    parts[t < full.size() / 2 ? 0 : 1].Append(full.At(t).items);
  }

  std::vector<ShardMineResult> round1(2);
  for (size_t s = 0; s < 2; ++s) {
    EclatConfig config;
    config.min_support = minsup;
    MiningResult local = MineEclat(parts[s], config);
    round1[s].reachable = true;
    round1[s].transactions = parts[s].size();
    for (const Pattern& p : local.patterns) {
      round1[s].supports[p.items] = p.support;
    }
  }
  const uint64_t tau = AbsoluteThreshold(minsup, full.size());
  std::vector<Itemset> candidates = UnionCandidates(round1);

  std::vector<std::map<Itemset, uint64_t>> round2(2);
  for (size_t s = 0; s < 2; ++s) {
    for (const Itemset& candidate : MissingCandidates(round1[s], candidates)) {
      uint64_t support = 0;
      for (size_t t = 0; t < parts[s].size(); ++t) {
        const Itemset& txn = parts[s].At(t).items;
        if (std::includes(txn.begin(), txn.end(), candidate.begin(),
                          candidate.end())) {
          ++support;
        }
      }
      round2[s][candidate] = support;
    }
  }
  std::vector<Pattern> merged =
      MergeGlobalPatterns(round1, round2, candidates, tau);

  EclatConfig oracle_config;
  oracle_config.min_support = minsup;
  MiningResult oracle = MineEclat(full, oracle_config);
  std::vector<Pattern> expected = oracle.patterns;
  std::sort(expected.begin(), expected.end(),
            [](const Pattern& a, const Pattern& b) {
              if (a.support != b.support) return a.support > b.support;
              return a.items < b.items;
            });

  ASSERT_EQ(merged.size(), expected.size());
  for (size_t i = 0; i < merged.size(); ++i) {
    EXPECT_EQ(merged[i].items, expected[i].items) << "pattern " << i;
    EXPECT_EQ(merged[i].support, expected[i].support) << "pattern " << i;
  }
}

TEST(MergeTest, UnreachableShardsContributeNothing) {
  std::vector<ShardMineResult> round1(2);
  round1[0].reachable = true;
  round1[0].transactions = 10;
  round1[0].supports[{1}] = 6;
  round1[1].reachable = false;  // dark shard: no candidates, no supports
  round1[1].supports[{2}] = 9;  // must be ignored
  std::vector<Itemset> candidates = UnionCandidates(round1);
  ASSERT_EQ(candidates.size(), 1u);
  EXPECT_EQ(candidates[0], (Itemset{1}));
  std::vector<Pattern> merged = MergeGlobalPatterns(
      round1, std::vector<std::map<Itemset, uint64_t>>(2), candidates, 5);
  ASSERT_EQ(merged.size(), 1u);
  EXPECT_EQ(merged[0].support, 6u);
}

// ---------------------------------------------------------------------------
// Daemon-side cluster verbs: SHARDINFO and MINE candidates mode.

TEST(ShardInfoVerbTest, ReportsConfigAndCoveringSignature) {
  TransactionDatabase db = bbsmine::testing::RandomDb(11, 96, 24, 5.0);
  auto index = SegmentedBbs::Create(ClusterConfig(), 32);
  ASSERT_TRUE(index.ok());
  ASSERT_TRUE(index->InsertAll(db).ok());
  auto manager = service::SnapshotManager::FromIndex(*index);
  ASSERT_TRUE(manager.ok());
  service::BbsService daemon(&*manager, &db, service::ServiceOptions{});

  JsonValue response = daemon.Handle(MakeRequest("SHARDINFO"));
  ASSERT_TRUE(response.at("ok").AsBool()) << response.Serialize();
  EXPECT_EQ(response.at("transactions").AsUint(), db.size());
  EXPECT_TRUE(response.at("mine_enabled").AsBool());
  const JsonValue& config = response.at("config");
  EXPECT_EQ(config.at("bits").AsUint(), ClusterConfig().num_bits);
  EXPECT_EQ(config.at("hashes").AsUint(), ClusterConfig().num_hashes);

  auto signature = service::BitsFromHex(
      response.at("signature").AsString(),
      response.at("signature_bits").AsUint());
  ASSERT_TRUE(signature.ok());
  // Every position any present item hashes to must be set: the signature
  // is exactly the "slice non-empty" column map, so a query over present
  // items can never be wrongly pruned.
  auto hash = BloomHashFamily::Create(ClusterConfig().num_bits,
                                      ClusterConfig().num_hashes,
                                      ClusterConfig().hash_kind,
                                      ClusterConfig().seed);
  ASSERT_TRUE(hash.ok());
  for (ItemId item : db.DistinctItems()) {
    for (uint32_t pos : hash->Positions(item)) {
      EXPECT_TRUE(signature->Get(pos)) << "item " << item;
    }
  }
}

TEST(MineCandidatesVerbTest, ReturnsExactSupportsAlignedWithInput) {
  TransactionDatabase db = bbsmine::testing::RandomDb(13, 120, 16, 5.0);
  auto index = SegmentedBbs::Create(ClusterConfig(), 64);
  ASSERT_TRUE(index.ok());
  ASSERT_TRUE(index->InsertAll(db).ok());
  auto manager = service::SnapshotManager::FromIndex(*index);
  ASSERT_TRUE(manager.ok());
  service::BbsService daemon(&*manager, &db, service::ServiceOptions{});

  std::vector<Itemset> candidates = {{1}, {2, 3}, {0, 4, 9}, {15}};
  JsonValue request = MakeRequest("MINE");
  JsonValue list = JsonValue::Array();
  for (const Itemset& candidate : candidates) {
    list.Append(service::ItemsToJson(candidate));
  }
  request.Set("candidates", std::move(list));
  JsonValue response = daemon.Handle(request);
  ASSERT_TRUE(response.at("ok").AsBool()) << response.Serialize();
  const JsonValue& supports = response.at("supports");
  ASSERT_EQ(supports.size(), candidates.size());
  for (size_t c = 0; c < candidates.size(); ++c) {
    uint64_t expected = 0;
    for (size_t t = 0; t < db.size(); ++t) {
      const Itemset& txn = db.At(t).items;
      if (std::includes(txn.begin(), txn.end(), candidates[c].begin(),
                        candidates[c].end())) {
        ++expected;
      }
    }
    EXPECT_EQ(supports.at(c).AsUint(), expected) << "candidate " << c;
  }

  JsonValue bad = MakeRequest("MINE");
  bad.Set("candidates", JsonValue::String("nope"));
  EXPECT_FALSE(daemon.Handle(bad).at("ok").AsBool());
}

TEST(MineCandidatesVerbTest, AtTxnPinsThePrefixAndRejectsPastTheEnd) {
  TransactionDatabase db = bbsmine::testing::RandomDb(19, 120, 16, 5.0);
  const size_t initial = db.size();
  auto index = SegmentedBbs::Create(ClusterConfig(), 64);
  ASSERT_TRUE(index.ok());
  ASSERT_TRUE(index->InsertAll(db).ok());
  auto manager = service::SnapshotManager::FromIndex(*index);
  ASSERT_TRUE(manager.ok());
  service::BbsService daemon(&*manager, &db, service::ServiceOptions{});

  const std::vector<Itemset> candidates = {{1}, {2, 3}, {4}};
  auto request_at = [&](const JsonValue& at_txn) {
    JsonValue request = MakeRequest("MINE");
    JsonValue list = JsonValue::Array();
    for (const Itemset& candidate : candidates) {
      list.Append(service::ItemsToJson(candidate));
    }
    request.Set("candidates", std::move(list));
    if (at_txn.kind() != JsonValue::Kind::kNull) {
      request.Set("at_txn", at_txn);
    }
    return daemon.Handle(request);
  };
  auto expect_prefix = [&](const JsonValue& response, size_t n) {
    ASSERT_TRUE(response.at("ok").AsBool()) << response.Serialize();
    EXPECT_EQ(response.at("transactions").AsUint(), n);
    for (size_t c = 0; c < candidates.size(); ++c) {
      uint64_t expected = 0;
      for (size_t t = 0; t < n; ++t) {
        if (IsSubsetOf(candidates[c], db.At(t).items)) ++expected;
      }
      EXPECT_EQ(response.at("supports").at(c).AsUint(), expected)
          << "candidate " << c << " at " << n;
    }
  };

  // Grow the shard past the prefix the request pins.
  JsonValue insert = MakeRequest("INSERT");
  insert.Set("items", service::ItemsToJson({1, 2, 3, 4}));
  ASSERT_TRUE(daemon.Handle(insert).at("ok").AsBool());
  ASSERT_EQ(db.size(), initial + 1);

  expect_prefix(request_at(JsonValue()), initial + 1);  // default: all
  expect_prefix(request_at(JsonValue::Uint(initial)), initial);
  expect_prefix(request_at(JsonValue::Uint(60)), 60);
  expect_prefix(request_at(JsonValue::Uint(0)), 0);

  for (const JsonValue& bad :
       {JsonValue::Uint(initial + 2), JsonValue::String("7")}) {
    JsonValue response = request_at(bad);
    EXPECT_FALSE(response.at("ok").AsBool()) << bad.Serialize();
    EXPECT_EQ(response.at("error").at("code").AsString(), "InvalidArgument");
  }
}

// ---------------------------------------------------------------------------
// Persistent client sessions.

TEST(ClientSessionTest, ReusesOneConnectionAcrossCalls) {
  TransactionDatabase db = bbsmine::testing::RandomDb(17, 40, 12, 4.0);
  auto index = SegmentedBbs::Create(ClusterConfig(), 32);
  ASSERT_TRUE(index.ok());
  ASSERT_TRUE(index->InsertAll(db).ok());
  auto manager = service::SnapshotManager::FromIndex(*index);
  ASSERT_TRUE(manager.ok());
  service::BbsService daemon(&*manager, &db, service::ServiceOptions{});
  service::SocketServer server(&daemon, service::SocketServerOptions{});
  Status started = server.Start();
  if (!started.ok()) {
    GTEST_SKIP() << "cannot bind a loopback socket here: "
                 << started.ToString();
  }

  auto session = service::ClientSession::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  EXPECT_TRUE(session->connected());
  for (int i = 0; i < 5; ++i) {
    auto response = session->Call(MakeRequest("PING"), 2000);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_TRUE(response->at("ok").AsBool());
    EXPECT_TRUE(session->connected()) << "call " << i << " dropped the link";
  }
  // The lazy constructor reconnects on demand, including after Close.
  service::ClientSession lazy("127.0.0.1", server.port());
  EXPECT_FALSE(lazy.connected());
  ASSERT_TRUE(lazy.Call(MakeRequest("PING"), 2000).ok());
  EXPECT_TRUE(lazy.connected());
  lazy.Close();
  EXPECT_FALSE(lazy.connected());
  ASSERT_TRUE(lazy.Call(MakeRequest("PING"), 2000).ok());
  server.Stop();
}

// ---------------------------------------------------------------------------
// Router vs oracle: bit-identity at shard counts {1, 2, 4}.

TEST(RouterParityTest, CountsAreBitIdenticalAcrossShardCounts) {
  TransactionDatabase full = bbsmine::testing::RandomDb(21, 200, 24, 5.0);
  const std::vector<Itemset> queries = QueryMix(24);
  for (size_t num_shards : {1u, 2u, 4u}) {
    Fleet fleet(full, num_shards);
    RouterService router(fleet.map(), Fleet::FastOptions());
    ASSERT_TRUE(router.Init().ok()) << num_shards << " shards";
    for (const Itemset& query : queries) {
      JsonValue request = CountRequest(query);
      JsonValue got = router.Handle(request);
      JsonValue want = fleet.oracle().Handle(request);
      ASSERT_TRUE(got.at("ok").AsBool()) << got.Serialize();
      ASSERT_TRUE(want.at("ok").AsBool());
      EXPECT_EQ(got.at("count").AsUint(), want.at("count").AsUint())
          << num_shards << " shards, query " << ItemsetToString(query);
      EXPECT_EQ(got.at("visible_transactions").AsUint(), full.size());
      EXPECT_FALSE(got.at("degraded").AsBool());
    }
  }
}

TEST(RouterParityTest, MinePatternsAreBitIdenticalAcrossShardCounts) {
  TransactionDatabase full = bbsmine::testing::RandomDb(23, 180, 18, 6.0);
  for (size_t num_shards : {1u, 2u, 4u}) {
    Fleet fleet(full, num_shards);
    RouterService router(fleet.map(), Fleet::FastOptions());
    ASSERT_TRUE(router.Init().ok());
    for (double minsup : {0.05, 0.15}) {
      for (uint64_t top : {5u, 1000u}) {
        JsonValue request = MineRequest(minsup, top);
        JsonValue got = router.Handle(request);
        JsonValue want = fleet.oracle().Handle(request);
        ASSERT_TRUE(got.at("ok").AsBool()) << got.Serialize();
        ASSERT_TRUE(want.at("ok").AsBool());
        // The full answer — every pattern, every support, the order, the
        // truncation, and the totals — must match byte for byte.
        EXPECT_EQ(got.at("patterns").Serialize(0),
                  want.at("patterns").Serialize(0))
            << num_shards << " shards, minsup " << minsup << ", top " << top;
        EXPECT_EQ(got.at("total_frequent").AsUint(),
                  want.at("total_frequent").AsUint());
        EXPECT_EQ(got.at("transactions").AsUint(),
                  want.at("transactions").AsUint());
      }
    }
  }
}

TEST(RouterParityTest, MineAgreesWithAllFourSchemes) {
  // The router's merged pattern set must equal the frequent set every one
  // of the paper's four filter-and-refine schemes finds on the
  // concatenated database (they all produce the exact frequent set).
  TransactionDatabase full = bbsmine::testing::RandomDb(29, 150, 16, 5.0);
  const double minsup = 0.08;
  Fleet fleet(full, 3);
  RouterService router(fleet.map(), Fleet::FastOptions());
  ASSERT_TRUE(router.Init().ok());
  JsonValue got = router.Handle(MineRequest(minsup, 100000));
  ASSERT_TRUE(got.at("ok").AsBool()) << got.Serialize();
  std::map<Itemset, uint64_t> router_supports;
  const JsonValue& patterns = got.at("patterns");
  for (size_t i = 0; i < patterns.size(); ++i) {
    auto items = service::ItemsFromJson(patterns.at(i).at("items"));
    ASSERT_TRUE(items.ok());
    router_supports[*items] = patterns.at(i).at("support").AsUint();
  }

  BbsConfig config = ClusterConfig();
  auto bbs = BbsIndex::Create(config);
  ASSERT_TRUE(bbs.ok());
  bbs->InsertAll(full);
  for (Algorithm algorithm : {Algorithm::kSFS, Algorithm::kSFP,
                              Algorithm::kDFS, Algorithm::kDFP}) {
    MineConfig mine_config;
    mine_config.min_support = minsup;
    mine_config.algorithm = algorithm;
    MiningResult result = MineFrequentPatterns(full, *bbs, mine_config);
    std::set<Itemset> scheme_set;
    for (const Pattern& p : result.patterns) scheme_set.insert(p.items);
    std::set<Itemset> router_set;
    for (const auto& [items, support] : router_supports) {
      router_set.insert(items);
    }
    EXPECT_EQ(scheme_set, router_set)
        << "scheme " << AlgorithmName(algorithm);
    for (const Pattern& p : result.patterns) {
      if (p.kind != SupportKind::kExact) continue;
      auto it = router_supports.find(p.items);
      ASSERT_NE(it, router_supports.end());
      EXPECT_EQ(it->second, p.support)
          << AlgorithmName(algorithm) << " " << ItemsetToString(p.items);
    }
  }
}

// ---------------------------------------------------------------------------
// Bloofi pruning: skipped shards never change answers, counters fire.

TEST(RouterPruningTest, PrunedShardsNeverChangeAnswersAndCountersFire) {
  // Two shards over disjoint item ranges: shard 0 holds items 0..49,
  // shard 1 holds items 1000..1049. Queries over one range must prune the
  // other shard (modulo hash collisions) and the answers must equal the
  // pruning-off router's bit for bit either way.
  TransactionDatabase full;
  for (size_t t = 0; t < 120; ++t) {
    Itemset items;
    const ItemId base = t < 60 ? 0 : 1000;
    for (size_t k = 0; k < 5; ++k) {
      items.push_back(static_cast<ItemId>(base + (t * 7 + k * 11) % 50));
    }
    Canonicalize(&items);
    full.Append(std::move(items));
  }
  Fleet fleet(full, 2);

  RouterService pruning(fleet.map(), Fleet::FastOptions());
  ASSERT_TRUE(pruning.Init().ok());
  RouterOptions no_prune_options = Fleet::FastOptions();
  no_prune_options.prune = false;
  RouterService no_prune(fleet.map(), no_prune_options);
  ASSERT_TRUE(no_prune.Init().ok());

  std::vector<Itemset> queries;
  for (ItemId a = 0; a < 50; a += 7) {
    queries.push_back({a});
    queries.push_back({static_cast<ItemId>(1000 + a)});
    queries.push_back({a, static_cast<ItemId>(a + 1)});
  }
  for (const Itemset& query : queries) {
    JsonValue request = CountRequest(query);
    JsonValue got = pruning.Handle(request);
    JsonValue want = no_prune.Handle(request);
    ASSERT_TRUE(got.at("ok").AsBool());
    ASSERT_TRUE(want.at("ok").AsBool());
    EXPECT_EQ(got.at("count").AsUint(), want.at("count").AsUint())
        << ItemsetToString(query);
    // Pruned shards still contribute their transaction totals.
    EXPECT_EQ(got.at("visible_transactions").AsUint(),
              want.at("visible_transactions").AsUint());
  }
  // Disjoint ranges make cross-range collisions rare: over dozens of
  // selective queries at 512 bits, at least one must have pruned a shard.
  EXPECT_GT(pruning.metrics().counter(pruning.metrics().pruned_shard_queries),
            0u);
  EXPECT_EQ(no_prune.metrics().counter(
                no_prune.metrics().pruned_shard_queries),
            0u);
}

// ---------------------------------------------------------------------------
// Degraded mode: a dead shard yields flagged partial answers, not failures.

TEST(RouterDegradedTest, DeadShardYieldsDegradedAnswers) {
  TransactionDatabase full = bbsmine::testing::RandomDb(31, 150, 20, 5.0);
  Fleet fleet(full, 3);
  RouterOptions options = Fleet::FastOptions();
  options.fanout_deadline_ms = 2000;
  RouterService router(fleet.map(), options);
  ASSERT_TRUE(router.Init().ok());

  // Healthy first: a baseline count over all three shards.
  JsonValue healthy = router.Handle(CountRequest({1}));
  ASSERT_TRUE(healthy.at("ok").AsBool());
  ASSERT_FALSE(healthy.at("degraded").AsBool());

  fleet.shard(1).server->Stop();

  JsonValue degraded = router.Handle(CountRequest({1}));
  ASSERT_TRUE(degraded.at("ok").AsBool()) << degraded.Serialize();
  EXPECT_TRUE(degraded.at("degraded").AsBool());
  ASSERT_EQ(degraded.at("missing_shards").size(), 1u);
  EXPECT_EQ(degraded.at("missing_shards").at(0).AsUint(), 1u);
  // The partial count covers exactly the surviving shards.
  uint64_t survivors = 0;
  for (size_t s : {0u, 2u}) {
    JsonValue local = fleet.shard(s).service->Handle(CountRequest({1}));
    survivors += local.at("count").AsUint();
  }
  EXPECT_EQ(degraded.at("count").AsUint(), survivors);
  EXPECT_GT(router.metrics().counter(router.metrics().degraded_responses),
            0u);
  EXPECT_GT(router.metrics().counter(router.metrics().shard_errors), 0u);
  // A transport failure is real downtime: the dead shard is marked down.
  EXPECT_EQ(router.shards_up(), 2u);

  // MINE degrades the same way: answers from the survivors, flagged.
  JsonValue mine = router.Handle(MineRequest(0.05, 20));
  ASSERT_TRUE(mine.at("ok").AsBool()) << mine.Serialize();
  EXPECT_TRUE(mine.at("degraded").AsBool());
}

TEST(RouterDegradedTest, RequireAllTurnsMissingShardsIntoErrors) {
  TransactionDatabase full = bbsmine::testing::RandomDb(37, 90, 16, 5.0);
  Fleet fleet(full, 2);
  RouterOptions options = Fleet::FastOptions();
  options.allow_degraded = false;
  options.fanout_deadline_ms = 2000;
  RouterService router(fleet.map(), options);
  ASSERT_TRUE(router.Init().ok());
  fleet.shard(0).server->Stop();
  JsonValue response = router.Handle(CountRequest({1}));
  ASSERT_FALSE(response.at("ok").AsBool());
  EXPECT_EQ(response.at("error").at("code").AsString(), "Unavailable");
}

// ---------------------------------------------------------------------------
// INSERT routing and routing-tree freshness.

TEST(RouterInsertTest, RoutesToTailAndKeepsPruningTruthful) {
  TransactionDatabase full = bbsmine::testing::RandomDb(41, 100, 20, 5.0);
  Fleet fleet(full, 2);
  RouterService router(fleet.map(), Fleet::FastOptions());
  ASSERT_TRUE(router.Init().ok());

  // An item far outside the fleet's universe: currently prunable.
  const ItemId fresh = 5000;
  JsonValue before = router.Handle(CountRequest({fresh}));
  ASSERT_TRUE(before.at("ok").AsBool());
  EXPECT_EQ(before.at("count").AsUint(), 0u);

  JsonValue insert = MakeRequest("INSERT");
  insert.Set("items", service::ItemsToJson({fresh, 1, 2}));
  JsonValue inserted = router.Handle(insert);
  ASSERT_TRUE(inserted.at("ok").AsBool()) << inserted.Serialize();
  EXPECT_EQ(inserted.at("shard").AsUint(), 1u);  // the tail shard
  EXPECT_EQ(inserted.at("transactions").AsUint(), full.size() + 1);

  // The new item is countable immediately — the tail's Bloofi leaf was
  // updated before the INSERT was acknowledged, so pruning cannot hide it.
  JsonValue after = router.Handle(CountRequest({fresh}));
  ASSERT_TRUE(after.at("ok").AsBool());
  EXPECT_EQ(after.at("count").AsUint(), 1u);
  EXPECT_EQ(after.at("visible_transactions").AsUint(), full.size() + 1);
}

// ---------------------------------------------------------------------------
// Slow shards: hedged reads and the fan-out deadline.

/// A relay that answers every request through a real BbsService but stalls
/// before responding — the downstream behavior hedging exists for. Each
/// accepted connection is served by its own thread and kept alive across
/// requests, so the router's pooled sessions behave as they would against
/// a real (but slow) daemon.
class SlowRelay {
 public:
  SlowRelay(service::BbsService* service, int delay_ms)
      : service_(service), delay_ms_(delay_ms) {}

  Status Start() {
    auto listener = ListenTcp("127.0.0.1", 0);
    if (!listener.ok()) return listener.status();
    auto port = BoundPort(listener->get());
    if (!port.ok()) return port.status();
    listener_ = std::move(*listener);
    port_ = *port;
    accept_thread_ = std::thread([this] { AcceptLoop(); });
    return Status::Ok();
  }

  void Stop() {
    stop_.store(true);
    if (accept_thread_.joinable()) accept_thread_.join();
    for (std::thread& worker : workers_) {
      if (worker.joinable()) worker.join();
    }
  }

  uint16_t port() const { return port_; }

 private:
  void AcceptLoop() {
    while (!stop_.load()) {
      auto conn = AcceptWithTimeout(listener_.get(), 20);
      if (!conn.ok() || !conn->valid()) continue;
      workers_.emplace_back(
          [this, fd = std::move(*conn)] { Serve(fd.get()); });
    }
  }

  void Serve(int fd) {
    while (!stop_.load()) {
      auto request = service::ReadFrame(fd, 200);
      if (!request.ok()) {
        // Header timeout just means the connection is idle; keep it open.
        if (request.status().code() == StatusCode::kUnavailable) continue;
        return;
      }
      JsonValue response = service_->Handle(*request);
      std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms_));
      if (!service::WriteFrame(fd, response).ok()) return;
    }
  }

  service::BbsService* service_;
  int delay_ms_;
  OwnedFd listener_;
  uint16_t port_ = 0;
  std::thread accept_thread_;
  std::vector<std::thread> workers_;
  std::atomic<bool> stop_{false};
};

TEST(RouterHedgeTest, SlowShardIsHedgedAndStillAnswers) {
  TransactionDatabase full = bbsmine::testing::RandomDb(43, 80, 16, 5.0);
  Fleet fleet(full, 2);
  SlowRelay relay(fleet.shard(0).service.get(), /*delay_ms=*/250);
  Status started = relay.Start();
  if (!started.ok()) {
    GTEST_SKIP() << "cannot bind a loopback socket here: "
                 << started.ToString();
  }
  ShardMap map = fleet.map();
  map.shards[0].primary.port = relay.port();  // shard 0 now answers slowly

  RouterOptions options = Fleet::FastOptions();
  options.hedge_ms = 100;
  options.fanout_deadline_ms = 10'000;
  RouterService router(map, options);
  ASSERT_TRUE(router.Init().ok());

  JsonValue response = router.Handle(CountRequest({1}));
  ASSERT_TRUE(response.at("ok").AsBool()) << response.Serialize();
  EXPECT_FALSE(response.at("degraded").AsBool());
  // The slow leg fired the hedge at least once but the answer is whole.
  EXPECT_GT(router.metrics().counter(router.metrics().hedged_requests), 0u);
  JsonValue oracle = fleet.oracle().Handle(CountRequest({1}));
  EXPECT_EQ(response.at("count").AsUint(), oracle.at("count").AsUint());
  relay.Stop();
}

TEST(RouterHedgeTest, DeadlineExhaustionDegradesInsteadOfHanging) {
  TransactionDatabase full = bbsmine::testing::RandomDb(47, 80, 16, 5.0);
  Fleet fleet(full, 2);
  SlowRelay relay(fleet.shard(0).service.get(), /*delay_ms=*/2000);
  Status started = relay.Start();
  if (!started.ok()) {
    GTEST_SKIP() << "cannot bind a loopback socket here: "
                 << started.ToString();
  }
  ShardMap map = fleet.map();
  map.shards[0].primary.port = relay.port();  // shard 0 now stalls past the deadline

  // The deadline, not the slow shard, bounds the fan-out: shard 0 never
  // answers within it, so the router degrades instead of waiting 2s.
  RouterOptions options = Fleet::FastOptions();
  options.fanout_deadline_ms = 300;
  options.connect_retries = 1;
  RouterService router(map, options);
  ASSERT_TRUE(router.Init().ok());
  const auto begin = std::chrono::steady_clock::now();
  JsonValue response = router.Handle(CountRequest({1}));
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                           std::chrono::steady_clock::now() - begin)
                           .count();
  ASSERT_TRUE(response.at("ok").AsBool()) << response.Serialize();
  EXPECT_TRUE(response.at("degraded").AsBool());
  ASSERT_EQ(response.at("missing_shards").size(), 1u);
  EXPECT_EQ(response.at("missing_shards").at(0).AsUint(), 0u);
  EXPECT_LT(elapsed, 5000) << "fan-out must be bounded by the deadline";
  relay.Stop();
}

// ---------------------------------------------------------------------------
// Backpressure: a shard shedding load is alive, not down.

/// A relay that answers COUNT with backpressure (Unavailable) while
/// passing every other verb through to a real BbsService — the downstream
/// shape of a shard that is alive but refusing work. With `shed_limit` >= 0
/// only the first shed_limit COUNTs are refused.
class BackpressureRelay {
 public:
  explicit BackpressureRelay(service::BbsService* service,
                             int shed_limit = -1)
      : service_(service), shed_limit_(shed_limit) {}

  Status Start() {
    auto listener = ListenTcp("127.0.0.1", 0);
    if (!listener.ok()) return listener.status();
    auto port = BoundPort(listener->get());
    if (!port.ok()) return port.status();
    listener_ = std::move(*listener);
    port_ = *port;
    accept_thread_ = std::thread([this] { AcceptLoop(); });
    return Status::Ok();
  }

  void Stop() {
    stop_.store(true);
    if (accept_thread_.joinable()) accept_thread_.join();
    for (std::thread& worker : workers_) {
      if (worker.joinable()) worker.join();
    }
  }

  uint16_t port() const { return port_; }

 private:
  void AcceptLoop() {
    while (!stop_.load()) {
      auto conn = AcceptWithTimeout(listener_.get(), 20);
      if (!conn.ok() || !conn->valid()) continue;
      workers_.emplace_back(
          [this, fd = std::move(*conn)] { Serve(fd.get()); });
    }
  }

  void Serve(int fd) {
    while (!stop_.load()) {
      auto request = service::ReadFrame(fd, 200);
      if (!request.ok()) {
        if (request.status().code() == StatusCode::kUnavailable) continue;
        return;
      }
      const bool shed = request->at("verb").AsString() == "COUNT" &&
                        (shed_limit_ < 0 || shed_.fetch_add(1) < shed_limit_);
      JsonValue response =
          shed ? service::ErrorResponse(service::Verb::kCount,
                                        Status::Unavailable("shedding load"))
               : service_->Handle(*request);
      if (!service::WriteFrame(fd, response).ok()) return;
    }
  }

  service::BbsService* service_;
  const int shed_limit_;
  std::atomic<int> shed_{0};
  OwnedFd listener_;
  uint16_t port_ = 0;
  std::thread accept_thread_;
  std::vector<std::thread> workers_;
  std::atomic<bool> stop_{false};
};

TEST(RouterBackpressureTest, SheddingShardStaysUpThroughDeadline) {
  TransactionDatabase full = bbsmine::testing::RandomDb(61, 80, 16, 5.0);
  Fleet fleet(full, 2);
  BackpressureRelay relay(fleet.shard(0).service.get());
  Status started = relay.Start();
  if (!started.ok()) {
    GTEST_SKIP() << "cannot bind a loopback socket here: "
                 << started.ToString();
  }
  ShardMap map = fleet.map();
  map.shards[0].primary.port = relay.port();  // shard 0 now sheds all COUNTs

  // A retry budget far beyond the deadline: the leg ends by deadline
  // exhaustion with backpressure as the latest evidence — the shard
  // answered every probe, so it must NOT be marked down.
  RouterOptions options = Fleet::FastOptions();
  options.fanout_deadline_ms = 400;
  options.retry.retries = 1000;
  options.retry.backoff_ms = 25;
  options.retry.max_backoff_ms = 50;
  RouterService router(map, options);
  ASSERT_TRUE(router.Init().ok());
  ASSERT_EQ(router.shards_up(), 2u);

  JsonValue response = router.Handle(CountRequest({1}));
  ASSERT_TRUE(response.at("ok").AsBool()) << response.Serialize();
  EXPECT_TRUE(response.at("degraded").AsBool());
  ASSERT_EQ(response.at("missing_shards").size(), 1u);
  EXPECT_EQ(response.at("missing_shards").at(0).AsUint(), 0u);
  EXPECT_EQ(router.shards_up(), 2u)
      << "backpressure must not read as downtime";
  relay.Stop();
}

// ---------------------------------------------------------------------------
// Fan-out: the request's thread drives every leg through one poll loop.

TEST(RouterFanOutTest, SlowLegsOverlap) {
  // Both shards answer only after kDelayMs. Legs that ran one after the
  // other would take 2·kDelayMs; overlapped legs take about kDelayMs.
  constexpr int kDelayMs = 400;
  TransactionDatabase full = bbsmine::testing::RandomDb(63, 80, 16, 5.0);
  Fleet fleet(full, 2);
  SlowRelay relay0(fleet.shard(0).service.get(), kDelayMs);
  SlowRelay relay1(fleet.shard(1).service.get(), kDelayMs);
  Status started = relay0.Start();
  if (started.ok()) started = relay1.Start();
  if (!started.ok()) {
    GTEST_SKIP() << "cannot bind a loopback socket here: "
                 << started.ToString();
  }
  ShardMap map = fleet.map();
  map.shards[0].primary.port = relay0.port();
  map.shards[1].primary.port = relay1.port();
  RouterService router(map, Fleet::FastOptions());
  ASSERT_TRUE(router.Init().ok());

  const auto begin = std::chrono::steady_clock::now();
  JsonValue response = router.Handle(CountRequest({1}));
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                           std::chrono::steady_clock::now() - begin)
                           .count();
  ASSERT_TRUE(response.at("ok").AsBool()) << response.Serialize();
  EXPECT_FALSE(response.at("degraded").AsBool());
  EXPECT_EQ(response.at("cluster").at("shards_queried").AsUint(), 2u);
  EXPECT_EQ(response.at("count").AsUint(),
            fleet.oracle().Handle(CountRequest({1})).at("count").AsUint());
  EXPECT_LT(elapsed, kDelayMs * 3 / 2) << "the two legs did not overlap";
  relay0.Stop();
  relay1.Stop();
}

TEST(RouterFanOutTest, BackoffOnOneLegDoesNotResendTheOther) {
  // Shard 0 sheds its first COUNT, then answers; shard 1 answers at once.
  // The backoff and re-send are shard 0's alone: the sum is whole and
  // shard 1 sees the COUNT exactly once.
  TransactionDatabase full = bbsmine::testing::RandomDb(65, 80, 16, 5.0);
  Fleet fleet(full, 2);
  BackpressureRelay relay(fleet.shard(0).service.get(), /*shed_limit=*/1);
  Status started = relay.Start();
  if (!started.ok()) {
    GTEST_SKIP() << "cannot bind a loopback socket here: "
                 << started.ToString();
  }
  ShardMap map = fleet.map();
  map.shards[0].primary.port = relay.port();
  RouterOptions options = Fleet::FastOptions();
  options.prune = false;
  options.retry.retries = 3;
  options.retry.backoff_ms = 20;
  options.retry.max_backoff_ms = 40;
  RouterService router(map, options);
  ASSERT_TRUE(router.Init().ok());

  service::ServiceMetrics& healthy = fleet.shard(1).service->metrics();
  const size_t count_slot = healthy.requests(service::Verb::kCount);
  const uint64_t healthy_before = healthy.counter(count_slot);
  JsonValue response = router.Handle(CountRequest({1}));
  ASSERT_TRUE(response.at("ok").AsBool()) << response.Serialize();
  EXPECT_FALSE(response.at("degraded").AsBool());
  EXPECT_EQ(response.at("count").AsUint(),
            fleet.oracle().Handle(CountRequest({1})).at("count").AsUint());
  EXPECT_EQ(healthy.counter(count_slot) - healthy_before, 1u);
  EXPECT_EQ(router.shards_up(), 2u);
  relay.Stop();
}

// ---------------------------------------------------------------------------
// MINE prefix pinning: INSERTs landing between the two rounds.

/// A relay that appends one transaction to the backing shard right after
/// answering the first round-1 MINE — the wire-visible shape of a client
/// INSERT landing between the exchange's two rounds.
class GrowBetweenRoundsRelay {
 public:
  GrowBetweenRoundsRelay(service::BbsService* service, Itemset grow_items)
      : service_(service), grow_items_(std::move(grow_items)) {}

  Status Start() {
    auto listener = ListenTcp("127.0.0.1", 0);
    if (!listener.ok()) return listener.status();
    auto port = BoundPort(listener->get());
    if (!port.ok()) return port.status();
    listener_ = std::move(*listener);
    port_ = *port;
    accept_thread_ = std::thread([this] { AcceptLoop(); });
    return Status::Ok();
  }

  void Stop() {
    stop_.store(true);
    if (accept_thread_.joinable()) accept_thread_.join();
    for (std::thread& worker : workers_) {
      if (worker.joinable()) worker.join();
    }
  }

  uint16_t port() const { return port_; }
  bool grew() const { return grown_.load(); }

 private:
  void AcceptLoop() {
    while (!stop_.load()) {
      auto conn = AcceptWithTimeout(listener_.get(), 20);
      if (!conn.ok() || !conn->valid()) continue;
      workers_.emplace_back(
          [this, fd = std::move(*conn)] { Serve(fd.get()); });
    }
  }

  void Serve(int fd) {
    while (!stop_.load()) {
      auto request = service::ReadFrame(fd, 200);
      if (!request.ok()) {
        if (request.status().code() == StatusCode::kUnavailable) continue;
        return;
      }
      // The round-1 answer reflects the pre-growth database; the INSERT
      // lands before the router can issue round 2.
      JsonValue response = service_->Handle(*request);
      if (request->at("verb").AsString() == "MINE" &&
          !request->Has("candidates") && !grown_.exchange(true)) {
        JsonValue insert = MakeRequest("INSERT");
        insert.Set("items", service::ItemsToJson(grow_items_));
        JsonValue acked = service_->Handle(insert);
        EXPECT_TRUE(acked.at("ok").AsBool()) << acked.Serialize();
      }
      if (!service::WriteFrame(fd, response).ok()) return;
    }
  }

  service::BbsService* service_;
  Itemset grow_items_;
  OwnedFd listener_;
  uint16_t port_ = 0;
  std::thread accept_thread_;
  std::vector<std::thread> workers_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> grown_{false};
};

/// Asserts a router MINE answer (untruncated) equals Eclat over `db`.
void ExpectSameAsOracle(const JsonValue& got, const TransactionDatabase& db,
                        double minsup) {
  EclatConfig oracle_config;
  oracle_config.min_support = minsup;
  MiningResult oracle = MineEclat(db, oracle_config);
  std::sort(oracle.patterns.begin(), oracle.patterns.end(),
            [](const Pattern& a, const Pattern& b) {
              if (a.support != b.support) return a.support > b.support;
              return a.items < b.items;
            });
  const JsonValue& patterns = got.at("patterns");
  ASSERT_EQ(patterns.size(), oracle.patterns.size());
  for (size_t i = 0; i < oracle.patterns.size(); ++i) {
    auto items = service::ItemsFromJson(patterns.at(i).at("items"));
    ASSERT_TRUE(items.ok());
    EXPECT_EQ(*items, oracle.patterns[i].items) << "pattern " << i;
    EXPECT_EQ(patterns.at(i).at("support").AsUint(),
              oracle.patterns[i].support)
        << "pattern " << i;
  }
}

TEST(RouterMineSnapshotTest, InsertBetweenRoundsCannotChangeTheAnswer) {
  // Crafted so shard 1 is guaranteed a round-2 leg: every shard-0
  // transaction carries item 7, while shard 1 sees it exactly once —
  // locally infrequent there, so {7} is always a missing candidate shard 1
  // must exact-count in round 2.
  TransactionDatabase full;
  for (size_t t = 0; t < 50; ++t) {
    Itemset items{7, static_cast<ItemId>(t % 10),
                  static_cast<ItemId>(10 + t % 7)};
    Canonicalize(&items);
    full.Append(std::move(items));
  }
  for (size_t t = 0; t < 50; ++t) {
    Itemset items{static_cast<ItemId>(t % 6),
                  static_cast<ItemId>(20 + t % 5)};
    if (t == 0) items.push_back(7);
    Canonicalize(&items);
    full.Append(std::move(items));
  }
  const double minsup = 0.05;
  const Itemset extra{30};

  Fleet fleet(full, 2);
  GrowBetweenRoundsRelay relay(fleet.shard(1).service.get(), extra);
  Status started = relay.Start();
  if (!started.ok()) {
    GTEST_SKIP() << "cannot bind a loopback socket here: "
                 << started.ToString();
  }
  ShardMap map = fleet.map();
  map.shards[1].primary.port = relay.port();  // the tail grows mid-exchange

  RouterService router(map, Fleet::FastOptions());
  ASSERT_TRUE(router.Init().ok());
  JsonValue got = router.Handle(MineRequest(minsup, 100000));
  ASSERT_TRUE(got.at("ok").AsBool()) << got.Serialize();
  EXPECT_TRUE(relay.grew());

  // Round 2 reached shard 1 after it grew, but pinned to the prefix it
  // mined in round 1: the answer is the oracle over the PRE-growth data.
  const JsonValue& exchange = got.at("exchange");
  EXPECT_GE(exchange.at("round2_requests").AsUint(), 1u) << got.Serialize();
  EXPECT_FALSE(exchange.Has("snapshot_retries"));
  EXPECT_EQ(got.at("transactions").AsUint(), full.size());
  EXPECT_FALSE(got.at("degraded").AsBool());
  ExpectSameAsOracle(got, full, minsup);

  // The next MINE sees the grown database.
  JsonValue again = router.Handle(MineRequest(minsup, 100000));
  ASSERT_TRUE(again.at("ok").AsBool()) << again.Serialize();
  TransactionDatabase grown = full;
  grown.Append(extra);
  EXPECT_EQ(again.at("transactions").AsUint(), grown.size());
  ExpectSameAsOracle(again, grown, minsup);
  relay.Stop();
}

// ---------------------------------------------------------------------------
// Router STATS and SHARDINFO.

TEST(RouterStatsTest, ReportsClusterSectionWithPerShardDetail) {
  TransactionDatabase full = bbsmine::testing::RandomDb(53, 90, 16, 5.0);
  Fleet fleet(full, 3);
  RouterService router(fleet.map(), Fleet::FastOptions());
  ASSERT_TRUE(router.Init().ok());
  (void)router.Handle(CountRequest({1}));
  (void)router.Handle(CountRequest({2, 3}));

  JsonValue response = router.Handle(MakeRequest("STATS"));
  ASSERT_TRUE(response.at("ok").AsBool());
  const JsonValue& report = response.at("report");
  EXPECT_EQ(report.at("kind").AsString(), "bbsrouter_service");
  const JsonValue& cluster = report.at("cluster");
  EXPECT_EQ(cluster.at("role").AsString(), "router");
  EXPECT_EQ(cluster.at("shards_total").AsUint(), 3u);
  EXPECT_EQ(cluster.at("shards_up").AsUint(), 3u);
  const JsonValue& shards = cluster.at("shards");
  ASSERT_EQ(shards.size(), 3u);
  uint64_t requests = 0;
  for (size_t s = 0; s < shards.size(); ++s) {
    EXPECT_TRUE(shards.at(s).at("up").AsBool());
    EXPECT_TRUE(shards.at(s).Has("latency_us"));
    requests += shards.at(s).at("requests").AsUint();
  }
  EXPECT_GT(requests, 0u);
  // The daemon's own report carries the standalone cluster identity.
  JsonValue shard_stats = fleet.shard(0).service->Handle(MakeRequest("STATS"));
  const JsonValue& shard_cluster = shard_stats.at("report").at("cluster");
  EXPECT_EQ(shard_cluster.at("role").AsString(), "shard");
  EXPECT_EQ(shard_cluster.at("shards_total").AsUint(), 1u);
}

/// "section.name" for every metric in a STATS report.
std::set<std::string> MetricNames(const JsonValue& stats_response) {
  std::set<std::string> names;
  const JsonValue& metrics = stats_response.at("report").at("metrics");
  for (const std::string& section : metrics.keys()) {
    for (const std::string& name : metrics.at(section).keys()) {
      names.insert(section + "." + name);
    }
  }
  return names;
}

TEST(RouterStatsTest, DaemonAndRouterKeepEveryMetricName) {
  // The names scrapers and the benchmark read; the per-verb ones come from
  // the verb table and must not move when it does.
  const std::set<std::string> expected = {
      "counters.requests_total", "counters.requests_ping",
      "counters.requests_count", "counters.requests_insert",
      "counters.requests_mine", "counters.requests_stats",
      "counters.requests_checkpoint", "counters.requests_dump",
      "counters.requests_shardinfo", "counters.requests_promote",
      "counters.errors", "counters.rejected_backpressure",
      "counters.batches", "counters.batch_fused_requests",
      "counters.inserted_transactions", "counters.compacted_segments",
      "counters.slow_queries", "counters.traced_requests",
      "cluster.pruned_shard_queries", "cluster.hedged_requests",
      "cluster.degraded_responses", "cluster.shard_errors",
      "cluster.failovers", "cluster.fanout_us", "gauges.queue_depth",
      "gauges.batch_size_peak", "gauges.active_connections",
      "gauges.queue_depth_now", "gauges.active_connections_now",
      "latency_us.ping", "latency_us.count", "latency_us.insert",
      "latency_us.mine", "latency_us.stats", "latency_us.checkpoint",
      "latency_us.dump", "latency_us.shardinfo", "latency_us.promote",
      "batch.size"};
  TransactionDatabase full = bbsmine::testing::RandomDb(54, 60, 16, 5.0);
  Fleet fleet(full, 2);
  RouterService router(fleet.map(), Fleet::FastOptions());
  ASSERT_TRUE(router.Init().ok());
  EXPECT_EQ(MetricNames(fleet.oracle().Handle(MakeRequest("STATS"))),
            expected);
  EXPECT_EQ(MetricNames(router.Handle(MakeRequest("STATS"))), expected);
}

TEST(VerbTableTest, EveryVerbIsHandledOrRejectedByDaemonAndRouter) {
  TransactionDatabase full = bbsmine::testing::RandomDb(55, 60, 16, 5.0);
  Fleet fleet(full, 2);
  RouterService router(fleet.map(), Fleet::FastOptions());
  ASSERT_TRUE(router.Init().ok());
  for (const service::VerbInfo& info : service::AllVerbs()) {
    JsonValue request = service::VerbRequest(info.verb);
    request.Set("items", service::ItemsToJson({1, 2}));
    request.Set("term", JsonValue::Uint(1));
    for (service::RequestHandler* handler :
         {static_cast<service::RequestHandler*>(&fleet.oracle()),
          static_cast<service::RequestHandler*>(&router)}) {
      const JsonValue response =
          handler->Handle(request, service::RequestContext{});
      EXPECT_EQ(response.at("verb").AsString(), info.name);
      if (!response.at("ok").AsBool()) {
        const std::string& message =
            response.at("error").at("message").AsString();
        EXPECT_EQ(message.find("unknown verb"), std::string::npos)
            << info.name << ": " << message;
      }
    }
  }
  JsonValue dump = router.Handle(MakeRequest("DUMP"));
  EXPECT_EQ(dump.at("error").at("message").AsString(),
            "DUMP is daemon-local; send it to a shard directly");
}

TEST(MineArgsTest, DaemonAndRouterRejectTheSameBadArguments) {
  TransactionDatabase full = bbsmine::testing::RandomDb(56, 80, 16, 5.0);
  Fleet fleet(full, 2);
  RouterService router(fleet.map(), Fleet::FastOptions());
  ASSERT_TRUE(router.Init().ok());
  const std::vector<std::pair<const char*, JsonValue>> bad = {
      {"minsup", JsonValue::Double(0)},
      {"minsup", JsonValue::Double(-0.25)},
      {"minsup", JsonValue::Double(1.5)},
      {"minsup", JsonValue::String("0.1")},
      {"top", JsonValue::Int(0)},
      {"top", JsonValue::Int(-3)},
      {"top", JsonValue::Double(2.5)},
      {"top", JsonValue::Double(1e300)},
      {"top", JsonValue::Double(-1e300)},
      {"top", JsonValue::String("3")},
      {"top", JsonValue::Bool(true)},
  };
  for (const auto& [key, value] : bad) {
    JsonValue request = MakeRequest("MINE");
    request.Set(key, value);
    for (JsonValue response :
         {fleet.oracle().Handle(request), router.Handle(request)}) {
      EXPECT_FALSE(response.at("ok").AsBool()) << request.Serialize(0);
      EXPECT_EQ(response.at("error").at("code").AsString(), "InvalidArgument")
          << request.Serialize(0);
    }
  }
  // A whole number written as a double is a valid "top".
  JsonValue good = MakeRequest("MINE");
  good.Set("minsup", JsonValue::Double(0.1));
  good.Set("top", JsonValue::Double(3.0));
  for (JsonValue response :
       {fleet.oracle().Handle(good), router.Handle(good)}) {
    ASSERT_TRUE(response.at("ok").AsBool()) << response.Serialize(0);
    EXPECT_LE(response.at("patterns").size(), 3u);
  }
}

TEST(RouterRobustnessTest, DeeplyNestedFrameIsRejectedAndTheRouterLives) {
  TransactionDatabase full = bbsmine::testing::RandomDb(57, 40, 16, 5.0);
  Fleet fleet(full, 2);
  RouterService router(fleet.map(), Fleet::FastOptions());
  ASSERT_TRUE(router.Init().ok());
  service::SocketServer server(&router, service::SocketServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  {
    auto fd = ConnectTcp("127.0.0.1", server.port());
    ASSERT_TRUE(fd.ok());
    const std::string payload =
        std::string(100'000, '[') + std::string(100'000, ']');
    std::string frame;
    for (int i = 0; i < 4; ++i) {
      frame.push_back(static_cast<char>(payload.size() >> (8 * i)));
    }
    ASSERT_TRUE(SendAll(fd->get(), frame + payload).ok());
    auto response = service::ReadFrame(fd->get(), /*timeout_ms=*/10'000);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_EQ(response->at("error").at("code").AsString(), "InvalidArgument");
  }
  service::ClientSession session("127.0.0.1", server.port());
  auto pong = session.Call(MakeRequest("PING"), 10'000);
  ASSERT_TRUE(pong.ok()) << pong.status().ToString();
  EXPECT_TRUE(pong->at("ok").AsBool());
  server.Stop();
}

TEST(RouterStatsTest, RouterShardInfoExposesRootSignature) {
  // A router answers SHARDINFO with the fleet's OR signature, so routers
  // stack: the parent prunes exactly as if the child were one big shard.
  TransactionDatabase full = bbsmine::testing::RandomDb(59, 60, 12, 4.0);
  Fleet fleet(full, 2);
  RouterService router(fleet.map(), Fleet::FastOptions());
  ASSERT_TRUE(router.Init().ok());
  JsonValue info = router.Handle(MakeRequest("SHARDINFO"));
  ASSERT_TRUE(info.at("ok").AsBool());
  EXPECT_EQ(info.at("transactions").AsUint(), full.size());
  EXPECT_EQ(info.at("shards").AsUint(), 2u);
  auto signature = service::BitsFromHex(info.at("signature").AsString(),
                                        info.at("signature_bits").AsUint());
  ASSERT_TRUE(signature.ok());
  // The root signature covers both shard signatures.
  JsonValue s0 = fleet.shard(0).service->Handle(MakeRequest("SHARDINFO"));
  auto leaf = service::BitsFromHex(s0.at("signature").AsString(),
                                   s0.at("signature_bits").AsUint());
  ASSERT_TRUE(leaf.ok());
  for (size_t b = 0; b < leaf->size(); ++b) {
    if (leaf->Get(b)) {
      EXPECT_TRUE(signature->Get(b)) << "bit " << b;
    }
  }
}

// ---------------------------------------------------------------------------
// Failover: replica promotion, fencing, and prober-driven rejoin.

/// Polls `pred` until it holds or `timeout_ms` elapses.
bool WaitUntil(const std::function<bool()>& pred, int timeout_ms = 15'000) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return pred();
}

/// A warm replica of `primary`: same transactions, own index and server —
/// what a bbsmined --follow that has fully caught up looks like.
std::unique_ptr<MiniShard> MakeReplicaOf(const MiniShard& primary,
                                         uint64_t segment_capacity = 64) {
  auto replica = std::make_unique<MiniShard>();
  replica->db = primary.db;
  auto index = SegmentedBbs::Create(ClusterConfig(), segment_capacity);
  EXPECT_TRUE(index.ok());
  EXPECT_TRUE(index->InsertAll(replica->db).ok());
  auto manager = service::SnapshotManager::FromIndex(*index);
  EXPECT_TRUE(manager.ok());
  replica->manager.emplace(std::move(*manager));
  replica->service = std::make_unique<service::BbsService>(
      &*replica->manager, &replica->db, service::ServiceOptions{});
  replica->server = std::make_unique<service::SocketServer>(
      replica->service.get(), service::SocketServerOptions{});
  EXPECT_TRUE(replica->server->Start().ok());
  return replica;
}

TEST(RouterFailoverTest, DeadPrimaryFailsOverToReplicaWithBitIdenticalAnswers) {
  TransactionDatabase full = bbsmine::testing::RandomDb(61, 120, 20, 5.0);
  Fleet fleet(full, 2);
  auto replica = MakeReplicaOf(fleet.shard(1));

  ShardMap map = fleet.map();
  map.shards[1].has_replica = true;
  map.shards[1].replica = ShardEndpoint{"127.0.0.1", replica->server->port()};
  RouterOptions options = Fleet::FastOptions();
  options.fanout_deadline_ms = 2'000;
  RouterService router(std::move(map), options);
  ASSERT_TRUE(router.Init().ok());

  // Healthy baseline, then kill the primary out from under the router.
  JsonValue healthy = router.Handle(CountRequest({1}));
  ASSERT_TRUE(healthy.at("ok").AsBool());
  EXPECT_FALSE(healthy.at("degraded").AsBool());
  fleet.shard(1).server->Stop();

  // The very request that discovers the death retries onto the promoted
  // replica: no degraded answer, no operator in the loop.
  JsonValue count = router.Handle(CountRequest({1}));
  ASSERT_TRUE(count.at("ok").AsBool()) << count.Serialize();
  EXPECT_FALSE(count.at("degraded").AsBool());
  EXPECT_EQ(router.failovers(), 1u);
  EXPECT_EQ(router.shards_up(), 2u);
  EXPECT_EQ(router.active_endpoint(1).port, replica->server->port());

  // The replica really was promoted, at a term above the old primary's.
  JsonValue info = replica->service->Handle(MakeRequest("SHARDINFO"));
  ASSERT_TRUE(info.at("ok").AsBool());
  EXPECT_EQ(info.at("role").AsString(), "primary");
  EXPECT_EQ(info.at("term").AsUint(), 2u);

  // Post-failover COUNT and MINE stay bit-identical to the oracle.
  for (const Itemset& probe : QueryMix(20)) {
    JsonValue routed = router.Handle(CountRequest(probe));
    ASSERT_TRUE(routed.at("ok").AsBool());
    EXPECT_FALSE(routed.at("degraded").AsBool());
    JsonValue oracle = fleet.oracle().Handle(CountRequest(probe));
    EXPECT_EQ(routed.at("count").AsUint(), oracle.at("count").AsUint());
  }
  JsonValue mined = router.Handle(MineRequest(0.05, 20));
  ASSERT_TRUE(mined.at("ok").AsBool()) << mined.Serialize();
  EXPECT_FALSE(mined.at("degraded").AsBool());
  JsonValue oracle_mined = fleet.oracle().Handle(MineRequest(0.05, 20));
  EXPECT_EQ(mined.at("patterns").Serialize(),
            oracle_mined.at("patterns").Serialize());

  // INSERTs reroute to the promoted tail; the routing tree follows.
  JsonValue insert = MakeRequest("INSERT");
  insert.Set("items", service::ItemsToJson({777}));
  JsonValue inserted = router.Handle(insert);
  ASSERT_TRUE(inserted.at("ok").AsBool()) << inserted.Serialize();
  JsonValue sentinel = router.Handle(CountRequest({777}));
  EXPECT_EQ(sentinel.at("count").AsUint(), 1u);
  JsonValue local = replica->service->Handle(CountRequest({777}));
  EXPECT_EQ(local.at("count").AsUint(), 1u);

  // The report tells the story: which endpoint serves, at what term.
  JsonValue report = router.BuildStatsReport();
  const JsonValue& cluster = report.at("cluster");
  EXPECT_EQ(cluster.at("failovers").AsUint(), 1u);
  const JsonValue& entry = cluster.at("shards").at(1);
  EXPECT_TRUE(entry.at("failed_over").AsBool());
  EXPECT_EQ(entry.at("active").AsString(), "replica");
  EXPECT_EQ(entry.at("term").AsUint(), 2u);
  EXPECT_TRUE(entry.Has("replica"));
  const JsonValue& repl = report.at("replication");
  EXPECT_TRUE(repl.at("enabled").AsBool());
  EXPECT_EQ(repl.at("failovers").AsUint(), 1u);
}

TEST(RouterFailoverTest, ProberPromotesAndFencesWithoutClientTraffic) {
  TransactionDatabase full = bbsmine::testing::RandomDb(67, 100, 18, 5.0);
  Fleet fleet(full, 2);
  auto replica = MakeReplicaOf(fleet.shard(1));

  ShardMap map = fleet.map();
  const uint16_t old_primary_port = fleet.shard(1).server->port();
  map.shards[1].has_replica = true;
  map.shards[1].replica = ShardEndpoint{"127.0.0.1", replica->server->port()};
  RouterOptions options = Fleet::FastOptions();
  options.probe_interval_ms = 50;
  options.probe_timeout_ms = 500;
  options.fanout_deadline_ms = 2'000;
  RouterService router(std::move(map), options);
  ASSERT_TRUE(router.Init().ok());

  // Kill the primary and wait: the background prober must discover the
  // death and promote the replica with zero client requests in flight.
  fleet.shard(1).server->Stop();
  ASSERT_TRUE(WaitUntil([&] { return router.failovers() == 1; }));
  ASSERT_TRUE(WaitUntil([&] { return router.shards_up() == 2; }));

  // The old primary restarts on its old port, stale at term 1. The router
  // must keep serving from the promoted replica — never the zombie.
  fleet.shard(1).server = std::make_unique<service::SocketServer>(
      fleet.shard(1).service.get(), [&] {
        service::SocketServerOptions server_options;
        server_options.port = old_primary_port;
        return server_options;
      }());
  ASSERT_TRUE(fleet.shard(1).server->Start().ok());

  // A sentinel write lands on the replica; the zombie never sees it. If
  // any read consulted the zombie, the count would come back 0.
  JsonValue insert = MakeRequest("INSERT");
  insert.Set("items", service::ItemsToJson({888}));
  ASSERT_TRUE(router.Handle(insert).at("ok").AsBool());
  for (int i = 0; i < 5; ++i) {
    JsonValue count = router.Handle(CountRequest({888}));
    ASSERT_TRUE(count.at("ok").AsBool());
    EXPECT_FALSE(count.at("degraded").AsBool());
    EXPECT_EQ(count.at("count").AsUint(), 1u);
  }
  EXPECT_EQ(router.active_endpoint(1).port, replica->server->port());
  JsonValue zombie = fleet.shard(1).service->Handle(CountRequest({888}));
  EXPECT_EQ(zombie.at("count").AsUint(), 0u);
}

/// A relay that misbehaves ONLY on COUNT — stalling past the caller's
/// deadline, or closing the connection outright — while serving every
/// other verb (SHARDINFO probes included) promptly from the backing
/// service: the wire shape of a primary that is alive but degraded.
class CountFaultRelay {
 public:
  enum class Fault {
    kStall,            ///< COUNT answers, but only after stall_ms
    kCloseConnection,  ///< COUNT tears the connection down (reset blip)
  };

  CountFaultRelay(service::BbsService* service, Fault fault, int stall_ms = 0)
      : service_(service), fault_(fault), stall_ms_(stall_ms) {}

  Status Start() {
    auto listener = ListenTcp("127.0.0.1", 0);
    if (!listener.ok()) return listener.status();
    auto port = BoundPort(listener->get());
    if (!port.ok()) return port.status();
    listener_ = std::move(*listener);
    port_ = *port;
    accept_thread_ = std::thread([this] { AcceptLoop(); });
    return Status::Ok();
  }

  void Stop() {
    stop_.store(true);
    if (accept_thread_.joinable()) accept_thread_.join();
    for (std::thread& worker : workers_) {
      if (worker.joinable()) worker.join();
    }
  }

  uint16_t port() const { return port_; }

 private:
  void AcceptLoop() {
    while (!stop_.load()) {
      auto conn = AcceptWithTimeout(listener_.get(), 20);
      if (!conn.ok() || !conn->valid()) continue;
      workers_.emplace_back(
          [this, fd = std::move(*conn)] { Serve(fd.get()); });
    }
  }

  void Serve(int fd) {
    while (!stop_.load()) {
      auto request = service::ReadFrame(fd, 200);
      if (!request.ok()) {
        if (request.status().code() == StatusCode::kUnavailable) continue;
        return;
      }
      if (request->at("verb").AsString() == "COUNT") {
        if (fault_ == Fault::kCloseConnection) return;  // peer-closed blip
        // Stall past the caller's deadline; the eventual answer lands on
        // a socket the router abandoned long ago.
        std::this_thread::sleep_for(std::chrono::milliseconds(stall_ms_));
      }
      JsonValue response = service_->Handle(*request);
      if (!service::WriteFrame(fd, response).ok()) return;
    }
  }

  service::BbsService* service_;
  Fault fault_;
  int stall_ms_;
  OwnedFd listener_;
  uint16_t port_ = 0;
  std::thread accept_thread_;
  std::vector<std::thread> workers_;
  std::atomic<bool> stop_{false};
};

TEST(RouterFailoverTest, SlowShardIsNeverPromotedAwayFrom) {
  TransactionDatabase full = bbsmine::testing::RandomDb(73, 100, 18, 5.0);
  Fleet fleet(full, 2);
  auto replica = MakeReplicaOf(fleet.shard(1));
  CountFaultRelay relay(fleet.shard(1).service.get(),
                        CountFaultRelay::Fault::kStall, /*stall_ms=*/2000);
  Status started = relay.Start();
  if (!started.ok()) {
    GTEST_SKIP() << "cannot bind a loopback socket here: "
                 << started.ToString();
  }
  ShardMap map = fleet.map();
  map.shards[1].primary.port = relay.port();  // COUNTs now stall 2s
  map.shards[1].has_replica = true;
  map.shards[1].replica = ShardEndpoint{"127.0.0.1", replica->server->port()};
  RouterOptions options = Fleet::FastOptions();
  options.fanout_deadline_ms = 300;  // the stall outlives every COUNT leg
  RouterService router(std::move(map), options);
  ASSERT_TRUE(router.Init().ok());
  ASSERT_EQ(router.shards_up(), 2u);

  // The COUNT leg times out — pure silence. Promotion would permanently
  // fence a primary that is merely slow (and in async replication drop
  // its acked-but-unshipped WAL records), so silence must only degrade
  // the answer: no failover, no down-marking.
  JsonValue response = router.Handle(CountRequest({1}));
  ASSERT_TRUE(response.at("ok").AsBool()) << response.Serialize();
  EXPECT_TRUE(response.at("degraded").AsBool());
  EXPECT_EQ(router.failovers(), 0u);
  EXPECT_EQ(router.shards_up(), 2u)
      << "a timed-out leg must not read as shard death";
  EXPECT_EQ(router.active_endpoint(1).port, relay.port());
  relay.Stop();
}

TEST(RouterFailoverTest, ResetBlipAgainstAnsweringPrimaryAborts) {
  TransactionDatabase full = bbsmine::testing::RandomDb(79, 100, 18, 5.0);
  Fleet fleet(full, 2);
  auto replica = MakeReplicaOf(fleet.shard(1));
  CountFaultRelay relay(fleet.shard(1).service.get(),
                        CountFaultRelay::Fault::kCloseConnection);
  Status started = relay.Start();
  if (!started.ok()) {
    GTEST_SKIP() << "cannot bind a loopback socket here: "
                 << started.ToString();
  }
  ShardMap map = fleet.map();
  map.shards[1].primary.port = relay.port();  // COUNT connections now reset
  map.shards[1].has_replica = true;
  map.shards[1].replica = ShardEndpoint{"127.0.0.1", replica->server->port()};
  RouterOptions options = Fleet::FastOptions();
  options.fanout_deadline_ms = 2'000;
  options.probe_timeout_ms = 1'000;
  RouterService router(std::move(map), options);
  ASSERT_TRUE(router.Init().ok());

  // The torn COUNT connection is transport-level evidence, so the leg
  // reaches TryFailover — but the confirm probe finds the primary
  // answering SHARDINFO at a current term and aborts the promotion,
  // marking the shard back up. One reset blip must never fence a
  // serving primary.
  JsonValue response = router.Handle(CountRequest({1}));
  ASSERT_TRUE(response.at("ok").AsBool()) << response.Serialize();
  EXPECT_TRUE(response.at("degraded").AsBool());
  EXPECT_EQ(router.failovers(), 0u);
  EXPECT_EQ(router.shards_up(), 2u)
      << "the confirm probe must mark the answering primary back up";
  EXPECT_EQ(router.active_endpoint(1).port, relay.port());
  relay.Stop();
}

TEST(RouterFailoverTest, SustainedSilenceFailsOverViaProbeThreshold) {
  TransactionDatabase full = bbsmine::testing::RandomDb(83, 100, 18, 5.0);
  Fleet fleet(full, 2);
  auto replica = MakeReplicaOf(fleet.shard(1));
  // Every verb — probes included — stalls past the probe budget: the
  // shape of a wedged (but not dead) primary that will never recover.
  SlowRelay relay(fleet.shard(1).service.get(), /*delay_ms=*/2000);
  Status started = relay.Start();
  if (!started.ok()) {
    GTEST_SKIP() << "cannot bind a loopback socket here: "
                 << started.ToString();
  }
  ShardMap map = fleet.map();
  map.shards[1].primary.port = relay.port();
  map.shards[1].has_replica = true;
  map.shards[1].replica = ShardEndpoint{"127.0.0.1", replica->server->port()};
  RouterOptions options = Fleet::FastOptions();
  options.fanout_deadline_ms = 10'000;  // Init's handshake rides the stall out
  options.probe_interval_ms = 50;
  options.probe_timeout_ms = 200;
  options.failover_probe_failures = 3;
  RouterService router(std::move(map), options);
  ASSERT_TRUE(router.Init().ok());

  // No single timeout promotes, but a primary that stays silent must not
  // strand the shard forever: after failover_probe_failures consecutive
  // silent probes (and a failed confirm probe) the prober promotes the
  // replica — with zero client traffic in flight.
  ASSERT_TRUE(WaitUntil([&] { return router.failovers() == 1; }));
  ASSERT_TRUE(WaitUntil([&] { return router.shards_up() == 2; }));
  EXPECT_EQ(router.active_endpoint(1).port, replica->server->port());
  relay.Stop();
}

TEST(RouterProberTest, ReplicalessDeadShardIsMarkedDownByProberAlone) {
  TransactionDatabase full = bbsmine::testing::RandomDb(89, 80, 16, 5.0);
  Fleet fleet(full, 2);
  RouterOptions options = Fleet::FastOptions();
  options.probe_interval_ms = 50;
  options.probe_timeout_ms = 500;
  RouterService router(fleet.map(), options);
  ASSERT_TRUE(router.Init().ok());
  ASSERT_EQ(router.shards_up(), 2u);

  // No replica, no client traffic: the prober alone must notice the
  // death and flip the shard down in STATS/shards_up — a dead shard
  // must not report healthy until a real request trips over it.
  fleet.shard(0).server->Stop();
  EXPECT_TRUE(WaitUntil([&] { return router.shards_up() == 1; }));
  EXPECT_EQ(router.failovers(), 0u);
}

TEST(RouterProberTest, RecoveredShardRejoinsWithoutClientTraffic) {
  TransactionDatabase full = bbsmine::testing::RandomDb(71, 80, 16, 5.0);
  Fleet fleet(full, 2);
  RouterOptions options = Fleet::FastOptions();
  options.probe_interval_ms = 50;
  options.probe_timeout_ms = 500;
  options.fanout_deadline_ms = 2'000;
  RouterService router(fleet.map(), options);
  ASSERT_TRUE(router.Init().ok());

  // No replica here: the shard dies, one request notices (and degrades),
  // and the shard stays down.
  const uint16_t port = fleet.shard(0).server->port();
  fleet.shard(0).server->Stop();
  JsonValue degraded = router.Handle(CountRequest({1}));
  ASSERT_TRUE(degraded.at("ok").AsBool());
  EXPECT_TRUE(degraded.at("degraded").AsBool());
  EXPECT_EQ(router.shards_up(), 1u);

  // The shard comes back on the same port. The prober alone — no client
  // traffic — must mark it up and refresh its routing leaf.
  fleet.shard(0).server = std::make_unique<service::SocketServer>(
      fleet.shard(0).service.get(), [&] {
        service::SocketServerOptions server_options;
        server_options.port = port;
        return server_options;
      }());
  ASSERT_TRUE(fleet.shard(0).server->Start().ok());
  ASSERT_TRUE(WaitUntil([&] { return router.shards_up() == 2; }));

  for (const Itemset& probe : QueryMix(16)) {
    JsonValue routed = router.Handle(CountRequest(probe));
    ASSERT_TRUE(routed.at("ok").AsBool());
    EXPECT_FALSE(routed.at("degraded").AsBool());
    JsonValue oracle = fleet.oracle().Handle(CountRequest(probe));
    EXPECT_EQ(routed.at("count").AsUint(), oracle.at("count").AsUint());
  }
}

}  // namespace
}  // namespace bbsmine::cluster
