// Deterministic result merging for the sharded cluster.
//
// COUNT merges trivially: the BBS count of an itemset is a per-transaction
// predicate popcount, so it is exactly additive across ANY partition of
// the transactions — sum the per-shard counts in shard order and the total
// is bit-identical to a single node holding the concatenated database
// (same BbsConfig assumed; the router enforces config identity at
// startup).
//
// MINE needs the two-round global-τ candidate exchange:
//
//   Round 1 — every shard mines locally at the SAME relative minsup. With
//   τ_i = ceil(minsup · n_i) per shard and τ = ceil(minsup · Σn_i)
//   globally, any pattern with global support >= τ must reach relative
//   support >= minsup on at least one shard (weighted pigeonhole:
//   Σ support_i >= minsup · Σ n_i forces support_i >= minsup · n_i for
//   some i, and integer support then clears the local ceil). So the union
//   of round-1 result sets is a complete global candidate set.
//
//   Round 2 — each shard exactly counts the candidates it did NOT itself
//   report (its round-1 supports are already exact), over the same prefix
//   [0, n_i) it mined in round 1. Summing round-1 and
//   round-2 supports per candidate gives exact global supports; filtering
//   at τ and sorting (support desc, items asc — the daemon's own order)
//   reproduces the single-node oracle's answer bit for bit.
//
// These helpers are pure functions over parsed shard results so the
// determinism contract is testable without sockets.

#ifndef BBSMINE_CLUSTER_MERGE_H_
#define BBSMINE_CLUSTER_MERGE_H_

#include <cstdint>
#include <map>
#include <vector>

#include "core/mining_types.h"
#include "storage/transaction.h"

namespace bbsmine::cluster {

/// One shard's round-1 mining answer.
struct ShardMineResult {
  bool reachable = false;
  uint64_t transactions = 0;
  /// Locally frequent itemsets with exact local supports, keyed by
  /// canonical itemset (the map keeps candidates in ascending order).
  std::map<Itemset, uint64_t> supports;
};

/// The union candidate set across every reachable shard, ascending.
std::vector<Itemset> UnionCandidates(const std::vector<ShardMineResult>& round1);

/// The candidates `shard` must exact-count in round 2: those it did not
/// report in round 1 (for unreachable shards this is moot — they get no
/// round 2).
std::vector<Itemset> MissingCandidates(const ShardMineResult& shard,
                                       const std::vector<Itemset>& candidates);

/// Sums round-1 + round-2 supports per candidate over reachable shards,
/// keeps those with global support >= `tau`, and sorts by (support desc,
/// items asc) — the daemon's MINE order. `round2[i]` holds shard i's
/// exact counts for its missing candidates (empty when none were needed).
std::vector<Pattern> MergeGlobalPatterns(
    const std::vector<ShardMineResult>& round1,
    const std::vector<std::map<Itemset, uint64_t>>& round2,
    const std::vector<Itemset>& candidates, uint64_t tau);

}  // namespace bbsmine::cluster

#endif  // BBSMINE_CLUSTER_MERGE_H_
