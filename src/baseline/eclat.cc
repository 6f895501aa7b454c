#include "baseline/eclat.h"

#include <algorithm>
#include <unordered_map>

#include "util/stopwatch.h"

namespace bbsmine {

namespace {

struct TidList {
  ItemId item = 0;
  std::vector<uint32_t> tids;  // ascending transaction positions
};

/// Writes the intersection of the ascending lists `a` and `b` to `out` and
/// returns whether it holds at least `tau` positions. Gives up as soon as
/// the positions left to merge can no longer lift it to `tau`: most
/// extensions are infrequent, so most merges stop early.
bool IntersectAtLeast(const std::vector<uint32_t>& a,
                      const std::vector<uint32_t>& b, uint64_t tau,
                      std::vector<uint32_t>* out) {
  size_t i = 0;
  size_t j = 0;
  while (i < a.size() && j < b.size()) {
    if (out->size() + std::min(a.size() - i, b.size() - j) < tau) {
      return false;
    }
    if (a[i] < b[j]) {
      ++i;
    } else if (b[j] < a[i]) {
      ++j;
    } else {
      out->push_back(a[i]);
      ++i;
      ++j;
    }
  }
  return out->size() >= tau;
}

/// Depth-first extension with narrowed sibling lists: each node carries the
/// tid-lists of the extensions that stayed frequent at its parent.
class EclatWalk {
 public:
  EclatWalk(uint64_t tau, MineStats* stats, std::vector<Pattern>* out)
      : tau_(tau), stats_(stats), out_(out) {}

  void Recurse(std::vector<TidList>* siblings) {
    for (size_t i = 0; i < siblings->size(); ++i) {
      TidList& node = (*siblings)[i];
      current_.push_back(node.item);
      Itemset canonical = current_;
      Canonicalize(&canonical);
      out_->push_back(
          Pattern{std::move(canonical), node.tids.size(), SupportKind::kExact});
      ++stats_->candidates;

      std::vector<TidList> children;
      for (size_t j = i + 1; j < siblings->size(); ++j) {
        ++stats_->extension_tests;
        TidList child;
        child.item = (*siblings)[j].item;
        if (IntersectAtLeast((*siblings)[j].tids, node.tids, tau_,
                             &child.tids)) {
          children.push_back(std::move(child));
        }
      }
      if (!children.empty()) Recurse(&children);
      current_.pop_back();
    }
  }

 private:
  uint64_t tau_;
  MineStats* stats_;
  std::vector<Pattern>* out_;
  Itemset current_;
};

}  // namespace

MiningResult MineEclat(const DatabaseView& db, const EclatConfig& config) {
  Stopwatch total_timer;
  MiningResult result;
  MineStats& stats = result.stats;
  uint64_t tau = AbsoluteThreshold(config.min_support, db.size());

  // One scan builds the vertical representation.
  std::unordered_map<ItemId, std::vector<uint32_t>> vertical;
  ++stats.db_scans;
  uint32_t position = 0;
  db.ForEach(&stats.io, [&](const Transaction& txn) {
    for (ItemId item : txn.items) vertical[item].push_back(position);
    ++position;
  });

  // Frequent singletons, ordered by ascending support (narrow-tree order).
  std::vector<TidList> roots;
  for (auto& [item, tids] : vertical) {
    stats.extension_tests++;
    if (tids.size() >= tau) roots.push_back(TidList{item, std::move(tids)});
  }
  std::sort(roots.begin(), roots.end(), [](const TidList& a, const TidList& b) {
    if (a.tids.size() != b.tids.size()) return a.tids.size() < b.tids.size();
    return a.item < b.item;
  });

  EclatWalk(tau, &stats, &result.patterns).Recurse(&roots);
  stats.total_seconds = total_timer.ElapsedSeconds();
  return result;
}

MiningResult MineEclat(const TransactionDatabase& db,
                       const EclatConfig& config) {
  return MineEclat(db.Prefix(), config);
}

}  // namespace bbsmine
