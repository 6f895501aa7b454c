// Eclat (Zaki, 1997/2000): exact vertical frequent-itemset mining by
// tid-list intersection.
//
// Not one of the paper's baselines, but the natural exact counterpart of
// the BBS filter walk — BBS bit-slices are a lossy, fixed-width compression
// of exactly the vertical representation Eclat materializes in full. The
// ablation benches compare the two to quantify what the lossy encoding buys
// (memory) and costs (refinement).

#ifndef BBSMINE_BASELINE_ECLAT_H_
#define BBSMINE_BASELINE_ECLAT_H_

#include "core/mining_types.h"
#include "storage/transaction_db.h"

namespace bbsmine {

/// Tuning knobs for an Eclat run.
struct EclatConfig {
  /// Minimum support as a fraction of the number of transactions.
  double min_support = 0.003;
};

/// Mines all frequent patterns of the prefix `db` with Eclat. Supports are
/// exact; one scan of the prefix builds the vertical representation.
MiningResult MineEclat(const DatabaseView& db, const EclatConfig& config);

/// The same over the whole database: MineEclat(db.Prefix(), config).
MiningResult MineEclat(const TransactionDatabase& db,
                       const EclatConfig& config);

}  // namespace bbsmine

#endif  // BBSMINE_BASELINE_ECLAT_H_
