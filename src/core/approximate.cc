#include "core/approximate.h"

#include <algorithm>
#include <cmath>
#include <map>

#include "core/dual_filter.h"
#include "core/filter_engine.h"

namespace bbsmine {

double PoissonCdf(double lambda, uint64_t k) {
  if (lambda <= 0) return 1.0;
  // Far in the right tail the CDF is 1 for all practical purposes.
  double sigma = std::sqrt(lambda);
  if (static_cast<double>(k) >= lambda + 10 * sigma + 10) return 1.0;
  if (lambda > 700) {
    // Normal approximation with continuity correction (the exact series
    // would overflow/underflow long doubles around here).
    double z = (static_cast<double>(k) + 0.5 - lambda) / sigma;
    return 0.5 * std::erfc(-z / std::sqrt(2.0));
  }
  // Exact series: e^-lambda * sum_{i<=k} lambda^i / i!.
  double term = std::exp(-lambda);
  double sum = term;
  for (uint64_t i = 1; i <= k; ++i) {
    term *= lambda / static_cast<double>(i);
    sum += term;
    if (term < 1e-18 && static_cast<double>(i) > lambda) break;
  }
  return sum > 1.0 ? 1.0 : sum;
}

std::vector<ApproxPattern> MineApproximate(const BbsIndex& bbs,
                                           const ApproxMineConfig& config,
                                           const Itemset& universe,
                                           MineStats* stats) {
  uint64_t tau = AbsoluteThreshold(config.min_support,
                                   bbs.num_transactions());
  FilterEngine engine(bbs, tau);
  engine.Prepare(universe, stats);
  DualFilterOutput out = RunDualFilter(engine, stats);

  std::vector<ApproxPattern> result;
  result.reserve(out.certain.size() + out.uncertain.size());

  for (DualCandidate& c : out.certain) {
    ApproxPattern p;
    p.items = std::move(c.items);
    p.est = c.est;
    p.confidence = 1.0;
    p.certified = true;
    result.push_back(std::move(p));
  }

  // Deflated support estimates a-hat(X), keyed by itemset, built bottom-up
  // (every candidate's sub-itemsets of size |X|-1 that follow the walk's
  // prefix structure are themselves candidates, so ascending-length
  // processing makes parent lookups succeed; missing parents fall back to
  // their raw estimates).
  //
  // For each leave-one-out decomposition X = parent u {i}, the observable
  // match rate among parent containers,
  //     q_i = est(X) / a-hat(parent),
  // mixes the true containment rate p_i with chance coverage:
  //     q_i = p_i + (1 - p_i) * c_i,
  // where c_i is the *measured* fraction of all transactions whose
  // signatures cover the bits item i adds beyond the parent (measured on
  // the actual slices, so discrete item aliasing is captured). Solving for
  // p_i gives a support estimate a_i = a-hat(parent) * p_i; when c_i ~ 1
  // the signature carries no information about i and the estimate falls
  // back to the independence prior a-hat(parent) * act(i)/N. The final
  // a-hat(X) is the most pessimistic decomposition, and
  //     confidence = P[Poisson(a-hat(X)) >= tau].
  std::map<Itemset, double> deflated;
  for (const DualCandidate& c : out.certain) {
    deflated.emplace(c.items, static_cast<double>(c.count));
  }

  // Ascending-length processing order.
  std::vector<DualCandidate*> ordered;
  ordered.reserve(out.uncertain.size());
  for (DualCandidate& c : out.uncertain) ordered.push_back(&c);
  std::sort(ordered.begin(), ordered.end(),
            [](const DualCandidate* a, const DualCandidate* b) {
              return a->items.size() < b->items.size();
            });

  std::vector<ApproxPattern> uncertain_out;
  BitVector matches;
  BitVector scratch;
  Itemset parent;
  std::vector<uint32_t> item_positions;
  std::vector<uint32_t> parent_positions;
  double n = static_cast<double>(bbs.num_transactions());
  for (DualCandidate* c : ordered) {
    uint64_t est = bbs.CountItemSet(c->items, &matches);
    double support_hat = static_cast<double>(est);

    if (c->items.size() > 1) {
      for (size_t skip = 0; skip < c->items.size(); ++skip) {
        ItemId item = c->items[skip];
        parent.clear();
        for (size_t j = 0; j < c->items.size(); ++j) {
          if (j != skip) parent.push_back(c->items[j]);
        }

        // a-hat(parent): deflated if known, singleton-exact, else est.
        double parent_hat;
        if (parent.size() == 1 && bbs.tracks_item_counts()) {
          parent_hat = static_cast<double>(bbs.ExactItemCount(parent[0]));
        } else if (auto it = deflated.find(parent); it != deflated.end()) {
          parent_hat = it->second;
        } else {
          parent_hat = static_cast<double>(bbs.CountItemSet(parent));
        }
        if (parent_hat <= 0) {
          support_hat = 0;
          break;
        }

        // c_i: fraction of all transactions whose signatures cover the
        // bits `item` adds beyond the parent, measured on the real slices.
        bbs.ItemPositions(item, &item_positions);
        BitVector parent_sig = bbs.MakeSignature(parent);
        scratch.Resize(bbs.num_transactions());
        scratch.SetAll();
        bool has_unique_bit = false;
        size_t cover = bbs.num_transactions();
        for (uint32_t pos : item_positions) {
          if (parent_sig.Get(pos)) continue;  // bit already required
          has_unique_bit = true;
          cover = bbs.Slice(pos).AndInto(scratch.MutableWords());
        }
        double coverage =
            !has_unique_bit || n == 0
                ? 1.0
                : static_cast<double>(cover) / n;

        // Invert q = p + (1-p)c. Near c = 1 the signature is
        // uninformative about `item`; fall back to the independence prior.
        double q = std::min(1.0, static_cast<double>(est) / parent_hat);
        double p;
        if (coverage > 0.999) {
          p = bbs.tracks_item_counts() && n > 0
                  ? static_cast<double>(bbs.ExactItemCount(item)) / n
                  : q;
        } else {
          p = std::clamp((q - coverage) / (1.0 - coverage), 0.0, 1.0);
        }
        support_hat = std::min(support_hat, parent_hat * p);
      }
    }

    // Confidence that the true support reaches tau, with the deflated
    // estimate as a Poisson mean.
    double confidence = 1.0 - PoissonCdf(support_hat, tau > 0 ? tau - 1 : 0);
    deflated.emplace(c->items, support_hat);

    if (confidence < config.min_confidence) continue;
    ApproxPattern p;
    p.items = std::move(c->items);
    p.est = est;
    p.confidence = confidence;
    p.certified = false;
    uncertain_out.push_back(std::move(p));
  }

  result.insert(result.end(), std::make_move_iterator(uncertain_out.begin()),
                std::make_move_iterator(uncertain_out.end()));
  return result;
}

}  // namespace bbsmine
