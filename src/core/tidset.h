// A hybrid dense/sparse set of transaction positions.
//
// The filter walk carries, for each enumeration node, the set of
// transactions whose signatures cover the node's itemset (the CountItemSet
// result vector). Near the root these sets are large and a bit vector (one
// bit per transaction) with word-parallel AND is ideal; deeper in the walk
// the sets shrink toward the support threshold and a sorted position list
// intersected by bit probes is an order of magnitude cheaper. TidSet
// switches representation automatically when a set first drops below the
// sparsity threshold.

#ifndef BBSMINE_CORE_TIDSET_H_
#define BBSMINE_CORE_TIDSET_H_

#include <cstdint>
#include <vector>

#include "util/bitvector.h"

namespace bbsmine {

/// Hybrid transaction-position set used by the filter recursion.
class TidSet {
 public:
  TidSet() = default;

  /// A dense set holding every position in [0, n).
  static TidSet AllOf(size_t n);

  /// Wraps an existing dense vector (moves it in), converting to the sparse
  /// representation when its count is at most `sparse_threshold`.
  static TidSet FromDense(BitVector dense, size_t sparse_threshold = 0);

  bool sparse() const { return sparse_; }
  size_t count() const { return count_; }

  /// The dense representation. Only valid when !sparse().
  const BitVector& dense() const { return dense_; }

  /// The sparse representation (ascending positions). Only valid when
  /// sparse().
  const std::vector<uint32_t>& tids() const { return tids_; }

  /// Intersects `parent` with the item vector `with` (a dense bit vector of
  /// the same universe) into *this, reusing this object's buffers. Converts
  /// the result to sparse once its count is at most `sparse_threshold`.
  /// Returns the resulting count.
  ///
  /// When `min_count` > 0 the intersection may abort early once the count
  /// provably cannot reach min_count; the returned value is then some value
  /// below min_count and *this is unspecified (callers discard rejected
  /// extensions, so only the reaches/doesn't-reach signal matters).
  size_t AssignIntersection(const TidSet& parent, const BitVector& with,
                            size_t sparse_threshold, uint64_t min_count = 0);

  /// Appends the positions to `out` (works for both representations).
  void AppendPositions(std::vector<uint32_t>* out) const;

  /// Replaces the contents with the given sparse positions (ascending).
  void AssignSparse(std::vector<uint32_t> tids);

 private:
  bool sparse_ = false;
  size_t count_ = 0;
  BitVector dense_;
  std::vector<uint32_t> tids_;
};

}  // namespace bbsmine

#endif  // BBSMINE_CORE_TIDSET_H_
