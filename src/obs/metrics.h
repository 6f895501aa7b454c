// Metrics primitives for the mining engine's observability layer.
//
// The paper's whole evaluation is a story told through counters (false
// drops, certified candidates, probe fetches, simulated I/O), so counters
// are first-class here:
//
//  * DepthHistogram — a fixed-bucket histogram keyed by itemset size
//    (depth), used for the per-depth candidate / prune / false-drop
//    breakdowns the run report exposes. Plain data, merged with +=, so it
//    composes with the engine's deterministic per-root shard merge.
//
//  * MetricsRegistry — a named catalog of counters, gauges, and
//    fixed-bucket histograms. Hot paths never look anything up by name:
//    registration returns a dense slot id, and per-thread MetricsShards
//    update plain arrays with no synchronization. Shards are merged into
//    the registry at explicit merge points, in shard-creation order, so the
//    aggregate is deterministic whenever the per-shard values are —
//    matching the bit-identical guarantee of the parallel mining engine.
//
// The mining engine itself keeps its counters in MineStats/IoStats (those
// structs *are* its per-worker shards: one per root subtree, merged in root
// order). The registry is the naming and export layer above them: the run
// report (obs/report.h) registers every MineStats/IoStats field as a named
// view and renders the snapshot as JSON and as a table, so the metric
// catalog exists in exactly one place. Components without an engine-managed
// stats struct (thread pool queue depth, page cache residency) feed native
// registry metrics instead.

#ifndef BBSMINE_OBS_METRICS_H_
#define BBSMINE_OBS_METRICS_H_

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "util/rng.h"

namespace bbsmine::obs {

/// Histogram over itemset sizes ("depth" of the enumeration walk).
/// Depths 1..kMaxTrackedDepth get one bucket each; anything deeper lands in
/// the shared overflow bucket. Fixed buckets keep merging trivial and the
/// JSON schema stable.
class DepthHistogram {
 public:
  static constexpr size_t kMaxTrackedDepth = 32;

  /// Records `n` observations at `depth` (>= 1; deeper than
  /// kMaxTrackedDepth goes to the overflow bucket, depth 0 is ignored).
  void Add(size_t depth, uint64_t n = 1) {
    if (depth == 0) return;
    if (depth > kMaxTrackedDepth) {
      counts_[0] += n;
    } else {
      counts_[depth] += n;
    }
  }

  /// Observations recorded at exactly `depth` (1-based).
  uint64_t at(size_t depth) const {
    return depth >= 1 && depth <= kMaxTrackedDepth ? counts_[depth] : 0;
  }

  uint64_t overflow() const { return counts_[0]; }

  uint64_t total() const {
    uint64_t sum = 0;
    for (uint64_t c : counts_) sum += c;
    return sum;
  }

  /// Largest depth with a non-zero bucket (0 when empty; the overflow
  /// bucket does not count).
  size_t MaxNonZeroDepth() const {
    for (size_t d = kMaxTrackedDepth; d >= 1; --d) {
      if (counts_[d] != 0) return d;
    }
    return 0;
  }

  DepthHistogram& operator+=(const DepthHistogram& other) {
    for (size_t i = 0; i < counts_.size(); ++i) counts_[i] += other.counts_[i];
    return *this;
  }

  bool operator==(const DepthHistogram& other) const {
    return counts_ == other.counts_;
  }

 private:
  // counts_[0] is the overflow bucket; counts_[d] is depth d.
  std::array<uint64_t, kMaxTrackedDepth + 1> counts_{};
};

/// Maps a non-negative magnitude (a latency in microseconds, a batch size)
/// to a DepthHistogram bucket: bucket 1 holds [0, 2) — zero shares the
/// lowest bucket, since bucket 0 is the overflow slot — and bucket d >= 2
/// holds [2^(d-1), 2^d), so a 32-bucket histogram spans five nines of
/// dynamic range. Log2BucketLowerBound/UpperBound are the same contract in
/// the other direction (the percentile estimator interpolates between
/// them). The service layer registers its latency and batch-size
/// histograms this way; the fixed log2 buckets keep the run-report schema
/// identical to the depth-keyed histograms.
inline size_t Log2Bucket(uint64_t v) {
  return v == 0 ? 1 : static_cast<size_t>(std::bit_width(v));
}

/// Log2Bucket clamped to a DepthHistogram slot: magnitudes past the last
/// tracked bucket (2^kMaxTrackedDepth and up) go to the overflow slot 0.
inline size_t Log2Slot(uint64_t v) {
  const size_t bucket = Log2Bucket(v);
  return bucket > DepthHistogram::kMaxTrackedDepth ? 0 : bucket;
}

/// Smallest magnitude mapping to log2 bucket `d` (>= 1): 0 for bucket 1,
/// 2^(d-1) otherwise.
inline uint64_t Log2BucketLowerBound(size_t d) {
  return d <= 1 ? 0 : uint64_t{1} << (d - 1);
}

/// One past the largest magnitude mapping to log2 bucket `d`: 2^d.
inline uint64_t Log2BucketUpperBound(size_t d) { return uint64_t{1} << d; }

/// Estimates the q-quantile (q in [0, 1]) of the observations behind a
/// log2-bucketed histogram in MetricSample layout: buckets[0] is the
/// overflow count, buckets[d] for d >= 1 counts values in
/// [Log2BucketLowerBound(d), Log2BucketUpperBound(d)).
///
/// The c observations inside a bucket [lo, hi) are idealized as evenly
/// spaced starting at the lower bound — the j-th (0-based) sits at
/// lo + j*(hi-lo)/c — and the quantile is read at rank q*(N-1) with linear
/// interpolation between the two straddling idealized observations
/// (numpy-style). With one observation per bucket this reproduces the
/// bucket lower bounds exactly; in general the estimate is off by at most
/// a factor of the bucket width. Overflow observations are all placed at
/// the overflow lower bound 2^kMaxTrackedDepth (the histogram retains no
/// upper bound for them). Returns 0 for an empty histogram.
double PercentileFromLog2Buckets(const std::vector<uint64_t>& buckets,
                                 double q);

/// Fixed-capacity uniform sample of a latency stream (Vitter's
/// Algorithm R), for exact client-side percentiles without unbounded
/// memory. Deterministic given the seed and the observation order. Not
/// thread-safe; callers shard or lock.
class LatencyReservoir {
 public:
  explicit LatencyReservoir(size_t capacity, uint64_t seed = 1)
      : capacity_(capacity), rng_(seed) {
    samples_.reserve(capacity);
  }

  /// Records one observation; once `capacity` observations have been seen,
  /// each subsequent one replaces a random retained sample with
  /// probability capacity/count (Algorithm R), keeping the retained set a
  /// uniform sample of the whole stream.
  void Add(uint64_t v) {
    ++count_;
    if (v > max_) max_ = v;
    if (samples_.size() < capacity_) {
      samples_.push_back(v);
    } else if (capacity_ > 0) {
      uint64_t j = rng_.Uniform(count_);
      if (j < capacity_) samples_[j] = v;
    }
    sorted_ = false;
  }

  /// Observations seen (not retained).
  uint64_t count() const { return count_; }

  /// Largest observation seen — exact, tracked outside the sample.
  uint64_t max() const { return max_; }

  /// The q-quantile (q in [0, 1]) over the retained samples at rank
  /// q*(n-1) with linear interpolation; exact while count() <= capacity,
  /// a uniform-sample estimate after. Returns 0 when empty.
  double Quantile(double q);

 private:
  size_t capacity_;
  Rng rng_;
  std::vector<uint64_t> samples_;
  uint64_t count_ = 0;
  uint64_t max_ = 0;
  bool sorted_ = false;
};

/// What a registered metric measures; drives report formatting only.
enum class MetricKind : uint8_t { kCounter, kGauge, kHistogram };

/// Display unit of a metric value.
enum class Unit : uint8_t { kNone, kSeconds, kBlocks, kWords, kBytes };

const char* UnitName(Unit unit);

/// One aggregated metric value, as exported by MetricsRegistry::Snapshot.
struct MetricSample {
  std::string name;
  MetricKind kind = MetricKind::kCounter;
  Unit unit = Unit::kNone;
  uint64_t value = 0;                  // counter / gauge
  double real_value = 0;               // seconds metrics (kind kGauge)
  bool is_real = false;                // true => real_value carries the value
  std::vector<uint64_t> buckets;       // histogram: [0] = overflow, [d] = depth d
};

class MetricsRegistry;

/// A per-thread batch of metric updates. No locking: each worker owns one
/// shard exclusively and the registry merges them at a barrier. Counter and
/// histogram updates are additive; gauge updates keep the maximum
/// (watermark semantics), which is order-independent — so the merged
/// aggregate is identical for every schedule.
class MetricsShard {
 public:
  void Inc(size_t slot, uint64_t n = 1) { counters_[slot] += n; }
  void GaugeMax(size_t slot, uint64_t v) {
    if (v > counters_[slot]) counters_[slot] = v;
  }
  void Observe(size_t slot, size_t depth, uint64_t n = 1) {
    histograms_[slot].Add(depth, n);
  }

  uint64_t counter(size_t slot) const { return counters_[slot]; }
  const DepthHistogram& histogram(size_t slot) const {
    return histograms_[slot];
  }

 private:
  friend class MetricsRegistry;
  MetricsShard(size_t num_scalars, size_t num_histograms)
      : counters_(num_scalars, 0), histograms_(num_histograms) {}

  std::vector<uint64_t> counters_;  // counters and gauges share slot space
  std::vector<DepthHistogram> histograms_;
};

/// The named metric catalog. Register every metric up front (returns a
/// dense slot id), create one shard per worker, merge the shards at the
/// join point, snapshot for export. Registration is not thread-safe; shard
/// updates are wait-free per shard; Merge/Snapshot must not race updates.
class MetricsRegistry {
 public:
  /// Registers a monotonically increasing counter. Returns its slot.
  size_t AddCounter(std::string name, Unit unit = Unit::kNone);

  /// Registers a watermark gauge (merge keeps the maximum).
  size_t AddGauge(std::string name, Unit unit = Unit::kNone);

  /// Registers a depth histogram. Returns a slot in the histogram space
  /// (independent of the counter/gauge slot space).
  size_t AddHistogram(std::string name);

  /// Creates a shard sized for the current registration set. The registry
  /// owns it. Register all metrics before creating shards.
  MetricsShard* CreateShard();

  /// Folds every shard created so far into the aggregate, in creation
  /// order, and resets the shards. Deterministic given deterministic
  /// per-shard content.
  void MergeShards();

  // Direct (serial-context) updates against the aggregate.
  void Inc(size_t slot, uint64_t n = 1) { aggregate_.Inc(slot, n); }
  void GaugeMax(size_t slot, uint64_t v) { aggregate_.GaugeMax(slot, v); }
  void Observe(size_t slot, size_t depth, uint64_t n = 1) {
    aggregate_.Observe(slot, depth, n);
  }

  uint64_t counter(size_t slot) const { return aggregate_.counter(slot); }
  const DepthHistogram& histogram(size_t slot) const {
    return aggregate_.histogram(slot);
  }

  /// Exports every metric, in registration order.
  std::vector<MetricSample> Snapshot() const;

 private:
  struct Meta {
    std::string name;
    MetricKind kind;
    Unit unit;
    size_t slot;  // into the matching slot space
  };

  std::vector<Meta> metas_;
  size_t num_scalars_ = 0;
  size_t num_histograms_ = 0;
  MetricsShard aggregate_{0, 0};
  std::vector<std::unique_ptr<MetricsShard>> shards_;
};

}  // namespace bbsmine::obs

#endif  // BBSMINE_OBS_METRICS_H_
