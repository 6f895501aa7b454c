// The service-layer metric catalog and service report.
//
// Exactly like obs/report.h does for mining runs, this file is the single
// place where every `bbsmined` service metric is named. Unlike the mining
// engine's per-worker shards (which merge at a barrier), service updates
// come from connection threads with no natural join point — so the catalog
// is a fixed array of relaxed std::atomic<uint64_t> slots: an Inc is one
// fetch_add, a gauge watermark is one CAS-max loop, a histogram observe is
// one fetch_add on a per-bucket atomic. No mutex is taken on the request
// path. Snapshot() reads every slot with relaxed loads; a histogram's
// rendered total is derived from its bucket sum at snapshot time, so the
// `total == sum(by_depth) + overflow` invariant the CI schema check
// asserts holds by construction even against concurrent writers.
//
// Latency and batch-size histograms reuse log2 buckets (obs::Log2Bucket):
// bucket d of a latency histogram counts requests that took
// [2^(d-1), 2^d) microseconds. The rendered JSON has the same
// {by_depth, overflow, total} shape as the mining run report's depth
// histograms, so the CI schema check treats both the same way.
//
// Windowed metrics: alongside the lifetime aggregate the catalog keeps a
// small ring of cumulative snapshots taken every `interval` of service
// time (default 12 slots x 10 s). Rotation is lazy — MaybeRotateWindows()
// is called from the request path and costs one relaxed load + compare
// when no rotation is due; when one is due, one thread takes the window
// mutex and writes catch-up snapshots. The STATS report's "window"
// section subtracts the newest snapshot at least 60 s old from the
// current cumulative values, yielding `last_60s` counters and latency
// histograms with recent p50/p95/p99 (obs::PercentileFromLog2Buckets).
// Watermark gauges are lifetime-only: a high-water mark has no meaningful
// per-window delta.
//
// The service report is the STATS verb's payload and the daemon's shutdown
// artifact (--report-out): a schema-versioned JSON document with a
// "service" identity section and a "metrics" section rendered by the same
// obs::MetricsSectionJson used by mining run reports.

#ifndef BBSMINE_SERVICE_METRICS_H_
#define BBSMINE_SERVICE_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "service/verbs.h"

namespace bbsmine::service {

/// Version of the service report JSON schema; independent of the mining
/// run-report schema. docs/OBSERVABILITY.md documents each version.
inline constexpr int64_t kServiceReportSchemaVersion = 1;

/// Thread-safe named metric catalog for the query service. Slots are fixed
/// at construction; updates are single relaxed atomic operations.
class ServiceMetrics {
 public:
  /// Windowed-metrics shape: `slots` cumulative snapshots taken every
  /// `interval_us` of service time. The defaults (12 x 10 s) retain two
  /// minutes of history, enough to answer "last 60 s" with one-interval
  /// granularity. Tests shrink both to drive rotation synthetically.
  struct WindowOptions {
    uint64_t interval_us = 10'000'000;
    size_t slots = 12;
  };

  /// Lookback horizon of the rendered "last_60s" window section.
  static constexpr uint64_t kWindowLookbackUs = 60'000'000;

  ServiceMetrics() : ServiceMetrics(WindowOptions{}) {}
  explicit ServiceMetrics(const WindowOptions& windows);

  ServiceMetrics(const ServiceMetrics&) = delete;
  ServiceMetrics& operator=(const ServiceMetrics&) = delete;

  // Counter slots (section "counters").
  size_t requests_total;         ///< every frame handled, any verb
  size_t errors;                 ///< requests answered with ok=false
  size_t rejected_backpressure;  ///< COUNTs bounced by the admission queue
  size_t batches;                ///< scheduler batches executed
  size_t batch_fused_requests;   ///< requests answered from a shared batch
  size_t inserted_transactions;
  size_t compacted_segments;     ///< cold sealed segments fold-compacted
  size_t slow_queries;           ///< requests over the slow-query threshold
  size_t traced_requests;        ///< requests that emitted a sampled span

  // Cluster counters (section "cluster"; all zero on a standalone daemon —
  // only the router's fan-out path increments them).
  size_t pruned_shard_queries;   ///< shard fan-outs skipped by the Bloofi tree
  size_t hedged_requests;        ///< fan-out legs re-issued after the hedge
                                 ///< timeout fired
  size_t degraded_responses;     ///< answers served with shards missing
  size_t shard_errors;           ///< downstream legs that failed (transport,
                                 ///< timeout, or error response)
  size_t failovers;              ///< replicas promoted after a primary died

  // Gauge slots (section "gauges"; watermark semantics).
  size_t queue_depth;         ///< deepest admission-queue backlog seen
  size_t batch_size_peak;     ///< largest batch fused
  size_t active_connections;  ///< most simultaneous client connections

  // Histogram slots (log2-bucketed; sections "latency_us" / "batch").
  size_t batch_size_hist;
  size_t fanout_latency;  ///< "cluster.fanout_us": whole fan-out round trips

  /// Per-verb slots: counter "counters.requests_<verb>" and histogram
  /// "latency_us.<verb>" (lower-case verb name) for every request/response
  /// verb of the table in service/verbs.h. Streaming verbs and kUnknown
  /// have none; they must not be passed here.
  size_t requests(Verb verb) const { return requests_[Index(verb)]; }
  size_t latency(Verb verb) const { return latency_[Index(verb)]; }

  void Inc(size_t slot, uint64_t n = 1) {
    scalars_[slot].fetch_add(n, std::memory_order_relaxed);
  }

  void GaugeMax(size_t slot, uint64_t v) {
    uint64_t cur = scalars_[slot].load(std::memory_order_relaxed);
    while (v > cur && !scalars_[slot].compare_exchange_weak(
                          cur, v, std::memory_order_relaxed)) {
    }
  }

  /// Records `magnitude` (a latency in microseconds, a batch size) into a
  /// log2-bucketed histogram slot.
  void ObserveLog2(size_t slot, uint64_t magnitude) {
    hist_[slot * kBuckets + obs::Log2Slot(magnitude)].fetch_add(
        1, std::memory_order_relaxed);
  }

  uint64_t counter(size_t slot) const {
    return scalars_[slot].load(std::memory_order_relaxed);
  }

  /// Point-in-time export of every metric. Each histogram's total is the
  /// sum of its bucket loads, so per-histogram invariants hold even when
  /// writers race the snapshot.
  std::vector<obs::MetricSample> Snapshot() const;

  /// Lazily takes any cumulative window snapshots that have come due by
  /// `now_rel_us` (µs since service start). Cheap when none is due (one
  /// relaxed load); called from the request path and before reports.
  /// Const because rotation only refreshes the window ring — logically a
  /// cache of the (unchanged) cumulative counters.
  void MaybeRotateWindows(uint64_t now_rel_us) const;

  /// The report's "window" section: interval/slot shape plus a `last_60s`
  /// object of counter deltas and latency histogram deltas (with
  /// p50/p95/p99) relative to the newest snapshot at least 60 s old — or
  /// service start, when the daemon is younger than the lookback.
  obs::JsonValue WindowSectionJson(uint64_t now_rel_us) const;

  const WindowOptions& window_options() const { return window_options_; }

 private:
  static constexpr size_t kBuckets = obs::DepthHistogram::kMaxTrackedDepth + 1;

  struct Meta {
    std::string name;
    obs::MetricKind kind;
    size_t slot;
  };

  /// Cumulative values of every slot at one instant (relaxed loads).
  struct Cumulative {
    std::vector<uint64_t> scalars;
    std::vector<uint64_t> hist;
  };

  struct WindowSnap {
    uint64_t end_us = 0;
    bool valid = false;
    Cumulative cum;
  };

  static size_t Index(Verb verb) { return static_cast<size_t>(verb); }

  size_t AddCounter(std::string name);
  size_t AddGauge(std::string name);
  size_t AddHistogram(std::string name);
  Cumulative CaptureCumulative() const;

  std::array<size_t, kNumVerbs> requests_{};
  std::array<size_t, kNumVerbs> latency_{};
  std::vector<Meta> metas_;
  size_t num_scalars_ = 0;
  size_t num_hists_ = 0;
  std::unique_ptr<std::atomic<uint64_t>[]> scalars_;
  std::unique_ptr<std::atomic<uint64_t>[]> hist_;  // num_hists_ x kBuckets

  WindowOptions window_options_;
  mutable std::atomic<uint64_t> next_rotation_us_;
  mutable std::mutex window_mu_;
  mutable std::vector<WindowSnap> ring_;  // guarded by window_mu_
  mutable size_t ring_next_ = 0;          // guarded by window_mu_
};

/// Exact heap bytes of each structure a daemon holds (the report's
/// "memory" section), computed only when a report is built. Allocator
/// overhead, thread stacks and the program image are not in them.
struct MemoryGauges {
  uint64_t sealed_slice_bytes = 0;   ///< sealed segments' slice data
  uint64_t tail_slice_bytes = 0;     ///< writer's tail block + view
  uint64_t signature_bit_bytes = 0;  ///< per-transaction signature bits
  uint64_t popcount_bytes = 0;       ///< cached slice popcounts
  uint64_t item_count_bytes = 0;     ///< exact 1-itemset counts
  uint64_t hash_position_bytes = 0;  ///< hash position memos
  uint64_t db_record_bytes = 0;      ///< database records and their items
  uint64_t db_tid_offset_bytes = 0;  ///< database TID offsets
  uint64_t wal_buffer_bytes = 0;     ///< WAL append buffer
  uint64_t trace_ring_bytes = 0;     ///< recorded trace events
  uint64_t flight_ring_bytes = 0;    ///< flight-recorder rings

  uint64_t total_bytes() const;
  obs::JsonValue ToJson() const;
};

/// Identity / liveness facts that frame the metric snapshot.
struct ServiceReportContext {
  double uptime_seconds = 0;
  uint64_t epoch = 0;
  uint64_t transactions = 0;
  uint64_t segments = 0;
  uint64_t snapshot_publications = 0;
  uint64_t snapshot_seals = 0;
  uint64_t segment_capacity = 0;
  bool draining = false;
  bool mine_enabled = false;

  /// Durability facts (rendered as the report's "durability" section;
  /// `durable` false renders just {"enabled": false}). Additive — the
  /// schema version stays 1.
  bool durable = false;
  std::string fsync_policy;
  uint64_t checkpoint_every = 0;
  uint64_t wal_appends = 0;
  uint64_t wal_bytes = 0;
  uint64_t wal_fsyncs = 0;
  uint64_t checkpoints = 0;
  uint64_t wal_txns_since_checkpoint = 0;
  uint64_t wal_truncations_deferred = 0;
  uint64_t recovered_records = 0;
  uint64_t torn_tail_bytes = 0;
  double recovery_seconds = 0;
  bool checkpoint_loaded = false;

  /// Read-path facts: which SliceSource backend serves sealed segments,
  /// heap bytes the visible snapshot pins (0 per mmap'd segment), and
  /// process page-fault totals (getrusage) — the real-memory signal that
  /// heap accounting cannot see. Additive; schema stays 1.
  std::string index_backend = "resident";
  uint64_t resident_slice_bytes = 0;
  uint64_t minor_faults = 0;
  uint64_t major_faults = 0;

  /// The "memory" section; unset (the router) omits it. Additive; schema
  /// stays 1.
  std::optional<MemoryGauges> memory;

  /// Cold-segment fold compaction (rendered as the "compaction" section;
  /// disabled renders just {"enabled": false}).
  bool compaction_enabled = false;
  uint64_t compact_cold_epochs = 0;
  uint64_t compact_fold_bits = 0;
  uint64_t compacted_segments = 0;

  /// Replication facts (rendered as the report's "replication" section).
  /// The caller builds the whole object — primary, follower, and router
  /// render different members — and leaves it null for {"enabled": false}.
  /// Additive; schema stays 1.
  obs::JsonValue replication;

  /// Live (non-watermark) values rendered next to the watermark gauges:
  /// the admission queue depth and open connection count at report time.
  uint64_t pending_requests = 0;
  uint64_t open_connections = 0;

  /// Service-relative timestamp (µs) the "window" section is rendered at.
  uint64_t window_now_us = 0;

  /// Report identity: "bbsmined_service" for a daemon, "bbsrouter_service"
  /// for the router — both share schema version 1.
  std::string kind = "bbsmined_service";

  /// Cluster facts (rendered as the report's "cluster" section on daemon
  /// and router alike). A standalone daemon is a one-shard fleet of
  /// itself: role "shard", 1/1 up. The router sets role "router", the real
  /// fleet size, and a per-shard detail array.
  std::string cluster_role = "shard";
  uint64_t shards_total = 1;
  uint64_t shards_up = 1;
  /// Per-shard detail (router only): JSON array, or null to omit.
  obs::JsonValue cluster_shards;
};

/// Builds the schema-versioned service report (STATS payload / shutdown
/// artifact).
obs::JsonValue BuildServiceReport(const ServiceReportContext& ctx,
                                  const ServiceMetrics& metrics);

}  // namespace bbsmine::service

#endif  // BBSMINE_SERVICE_METRICS_H_
