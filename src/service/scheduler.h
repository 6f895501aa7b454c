// Batched CountItemSet scheduler with bounded admission and backpressure.
//
// A busy daemon sees many concurrent COUNT requests. Answering each on its
// own thread against its own snapshot would acquire one snapshot per request
// and evaluate duplicate queries again. The scheduler:
//
//   * admits requests into a bounded queue — a full queue rejects with
//     Status::Unavailable (backpressure; the wire layer surfaces it as a
//     retryable error) instead of letting latency grow without bound;
//   * runs batches on the callers' own threads (leader/follower, group-
//     commit style): a caller that finds no batch running leads one — it
//     takes the queue in arrival order (up to max_batch requests, its own
//     first), acquires ONE snapshot, and answers every request in the
//     batch at that epoch; identical requests collapse to one evaluation.
//     Requests arriving meanwhile queue up, and when the batch ends the
//     oldest of them is handed the lead with one targeted wake-up. An
//     uncontended COUNT is answered on the thread that read it;
//   * each distinct query is hashed once and counted over the snapshot's
//     segments by CountSegmentRange (core/segmented_bbs.h). With
//     num_threads = N > 1 a query's segments split into N contiguous
//     ranges, one cell each, run by the leader and N - 1 pool workers (one
//     thread in total at N = 1: no pool exists); per-query totals are
//     reduced in segment order, so every answer is bit-identical to a
//     serial SegmentedBbs::CountItemSet over the same prefix.
//
// Count() blocks the calling (connection) thread until its batch executes;
// the contract mirrors a synchronous RPC handler.

#ifndef BBSMINE_SERVICE_SCHEDULER_H_
#define BBSMINE_SERVICE_SCHEDULER_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/trace.h"
#include "service/metrics.h"
#include "service/snapshot.h"
#include "util/thread_pool.h"

namespace bbsmine::service {

struct SchedulerOptions {
  /// Admission bound: requests beyond this many pending are rejected with
  /// Status::Unavailable.
  size_t max_pending = 1024;
  /// Largest number of requests fused into one batch.
  size_t max_batch = 256;
  /// Threads executing a batch's per-(query, segment range) cells, the
  /// leading caller included (0 = one per hardware thread).
  size_t num_threads = 0;
};

/// The answer to one admitted COUNT request.
struct CountResult {
  uint64_t count = 0;
  /// Snapshot the request was answered at.
  uint64_t epoch = 0;
  uint64_t visible_transactions = 0;
  /// Number of requests fused into the same batch (>= 1).
  uint32_t batch_size = 1;
  /// Time the request waited in the admission queue before its batch
  /// started executing.
  uint64_t queue_wait_us = 0;
  /// Which batch answered the request (monotonic per scheduler, 1-based).
  uint64_t batch_id = 0;
  /// 64-bit BBS slice words streamed to answer this request's query
  /// (summed over segments).
  uint64_t slice_words = 0;
};

/// Per-request observability context threaded through admission. `sampled`
/// requests emit queue-wait and segment-range spans attributed to
/// `trace_id`; unsampled requests still get queue_wait_us/batch_id back.
struct CountObs {
  std::string trace_id;
  bool sampled = false;
};

class CountScheduler {
 public:
  /// `index` must outlive the scheduler. `metrics` and `tracer` may be
  /// null; a null (or category-disabled) tracer makes every span a no-op.
  CountScheduler(const SnapshotManager* index, const SchedulerOptions& options,
                 ServiceMetrics* metrics, obs::Tracer* tracer = nullptr);

  /// Drains pending requests (Shutdown).
  ~CountScheduler();

  CountScheduler(const CountScheduler&) = delete;
  CountScheduler& operator=(const CountScheduler&) = delete;

  /// Admits `items` (canonicalized internally; must be non-empty), blocks
  /// until the batch containing it executes, and fills `out`.
  /// Returns Unavailable under backpressure or after Shutdown;
  /// InvalidArgument for an empty itemset.
  Status Count(const Itemset& items, CountResult* out) {
    return Count(items, CountObs{}, out);
  }

  /// Same, with per-request observability context.
  Status Count(const Itemset& items, const CountObs& obs, CountResult* out);

  /// Stops admitting and waits until every already-admitted request has
  /// been answered and its Count call has returned. Idempotent.
  void Shutdown();

  /// Requests currently waiting for a batch.
  size_t pending() const;

 private:
  /// One admitted request. It lives on its caller's stack; the queue and
  /// the batch that answers it hold pointers.
  struct Request {
    Itemset items;
    std::string trace_id;
    bool sampled = false;
    std::chrono::steady_clock::time_point admitted_at;
    double admit_ts_us = 0;  ///< tracer timestamp at admission (if tracing)
    CountResult result;      ///< written by the batch that answers it
    // Guarded by mu_: set when the request is answered, or when it is
    // handed the lead of the next batch; `wake` signals either.
    bool done = false;
    bool lead = false;
    std::condition_variable wake;
  };

  void RunBatch(const std::vector<Request*>& batch);
  /// Runs body(i) for i in [0, n) on the calling thread plus the pool.
  void ForEachCell(size_t n, const std::function<void(size_t)>& body);

  const SnapshotManager* index_;
  SchedulerOptions options_;
  ServiceMetrics* metrics_;
  obs::Tracer* tracer_;
  uint64_t next_batch_id_ = 0;  // the current leader only

  mutable std::mutex mu_;
  std::deque<Request*> queue_;  // admitted, not yet in a batch
  bool running_ = false;        // a leader is executing a batch
  size_t callers_ = 0;          // admitted, Count not yet returned
  bool stop_ = false;
  std::condition_variable drained_;  // callers_ reached 0 after Shutdown

  /// The leader's helpers: num_threads - 1 workers (none at 1 thread).
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace bbsmine::service

#endif  // BBSMINE_SERVICE_SCHEDULER_H_
