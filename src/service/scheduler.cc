#include "service/scheduler.h"

#include <algorithm>
#include <map>
#include <utility>

#include "obs/json.h"
#include "util/iomodel.h"

namespace bbsmine::service {

namespace {

/// The leader's helpers: a batch runs on num_threads threads, the leader
/// being one of them, so a single-threaded scheduler owns no thread.
std::unique_ptr<ThreadPool> MakeHelpers(size_t num_threads) {
  const size_t threads = ResolveThreads(num_threads);
  return threads > 1 ? std::make_unique<ThreadPool>(threads - 1) : nullptr;
}

}  // namespace

CountScheduler::CountScheduler(const SnapshotManager* index,
                               const SchedulerOptions& options,
                               ServiceMetrics* metrics, obs::Tracer* tracer)
    : index_(index),
      options_(options),
      metrics_(metrics),
      tracer_(tracer),
      pool_(MakeHelpers(options.num_threads)) {}

CountScheduler::~CountScheduler() { Shutdown(); }

Status CountScheduler::Count(const Itemset& items, const CountObs& obs,
                             CountResult* out) {
  Request request;
  request.items = items;
  Canonicalize(&request.items);
  if (request.items.empty()) {
    return Status::InvalidArgument("COUNT requires a non-empty itemset");
  }
  request.trace_id = obs.trace_id;
  request.sampled = obs.sampled && tracer_ != nullptr;

  std::unique_lock<std::mutex> lock(mu_);
  if (stop_) {
    return Status::Unavailable("scheduler is draining");
  }
  if (queue_.size() >= options_.max_pending) {
    if (metrics_ != nullptr) {
      metrics_->Inc(metrics_->rejected_backpressure);
    }
    return Status::Unavailable(
        "admission queue full (" + std::to_string(options_.max_pending) +
        " pending); retry later");
  }
  request.admitted_at = std::chrono::steady_clock::now();
  if (request.sampled) request.admit_ts_us = tracer_->NowMicros();
  queue_.push_back(&request);
  ++callers_;
  if (metrics_ != nullptr) {
    metrics_->GaugeMax(metrics_->queue_depth, queue_.size());
  }
  if (running_) {
    // Follow: the running batch's leader answers this request in a later
    // batch, or hands it the lead of the next one.
    request.wake.wait(lock,
                      [&request] { return request.done || request.lead; });
  } else {
    running_ = true;
    request.lead = true;
  }

  if (!request.done) {
    // Lead. This request is the queue's oldest (a new leader finds the
    // queue empty; a handed-over lead goes to the front), so it is in the
    // batch it runs.
    std::vector<Request*> batch(
        std::min(queue_.size(), std::max<size_t>(options_.max_batch, 1)));
    for (Request*& slot : batch) {
      slot = queue_.front();
      queue_.pop_front();
    }
    lock.unlock();
    RunBatch(batch);
    lock.lock();
    // Wake-ups go out under mu_: a follower's Request (and its condition
    // variable) lives on its stack, and it cannot see `done` and return
    // before the lock is released.
    for (Request* answered : batch) {
      answered->done = true;
      if (answered != &request) answered->wake.notify_one();
    }
    if (!queue_.empty()) {
      queue_.front()->lead = true;
      queue_.front()->wake.notify_one();
    } else {
      running_ = false;
    }
  }
  *out = request.result;
  if (--callers_ == 0 && stop_) drained_.notify_all();
  return Status::Ok();
}

void CountScheduler::Shutdown() {
  std::unique_lock<std::mutex> lock(mu_);
  stop_ = true;
  // Admitted requests always have a leader (or are one), so they drain on
  // their own. Waiting for their callers to leave Count, not just for the
  // answers, lets the scheduler be destroyed as soon as this returns.
  drained_.wait(lock, [this] { return callers_ == 0; });
}

size_t CountScheduler::pending() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size();
}

void CountScheduler::ForEachCell(size_t n,
                                 const std::function<void(size_t)>& body) {
  if (pool_ != nullptr) {
    pool_->ParallelFor(n, body);
    return;
  }
  for (size_t i = 0; i < n; ++i) body(i);
}

void CountScheduler::RunBatch(const std::vector<Request*>& batch) {
  const uint64_t batch_id = ++next_batch_id_;
  const auto batch_started_at = std::chrono::steady_clock::now();
  const bool any_sampled =
      std::any_of(batch.begin(), batch.end(),
                  [](const Request* r) { return r->sampled; });
  const double batch_ts_us =
      (tracer_ != nullptr && any_sampled) ? tracer_->NowMicros() : 0;

  // Queue-wait spans: admission to batch start, recorded on the leader's
  // thread but attributed to the request via its trace_id arg.
  if (tracer_ != nullptr && tracer_->enabled(obs::kTraceQueue)) {
    for (const Request* r : batch) {
      if (!r->sampled) continue;
      std::string args = "\"trace_id\": \"" + obs::JsonEscape(r->trace_id) +
                         "\", \"batch\": " + std::to_string(batch_id);
      tracer_->AddComplete(obs::kTraceQueue, "count.queue_wait",
                           r->admit_ts_us, batch_ts_us - r->admit_ts_us,
                           std::move(args));
    }
  }

  const Snapshot snap = index_->Acquire();
  const size_t num_segments = snap.num_segments();

  // Collapse identical itemsets, preserving first-arrival order.
  std::map<Itemset, size_t> group_of;
  std::vector<const Itemset*> uniques;
  std::vector<size_t> request_group(batch.size());
  for (size_t r = 0; r < batch.size(); ++r) {
    auto [it, inserted] = group_of.emplace(batch[r]->items, uniques.size());
    if (inserted) uniques.push_back(&it->first);
    request_group[r] = it->second;
  }

  // A sampled trace id per query group (the first sampled request's), for
  // attributing the segment-range spans of the fan-out below.
  std::vector<const std::string*> group_trace(uniques.size(), nullptr);
  if (tracer_ != nullptr && tracer_->enabled(obs::kTraceSegment)) {
    for (size_t r = 0; r < batch.size(); ++r) {
      const Request& req = *batch[r];
      if (req.sampled && group_trace[request_group[r]] == nullptr) {
        group_trace[request_group[r]] = &req.trace_id;
      }
    }
  }

  // Each distinct query is hashed once and counted by cells of contiguous
  // segment ranges, one range per batch thread. Counts and slice words are
  // sums, so every answer matches a serial count over the same prefix.
  std::vector<HashedItemset> hashed;
  hashed.reserve(uniques.size());
  if (num_segments > 0) {
    for (const Itemset* q : uniques) {
      hashed.push_back(snap.segment(0).Hash(*q));
    }
  }
  const size_t threads = pool_ != nullptr ? pool_->num_threads() + 1 : 1;
  const size_t ranges = std::min(threads, num_segments);
  struct Cell {
    uint64_t count = 0;
    uint64_t slice_words = 0;
  };
  std::vector<Cell> cells(uniques.size() * ranges);
  ForEachCell(cells.size(), [&](size_t cell) {
    const size_t q_idx = cell / ranges;
    const size_t first = num_segments * (cell % ranges) / ranges;
    const size_t last = num_segments * (cell % ranges + 1) / ranges;
    const std::string* trace_id = group_trace[q_idx];
    const double cell_ts_us =
        trace_id != nullptr ? tracer_->NowMicros() : 0;
    IoStats io;
    cells[cell].count =
        CountSegmentRange(snap, hashed[q_idx], first, last, &io);
    cells[cell].slice_words = io.slice_words_touched;
    if (trace_id != nullptr) {
      std::string args = "\"trace_id\": \"" + obs::JsonEscape(*trace_id) +
                         "\", \"batch\": " + std::to_string(batch_id) +
                         ", \"segment\": " + std::to_string(first) +
                         ", \"segments\": " + std::to_string(last - first) +
                         ", \"slice_words\": " +
                         std::to_string(io.slice_words_touched);
      tracer_->AddComplete(obs::kTraceSegment, "count.segment", cell_ts_us,
                           tracer_->NowMicros() - cell_ts_us,
                           std::move(args));
    }
  });

  std::vector<Cell> totals(uniques.size());
  for (size_t cell = 0; cell < cells.size(); ++cell) {
    totals[cell / ranges].count += cells[cell].count;
    totals[cell / ranges].slice_words += cells[cell].slice_words;
  }

  CountResult base;
  base.epoch = snap.epoch();
  base.visible_transactions = snap.num_transactions();
  base.batch_size = static_cast<uint32_t>(batch.size());
  base.batch_id = batch_id;
  for (size_t r = 0; r < batch.size(); ++r) {
    CountResult result = base;
    result.count = totals[request_group[r]].count;
    result.slice_words = totals[request_group[r]].slice_words;
    result.queue_wait_us = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            batch_started_at - batch[r]->admitted_at)
            .count());
    batch[r]->result = result;
  }

  if (tracer_ != nullptr && any_sampled &&
      tracer_->enabled(obs::kTraceBatch)) {
    std::string args = "\"batch\": " + std::to_string(batch_id) +
                       ", \"size\": " + std::to_string(batch.size()) +
                       ", \"uniques\": " + std::to_string(uniques.size()) +
                       ", \"segments\": " + std::to_string(num_segments);
    tracer_->AddComplete(obs::kTraceBatch, "count.batch", batch_ts_us,
                         tracer_->NowMicros() - batch_ts_us,
                         std::move(args));
  }

  if (metrics_ != nullptr) {
    metrics_->Inc(metrics_->batches);
    if (batch.size() > 1) {
      metrics_->Inc(metrics_->batch_fused_requests, batch.size());
    }
    metrics_->GaugeMax(metrics_->batch_size_peak, batch.size());
    metrics_->ObserveLog2(metrics_->batch_size_hist, batch.size());
  }
}

}  // namespace bbsmine::service
