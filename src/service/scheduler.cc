#include "service/scheduler.h"

#include <algorithm>
#include <atomic>
#include <map>
#include <unordered_map>
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

  Snapshot snap = index_->Acquire();
  size_t num_segments = snap.num_segments();

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
  // attributing per-segment spans of the fan-out below.
  std::vector<const std::string*> group_trace(uniques.size(), nullptr);
  if (tracer_ != nullptr && tracer_->enabled(obs::kTraceSegment)) {
    for (size_t r = 0; r < batch.size(); ++r) {
      const Request& req = *batch[r];
      if (req.sampled && group_trace[request_group[r]] == nullptr) {
        group_trace[request_group[r]] = &req.trace_id;
      }
    }
  }

  // Items appearing in two or more distinct queries share their slice
  // streams: their single-item transaction vectors are computed once per
  // segment and reused as seeds below.
  std::unordered_map<ItemId, size_t> shared_slot;
  {
    std::unordered_map<ItemId, size_t> query_count;
    for (const Itemset* q : uniques) {
      for (ItemId item : *q) ++query_count[item];
    }
    for (const Itemset* q : uniques) {
      for (ItemId item : *q) {
        if (query_count[item] >= 2) {
          shared_slot.emplace(item, shared_slot.size());
        }
      }
    }
  }
  struct CacheEntry {
    BitVector vec;
    size_t count = 0;
  };
  std::vector<ItemId> shared_items(shared_slot.size());
  for (const auto& [item, slot] : shared_slot) shared_items[slot] = item;
  std::vector<CacheEntry> cache(shared_slot.size() * num_segments);
  ForEachCell(cache.size(), [&](size_t cell) {
    size_t seg_idx = cell / shared_items.size();
    ItemId item = shared_items[cell % shared_items.size()];
    CacheEntry& entry = cache[cell];
    entry.count =
        snap.segment(seg_idx).CountItemSet({item}, &entry.vec);
  });

  // Per-(query, segment) counts. Each cell is independent; the reduction
  // below runs in segment order so totals match a serial count.
  std::vector<size_t> cell_counts(uniques.size() * num_segments, 0);
  std::vector<uint64_t> cell_words(cell_counts.size(), 0);
  std::atomic<uint64_t> seeded{0};
  ForEachCell(cell_counts.size(), [&](size_t cell) {
    size_t q_idx = cell / num_segments;
    size_t seg_idx = cell % num_segments;
    const Itemset& query = *uniques[q_idx];
    const BbsIndex& segment = snap.segment(seg_idx);
    const std::string* trace_id = group_trace[q_idx];
    const double cell_ts_us =
        trace_id != nullptr ? tracer_->NowMicros() : 0;
    IoStats io;

    // Seed from the sparsest cached vector the query contains, if any.
    size_t best = SIZE_MAX;
    ItemId best_item = 0;
    for (ItemId item : query) {
      auto it = shared_slot.find(item);
      if (it == shared_slot.end()) continue;
      size_t slot = seg_idx * shared_items.size() + it->second;
      if (best == SIZE_MAX || cache[slot].count < cache[best].count) {
        best = slot;
        best_item = item;
      }
    }
    if (best == SIZE_MAX) {
      cell_counts[cell] = segment.CountItemSet(query, nullptr, &io);
    } else {
      seeded.fetch_add(1, std::memory_order_relaxed);
      if (query.size() == 1) {
        cell_counts[cell] = cache[best].count;
      } else {
        BitVector vec = cache[best].vec;
        size_t count = cache[best].count;
        for (ItemId item : query) {
          if (item == best_item) continue;
          count = segment.AndItemSlices(item, &vec, &io);
        }
        cell_counts[cell] = count;
      }
    }
    cell_words[cell] = io.slice_words_touched;
    if (trace_id != nullptr) {
      std::string args = "\"trace_id\": \"" + obs::JsonEscape(*trace_id) +
                         "\", \"batch\": " + std::to_string(batch_id) +
                         ", \"segment\": " + std::to_string(seg_idx) +
                         ", \"slice_words\": " +
                         std::to_string(io.slice_words_touched);
      tracer_->AddComplete(obs::kTraceSegment, "count.segment", cell_ts_us,
                           tracer_->NowMicros() - cell_ts_us,
                           std::move(args));
    }
  });

  std::vector<uint64_t> totals(uniques.size(), 0);
  std::vector<uint64_t> group_words(uniques.size(), 0);
  for (size_t q = 0; q < uniques.size(); ++q) {
    for (size_t s = 0; s < num_segments; ++s) {
      totals[q] += cell_counts[q * num_segments + s];
      group_words[q] += cell_words[q * num_segments + s];
    }
  }

  CountResult base;
  base.epoch = snap.epoch();
  base.visible_transactions = snap.num_transactions();
  base.batch_size = static_cast<uint32_t>(batch.size());
  base.batch_id = batch_id;
  for (size_t r = 0; r < batch.size(); ++r) {
    CountResult result = base;
    result.count = totals[request_group[r]];
    result.slice_words = group_words[request_group[r]];
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
                       ", \"shared_items\": " +
                       std::to_string(shared_items.size()) +
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
    metrics_->Inc(metrics_->shared_seed_queries, seeded.load());
    metrics_->GaugeMax(metrics_->batch_size_peak, batch.size());
    metrics_->ObserveLog2(metrics_->batch_size_hist, batch.size());
  }
}

}  // namespace bbsmine::service
