#include "service/metrics.h"

#include <algorithm>
#include <cctype>
#include <utility>

namespace bbsmine::service {

namespace {

std::string LowerName(const VerbInfo& info) {
  std::string name = info.name;
  for (char& c : name) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return name;
}

}  // namespace

size_t ServiceMetrics::AddCounter(std::string name) {
  size_t slot = num_scalars_++;
  metas_.push_back(Meta{std::move(name), obs::MetricKind::kCounter, slot});
  return slot;
}

size_t ServiceMetrics::AddGauge(std::string name) {
  size_t slot = num_scalars_++;
  metas_.push_back(Meta{std::move(name), obs::MetricKind::kGauge, slot});
  return slot;
}

size_t ServiceMetrics::AddHistogram(std::string name) {
  size_t slot = num_hists_++;
  metas_.push_back(Meta{std::move(name), obs::MetricKind::kHistogram, slot});
  return slot;
}

ServiceMetrics::ServiceMetrics(const WindowOptions& windows)
    : window_options_(windows),
      next_rotation_us_(std::max<uint64_t>(1, windows.interval_us)),
      ring_(std::max<size_t>(1, windows.slots)) {
  window_options_.interval_us = std::max<uint64_t>(1, windows.interval_us);
  window_options_.slots = ring_.size();

  requests_total = AddCounter("counters.requests_total");
  for (const VerbInfo& info : AllVerbs()) {
    if (info.streaming) continue;
    requests_[Index(info.verb)] =
        AddCounter("counters.requests_" + LowerName(info));
  }
  errors = AddCounter("counters.errors");
  rejected_backpressure = AddCounter("counters.rejected_backpressure");
  batches = AddCounter("counters.batches");
  batch_fused_requests = AddCounter("counters.batch_fused_requests");
  inserted_transactions = AddCounter("counters.inserted_transactions");
  compacted_segments = AddCounter("counters.compacted_segments");
  slow_queries = AddCounter("counters.slow_queries");
  traced_requests = AddCounter("counters.traced_requests");
  pruned_shard_queries = AddCounter("cluster.pruned_shard_queries");
  hedged_requests = AddCounter("cluster.hedged_requests");
  degraded_responses = AddCounter("cluster.degraded_responses");
  shard_errors = AddCounter("cluster.shard_errors");
  failovers = AddCounter("cluster.failovers");
  queue_depth = AddGauge("gauges.queue_depth");
  batch_size_peak = AddGauge("gauges.batch_size_peak");
  active_connections = AddGauge("gauges.active_connections");
  for (const VerbInfo& info : AllVerbs()) {
    if (info.streaming) continue;
    latency_[Index(info.verb)] =
        AddHistogram("latency_us." + LowerName(info));
  }
  batch_size_hist = AddHistogram("batch.size");
  fanout_latency = AddHistogram("cluster.fanout_us");

  scalars_ = std::make_unique<std::atomic<uint64_t>[]>(num_scalars_);
  hist_ = std::make_unique<std::atomic<uint64_t>[]>(num_hists_ * kBuckets);
  for (size_t i = 0; i < num_scalars_; ++i) {
    scalars_[i].store(0, std::memory_order_relaxed);
  }
  for (size_t i = 0; i < num_hists_ * kBuckets; ++i) {
    hist_[i].store(0, std::memory_order_relaxed);
  }
}

ServiceMetrics::Cumulative ServiceMetrics::CaptureCumulative() const {
  Cumulative cum;
  cum.scalars.resize(num_scalars_);
  cum.hist.resize(num_hists_ * kBuckets);
  for (size_t i = 0; i < num_scalars_; ++i) {
    cum.scalars[i] = scalars_[i].load(std::memory_order_relaxed);
  }
  for (size_t i = 0; i < num_hists_ * kBuckets; ++i) {
    cum.hist[i] = hist_[i].load(std::memory_order_relaxed);
  }
  return cum;
}

std::vector<obs::MetricSample> ServiceMetrics::Snapshot() const {
  Cumulative cum = CaptureCumulative();
  std::vector<obs::MetricSample> samples;
  samples.reserve(metas_.size());
  for (const Meta& meta : metas_) {
    obs::MetricSample sample;
    sample.name = meta.name;
    sample.kind = meta.kind;
    if (meta.kind == obs::MetricKind::kHistogram) {
      sample.buckets.resize(kBuckets, 0);
      uint64_t total = 0;
      for (size_t b = 0; b < kBuckets; ++b) {
        sample.buckets[b] = cum.hist[meta.slot * kBuckets + b];
        total += sample.buckets[b];
      }
      sample.value = total;
    } else {
      sample.value = cum.scalars[meta.slot];
    }
    samples.push_back(std::move(sample));
  }
  return samples;
}

void ServiceMetrics::MaybeRotateWindows(uint64_t now_rel_us) const {
  uint64_t next = next_rotation_us_.load(std::memory_order_relaxed);
  if (now_rel_us < next) return;
  // A rotation is due. One thread wins the lock and writes the catch-up
  // snapshots; losers simply proceed — their rotation is already being
  // taken care of.
  if (!window_mu_.try_lock()) return;
  std::lock_guard<std::mutex> lock(window_mu_, std::adopt_lock);
  next = next_rotation_us_.load(std::memory_order_relaxed);
  if (now_rel_us < next) return;
  const uint64_t interval = window_options_.interval_us;
  // After a long idle gap most due snapshots would be overwritten inside
  // this same catch-up; skip straight to the last ring-full of them.
  uint64_t due = (now_rel_us - next) / interval + 1;
  if (due > ring_.size()) {
    next += (due - ring_.size()) * interval;
  }
  while (next <= now_rel_us) {
    ring_[ring_next_] = WindowSnap{next, true, CaptureCumulative()};
    ring_next_ = (ring_next_ + 1) % ring_.size();
    next += interval;
  }
  next_rotation_us_.store(next, std::memory_order_relaxed);
}

obs::JsonValue ServiceMetrics::WindowSectionJson(uint64_t now_rel_us) const {
  using obs::JsonValue;
  std::lock_guard<std::mutex> lock(window_mu_);

  // Baseline: the newest snapshot at least one lookback old. A daemon
  // younger than the lookback (or one whose windows have not rotated yet)
  // falls back to service start — all-zero cumulative values.
  const uint64_t horizon =
      now_rel_us >= kWindowLookbackUs ? now_rel_us - kWindowLookbackUs : 0;
  const WindowSnap* baseline = nullptr;
  for (const WindowSnap& snap : ring_) {
    if (!snap.valid || snap.end_us > horizon) continue;
    if (baseline == nullptr || snap.end_us > baseline->end_us) {
      baseline = &snap;
    }
  }
  const uint64_t baseline_end = baseline != nullptr ? baseline->end_us : 0;
  Cumulative current = CaptureCumulative();

  // Deltas, in catalog order. Watermark gauges are lifetime-only.
  std::vector<obs::MetricSample> deltas;
  deltas.reserve(metas_.size());
  for (const Meta& meta : metas_) {
    if (meta.kind == obs::MetricKind::kGauge) continue;
    obs::MetricSample sample;
    sample.name = meta.name;
    sample.kind = meta.kind;
    if (meta.kind == obs::MetricKind::kHistogram) {
      sample.buckets.resize(kBuckets, 0);
      uint64_t total = 0;
      for (size_t b = 0; b < kBuckets; ++b) {
        size_t idx = meta.slot * kBuckets + b;
        uint64_t base = baseline != nullptr ? baseline->cum.hist[idx] : 0;
        uint64_t cur = current.hist[idx];
        sample.buckets[b] = cur >= base ? cur - base : 0;
        total += sample.buckets[b];
      }
      sample.value = total;
    } else {
      uint64_t base =
          baseline != nullptr ? baseline->cum.scalars[meta.slot] : 0;
      uint64_t cur = current.scalars[meta.slot];
      sample.value = cur >= base ? cur - base : 0;
    }
    deltas.push_back(std::move(sample));
  }

  JsonValue last = obs::MetricsSectionJson(deltas);
  // Annotate each histogram with recent percentiles from its delta
  // buckets. An empty window renders p50/p95/p99 as 0.
  for (const obs::MetricSample& sample : deltas) {
    if (sample.kind != obs::MetricKind::kHistogram) continue;
    size_t dot = sample.name.find('.');
    JsonValue* section = last.MutableAt(sample.name.substr(0, dot));
    if (section == nullptr) continue;
    JsonValue* hist = section->MutableAt(sample.name.substr(dot + 1));
    if (hist == nullptr) continue;
    hist->Set("p50", JsonValue::Double(
                         obs::PercentileFromLog2Buckets(sample.buckets, 0.50)));
    hist->Set("p95", JsonValue::Double(
                         obs::PercentileFromLog2Buckets(sample.buckets, 0.95)));
    hist->Set("p99", JsonValue::Double(
                         obs::PercentileFromLog2Buckets(sample.buckets, 0.99)));
  }

  JsonValue window = JsonValue::Object();
  window.Set("interval_seconds",
             JsonValue::Double(static_cast<double>(window_options_.interval_us) /
                               1e6));
  window.Set("slots", JsonValue::Uint(window_options_.slots));
  window.Set("lookback_seconds",
             JsonValue::Double(static_cast<double>(kWindowLookbackUs) / 1e6));
  window.Set("covered_seconds",
             JsonValue::Double(
                 static_cast<double>(now_rel_us - baseline_end) / 1e6));
  window.Set("last_60s", std::move(last));
  return window;
}

uint64_t MemoryGauges::total_bytes() const {
  return sealed_slice_bytes + tail_slice_bytes + signature_bit_bytes +
         popcount_bytes + item_count_bytes + hash_position_bytes +
         db_record_bytes + db_tid_offset_bytes + wal_buffer_bytes +
         trace_ring_bytes + flight_ring_bytes;
}

obs::JsonValue MemoryGauges::ToJson() const {
  using obs::JsonValue;
  JsonValue out = JsonValue::Object();
  out.Set("sealed_slice_bytes", JsonValue::Uint(sealed_slice_bytes));
  out.Set("tail_slice_bytes", JsonValue::Uint(tail_slice_bytes));
  out.Set("signature_bit_bytes", JsonValue::Uint(signature_bit_bytes));
  out.Set("popcount_bytes", JsonValue::Uint(popcount_bytes));
  out.Set("item_count_bytes", JsonValue::Uint(item_count_bytes));
  out.Set("hash_position_bytes", JsonValue::Uint(hash_position_bytes));
  out.Set("db_record_bytes", JsonValue::Uint(db_record_bytes));
  out.Set("db_tid_offset_bytes", JsonValue::Uint(db_tid_offset_bytes));
  out.Set("wal_buffer_bytes", JsonValue::Uint(wal_buffer_bytes));
  out.Set("trace_ring_bytes", JsonValue::Uint(trace_ring_bytes));
  out.Set("flight_ring_bytes", JsonValue::Uint(flight_ring_bytes));
  out.Set("total_bytes", JsonValue::Uint(total_bytes()));
  return out;
}

obs::JsonValue BuildServiceReport(const ServiceReportContext& ctx,
                                  const ServiceMetrics& metrics) {
  using obs::JsonValue;
  JsonValue report = JsonValue::Object();
  report.Set("schema_version", JsonValue::Int(kServiceReportSchemaVersion));
  report.Set("kind", JsonValue::String(ctx.kind));

  JsonValue service = JsonValue::Object();
  service.Set("uptime_seconds", JsonValue::Double(ctx.uptime_seconds));
  service.Set("epoch", JsonValue::Uint(ctx.epoch));
  service.Set("transactions", JsonValue::Uint(ctx.transactions));
  service.Set("segments", JsonValue::Uint(ctx.segments));
  service.Set("segment_capacity", JsonValue::Uint(ctx.segment_capacity));
  service.Set("snapshot_publications",
              JsonValue::Uint(ctx.snapshot_publications));
  service.Set("snapshot_seals", JsonValue::Uint(ctx.snapshot_seals));
  service.Set("draining", JsonValue::Bool(ctx.draining));
  service.Set("mine_enabled", JsonValue::Bool(ctx.mine_enabled));
  service.Set("index_backend", JsonValue::String(ctx.index_backend));
  service.Set("resident_slice_bytes",
              JsonValue::Uint(ctx.resident_slice_bytes));
  service.Set("minor_faults", JsonValue::Uint(ctx.minor_faults));
  service.Set("major_faults", JsonValue::Uint(ctx.major_faults));
  report.Set("service", std::move(service));
  if (ctx.memory.has_value()) report.Set("memory", ctx.memory->ToJson());

  JsonValue compaction = JsonValue::Object();
  compaction.Set("enabled", JsonValue::Bool(ctx.compaction_enabled));
  if (ctx.compaction_enabled) {
    compaction.Set("cold_epochs", JsonValue::Uint(ctx.compact_cold_epochs));
    compaction.Set("fold_bits", JsonValue::Uint(ctx.compact_fold_bits));
  }
  compaction.Set("compacted_segments",
                 JsonValue::Uint(ctx.compacted_segments));
  report.Set("compaction", std::move(compaction));

  JsonValue durability = JsonValue::Object();
  durability.Set("enabled", JsonValue::Bool(ctx.durable));
  if (ctx.durable) {
    durability.Set("fsync_policy", JsonValue::String(ctx.fsync_policy));
    durability.Set("checkpoint_every", JsonValue::Uint(ctx.checkpoint_every));
    durability.Set("wal_appends", JsonValue::Uint(ctx.wal_appends));
    durability.Set("wal_bytes", JsonValue::Uint(ctx.wal_bytes));
    durability.Set("wal_fsyncs", JsonValue::Uint(ctx.wal_fsyncs));
    durability.Set("checkpoints", JsonValue::Uint(ctx.checkpoints));
    durability.Set("wal_txns_since_checkpoint",
                   JsonValue::Uint(ctx.wal_txns_since_checkpoint));
    durability.Set("wal_truncations_deferred",
                   JsonValue::Uint(ctx.wal_truncations_deferred));
    durability.Set("checkpoint_loaded", JsonValue::Bool(ctx.checkpoint_loaded));
    durability.Set("recovered_records", JsonValue::Uint(ctx.recovered_records));
    durability.Set("torn_tail_bytes", JsonValue::Uint(ctx.torn_tail_bytes));
    durability.Set("recovery_seconds", JsonValue::Double(ctx.recovery_seconds));
  }
  report.Set("durability", std::move(durability));

  if (ctx.replication.kind() == JsonValue::Kind::kObject) {
    report.Set("replication", ctx.replication);
  } else {
    JsonValue replication = JsonValue::Object();
    replication.Set("enabled", JsonValue::Bool(false));
    report.Set("replication", std::move(replication));
  }

  JsonValue metrics_json = obs::MetricsSectionJson(metrics.Snapshot());
  // Live values next to the watermark gauges: what the queue and the
  // accept loop look like right now, not their historical peaks.
  if (JsonValue* gauges = metrics_json.MutableAt("gauges")) {
    gauges->Set("queue_depth_now", JsonValue::Uint(ctx.pending_requests));
    gauges->Set("active_connections_now",
                JsonValue::Uint(ctx.open_connections));
  }
  // The fleet view, rendered identically by daemon and router so one
  // scraper covers both: a standalone daemon reports itself as a one-shard
  // fleet; the router reports real totals plus per-shard detail.
  JsonValue cluster = JsonValue::Object();
  cluster.Set("role", JsonValue::String(ctx.cluster_role));
  cluster.Set("shards_total", JsonValue::Uint(ctx.shards_total));
  cluster.Set("shards_up", JsonValue::Uint(ctx.shards_up));
  cluster.Set("pruned_shard_queries",
              JsonValue::Uint(metrics.counter(metrics.pruned_shard_queries)));
  cluster.Set("hedged_requests",
              JsonValue::Uint(metrics.counter(metrics.hedged_requests)));
  cluster.Set("degraded_responses",
              JsonValue::Uint(metrics.counter(metrics.degraded_responses)));
  cluster.Set("shard_errors",
              JsonValue::Uint(metrics.counter(metrics.shard_errors)));
  cluster.Set("failovers", JsonValue::Uint(metrics.counter(metrics.failovers)));
  // The fan-out latency histogram also lives under metrics.cluster; the
  // copy here keeps the fleet section self-contained for dashboards.
  if (const JsonValue* cluster_metrics = metrics_json.MutableAt("cluster");
      cluster_metrics != nullptr && cluster_metrics->Has("fanout_us")) {
    cluster.Set("fanout_us", cluster_metrics->at("fanout_us"));
  }
  if (ctx.cluster_shards.kind() == JsonValue::Kind::kArray) {
    cluster.Set("shards", ctx.cluster_shards);
  }
  report.Set("metrics", std::move(metrics_json));
  report.Set("cluster", std::move(cluster));

  report.Set("window", metrics.WindowSectionJson(ctx.window_now_us));
  return report;
}

}  // namespace bbsmine::service
