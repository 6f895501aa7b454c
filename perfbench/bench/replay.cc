// Per-layer replays: the benchmark calls each module's public function
// directly on the run's own inputs and times every call. A layer's self time
// is its median minus the median of the layer below it on the same stream.

#include <algorithm>
#include <cstdio>

#include "baseline/eclat.h"
#include "bench.h"
#include "cluster/bloofi_tree.h"
#include "core/segmented_bbs.h"
#include "service/scheduler.h"
#include "service/server.h"
#include "service/snapshot.h"
#include "service/wal.h"
#include "util/bitvector_kernels.h"

namespace perfbench {

namespace obs = bbsmine::obs;
using bbsmine::BbsIndex;
using bbsmine::SegmentedBbs;

namespace {

// INSERTs replayed into SnapshotManager and the WAL.
constexpr size_t kReplayWrites = 500;

// Calls fn(i) for i in [0, n) in batches of `batch` calls; records one span
// per batch under one span for the whole layer, and returns the median time
// per call in microseconds.
template <typename Fn>
double TimeCalls(obs::Tracer* tracer, const char* layer, const char* call,
                 size_t n, size_t batch, Fn fn) {
  std::vector<double> per_call_us;
  const double layer_start = tracer ? tracer->NowMicros() : 0;
  for (size_t i = 0; i < n; i += batch) {
    const size_t end = std::min(n, i + batch);
    const double span_start = tracer ? tracer->NowMicros() : 0;
    const auto start = Clock::now();
    for (size_t j = i; j < end; ++j) fn(j);
    const double us = SecondsSince(start) * 1e6;
    per_call_us.push_back(us / (end - i));
    if (tracer) tracer->AddComplete(obs::kTracePhase, call, span_start, us);
  }
  if (tracer) {
    tracer->AddComplete(obs::kTracePhase, layer, layer_start,
                        tracer->NowMicros() - layer_start);
  }
  return Median(per_call_us);
}

SegmentedBbs BuildSegmented(const WorkloadSpec& spec,
                            const TransactionDatabase& db) {
  SegmentedBbs index =
      *SegmentedBbs::Create(IndexConfig(spec), spec.segment_capacity);
  if (Status st = index.InsertAll(db); !st.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", st.ToString().c_str());
    std::exit(1);
  }
  return index;
}

// The routing signature a shard reports in SHARDINFO: bit p set iff slice
// p is non-empty in some segment.
bbsmine::BitVector ShardSignature(const SegmentedBbs& shard) {
  bbsmine::BitVector signature(shard.config().num_bits);
  for (size_t s = 0; s < shard.num_segments(); ++s) {
    for (uint32_t p = 0; p < shard.config().num_bits; ++p) {
      if (shard.segment(s).SlicePopcount(p) > 0) signature.Set(p);
    }
  }
  return signature;
}

// The router's Bloofi tree over the shards `bbsmine split` wrote, queried
// with the run's COUNT itemsets.
double ReplayBloofi(const RunOptions& o, const std::vector<Itemset>& queries,
                    Report* report, obs::Tracer* tracer) {
  const WorkloadSpec& spec = *o.spec;
  std::vector<bbsmine::BitVector> leaves;
  for (int s = 0; s < spec.shards; ++s) {
    Result<TransactionDatabase> part = TransactionDatabase::Load(
        o.work_dir + "/shard." + std::to_string(s) + ".db");
    if (!part.ok()) {
      report->FailedOp("Bloofi replay: " + part.status().ToString());
      return 0;
    }
    leaves.push_back(ShardSignature(BuildSegmented(spec, *part)));
  }
  const bbsmine::cluster::BloofiTree tree =
      bbsmine::cluster::BloofiTree::Build(std::move(leaves));
  const BbsIndex hasher = *BbsIndex::Create(IndexConfig(spec));
  std::vector<std::vector<uint32_t>> positions;
  for (const Itemset& items : queries) {
    std::vector<uint32_t> all, one;
    for (auto item : items) {
      hasher.ItemPositions(item, &one);
      all.insert(all.end(), one.begin(), one.end());
    }
    std::sort(all.begin(), all.end());
    all.erase(std::unique(all.begin(), all.end()), all.end());
    positions.push_back(std::move(all));
  }
  volatile size_t matched = 0;
  return TimeCalls(
      tracer, "replay.cluster.bloofi", "BloofiTree::Query", positions.size(),
      64,
      [&](size_t i) { matched = matched + tree.Query(positions[i]).size(); });
}

}  // namespace

double ReplayFold(const BbsIndex& index, uint64_t budget_bytes,
                  obs::Tracer* tracer) {
  // The width the adaptive miner folds to: 3/4 of the budget in slices.
  const uint32_t bits = static_cast<uint32_t>(std::clamp<uint64_t>(
      budget_bytes * 3 / 4 / std::max<uint64_t>(1, index.SliceBytes()), 16,
      index.num_bits()));
  return TimeCalls(tracer, "replay.core.fold", "BbsIndex::Fold", 5, 1,
                   [&](size_t) { (void)index.Fold(bits); }) /
         1e3;
}

void ReplayLayers(const RunOptions& o, const Inputs& inputs,
                  const std::vector<Itemset>& queries,
                  const std::vector<Itemset>& inserts, Report* report,
                  obs::Tracer* tracer) {
  const WorkloadSpec& spec = *o.spec;
  const bool serving = spec.count_connections > 0;
  auto& v = report->values;
  const TransactionDatabase& db = inputs.base;

  BbsIndex index = *BbsIndex::Create(IndexConfig(spec));
  index.InsertAll(db);
  const size_t n = queries.size();

  // util: the fused AND+popcount kernel over slice-length operands.
  {
    constexpr size_t kOperands = 8;
    std::vector<const uint64_t*> srcs;
    for (size_t k = 0; k < kOperands; ++k) {
      srcs.push_back(index.Slice(static_cast<uint32_t>(
                                     (k * 197) % index.num_bits()))
                         .words);
    }
    const size_t words = (db.size() + 63) / 64;
    std::vector<uint64_t> dst(words);
    volatile uint64_t sink = 0;
    const double us = TimeCalls(
        tracer, "replay.util.and_many_count", "and_many_count", 2000, 1,
        [&](size_t) {
          sink = sink + bbsmine::kernels::Active().and_many_count(
                            dst.data(), srcs.data(), kOperands, words);
        });
    v["util.and_many_count_gib_s"] =
        kOperands * words * 8 / (us * 1e-6) / (1024.0 * 1024 * 1024);
  }

  // The COUNT chain, bottom up. mine_offline's exact COUNT filters with the
  // monolithic index alone; the daemons count through all of it.
  const double index_us =
      TimeCalls(tracer, "replay.core.index_count", "BbsIndex::CountItemSet",
                n, 1, [&](size_t i) { index.CountItemSet(queries[i]); });
  v["core.index_count_us"] = index_us;
  if (!serving) return;

  const SegmentedBbs segmented = BuildSegmented(spec, db);
  uint64_t words = 0;
  const double segmented_us = TimeCalls(
      tracer, "replay.core.segmented_count", "SegmentedBbs::CountItemSet", n,
      1, [&](size_t i) {
        bbsmine::IoStats io;
        segmented.CountItemSet(queries[i], &io);
        words += io.slice_words_touched;
      });
  using bbsmine::service::SnapshotManager;
  SnapshotManager snapshots =
      std::move(SnapshotManager::FromIndex(segmented)).value();
  double scheduler_us = 0;
  {
    bbsmine::service::SchedulerOptions options;
    options.num_threads = spec.daemon_threads;
    bbsmine::service::CountScheduler scheduler(&snapshots, options, nullptr);
    scheduler_us = TimeCalls(
        tracer, "replay.service.scheduler_count", "CountScheduler::Count", n,
        1, [&](size_t i) {
          bbsmine::service::CountResult out;
          (void)scheduler.Count(queries[i], &out);
        });
  }
  double handle_us = 0;
  {
    bbsmine::service::ServiceOptions options;
    options.scheduler.num_threads = spec.daemon_threads;
    bbsmine::service::BbsService service(&snapshots, nullptr, options);
    std::vector<obs::JsonValue> requests;
    for (const Itemset& items : queries) {
      requests.push_back(CountRequest(items));
    }
    handle_us = TimeCalls(tracer, "replay.service.handle_count",
                          "BbsService::Handle", n, 1,
                          [&](size_t i) { service.Handle(requests[i]); });
  }
  v["core.segmented_count_us"] = segmented_us;
  v["core.slice_words_per_count"] = n > 0 ? static_cast<double>(words) / n : 0;
  v["service.scheduler_count_us"] = scheduler_us;
  v["service.handle_count_us"] = handle_us;
  v["core.segmented_self_us"] = segmented_us - index_us;
  v["service.scheduler_self_us"] = scheduler_us - segmented_us;
  v["service.handle_self_us"] = handle_us - scheduler_us;
  const double daemon_us = v["service.count_p50_us"];
  v["service.daemon_self_us"] = daemon_us - handle_us;
  v["trace.count_layers_ordered"] =
      index_us <= segmented_us && segmented_us <= scheduler_us &&
              scheduler_us <= daemon_us &&
              daemon_us <= v["client.count_p50_us"]
          ? 1
          : 0;

  if (spec.shards > 0) {
    v["cluster.bloofi_query_us"] = ReplayBloofi(o, queries, report, tracer);
    return;
  }

  // serve_rw: the write path on its own INSERT stream, and the daemon's
  // miner at its MINE minimum support.
  const std::vector<Itemset> writes(
      inserts.begin(),
      inserts.begin() + std::min(kReplayWrites, inserts.size()));
  const size_t m = writes.size();
  SnapshotManager writer =
      std::move(SnapshotManager::FromIndex(segmented)).value();
  v["service.snapshot_insert_us"] = TimeCalls(
      tracer, "replay.service.snapshot_insert", "SnapshotManager::Insert", m,
      1, [&](size_t i) { (void)writer.Insert(writes[i]); });
  bbsmine::service::WalOptions wal_options;
  wal_options.policy = bbsmine::service::FsyncPolicy::kNone;
  auto wal = bbsmine::service::WriteAheadLog::Create(
      o.work_dir + "/replay.wal", db.size(), wal_options);
  if (wal.ok()) {
    v["service.wal_append_us"] = TimeCalls(
        tracer, "replay.service.wal_append", "WriteAheadLog::Append+Sync", m,
        1, [&](size_t i) {
          (void)wal->Append({writes[i]});
          (void)wal->Sync();
        });
  } else {
    report->FailedOp("WAL replay: " + wal.status().ToString());
  }
  bbsmine::EclatConfig eclat;
  eclat.min_support = spec.mine_minsup;
  v["baseline.eclat_ms"] =
      TimeCalls(tracer, "replay.baseline.eclat", "MineEclat", 3, 1,
                [&](size_t) { bbsmine::MineEclat(db, eclat); }) /
      1e3;
}

void WriteTrace(const RunOptions& o, const obs::Tracer& tracer,
                Report* report) {
  if (Status written = tracer.WriteJson(o.trace_path); !written.ok()) {
    std::fprintf(stderr, "perfbench: trace not written: %s\n",
                 written.ToString().c_str());
    return;
  }
  report->stamp.Set("trace_file", obs::JsonValue::String(o.trace_path));
  report->stamp.Set("trace_events",
                    obs::JsonValue::Uint(tracer.event_count()));
}

}  // namespace perfbench
