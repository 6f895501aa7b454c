// bbsmined — the BBS query daemon.
//
// Serves COUNT / MINE / INSERT / STATS / PING over length-prefixed JSON
// frames (docs/SERVICE.md is the protocol spec). Counting queries run
// against lock-free snapshots of a segmented index (snapshot-isolated from
// inserts), are batched by the scheduler, and are answered bit-identically
// to a direct SegmentedBbs::CountItemSet over the same prefix — which is
// what the CI smoke test checks against the `bbsmine count` oracle.
//
// Examples:
//   bbsmined --index data.seg --db data.db --port 7071
//   bbsmined --bits 1600 --hashes 4 --segment-capacity 4096 --port 0
//
// SIGTERM / SIGINT drain gracefully: stop accepting, finish in-flight
// requests, write the service report (--report-out), exit 0.

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <optional>
#include <string>
#include <sys/stat.h>
#include <thread>

#include <memory>

#include "cluster/shard_map.h"
#include "core/bbs_index.h"
#include "core/segmented_bbs.h"
#include "obs/json.h"
#include "obs/trace.h"
#include "service/durability.h"
#include "service/replication.h"
#include "service/server.h"
#include "storage/transaction_db.h"
#include "util/fault_injector.h"
#include "util/flags.h"

using namespace bbsmine;

namespace {

using enum FlagType;

std::atomic<bool> g_stop{false};

void HandleSignal(int) { g_stop.store(true, std::memory_order_release); }

// Crash-hook plumbing: the fault-injection crash path (_Exit(137) at an
// armed boundary) dumps the flight recorder first, so post-mortem
// artifacts exist for exactly the runs that die mid-write. Plain stdio on
// purpose — the injected-fault file_io layer is what just "failed".
service::FlightRecorder* g_crash_recorder = nullptr;
service::BbsService* g_crash_service = nullptr;
std::string g_crash_flight_path;

void CrashDumpHook() {
  if (g_crash_recorder == nullptr || g_crash_flight_path.empty()) return;
  uint64_t now_rel_us =
      g_crash_service != nullptr ? g_crash_service->NowRelMicros() : 0;
  std::string text =
      g_crash_recorder->DumpJsonForCrash(now_rel_us).Serialize();
  if (std::FILE* out = std::fopen(g_crash_flight_path.c_str(), "wb")) {
    std::fwrite(text.data(), 1, text.size(), out);
    std::fclose(out);
  }
}

[[noreturn]] void Die(const Status& status) {
  std::cerr << "bbsmined: " << status.ToString() << "\n";
  std::exit(1);
}

bool FileExists(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0;
}

/// The persisted fencing term (DIR/term), or 1 when the file is absent or
/// unreadable (a fresh node starts at term 1).
uint64_t LoadTermFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) return 1;
  unsigned long long term = 1;
  if (std::fscanf(f, "%llu", &term) != 1 || term == 0) term = 1;
  std::fclose(f);
  return term;
}

const FlagSpec kFlags[] = {
    {"index", kString, "", "saved index: SegmentedBbs prefix or .bbs file"},
    {"db", kString, "", "transaction database; enables MINE"},
    {"bits", kUint, "1600", "bits when no --index (empty index)",
     0, kUint32FlagMax},
    {"hashes", kUint, "4", "hashes when no --index", 0, kUint32FlagMax},
    {"segment-capacity", kUint, "4096", "transactions per segment",
     1, kUint32FlagMax},
    {"index-backend", kString, "resident",
     "resident | mmap (v2 index served in place; not with --durable-dir)"},
    {"compact-cold-epochs", kUint, "0",
     "fold sealed segments idle this many epochs (0 = off)"},
    {"compact-fold-bits", kUint, "0", "fold width for cold segments",
     0, kUint32FlagMax},
    {"host", kString, "127.0.0.1", "bind address"},
    {"port", kUint, "7071", "TCP port; 0 = ephemeral", 0, kPortFlagMax},
    {"threads", kUint, "0", "threads per COUNT batch (0 = hw threads)",
     0, kThreadsFlagMax},
    {"max-pending", kUint, "1024", "admission-queue bound"},
    {"max-batch", kUint, "256", "requests fused per batch"},
    {"minsup", kDouble, "0.003", "default MINE minimum support", 0, 1},
    {"report-out", kString, "", "write the service report on shutdown"},
    {"trace-out", kString, "", "write a Chrome trace on shutdown"},
    {"trace-sample", kUint, "1", "with --trace-out, trace 1-in-N requests"},
    {"slow-log", kString, "", "append one JSON line per slow request"},
    {"slow-query-us", kUint, "10000", "slow-query threshold (0 = log all)"},
    {"flight-recorder-size", kUint, "64",
     "flight-ring events per connection (0 disables DUMP)"},
    {"flight-out", kString, "", "write the flight dump on shutdown/crash"},
    {"stats-window-s", kUint, "10", "windowed-metrics interval, seconds", 1},
    {"durable-dir", kString, "", "WAL + checkpoints here; recover on start"},
    {"fsync", kString, "always", "WAL fsync: always | none | every=N"},
    {"checkpoint-every", kUint, "4096",
     "auto-checkpoint after N inserts (0 = manual)"},
    {"follow", kString, "",
     "HOST:PORT of a primary to follow (needs --durable-dir)"},
    {"repl-ack", kBool, "",
     "semi-sync INSERT acks (needs --durable-dir)"},
    {"repl-ack-timeout-ms", kUint, "1000",
     "semi-sync ack wait before replicated=false", 0, kIntFlagMax},
};

}  // namespace

int main(int argc, char** argv) {
  const Flags args = ParseFlagsOrExit(
      "bbsmined", "usage: bbsmined [--flag value | --flag=value ...]", kFlags,
      argc, argv, 1);

  const uint64_t segment_capacity = args.GetUint("segment-capacity");

  auto backend_flag =
      ParseIndexBackend(args.GetString("index-backend"));
  if (!backend_flag.ok()) {
    std::cerr << "bbsmined: " << backend_flag.status().ToString() << "\n";
    return 2;
  }
  const IndexBackend backend = *backend_flag;

  // Assemble the snapshot manager from the requested source.
  std::optional<service::SnapshotManager> index;
  std::optional<TransactionDatabase> db;
  std::unique_ptr<service::DurabilityManager> durability;
  std::string index_arg = args.GetString("index");
  std::string durable_dir = args.GetString("durable-dir");

  if (backend == IndexBackend::kMmap && index_arg.empty()) {
    // An empty index has no file to map; the flag would silently serve a
    // heap-backed index while STATS claims mmap.
    std::cerr << "bbsmined: --index-backend=mmap requires --index\n";
    return 2;
  }

  if (!durable_dir.empty()) {
    if (backend == IndexBackend::kMmap) {
      // Checkpoints rewrite the segment files the mappings would be backed
      // by, so durable mode pins the resident backend.
      std::cerr << "bbsmined: --index-backend=mmap is incompatible with "
                   "--durable-dir (checkpoints rewrite the mapped files); "
                   "use the resident backend\n";
      return 2;
    }
    // Durable mode: the durable directory is the source of truth; --index
    // and --db only seed the very first start (before any checkpoint/WAL
    // exists there).
    std::optional<SegmentedBbs> bootstrap;
    if (!index_arg.empty()) {
      if (!FileExists(index_arg + ".manifest")) {
        std::cerr << "bbsmined: with --durable-dir, --index must be a "
                     "SegmentedBbs prefix (monolithic .bbs files are not "
                     "supported)\n";
        return 2;
      }
      auto segmented = SegmentedBbs::Load(index_arg);
      if (!segmented.ok()) Die(segmented.status());
      bootstrap.emplace(std::move(*segmented));
    } else {
      BbsConfig config;
      config.num_bits = static_cast<uint32_t>(args.GetUint("bits"));
      config.num_hashes = static_cast<uint32_t>(args.GetUint("hashes"));
      auto empty = SegmentedBbs::Create(config, segment_capacity);
      if (!empty.ok()) Die(empty.status());
      bootstrap.emplace(std::move(*empty));
    }
    if (std::string path = args.GetString("db"); !path.empty()) {
      if (FileExists(path)) {
        auto loaded = TransactionDatabase::Load(path);
        if (!loaded.ok()) Die(loaded.status());
        db.emplace(std::move(*loaded));
      } else {
        // The durable directory owns the database from here on; an absent
        // seed file just means "enable MINE, start empty".
        db.emplace();
      }
    }

    service::DurabilityOptions durable_options;
    durable_options.dir = durable_dir;
    durable_options.checkpoint_every = args.GetUint("checkpoint-every");
    if (Status parsed = service::ParseFsyncSpec(
            args.GetString("fsync"), &durable_options.wal);
        !parsed.ok()) {
      std::cerr << "bbsmined: " << parsed.ToString() << "\n";
      return 2;
    }
    auto opened = service::DurabilityManager::Open(
        durable_options, std::move(*bootstrap), db ? &*db : nullptr);
    if (!opened.ok()) Die(opened.status());
    durability = std::move(*opened);

    const auto& recovery = durability->recovery();
    std::printf(
        "bbsmined recovery: checkpoint=%s epoch=%llu base=%llu "
        "wal_records=%llu replayed_txns=%llu torn_tail_bytes=%llu "
        "(%.3f s)\n",
        recovery.checkpoint_loaded ? "loaded" : "none",
        static_cast<unsigned long long>(recovery.checkpoint_epoch),
        static_cast<unsigned long long>(recovery.checkpoint_transactions),
        static_cast<unsigned long long>(recovery.wal_records_scanned),
        static_cast<unsigned long long>(recovery.recovered_records),
        static_cast<unsigned long long>(recovery.torn_tail_bytes),
        recovery.recovery_seconds);

    auto manager =
        service::SnapshotManager::FromIndex(durability->TakeRecoveredIndex());
    if (!manager.ok()) Die(manager.status());
    index.emplace(std::move(*manager));
  } else if (!index_arg.empty()) {
    if (FileExists(index_arg + ".manifest")) {
      auto segmented = SegmentedBbs::Load(index_arg, nullptr, backend);
      if (!segmented.ok()) Die(segmented.status());
      auto manager = service::SnapshotManager::FromIndex(std::move(*segmented));
      if (!manager.ok()) Die(manager.status());
      index.emplace(std::move(*manager));
    } else {
      auto monolithic = backend == IndexBackend::kMmap
                            ? BbsIndex::OpenMmap(index_arg)
                            : BbsIndex::Load(index_arg);
      if (!monolithic.ok()) Die(monolithic.status());
      auto manager = service::SnapshotManager::FromIndex(
          std::move(*monolithic), segment_capacity);
      if (!manager.ok()) Die(manager.status());
      index.emplace(std::move(*manager));
    }
  } else {
    BbsConfig config;
    config.num_bits = static_cast<uint32_t>(args.GetUint("bits"));
    config.num_hashes = static_cast<uint32_t>(args.GetUint("hashes"));
    auto manager = service::SnapshotManager::Create(config, segment_capacity);
    if (!manager.ok()) Die(manager.status());
    index.emplace(std::move(*manager));
  }

  if (durable_dir.empty()) {
    if (std::string path = args.GetString("db"); !path.empty()) {
      auto loaded = TransactionDatabase::Load(path);
      if (!loaded.ok()) Die(loaded.status());
      db.emplace(std::move(*loaded));
      if (db->size() != index->num_transactions()) {
        std::cerr << "bbsmined: index/database mismatch: "
                  << index->num_transactions() << " vs " << db->size()
                  << " transactions\n";
        return 1;
      }
    }
  }

  // Observability plane: tracer, slow-query log, flight recorder, window
  // shape. All off (or passive) unless their flags are given.
  const std::string trace_out = args.GetString("trace-out");
  const uint64_t trace_sample = args.GetUint("trace-sample");
  std::unique_ptr<obs::Tracer> tracer;
  if (!trace_out.empty() && trace_sample > 0) {
    tracer = std::make_unique<obs::Tracer>(obs::kTraceService);
  }
  std::unique_ptr<service::SlowQueryLog> slow_log;
  if (std::string path = args.GetString("slow-log"); !path.empty()) {
    auto opened = service::SlowQueryLog::Open(path);
    if (!opened.ok()) Die(opened.status());
    slow_log = std::move(*opened);
  }
  const uint64_t flight_size = args.GetUint("flight-recorder-size");
  std::unique_ptr<service::FlightRecorder> flight_recorder;
  if (flight_size > 0) {
    flight_recorder = std::make_unique<service::FlightRecorder>(flight_size);
  }
  const std::string flight_out = args.GetString("flight-out");
  const uint64_t stats_window_s = args.GetUint("stats-window-s");

  // Replication wiring (docs/CLUSTER.md): a durable daemon is a primary
  // (serves WALSTREAM); --follow makes it a warm follower instead. Both
  // need the durable directory — the stream's positions are WAL positions.
  const std::string follow_arg = args.GetString("follow");
  const bool repl_ack = args.GetBool("repl-ack");
  if ((!follow_arg.empty() || repl_ack) && durable_dir.empty()) {
    std::cerr << "bbsmined: --follow and --repl-ack require --durable-dir\n";
    return 2;
  }
  std::unique_ptr<service::ReplicationSource> replication;
  std::unique_ptr<service::ReplicationFollower> follower;
  service::BbsService* follower_target = nullptr;  // set once built
  if (durability != nullptr) {
    service::ReplicationSourceOptions source_options;
    replication = std::make_unique<service::ReplicationSource>(
        durability.get(),
        [&index] {
          return static_cast<uint64_t>(index->num_transactions());
        },
        source_options);
  }
  if (!follow_arg.empty()) {
    Result<cluster::ShardEndpoint> primary =
        cluster::ParseEndpoint(follow_arg);
    if (!primary.ok()) {
      std::cerr << "bbsmined: --follow: " << primary.status().message()
                << "\n";
      return 2;
    }
    service::ReplicationFollowerOptions follow_options;
    follow_options.host = primary->host;
    follow_options.port = primary->port;
    follower = std::make_unique<service::ReplicationFollower>(
        follow_options,
        [&index] {
          return static_cast<uint64_t>(index->num_transactions());
        },
        [&follower_target](
            const std::vector<std::vector<Itemset>>& batches) {
          return follower_target->ApplyReplicated(batches);
        });
  }

  service::ServiceOptions options;
  options.scheduler.num_threads = args.GetUint("threads");
  options.scheduler.max_pending = args.GetUint("max-pending");
  options.scheduler.max_batch = args.GetUint("max-batch");
  options.default_min_support = args.GetDouble("minsup");
  options.durability = durability.get();
  options.index_backend = backend;
  options.tracer = tracer.get();
  options.trace_sample = trace_sample;
  options.slow_log = slow_log.get();
  options.slow_query_us = args.GetUint("slow-query-us");
  options.flight_recorder = flight_recorder.get();
  options.stats_windows.interval_us = stats_window_s * 1'000'000;
  options.compaction.cold_epochs = args.GetUint("compact-cold-epochs");
  options.compaction.fold_bits =
      static_cast<uint32_t>(args.GetUint("compact-fold-bits"));
  if (options.compaction.cold_epochs != 0 ||
      options.compaction.fold_bits != 0) {
    if (!options.compaction.enabled()) {
      std::cerr << "bbsmined: --compact-cold-epochs and --compact-fold-bits "
                   "must be set together (both positive)\n";
      return 2;
    }
  }
  options.replication = replication.get();
  options.follower = follower.get();
  options.repl_ack = repl_ack;
  options.repl_ack_timeout_ms =
      static_cast<int>(args.GetUint("repl-ack-timeout-ms"));
  if (!durable_dir.empty()) {
    options.term_file = durable_dir + "/term";
    options.term = LoadTermFile(options.term_file);
  }
  options.role = follower != nullptr ? service::ServiceRole::kFollower
                 : durability != nullptr ? service::ServiceRole::kPrimary
                                         : service::ServiceRole::kStandalone;
  options.on_promote = [&follower] {
    if (follower != nullptr) follower->Stop();
  };
  service::BbsService bbs_service(&*index, db ? &*db : nullptr, options);
  follower_target = &bbs_service;
  if (follower != nullptr) follower->Start();

  if (flight_recorder != nullptr && !flight_out.empty()) {
    g_crash_recorder = flight_recorder.get();
    g_crash_service = &bbs_service;
    g_crash_flight_path = flight_out;
    FaultInjector::SetCrashHook(CrashDumpHook);
  }

  service::SocketServerOptions server_options;
  server_options.host = args.GetString("host");
  server_options.port = static_cast<uint16_t>(args.GetUint("port"));
  service::SocketServer server(&bbs_service, server_options);
  if (Status started = server.Start(); !started.ok()) Die(started);

  std::signal(SIGTERM, HandleSignal);
  std::signal(SIGINT, HandleSignal);

  // The smoke script parses this line to learn the ephemeral port.
  std::printf("bbsmined listening on %s:%u (%zu transactions, epoch %llu)\n",
              server_options.host.c_str(), server.port(),
              index->num_transactions(),
              static_cast<unsigned long long>(index->epoch()));
  if (options.role != service::ServiceRole::kStandalone) {
    std::printf("bbsmined role %s term %llu%s%s\n",
                service::ServiceRoleName(options.role),
                static_cast<unsigned long long>(options.term),
                follower != nullptr ? " following " : "",
                follower != nullptr ? follow_arg.c_str() : "");
  }
  std::fflush(stdout);

  while (!g_stop.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }

  std::printf("bbsmined draining...\n");
  std::fflush(stdout);
  // Stop the replication tail before the final checkpoint so no stream
  // apply races it.
  if (follower != nullptr) follower->Stop();
  server.Stop();
  bbs_service.Drain();
  if (durability != nullptr) {
    // A final checkpoint makes the next startup instant (empty WAL). Its
    // failure costs nothing but recovery time — the WAL still covers
    // everything — so sync it and carry on.
    Status final_checkpoint =
        durability->Checkpoint(index->Acquire(), db ? &*db : nullptr);
    if (!final_checkpoint.ok()) {
      std::cerr << "bbsmined: final checkpoint failed: "
                << final_checkpoint.ToString() << "\n";
      if (Status synced = durability->SyncWal(); !synced.ok()) {
        std::cerr << "bbsmined: final WAL sync failed: " << synced.ToString()
                  << "\n";
      }
    } else {
      std::printf("bbsmined checkpointed %zu transactions\n",
                  index->num_transactions());
    }
  }
  if (std::string path = args.GetString("report-out"); !path.empty()) {
    obs::JsonValue report = bbs_service.BuildStatsReport();
    if (Status written = obs::WriteJsonFile(report, path); !written.ok()) {
      std::cerr << "bbsmined: cannot write report: " << written.ToString()
                << "\n";
      return 1;
    }
    std::printf("bbsmined wrote service report to %s\n", path.c_str());
  }
  if (flight_recorder != nullptr && !flight_out.empty()) {
    obs::JsonValue dump =
        flight_recorder->DumpJson(bbs_service.NowRelMicros());
    if (Status written = obs::WriteJsonFile(dump, flight_out);
        !written.ok()) {
      std::cerr << "bbsmined: cannot write flight dump: "
                << written.ToString() << "\n";
      return 1;
    }
    std::printf("bbsmined wrote flight-recorder dump to %s\n",
                flight_out.c_str());
  }
  if (tracer != nullptr && !trace_out.empty()) {
    if (Status written = tracer->WriteJson(trace_out); !written.ok()) {
      std::cerr << "bbsmined: cannot write trace: " << written.ToString()
                << "\n";
      return 1;
    }
    std::printf("bbsmined wrote trace (%zu events) to %s\n",
                tracer->event_count(), trace_out.c_str());
  }
  std::printf("bbsmined exited cleanly (epoch %llu, %zu transactions)\n",
              static_cast<unsigned long long>(index->epoch()),
              index->num_transactions());
  return 0;
}
