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
#include <cstring>
#include <iostream>
#include <map>
#include <optional>
#include <string>
#include <sys/stat.h>
#include <thread>

#include <memory>

#include "core/bbs_index.h"
#include "core/segmented_bbs.h"
#include "obs/json.h"
#include "obs/trace.h"
#include "service/durability.h"
#include "service/replication.h"
#include "service/server.h"
#include "storage/transaction_db.h"
#include "util/fault_injector.h"

using namespace bbsmine;

namespace {

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

/// Minimal flag parser: accepts `--flag value` and `--flag=value`;
/// bare flags map to "true". (Mirrors the bbsmine CLI parser.)
class Args {
 public:
  Args(int argc, char** argv, int first) {
    for (int i = first; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg.rfind("--", 0) != 0) {
        std::cerr << "unexpected argument: " << arg << "\n";
        std::exit(2);
      }
      std::string key = arg.substr(2);
      if (size_t eq = key.find('='); eq != std::string::npos) {
        values_[key.substr(0, eq)] = key.substr(eq + 1);
      } else if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
        values_[key] = argv[++i];
      } else {
        values_[key] = "true";
      }
    }
  }

  std::string GetString(const std::string& key,
                        const std::string& fallback = "") const {
    auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }

  uint64_t GetUint(const std::string& key, uint64_t fallback) const {
    auto it = values_.find(key);
    return it == values_.end() ? fallback : std::strtoull(it->second.c_str(),
                                                          nullptr, 10);
  }

  double GetDouble(const std::string& key, double fallback) const {
    auto it = values_.find(key);
    return it == values_.end() ? fallback
                               : std::strtod(it->second.c_str(), nullptr);
  }

 private:
  std::map<std::string, std::string> values_;
};

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

/// Parses "host:port" for --follow.
bool ParseHostPort(const std::string& spec, std::string* host,
                   uint16_t* port) {
  size_t colon = spec.rfind(':');
  if (colon == std::string::npos || colon == 0 ||
      colon + 1 >= spec.size()) {
    return false;
  }
  unsigned long parsed = std::strtoul(spec.c_str() + colon + 1, nullptr, 10);
  if (parsed == 0 || parsed > 65535) return false;
  *host = spec.substr(0, colon);
  *port = static_cast<uint16_t>(parsed);
  return true;
}

void Usage() {
  std::cerr <<
      "usage: bbsmined [--flag value | --flag=value ...]\n"
      "  --index PREFIX      saved index: a SegmentedBbs prefix (loads\n"
      "                      PREFIX.manifest) or a monolithic .bbs file\n"
      "                      (wrapped as one sealed segment)\n"
      "  --db FILE           transaction database; enables MINE and keeps\n"
      "                      INSERTed transactions for exact mining\n"
      "  --bits N            when no --index: create empty (default 1600)\n"
      "  --hashes N          when no --index: hashes per item (default 4)\n"
      "  --segment-capacity N  transactions per segment (default 4096)\n"
      "  --index-backend B   resident (default: heap slices, fully\n"
      "                      verified at load) or mmap (serve the v2\n"
      "                      aligned index in place: near-zero heap, pages\n"
      "                      faulted on demand; answers are bit-identical;\n"
      "                      incompatible with --durable-dir)\n"
      "  --compact-cold-epochs N  with --compact-fold-bits: after each\n"
      "                      INSERT, fold sealed segments untouched for N\n"
      "                      publication epochs (counts become upper\n"
      "                      bounds; default off)\n"
      "  --compact-fold-bits M  fold target width for cold segments\n"
      "  --host A.B.C.D      bind address (default 127.0.0.1)\n"
      "  --port N            TCP port; 0 = ephemeral (default 7071)\n"
      "  --threads N         threads per COUNT batch, the caller's included\n"
      "                      (0 = hw threads; 1 = no worker threads)\n"
      "  --max-pending N     admission-queue bound (default 1024)\n"
      "  --max-batch N       requests fused per batch (default 256)\n"
      "  --minsup F          default MINE minimum support (default 0.003)\n"
      "  --report-out FILE   write the service report on shutdown\n"
      "  --trace-out FILE    write a Chrome trace of sampled requests on\n"
      "                      shutdown (load in Perfetto)\n"
      "  --trace-sample N    trace 1-in-N requests (default 1 when\n"
      "                      --trace-out is set, else off)\n"
      "  --slow-log FILE     append one JSON line per slow request\n"
      "  --slow-query-us N   slow-query threshold, microseconds (default\n"
      "                      10000; 0 logs every request)\n"
      "  --flight-recorder-size N  per-connection flight-ring capacity in\n"
      "                      events (default 64; 0 disables DUMP)\n"
      "  --flight-out FILE   write the flight-recorder dump on shutdown\n"
      "                      and from the fault-injection crash path\n"
      "  --stats-window-s N  windowed-metrics rotation interval, seconds\n"
      "                      (default 10; 12 slots are retained)\n"
      "  --durable-dir DIR   crash-safe durability: WAL + checkpoints in\n"
      "                      DIR; recovers state from DIR on startup\n"
      "  --fsync POLICY      WAL fsync policy: always | none | every=N\n"
      "                      (default always)\n"
      "  --checkpoint-every N  auto-checkpoint after N inserted\n"
      "                      transactions; 0 = manual only (default 4096)\n"
      "  --follow HOST:PORT  run as a warm follower of that primary: tail\n"
      "                      its WAL over WALSTREAM, apply locally, reject\n"
      "                      INSERT until PROMOTE (requires --durable-dir)\n"
      "  --repl-ack          semi-sync: withhold INSERT acks until the\n"
      "                      follower has the record (requires\n"
      "                      --durable-dir; see docs/CLUSTER.md)\n"
      "  --repl-ack-timeout-ms N  semi-sync ack wait before degrading the\n"
      "                      response to replicated=false (default 1000)\n";
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && (std::strcmp(argv[1], "--help") == 0 ||
                   std::strcmp(argv[1], "-h") == 0)) {
    Usage();
    return 0;
  }
  Args args(argc, argv, 1);

  uint64_t segment_capacity = args.GetUint("segment-capacity", 4096);
  if (segment_capacity == 0) {
    std::cerr << "bbsmined: --segment-capacity must be positive\n";
    return 2;
  }

  auto backend_flag =
      ParseIndexBackend(args.GetString("index-backend", "resident"));
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
      config.num_bits = static_cast<uint32_t>(args.GetUint("bits", 1600));
      config.num_hashes = static_cast<uint32_t>(args.GetUint("hashes", 4));
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
    durable_options.checkpoint_every = args.GetUint("checkpoint-every", 4096);
    if (Status parsed = service::ParseFsyncSpec(
            args.GetString("fsync", "always"), &durable_options.wal);
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

    SegmentedBbs recovered = durability->TakeRecoveredIndex();
    auto manager = service::SnapshotManager::FromIndex(recovered);
    if (!manager.ok()) Die(manager.status());
    index.emplace(std::move(*manager));
  } else if (!index_arg.empty()) {
    if (FileExists(index_arg + ".manifest")) {
      auto segmented = SegmentedBbs::Load(index_arg, nullptr, backend);
      if (!segmented.ok()) Die(segmented.status());
      auto manager = service::SnapshotManager::FromIndex(*segmented);
      if (!manager.ok()) Die(manager.status());
      index.emplace(std::move(*manager));
    } else {
      auto monolithic = backend == IndexBackend::kMmap
                            ? BbsIndex::OpenMmap(index_arg)
                            : BbsIndex::Load(index_arg);
      if (!monolithic.ok()) Die(monolithic.status());
      auto manager =
          service::SnapshotManager::FromIndex(*monolithic, segment_capacity);
      if (!manager.ok()) Die(manager.status());
      index.emplace(std::move(*manager));
    }
  } else {
    BbsConfig config;
    config.num_bits = static_cast<uint32_t>(args.GetUint("bits", 1600));
    config.num_hashes = static_cast<uint32_t>(args.GetUint("hashes", 4));
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
  uint64_t trace_sample =
      args.GetUint("trace-sample", trace_out.empty() ? 0 : 1);
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
  const uint64_t flight_size = args.GetUint("flight-recorder-size", 64);
  std::unique_ptr<service::FlightRecorder> flight_recorder;
  if (flight_size > 0) {
    flight_recorder = std::make_unique<service::FlightRecorder>(flight_size);
  }
  const std::string flight_out = args.GetString("flight-out");
  const uint64_t stats_window_s = args.GetUint("stats-window-s", 10);
  if (stats_window_s == 0) {
    std::cerr << "bbsmined: --stats-window-s must be positive\n";
    return 2;
  }

  // Replication wiring (docs/CLUSTER.md): a durable daemon is a primary
  // (serves WALSTREAM); --follow makes it a warm follower instead. Both
  // need the durable directory — the stream's positions are WAL positions.
  const std::string follow_arg = args.GetString("follow");
  const bool repl_ack = args.GetString("repl-ack") == "true";
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
    service::ReplicationFollowerOptions follow_options;
    if (!ParseHostPort(follow_arg, &follow_options.host,
                       &follow_options.port)) {
      std::cerr << "bbsmined: --follow expects HOST:PORT, got \""
                << follow_arg << "\"\n";
      return 2;
    }
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
  options.scheduler.num_threads = args.GetUint("threads", 0);
  options.scheduler.max_pending = args.GetUint("max-pending", 1024);
  options.scheduler.max_batch = args.GetUint("max-batch", 256);
  options.default_min_support = args.GetDouble("minsup", 0.003);
  options.durability = durability.get();
  options.index_backend = backend;
  options.tracer = tracer.get();
  options.trace_sample = trace_sample;
  options.slow_log = slow_log.get();
  options.slow_query_us = args.GetUint("slow-query-us", 10000);
  options.flight_recorder = flight_recorder.get();
  options.stats_windows.interval_us = stats_window_s * 1'000'000;
  options.compaction.cold_epochs = args.GetUint("compact-cold-epochs", 0);
  options.compaction.fold_bits =
      static_cast<uint32_t>(args.GetUint("compact-fold-bits", 0));
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
      static_cast<int>(args.GetUint("repl-ack-timeout-ms", 1000));
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

  const uint64_t port = args.GetUint("port", 7071);
  if (port > 65535) {
    std::cerr << "bbsmined: --port must be in [0, 65535], got " << port
              << "\n";
    return 2;
  }
  service::SocketServerOptions server_options;
  server_options.host = args.GetString("host", "127.0.0.1");
  server_options.port = static_cast<uint16_t>(port);
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
