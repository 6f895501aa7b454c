// bbsrouter — the sharded-cluster front door.
//
// Fronts N bbsmined shards (a transaction-range partition of one logical
// database) behind the same wire protocol the daemon speaks, so unmodified
// clients (`bbsmine client`, bbsbench) talk to the fleet exactly as they
// talk to one daemon. COUNT fans out to the shards the Bloofi-style
// routing tree cannot rule out and sums in shard order; MINE runs the
// two-round global-τ candidate exchange; both are bit-identical to a
// single node over the concatenated database (docs/CLUSTER.md).
//
// Examples:
//   bbsrouter --shards 127.0.0.1:7071,127.0.0.1:7072 --port 7070
//   bbsrouter --shard-map cluster.shards --port 0 --hedge-ms 50
//
// SIGTERM / SIGINT drain gracefully: stop accepting, finish in-flight
// requests, write the service report (--report-out), exit 0.

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <iostream>
#include <string>
#include <thread>

#include "cluster/router.h"
#include "cluster/shard_map.h"
#include "obs/json.h"
#include "service/server.h"
#include "util/flags.h"

using namespace bbsmine;

namespace {

using enum FlagType;

std::atomic<bool> g_stop{false};

void HandleSignal(int) { g_stop.store(true, std::memory_order_release); }

[[noreturn]] void Die(const Status& status) {
  std::cerr << "bbsrouter: " << status.ToString() << "\n";
  std::exit(1);
}

const char kUsage[] =
    "usage: bbsrouter (--shards LIST | --shard-map FILE) [--flag value ...]";

const FlagSpec kFlags[] = {
    {"shards", kString, "",
     "H:P[/H:P],... endpoints (/replica optional) in range order"},
    {"shard-map", kString, "", "file of one H:P[/H:P] per line"},
    {"host", kString, "127.0.0.1", "bind address"},
    {"port", kUint, "7070", "TCP port; 0 = ephemeral", 0, kPortFlagMax},
    {"fanout-deadline-ms", kUint, "5000", "per-leg downstream budget",
     0, kIntFlagMax},
    {"hedge-ms", kUint, "0", "re-issue a silent idempotent leg (0 = off)",
     0, kIntFlagMax},
    {"retries", kUint, "3", "backpressure retries per leg",
     0, kUint32FlagMax},
    {"backoff-ms", kUint, "100", "base backpressure backoff",
     0, kUint32FlagMax},
    {"max-backoff-ms", kUint, "5000", "backoff cap", 0, kUint32FlagMax},
    {"no-prune", kBool, "", "disable Bloofi pruning (same answers)"},
    {"branching", kUint, "4", "Bloofi tree fan-in"},
    {"require-all", kBool, "", "answer Unavailable, not degraded"},
    {"minsup", kDouble, "0.003", "default MINE minimum support", 0, 1},
    {"mine-top", kUint, "10", "default MINE result cap"},
    {"mine-round1-top", kUint, "50000000",
     "round-1 'top'; must exceed any shard's frequent-set size"},
    {"connect-retries", kUint, "40", "startup handshake attempts per shard",
     0, kUint32FlagMax},
    {"connect-backoff-ms", kUint, "250", "handshake retry spacing",
     0, kUint32FlagMax},
    {"probe-interval-ms", kUint, "1000", "down-shard probe cadence (0 = off)",
     0, kUint32FlagMax},
    {"probe-timeout-ms", kUint, "1000", "per-probe budget", 0, kIntFlagMax},
    {"failover-probe-failures", kUint, "3",
     "silent probes before promoting a replica", 0, kUint32FlagMax},
    {"report-out", kString, "", "write the service report on shutdown"},
    {"stats-window-s", kUint, "10", "windowed-metrics interval, seconds", 1},
};

}  // namespace

int main(int argc, char** argv) {
  const Flags args =
      ParseFlagsOrExit("bbsrouter", kUsage, kFlags, argc, argv, 1);

  cluster::ShardMap map;
  const std::string shards_flag = args.GetString("shards");
  const std::string map_flag = args.GetString("shard-map");
  if (shards_flag.empty() == map_flag.empty()) {
    std::cerr << "bbsrouter: exactly one of --shards or --shard-map is "
                 "required\n"
              << kUsage << "\n";
    return 2;
  }
  if (!shards_flag.empty()) {
    auto parsed = cluster::ParseShardSpec(shards_flag);
    if (!parsed.ok()) Die(parsed.status());
    map = std::move(*parsed);
  } else {
    auto loaded = cluster::LoadShardMapFile(map_flag);
    if (!loaded.ok()) Die(loaded.status());
    map = std::move(*loaded);
  }

  cluster::RouterOptions options;
  options.retry.retries = static_cast<uint32_t>(args.GetUint("retries"));
  options.retry.backoff_ms = static_cast<uint32_t>(args.GetUint("backoff-ms"));
  options.retry.max_backoff_ms =
      static_cast<uint32_t>(args.GetUint("max-backoff-ms"));
  options.fanout_deadline_ms =
      static_cast<int>(args.GetUint("fanout-deadline-ms"));
  options.hedge_ms = static_cast<int>(args.GetUint("hedge-ms"));
  options.prune = !args.GetBool("no-prune");
  options.branching = args.GetUint("branching");
  options.allow_degraded = !args.GetBool("require-all");
  options.default_min_support = args.GetDouble("minsup");
  options.mine_top = args.GetUint("mine-top");
  options.mine_round1_top = args.GetUint("mine-round1-top");
  options.connect_retries =
      static_cast<uint32_t>(args.GetUint("connect-retries"));
  options.connect_backoff_ms =
      static_cast<uint32_t>(args.GetUint("connect-backoff-ms"));
  options.probe_interval_ms =
      static_cast<uint32_t>(args.GetUint("probe-interval-ms"));
  options.probe_timeout_ms =
      static_cast<int>(args.GetUint("probe-timeout-ms"));
  options.failover_probe_failures =
      static_cast<uint32_t>(args.GetUint("failover-probe-failures"));
  options.stats_windows.interval_us =
      args.GetUint("stats-window-s") * 1'000'000;

  const size_t num_shards = map.size();
  cluster::RouterService router(std::move(map), options);
  if (Status initialized = router.Init(); !initialized.ok()) Die(initialized);

  service::SocketServerOptions server_options;
  server_options.host = args.GetString("host");
  server_options.port = static_cast<uint16_t>(args.GetUint("port"));
  service::SocketServer server(&router, server_options);
  if (Status started = server.Start(); !started.ok()) Die(started);

  std::signal(SIGTERM, HandleSignal);
  std::signal(SIGINT, HandleSignal);

  // The cluster smoke script parses this line to learn the ephemeral port.
  std::printf(
      "bbsrouter listening on %s:%u (%zu shards, %llu up, %llu "
      "transactions)\n",
      server_options.host.c_str(), server.port(), num_shards,
      static_cast<unsigned long long>(router.shards_up()),
      static_cast<unsigned long long>(router.TotalTransactions()));
  std::fflush(stdout);

  while (!g_stop.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }

  std::printf("bbsrouter draining...\n");
  std::fflush(stdout);
  server.Stop();
  router.Drain();
  if (std::string path = args.GetString("report-out"); !path.empty()) {
    obs::JsonValue report = router.BuildStatsReport();
    if (Status written = obs::WriteJsonFile(report, path); !written.ok()) {
      std::cerr << "bbsrouter: cannot write report: " << written.ToString()
                << "\n";
      return 1;
    }
    std::printf("bbsrouter wrote service report to %s\n", path.c_str());
  }
  std::printf("bbsrouter exited cleanly (%llu/%zu shards up, %llu "
              "transactions)\n",
              static_cast<unsigned long long>(router.shards_up()), num_shards,
              static_cast<unsigned long long>(router.TotalTransactions()));
  return 0;
}
