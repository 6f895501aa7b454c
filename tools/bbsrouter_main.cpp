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
#include <cstring>
#include <iostream>
#include <map>
#include <string>
#include <thread>

#include "cluster/router.h"
#include "cluster/shard_map.h"
#include "obs/json.h"
#include "service/server.h"

using namespace bbsmine;

namespace {

std::atomic<bool> g_stop{false};

void HandleSignal(int) { g_stop.store(true, std::memory_order_release); }

/// Minimal flag parser: accepts `--flag value` and `--flag=value`;
/// bare flags map to "true". (Mirrors the bbsmined parser.)
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

  bool Has(const std::string& key) const { return values_.count(key) != 0; }

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
  std::cerr << "bbsrouter: " << status.ToString() << "\n";
  std::exit(1);
}

void Usage() {
  std::cerr <<
      "usage: bbsrouter (--shards LIST | --shard-map FILE) [--flag value ...]\n"
      "  --shards H:P[/H:P],...  comma-separated shard endpoints, in\n"
      "                      transaction-range order (shard 0 holds the\n"
      "                      first range; INSERTs route to the last). An\n"
      "                      optional /host:port names the shard's warm\n"
      "                      replica (a bbsmined --follow of the primary);\n"
      "                      the router promotes it when the primary dies\n"
      "  --shard-map FILE    one host:port[/host:port] per line ('#'\n"
      "                      comments); same ordering contract\n"
      "  --host A.B.C.D      bind address (default 127.0.0.1)\n"
      "  --port N            TCP port; 0 = ephemeral (default 7070)\n"
      "  --fanout-deadline-ms N  per-leg downstream budget (default 5000)\n"
      "  --hedge-ms N        re-issue an idempotent leg on a fresh\n"
      "                      connection after N ms of silence (default 0 =\n"
      "                      no hedging)\n"
      "  --retries N         backpressure retries per leg (default 3)\n"
      "  --backoff-ms N      base backpressure backoff (default 100)\n"
      "  --max-backoff-ms N  backoff cap (default 5000)\n"
      "  --no-prune          disable Bloofi pruning (fan out everywhere;\n"
      "                      answers are identical, just slower)\n"
      "  --branching N       Bloofi tree fan-in (default 4)\n"
      "  --require-all       answer Unavailable instead of degraded when a\n"
      "                      shard is unreachable\n"
      "  --minsup F          default MINE minimum support (default 0.003)\n"
      "  --mine-top N        default MINE result cap (default 10)\n"
      "  --mine-round1-top N round-1 'top' sent to shards; must exceed any\n"
      "                      shard's local frequent-set size (default 5e7)\n"
      "  --connect-retries N startup handshake attempts per shard\n"
      "                      (default 40, spaced --connect-backoff-ms)\n"
      "  --connect-backoff-ms N  handshake retry spacing (default 250)\n"
      "  --probe-interval-ms N  background re-probe cadence for down\n"
      "                      shards; drives failover and rejoin without\n"
      "                      client traffic (default 1000; 0 disables)\n"
      "  --probe-timeout-ms N  per-probe SHARDINFO budget (default 1000)\n"
      "  --failover-probe-failures N  consecutive silent (timed-out)\n"
      "                      probes of a primary before promoting its\n"
      "                      replica; transport failures (connection\n"
      "                      refused/reset) fail over immediately\n"
      "                      (default 3)\n"
      "  --report-out FILE   write the service report on shutdown\n"
      "  --stats-window-s N  windowed-metrics rotation interval, seconds\n"
      "                      (default 10; 12 slots are retained)\n";
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && (std::strcmp(argv[1], "--help") == 0 ||
                   std::strcmp(argv[1], "-h") == 0)) {
    Usage();
    return 0;
  }
  Args args(argc, argv, 1);

  cluster::ShardMap map;
  const std::string shards_flag = args.GetString("shards");
  const std::string map_flag = args.GetString("shard-map");
  if (shards_flag.empty() == map_flag.empty()) {
    std::cerr << "bbsrouter: exactly one of --shards or --shard-map is "
                 "required\n";
    Usage();
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

  const uint64_t stats_window_s = args.GetUint("stats-window-s", 10);
  if (stats_window_s == 0) {
    std::cerr << "bbsrouter: --stats-window-s must be positive\n";
    return 2;
  }

  cluster::RouterOptions options;
  options.retry.retries = static_cast<uint32_t>(args.GetUint("retries", 3));
  options.retry.backoff_ms =
      static_cast<uint32_t>(args.GetUint("backoff-ms", 100));
  options.retry.max_backoff_ms =
      static_cast<uint32_t>(args.GetUint("max-backoff-ms", 5000));
  options.fanout_deadline_ms =
      static_cast<int>(args.GetUint("fanout-deadline-ms", 5000));
  options.hedge_ms = static_cast<int>(args.GetUint("hedge-ms", 0));
  options.prune = !args.Has("no-prune");
  options.branching = args.GetUint("branching", 4);
  options.allow_degraded = !args.Has("require-all");
  options.default_min_support = args.GetDouble("minsup", 0.003);
  options.mine_top = args.GetUint("mine-top", 10);
  options.mine_round1_top = args.GetUint("mine-round1-top", 50'000'000);
  options.connect_retries =
      static_cast<uint32_t>(args.GetUint("connect-retries", 40));
  options.connect_backoff_ms =
      static_cast<uint32_t>(args.GetUint("connect-backoff-ms", 250));
  options.probe_interval_ms =
      static_cast<uint32_t>(args.GetUint("probe-interval-ms", 1000));
  options.probe_timeout_ms =
      static_cast<int>(args.GetUint("probe-timeout-ms", 1000));
  options.failover_probe_failures =
      static_cast<uint32_t>(args.GetUint("failover-probe-failures", 3));
  options.stats_windows.interval_us = stats_window_s * 1'000'000;

  const size_t num_shards = map.size();
  cluster::RouterService router(std::move(map), options);
  if (Status initialized = router.Init(); !initialized.ok()) Die(initialized);

  const uint64_t port = args.GetUint("port", 7070);
  if (port > 65535) {
    std::cerr << "bbsrouter: --port must be in [0, 65535], got " << port
              << "\n";
    return 2;
  }
  service::SocketServerOptions server_options;
  server_options.host = args.GetString("host", "127.0.0.1");
  server_options.port = static_cast<uint16_t>(port);
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
