// bbsbench — open-loop traffic generator and SLO harness for bbsmined.
//
// Replays a deterministic, Zipf-skewed request stream (datagen/traffic_gen)
// against a running daemon over many persistent connections, measuring
// every request's latency from its *arrival-process-scheduled* send time.
// That scheduling discipline is what avoids coordinated omission: a stalled
// server delays subsequent sends on the same connection, and those delays
// land in the recorded latencies instead of silently thinning the load.
// Requests are never retried at the bench level — a retry would hide the
// very tail the harness exists to measure. A timed-out or failed request
// still contributes a latency sample (its elapsed time at detection, by
// construction >= the timeout), so the percentiles describe the user
// experience, not just the lucky requests.
//
// Client-side latencies are held exactly in fixed-capacity reservoirs
// (obs::LatencyReservoir) per verb; daemon-side latencies are obtained by
// diffing STATS `latency_us.*` log2 histograms before/after the run and
// pushing the diff through obs::PercentileFromLog2Buckets — the same
// estimator the docs describe — so client and daemon views of p50 can be
// cross-checked bucket-for-bucket.
//
// Examples:
//   bbsbench --port 7071 --rate 500 --duration-s 10
//   bbsbench --port 7071 --arrival bursty --mix-insert 40 --mix-count 60
//   bbsbench --port 7071 --rate-steps 5 --rate-start 100 --rate-factor 2
//            --slo-p99-ms 50 --slo-verb count      (saturation search)
//   bbsbench --dry-run --dump-stream stream.txt    # no daemon needed
//
// Writes a schema-versioned BENCH_service.json (see docs/BENCHMARKS.md).

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cluster/shard_map.h"
#include "datagen/traffic_gen.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "service/wire.h"
#include "util/flags.h"
#include "util/socket.h"
#include "util/status.h"

using namespace bbsmine;

namespace {

using enum FlagType;

const FlagSpec kFlags[] = {
    {"host", kString, "127.0.0.1", "daemon address"},
    {"port", kUint, "0", "daemon port (required unless --dry-run)",
     0, kPortFlagMax},
    {"target", kString, "", "daemon or router H:P (overrides --host/--port)"},
    {"connections", kUint, "32", "concurrent connections", 1},
    {"timeout-ms", kUint, "5000", "per-request response timeout",
     0, kIntFlagMax},
    {"seed", kUint, "42", "request-stream seed"},
    {"rate", kDouble, "200", "offered load, requests/s"},
    {"duration-s", kDouble, "10", "stream duration, seconds"},
    {"arrival", kString, "poisson", "poisson | bursty"},
    {"burst-on-ms", kDouble, "200", "bursty on window"},
    {"burst-off-ms", kDouble, "800", "bursty off window"},
    {"mix-ping", kDouble, "0", "PING weight"},
    {"mix-count", kDouble, "70", "COUNT weight"},
    {"mix-insert", kDouble, "20", "INSERT weight"},
    {"mix-mine", kDouble, "5", "MINE weight"},
    {"mix-stats", kDouble, "5", "STATS weight"},
    {"items", kUint, "1000", "item universe size", 0, kUint32FlagMax},
    {"zipf-s", kDouble, "0.99", "item skew exponent; 0 = uniform"},
    {"query-len", kUint, "2", "items per COUNT", 0, kUint32FlagMax},
    {"insert-len", kDouble, "10", "mean INSERT transaction size"},
    {"minsup", kDouble, "0.1", "MINE minimum support", 0, 1},
    {"top", kUint, "10", "MINE result cap", 0, kUint32FlagMax},
    {"rate-steps", kUint, "0", "saturation-search steps (0 = off)"},
    {"rate-start", kDouble, "", "first step's rate (default: --rate)"},
    {"rate-factor", kDouble, "2", "rate multiplier per step"},
    {"step-duration-s", kDouble, "5", "duration of each step, seconds"},
    {"slo-p99-ms", kDouble, "50", "the SLO: client p99 <= this many ms"},
    {"slo-verb", kString, "count", "verb the SLO is judged on"},
    {"out", kString, "BENCH_service.json", "report path"},
    {"reservoir", kUint, "65536", "latency samples kept per verb"},
    {"trace-ids", kBool, "", "tag requests with trace_id b<seed>-<index>"},
    {"dry-run", kBool, "", "generate the stream only; no daemon needed"},
    {"dump-stream", kString, "", "write the request stream as text"},
};

constexpr size_t kNumVerbs = 5;
constexpr TrafficVerb kVerbs[kNumVerbs] = {
    TrafficVerb::kPing, TrafficVerb::kCount, TrafficVerb::kInsert,
    TrafficVerb::kMine, TrafficVerb::kStats};

/// Aggregated per-verb outcome of one traffic run. The reservoir is
/// shared across worker threads under `mu` — contention is negligible
/// next to a network round trip.
struct VerbStats {
  explicit VerbStats(size_t reservoir_capacity, uint64_t seed)
      : reservoir(reservoir_capacity, seed) {}
  std::mutex mu;
  obs::LatencyReservoir reservoir;
  uint64_t sent = 0;
  uint64_t ok = 0;
  uint64_t errors = 0;         // daemon answered with ok:false
  uint64_t timeouts = 0;       // idempotent verb, no response in time
  uint64_t indeterminate = 0;  // INSERT sent, response timed out
  uint64_t transport = 0;      // connect/send/read hard failure
};

struct RunResult {
  std::vector<std::unique_ptr<VerbStats>> verbs;  // indexed by enum value
  double elapsed_s = 0;
  uint64_t scheduled = 0;
  obs::JsonValue daemon_before;  // STATS report before the run
  obs::JsonValue daemon_after;   // STATS report after the run
  bool daemon_stats_ok = false;
};

obs::JsonValue BuildWireRequest(const TrafficRequest& request,
                                const TrafficSpec& spec) {
  obs::JsonValue wire = obs::JsonValue::Object();
  wire.Set("verb", obs::JsonValue::String(TrafficVerbName(request.verb)));
  switch (request.verb) {
    case TrafficVerb::kCount:
    case TrafficVerb::kInsert:
      wire.Set("items", service::ItemsToJson(request.items));
      break;
    case TrafficVerb::kMine:
      wire.Set("minsup", obs::JsonValue::Double(spec.mine_minsup));
      wire.Set("top", obs::JsonValue::Uint(spec.mine_top));
      break;
    case TrafficVerb::kPing:
    case TrafficVerb::kStats:
      break;
  }
  return wire;
}

/// One out-of-band request (used for the STATS snapshots around a run).
Result<obs::JsonValue> CallOnce(const std::string& host, uint16_t port,
                                const obs::JsonValue& request,
                                int timeout_ms) {
  Result<OwnedFd> fd = ConnectTcp(host, port);
  if (!fd.ok()) return fd.status();
  BBSMINE_RETURN_IF_ERROR(service::WriteFrame(fd->get(), request));
  return service::ReadFrame(fd->get(), timeout_ms);
}

/// Replays the worker's round-robin share of the stream over one
/// persistent connection, reconnecting after timeouts (a late response
/// would otherwise be mis-paired with the next request).
void Worker(const std::vector<TrafficRequest>& stream, size_t worker_id,
            size_t num_workers, const TrafficSpec& spec,
            const std::string& host, uint16_t port, int timeout_ms,
            std::chrono::steady_clock::time_point start,
            const std::string* trace_prefix, RunResult* result) {
  OwnedFd fd;
  for (size_t i = worker_id; i < stream.size(); i += num_workers) {
    const TrafficRequest& request = stream[i];
    const auto scheduled =
        start + std::chrono::microseconds(request.scheduled_us);
    std::this_thread::sleep_until(scheduled);

    VerbStats& stats = *result->verbs[static_cast<size_t>(request.verb)];
    obs::JsonValue wire = BuildWireRequest(request, spec);
    if (trace_prefix != nullptr) {
      // Deterministic per-request id: "b<seed>-<stream index>". The index
      // is the position in the generated stream, so a slow-log line or a
      // trace span names exactly one request of the replayed workload.
      std::string trace_id = *trace_prefix;
      trace_id.append(std::to_string(i));
      wire.Set("trace_id", obs::JsonValue::String(std::move(trace_id)));
    }

    enum class Outcome { kOk, kError, kTimeout, kTransport } outcome;
    if (!fd.valid()) {
      Result<OwnedFd> connected = ConnectTcp(host, port);
      if (connected.ok()) fd = std::move(*connected);
    }
    if (!fd.valid()) {
      outcome = Outcome::kTransport;
    } else if (Status sent = service::WriteFrame(fd.get(), wire);
               !sent.ok()) {
      outcome = Outcome::kTransport;
      fd = OwnedFd();
    } else {
      Result<obs::JsonValue> response =
          service::ReadFrame(fd.get(), timeout_ms);
      if (response.ok()) {
        outcome = response->Has("ok") && response->at("ok").AsBool()
                      ? Outcome::kOk
                      : Outcome::kError;
      } else if (response.status().code() == StatusCode::kUnavailable) {
        outcome = Outcome::kTimeout;
        fd = OwnedFd();  // a late response would desynchronize the stream
      } else {
        outcome = Outcome::kTransport;
        fd = OwnedFd();
      }
    }

    // Latency from the *scheduled* send time: queueing delay behind a slow
    // server is part of the measurement, not omitted from it.
    uint64_t latency_us = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - scheduled)
            .count());
    std::lock_guard<std::mutex> lock(stats.mu);
    ++stats.sent;
    stats.reservoir.Add(latency_us);
    switch (outcome) {
      case Outcome::kOk:
        ++stats.ok;
        break;
      case Outcome::kError:
        ++stats.errors;
        break;
      case Outcome::kTimeout:
        if (request.verb == TrafficVerb::kInsert) {
          ++stats.indeterminate;  // sent but unacknowledged: may be applied
        } else {
          ++stats.timeouts;
        }
        break;
      case Outcome::kTransport:
        ++stats.transport;
        break;
    }
  }
}

/// Extracts `report.metrics.latency_us.<verb>` from a STATS response into
/// MetricSample bucket layout ([0] = overflow, [d] = log2 bucket d).
/// Missing histograms (verb never hit) come back all-zero.
std::vector<uint64_t> DaemonLatencyBuckets(const obs::JsonValue& stats_report,
                                           const std::string& verb_lower) {
  std::vector<uint64_t> buckets(obs::DepthHistogram::kMaxTrackedDepth + 1, 0);
  if (!stats_report.Has("metrics")) return buckets;
  const obs::JsonValue& metrics = stats_report.at("metrics");
  if (!metrics.Has("latency_us")) return buckets;
  const obs::JsonValue& section = metrics.at("latency_us");
  if (!section.Has(verb_lower)) return buckets;
  const obs::JsonValue& h = section.at(verb_lower);
  buckets[0] = h.at("overflow").AsUint();
  const obs::JsonValue& by_depth = h.at("by_depth");
  for (size_t d = 0; d < by_depth.size() && d + 1 < buckets.size(); ++d) {
    buckets[d + 1] = by_depth.at(d).AsUint();
  }
  return buckets;
}

/// Points at `report.window.last_60s.latency_us.<verb>` in a STATS
/// response — the daemon's recent-window histogram, already annotated with
/// p50/p95/p99 — or nullptr when the daemon predates windowed metrics or
/// the verb never appears in the recent window.
const obs::JsonValue* DaemonRecentLatency(const obs::JsonValue& stats_report,
                                          const std::string& verb_lower) {
  const obs::JsonValue* node = &stats_report;
  for (const char* key : {"window", "last_60s", "latency_us"}) {
    if (node->kind() != obs::JsonValue::Kind::kObject || !node->Has(key)) {
      return nullptr;
    }
    node = &node->at(key);
  }
  if (node->kind() != obs::JsonValue::Kind::kObject ||
      !node->Has(verb_lower)) {
    return nullptr;
  }
  return &node->at(verb_lower);
}

std::string LowerVerb(TrafficVerb verb) {
  std::string name = TrafficVerbName(verb);
  std::transform(name.begin(), name.end(), name.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return name;
}

/// Runs one full traffic stream against the daemon and collects per-verb
/// client stats plus daemon STATS snapshots bracketing the run.
Result<RunResult> RunTraffic(const TrafficSpec& spec, const std::string& host,
                             uint16_t port, size_t connections,
                             int timeout_ms, size_t reservoir_capacity,
                             bool trace_ids) {
  Result<std::vector<TrafficRequest>> stream = GenerateTraffic(spec);
  if (!stream.ok()) return stream.status();

  RunResult result;
  result.scheduled = stream->size();
  for (size_t v = 0; v < kNumVerbs; ++v) {
    result.verbs.push_back(
        std::make_unique<VerbStats>(reservoir_capacity, spec.seed + v));
  }

  const obs::JsonValue stats_request =
      service::VerbRequest(service::Verb::kStats);
  if (Result<obs::JsonValue> before =
          CallOnce(host, port, stats_request, timeout_ms);
      before.ok() && before->Has("report")) {
    result.daemon_before = before->at("report");
    result.daemon_stats_ok = true;
  }

  size_t num_workers = std::max<size_t>(1, std::min(connections,
                                                    stream->size()));
  // Outlives the workers: RunTraffic joins them before returning.
  const std::string trace_prefix =
      std::string("b").append(std::to_string(spec.seed)).append("-");
  auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> workers;
  workers.reserve(num_workers);
  for (size_t w = 0; w < num_workers; ++w) {
    workers.emplace_back(Worker, std::cref(*stream), w, num_workers,
                         std::cref(spec), std::cref(host), port, timeout_ms,
                         start, trace_ids ? &trace_prefix : nullptr, &result);
  }
  for (std::thread& t : workers) t.join();
  result.elapsed_s =
      std::chrono::duration_cast<std::chrono::duration<double>>(
          std::chrono::steady_clock::now() - start)
          .count();

  if (result.daemon_stats_ok) {
    Result<obs::JsonValue> after =
        CallOnce(host, port, stats_request, timeout_ms);
    if (after.ok() && after->Has("report")) {
      result.daemon_after = after->at("report");
    } else {
      result.daemon_stats_ok = false;
    }
  }
  return result;
}

obs::JsonValue MixJson(const TrafficMix& mix) {
  obs::JsonValue j = obs::JsonValue::Object();
  j.Set("ping", obs::JsonValue::Double(mix.ping));
  j.Set("count", obs::JsonValue::Double(mix.count));
  j.Set("insert", obs::JsonValue::Double(mix.insert));
  j.Set("mine", obs::JsonValue::Double(mix.mine));
  j.Set("stats", obs::JsonValue::Double(mix.stats));
  return j;
}

obs::JsonValue ConfigJson(const TrafficSpec& spec, size_t connections,
                          int timeout_ms, bool trace_ids) {
  obs::JsonValue config = obs::JsonValue::Object();
  config.Set("seed", obs::JsonValue::Uint(spec.seed));
  config.Set("rate_rps", obs::JsonValue::Double(spec.rate_rps));
  config.Set("duration_s", obs::JsonValue::Double(spec.duration_s));
  config.Set("arrival", obs::JsonValue::String(
                            spec.arrival == ArrivalProcess::kBursty
                                ? "bursty"
                                : "poisson"));
  if (spec.arrival == ArrivalProcess::kBursty) {
    config.Set("burst_on_ms", obs::JsonValue::Double(spec.burst_on_ms));
    config.Set("burst_off_ms", obs::JsonValue::Double(spec.burst_off_ms));
  }
  config.Set("mix", MixJson(spec.mix));
  config.Set("item_universe", obs::JsonValue::Uint(spec.item_universe));
  config.Set("zipf_s", obs::JsonValue::Double(spec.zipf_s));
  config.Set("query_len", obs::JsonValue::Uint(spec.query_len));
  config.Set("insert_len_mean", obs::JsonValue::Double(spec.insert_len_mean));
  config.Set("mine_minsup", obs::JsonValue::Double(spec.mine_minsup));
  config.Set("mine_top", obs::JsonValue::Uint(spec.mine_top));
  config.Set("connections", obs::JsonValue::Uint(connections));
  config.Set("timeout_ms", obs::JsonValue::Int(timeout_ms));
  config.Set("trace_ids", obs::JsonValue::Bool(trace_ids));
  return config;
}

/// Renders one verb's client + daemon view. `daemon_diff` is the
/// after-minus-before daemon histogram (absent when STATS failed);
/// `recent` is the daemon's `window.last_60s` histogram for the verb
/// (absent when the daemon predates windowed metrics).
obs::JsonValue VerbJson(VerbStats& stats,
                        const std::vector<uint64_t>* daemon_diff,
                        const obs::JsonValue* recent) {
  obs::JsonValue v = obs::JsonValue::Object();
  v.Set("sent", obs::JsonValue::Uint(stats.sent));
  v.Set("ok", obs::JsonValue::Uint(stats.ok));
  v.Set("errors", obs::JsonValue::Uint(stats.errors));
  v.Set("timeouts", obs::JsonValue::Uint(stats.timeouts));
  v.Set("indeterminate", obs::JsonValue::Uint(stats.indeterminate));
  v.Set("transport_failures", obs::JsonValue::Uint(stats.transport));

  obs::JsonValue latency = obs::JsonValue::Object();
  double client_p50 = stats.reservoir.Quantile(0.50);
  latency.Set("p50", obs::JsonValue::Double(client_p50));
  latency.Set("p95", obs::JsonValue::Double(stats.reservoir.Quantile(0.95)));
  latency.Set("p99", obs::JsonValue::Double(stats.reservoir.Quantile(0.99)));
  latency.Set("max", obs::JsonValue::Uint(stats.reservoir.max()));
  latency.Set("samples", obs::JsonValue::Uint(
                             std::min<uint64_t>(stats.reservoir.count(),
                                                stats.sent)));
  v.Set("latency_us", std::move(latency));

  if (daemon_diff != nullptr) {
    uint64_t total = 0;
    for (uint64_t c : *daemon_diff) total += c;
    obs::JsonValue daemon = obs::JsonValue::Object();
    double daemon_p50 = obs::PercentileFromLog2Buckets(*daemon_diff, 0.50);
    daemon.Set("p50", obs::JsonValue::Double(daemon_p50));
    daemon.Set("p95", obs::JsonValue::Double(
                          obs::PercentileFromLog2Buckets(*daemon_diff, 0.95)));
    daemon.Set("p99", obs::JsonValue::Double(
                          obs::PercentileFromLog2Buckets(*daemon_diff, 0.99)));
    daemon.Set("total", obs::JsonValue::Uint(total));
    v.Set("daemon_latency_us", std::move(daemon));
    if (total > 0 && stats.sent > 0) {
      // How far apart the two views land in log2 buckets. Client latency
      // includes the transport and any send-queue wait, so a small
      // positive delta is expected for sub-millisecond verbs; service-
      // dominated verbs (MINE) should agree within one bucket.
      int client_bucket = static_cast<int>(obs::Log2Bucket(
          static_cast<uint64_t>(std::max(0.0, client_p50))));
      int daemon_bucket = static_cast<int>(obs::Log2Bucket(
          static_cast<uint64_t>(std::max(0.0, daemon_p50))));
      v.Set("p50_bucket_delta",
            obs::JsonValue::Int(client_bucket - daemon_bucket));
    }
  }

  if (recent != nullptr && recent->Has("total") &&
      recent->at("total").AsUint() > 0) {
    obs::JsonValue rec = obs::JsonValue::Object();
    double recent_p50 =
        recent->Has("p50") ? recent->at("p50").AsDouble() : 0.0;
    rec.Set("p50", obs::JsonValue::Double(recent_p50));
    if (recent->Has("p95")) {
      rec.Set("p95", obs::JsonValue::Double(recent->at("p95").AsDouble()));
    }
    if (recent->Has("p99")) {
      rec.Set("p99", obs::JsonValue::Double(recent->at("p99").AsDouble()));
    }
    rec.Set("total", obs::JsonValue::Uint(recent->at("total").AsUint()));
    v.Set("daemon_recent_latency_us", std::move(rec));
    if (stats.sent > 0 && recent_p50 > 0) {
      // The recent window covers the whole run when the run is shorter
      // than the daemon's lookback, so for a freshly started daemon the
      // client reservoir p50 and the windowed p50 should land in the
      // same (or adjacent) log2 bucket — bench_smoke asserts exactly
      // that.
      int client_bucket = static_cast<int>(obs::Log2Bucket(
          static_cast<uint64_t>(std::max(0.0, client_p50))));
      int recent_bucket = static_cast<int>(
          obs::Log2Bucket(static_cast<uint64_t>(recent_p50)));
      v.Set("recent_p50_bucket_delta",
            obs::JsonValue::Int(client_bucket - recent_bucket));
    }
  }
  return v;
}

/// A counter delta between two report "cluster" sections (0 when absent).
uint64_t ClusterCounterDelta(const obs::JsonValue& before,
                             const obs::JsonValue& after,
                             const std::string& key) {
  uint64_t b = before.Has(key) ? before.at(key).AsUint() : 0;
  uint64_t a = after.Has(key) ? after.at(key).AsUint() : 0;
  return a - std::min(a, b);
}

/// The report's "cluster" section: present only when the target's STATS
/// reports carry one (a bbsrouter, or a cluster-aware daemon). Counters
/// are after-minus-before deltas, so the section describes this run's
/// fan-out behavior; per-shard rows (router only) carry the same deltas
/// broken down by shard.
obs::JsonValue BenchClusterJson(const RunResult& run) {
  if (!run.daemon_stats_ok || !run.daemon_after.Has("cluster")) {
    return obs::JsonValue::Null();
  }
  const obs::JsonValue& before = run.daemon_before.at("cluster");
  const obs::JsonValue& after = run.daemon_after.at("cluster");
  obs::JsonValue section = obs::JsonValue::Object();
  if (after.Has("role")) {
    section.Set("role", obs::JsonValue::String(after.at("role").AsString()));
  }
  if (after.Has("shards_total")) {
    section.Set("shards_total",
                obs::JsonValue::Uint(after.at("shards_total").AsUint()));
  }
  if (after.Has("shards_up")) {
    section.Set("shards_up",
                obs::JsonValue::Uint(after.at("shards_up").AsUint()));
  }
  for (const char* key : {"pruned_shard_queries", "hedged_requests",
                          "degraded_responses", "shard_errors"}) {
    section.Set(key,
                obs::JsonValue::Uint(ClusterCounterDelta(before, after, key)));
  }
  if (after.Has("shards") &&
      after.at("shards").kind() == obs::JsonValue::Kind::kArray) {
    const obs::JsonValue& shards_after = after.at("shards");
    const obs::JsonValue* shards_before =
        before.Has("shards") &&
                before.at("shards").kind() == obs::JsonValue::Kind::kArray
            ? &before.at("shards")
            : nullptr;
    obs::JsonValue rows = obs::JsonValue::Array();
    for (size_t i = 0; i < shards_after.size(); ++i) {
      const obs::JsonValue& a = shards_after.at(i);
      static const obs::JsonValue kEmpty = obs::JsonValue::Object();
      const obs::JsonValue& b =
          shards_before != nullptr && i < shards_before->size()
              ? shards_before->at(i)
              : kEmpty;
      obs::JsonValue row = obs::JsonValue::Object();
      row.Set("shard", obs::JsonValue::Uint(a.at("shard").AsUint()));
      row.Set("endpoint",
              obs::JsonValue::String(a.at("endpoint").AsString()));
      row.Set("up", obs::JsonValue::Bool(a.at("up").AsBool()));
      row.Set("transactions",
              obs::JsonValue::Uint(a.at("transactions").AsUint()));
      row.Set("requests",
              obs::JsonValue::Uint(ClusterCounterDelta(b, a, "requests")));
      row.Set("errors",
              obs::JsonValue::Uint(ClusterCounterDelta(b, a, "errors")));
      row.Set("pruned_queries",
              obs::JsonValue::Uint(
                  ClusterCounterDelta(b, a, "pruned_queries")));
      row.Set("hedged",
              obs::JsonValue::Uint(ClusterCounterDelta(b, a, "hedged")));
      rows.Append(std::move(row));
    }
    section.Set("shards", std::move(rows));
  }
  return section;
}

obs::JsonValue ReportJson(const TrafficSpec& spec, RunResult& run,
                          size_t connections, int timeout_ms,
                          bool trace_ids) {
  obs::JsonValue report = obs::JsonValue::Object();
  report.Set("schema_version", obs::JsonValue::Int(1));
  report.Set("kind", obs::JsonValue::String("bbsbench_service"));
  report.Set("config", ConfigJson(spec, connections, timeout_ms, trace_ids));

  uint64_t sent = 0, ok = 0, errors = 0, timeouts = 0, indeterminate = 0,
           transport = 0;
  obs::JsonValue verbs = obs::JsonValue::Object();
  for (TrafficVerb verb : kVerbs) {
    VerbStats& stats = *run.verbs[static_cast<size_t>(verb)];
    if (stats.sent == 0) continue;
    std::vector<uint64_t> diff;
    const std::vector<uint64_t>* diff_ptr = nullptr;
    const obs::JsonValue* recent = nullptr;
    if (run.daemon_stats_ok) {
      std::string lower = LowerVerb(verb);
      std::vector<uint64_t> before =
          DaemonLatencyBuckets(run.daemon_before, lower);
      diff = DaemonLatencyBuckets(run.daemon_after, lower);
      for (size_t i = 0; i < diff.size(); ++i) {
        diff[i] -= std::min(before[i], diff[i]);
      }
      diff_ptr = &diff;
      recent = DaemonRecentLatency(run.daemon_after, lower);
    }
    verbs.Set(TrafficVerbName(verb), VerbJson(stats, diff_ptr, recent));
    sent += stats.sent;
    ok += stats.ok;
    errors += stats.errors;
    timeouts += stats.timeouts;
    indeterminate += stats.indeterminate;
    transport += stats.transport;
  }
  report.Set("verbs", std::move(verbs));

  obs::JsonValue totals = obs::JsonValue::Object();
  totals.Set("scheduled", obs::JsonValue::Uint(run.scheduled));
  totals.Set("sent", obs::JsonValue::Uint(sent));
  totals.Set("ok", obs::JsonValue::Uint(ok));
  totals.Set("errors", obs::JsonValue::Uint(errors));
  totals.Set("timeouts", obs::JsonValue::Uint(timeouts));
  totals.Set("indeterminate", obs::JsonValue::Uint(indeterminate));
  totals.Set("transport_failures", obs::JsonValue::Uint(transport));
  totals.Set("elapsed_s", obs::JsonValue::Double(run.elapsed_s));
  totals.Set("achieved_rps",
             obs::JsonValue::Double(
                 run.elapsed_s > 0 ? static_cast<double>(sent) / run.elapsed_s
                                   : 0.0));
  report.Set("totals", std::move(totals));
  if (obs::JsonValue cluster = BenchClusterJson(run);
      cluster.kind() == obs::JsonValue::Kind::kObject) {
    report.Set("cluster", std::move(cluster));
  }
  return report;
}

TrafficVerb ParseSloVerb(const std::string& name) {
  for (TrafficVerb verb : kVerbs) {
    if (LowerVerb(verb) == name) return verb;
  }
  std::cerr << "bbsbench: unknown --slo-verb " << name << "\n";
  std::exit(2);
}

int DumpStream(const std::vector<TrafficRequest>& stream,
               const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::cerr << "bbsbench: cannot open " << path << "\n";
    return 1;
  }
  for (const TrafficRequest& request : stream) {
    std::fprintf(f, "%llu %s",
                 static_cast<unsigned long long>(request.scheduled_us),
                 TrafficVerbName(request.verb));
    for (size_t i = 0; i < request.items.size(); ++i) {
      std::fprintf(f, "%c%u", i == 0 ? ' ' : ',', request.items[i]);
    }
    std::fputc('\n', f);
  }
  std::fclose(f);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Flags args = ParseFlagsOrExit(
      "bbsbench", "usage: bbsbench [--flag value | --flag=value ...]", kFlags,
      argc, argv, 1);

  TrafficSpec spec;
  spec.seed = args.GetUint("seed");
  spec.rate_rps = args.GetDouble("rate");
  spec.duration_s = args.GetDouble("duration-s");
  const std::string& arrival = args.GetString("arrival");
  if (arrival == "bursty") {
    spec.arrival = ArrivalProcess::kBursty;
  } else if (arrival != "poisson") {
    std::cerr << "bbsbench: --arrival must be poisson or bursty\n";
    return 2;
  }
  spec.burst_on_ms = args.GetDouble("burst-on-ms");
  spec.burst_off_ms = args.GetDouble("burst-off-ms");
  spec.mix.ping = args.GetDouble("mix-ping");
  spec.mix.count = args.GetDouble("mix-count");
  spec.mix.insert = args.GetDouble("mix-insert");
  spec.mix.mine = args.GetDouble("mix-mine");
  spec.mix.stats = args.GetDouble("mix-stats");
  spec.item_universe = static_cast<uint32_t>(args.GetUint("items"));
  spec.zipf_s = args.GetDouble("zipf-s");
  spec.query_len = static_cast<uint32_t>(args.GetUint("query-len"));
  spec.insert_len_mean = args.GetDouble("insert-len");
  spec.mine_minsup = args.GetDouble("minsup");
  spec.mine_top = static_cast<uint32_t>(args.GetUint("top"));

  std::string host = args.GetString("host");
  uint16_t port = static_cast<uint16_t>(args.GetUint("port"));
  if (std::string target = args.GetString("target"); !target.empty()) {
    // --target H:P addresses a daemon or a bbsrouter alike (they speak the
    // same protocol); it overrides --host/--port.
    Result<cluster::ShardEndpoint> endpoint = cluster::ParseEndpoint(target);
    if (!endpoint.ok()) {
      std::cerr << "bbsbench: --target: " << endpoint.status().message()
                << "\n";
      return 2;
    }
    host = endpoint->host;
    port = endpoint->port;
  }
  const size_t connections = args.GetUint("connections");
  const int timeout_ms = static_cast<int>(args.GetUint("timeout-ms"));
  const size_t reservoir = args.GetUint("reservoir");
  const std::string& out_path = args.GetString("out");
  const bool dry_run = args.GetBool("dry-run");
  const bool trace_ids = args.GetBool("trace-ids");

  if (!dry_run && port == 0) {
    std::cerr << "bbsbench: --port is required (or use --dry-run)\n";
    return 2;
  }

  if (std::string dump = args.GetString("dump-stream"); !dump.empty()) {
    Result<std::vector<TrafficRequest>> stream = GenerateTraffic(spec);
    if (!stream.ok()) {
      std::cerr << "bbsbench: " << stream.status().ToString() << "\n";
      return 1;
    }
    if (int rc = DumpStream(*stream, dump); rc != 0) return rc;
    std::printf("bbsbench dumped %zu requests to %s\n", stream->size(),
                dump.c_str());
  }
  if (dry_run) {
    Result<std::vector<TrafficRequest>> stream = GenerateTraffic(spec);
    if (!stream.ok()) {
      std::cerr << "bbsbench: " << stream.status().ToString() << "\n";
      return 1;
    }
    std::printf("bbsbench dry run: %zu requests over %.1f s (seed %llu)\n",
                stream->size(), spec.duration_s,
                static_cast<unsigned long long>(spec.seed));
    return 0;
  }

  // Main measured run.
  Result<RunResult> run = RunTraffic(spec, host, port, connections,
                                     timeout_ms, reservoir, trace_ids);
  if (!run.ok()) {
    std::cerr << "bbsbench: " << run.status().ToString() << "\n";
    return 1;
  }
  obs::JsonValue report =
      ReportJson(spec, *run, connections, timeout_ms, trace_ids);

  // Optional stepped-rate saturation search: probe increasing offered
  // loads and report the highest one whose client p99 for --slo-verb
  // still meets the SLO.
  const uint64_t rate_steps = args.GetUint("rate-steps");
  if (rate_steps > 0) {
    const double slo_p99_ms = args.GetDouble("slo-p99-ms");
    const TrafficVerb slo_verb = ParseSloVerb(args.GetString("slo-verb"));
    double step_rate = args.Has("rate-start") ? args.GetDouble("rate-start")
                                              : spec.rate_rps;
    const double factor = args.GetDouble("rate-factor");
    TrafficSpec step_spec = spec;
    step_spec.duration_s = args.GetDouble("step-duration-s");

    obs::JsonValue steps = obs::JsonValue::Array();
    double best_rate = 0.0;
    for (uint64_t s = 0; s < rate_steps; ++s) {
      step_spec.rate_rps = step_rate;
      step_spec.seed = spec.seed + 1000 + s;  // a fresh stream per step
      Result<RunResult> step = RunTraffic(step_spec, host, port, connections,
                                          timeout_ms, reservoir, trace_ids);
      if (!step.ok()) {
        std::cerr << "bbsbench: saturation step failed: "
                  << step.status().ToString() << "\n";
        return 1;
      }
      VerbStats& stats = *step->verbs[static_cast<size_t>(slo_verb)];
      double p99_ms = stats.reservoir.Quantile(0.99) / 1e3;
      bool met = stats.sent > 0 && p99_ms <= slo_p99_ms &&
                 stats.transport == 0;
      if (met) best_rate = std::max(best_rate, step_rate);
      uint64_t step_sent = 0;
      for (const auto& verb_stats : step->verbs) step_sent += verb_stats->sent;
      obs::JsonValue entry = obs::JsonValue::Object();
      entry.Set("offered_rps", obs::JsonValue::Double(step_rate));
      entry.Set("achieved_rps",
                obs::JsonValue::Double(
                    step->elapsed_s > 0
                        ? static_cast<double>(step_sent) / step->elapsed_s
                        : 0.0));
      entry.Set("p99_ms", obs::JsonValue::Double(p99_ms));
      entry.Set("met_slo", obs::JsonValue::Bool(met));
      steps.Append(std::move(entry));
      std::printf("bbsbench step %llu: %.0f rps offered, %s p99 %.2f ms%s\n",
                  static_cast<unsigned long long>(s), step_rate,
                  TrafficVerbName(slo_verb), p99_ms,
                  met ? "" : " (SLO MISSED)");
      step_rate *= factor;
    }
    obs::JsonValue saturation = obs::JsonValue::Object();
    saturation.Set("slo_verb", obs::JsonValue::String(
                                   TrafficVerbName(slo_verb)));
    saturation.Set("slo_p99_ms", obs::JsonValue::Double(slo_p99_ms));
    saturation.Set("steps", std::move(steps));
    saturation.Set("max_rps_meeting_slo", obs::JsonValue::Double(best_rate));
    report.Set("saturation", std::move(saturation));
  }

  if (Status written = obs::WriteJsonFile(report, out_path); !written.ok()) {
    std::cerr << "bbsbench: cannot write report: " << written.ToString()
              << "\n";
    return 1;
  }
  std::printf("bbsbench wrote %s\n", out_path.c_str());
  return 0;
}
