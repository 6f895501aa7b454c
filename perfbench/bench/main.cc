// perfbench --workload W --seed N --seconds S --trace 0|1
//           --bin-dir DIR --work-dir DIR --trace-path FILE
//
// Runs one workload and prints a human-readable report followed, as the
// last line of stdout, by one JSON object: {"correct", "attempted",
// "failed", "metrics"}. Untraced runs report the end-to-end metrics; traced
// runs the per-layer metrics. A run that measured the host rather than the
// programs (see kMaxCalibrationDrift) still reports, stamped "valid": false
// with a warning on stderr. perfbench/run.py builds the programs and calls
// this; see perfbench/README.md.

#include <unistd.h>

#include <algorithm>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <mutex>
#include <string>
#include <thread>

#include "bench.h"
#include "util/bitvector_kernels.h"

namespace {

using bbsmine::obs::JsonValue;

struct MetricDef {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},           {"rss_mb", "MB"},
    {"count_p50_us", "us"},     {"max_ops_per_s", "1/s"},
    {"mine_p50_ms", "ms"},      {"secondary_p50_ms", "ms"},
    {"contended_p50_ms", "ms"},
};

// The per-operation names behind the per-workload slots above, and other
// figures printed for people but not gated.
constexpr MetricDef kInfo[] = {
    {"insert_p50_us", "us"},       {"insert_outside_mine_p50_us", "us"},
    {"insert_during_mine_p50_us", "us"},
    {"shard_count_p50_us", "us"},  {"count_during_mine_p50_us", "us"},
    {"closed_count_p50_us", "us"},
    {"dfp_pass_ms", "ms"},         {"sfs_pass_ms", "ms"},
    {"adaptive_pass_ms", "ms"},    {"exact_count_p50_us", "us"},
    {"exact_counts_per_s", "1/s"}, {"memory_reference_ms", "ms"},
    {"failed_share", "ratio"},
};

constexpr MetricDef kPerLayer[] = {
    {"util.and_many_count_gib_s", "GiB/s"},
    {"core.index_count_us", "us"},
    {"core.segmented_count_us", "us"},
    {"core.segmented_self_us", "us"},
    {"core.slice_words_per_count", "words"},
    {"core.index_build_s", "s"},
    {"core.filter_ms", "ms"},
    {"core.refine_ms", "ms"},
    {"core.extension_tests", "count"},
    {"core.candidates", "count"},
    {"core.false_drops", "count"},
    {"core.probed_transactions", "count"},
    {"core.db_scans", "count"},
    {"core.certified_share", "ratio"},
    {"core.fold_ms", "ms"},
    {"storage.cache_hit_rate", "ratio"},
    {"baseline.eclat_ms", "ms"},
    {"service.count_p50_us", "us"},
    {"service.insert_p50_us", "us"},
    {"service.mine_p50_ms", "ms"},
    {"service.scheduler_count_us", "us"},
    {"service.scheduler_self_us", "us"},
    {"service.handle_count_us", "us"},
    {"service.handle_self_us", "us"},
    {"service.daemon_self_us", "us"},
    {"service.queue_wait_p50_us", "us"},
    {"service.batch_size_mean", "count"},
    {"service.snapshot_insert_us", "us"},
    {"service.wal_append_us", "us"},
    {"service.wal_bytes_per_txn", "B"},
    {"service.wal_fsyncs_per_insert", "count"},
    {"service.checkpoints", "count"},
    {"service.mine_lock_share", "ratio"},
    {"service.rejected_share", "ratio"},
    {"cluster.shards_queried_per_count", "count"},
    {"cluster.pruned_share", "ratio"},
    {"cluster.fanout_p50_us", "us"},
    {"cluster.shard_count_p50_us", "us"},
    {"cluster.bloofi_query_us", "us"},
    {"cluster.mine_snapshot_retries", "count"},
    {"client.count_p50_us", "us"},
    {"client.residual_count_us", "us"},
    {"client.count_p99_us", "us"},
    {"client.count_samples", "count"},
    {"client.insert_p99_us", "us"},
    {"client.insert_samples", "count"},
    {"client.insert_during_mine_samples", "count"},
    {"client.mine_p99_ms", "ms"},
    {"client.mine_samples", "count"},
    {"client.generator_lag_p99_us", "us"},
    {"client.failed_share", "ratio"},
    {"trace.count_layers_ordered", "count"},
};

// Every run must end well inside the caller's 180 s limit, children
// included, whatever hangs.
constexpr int kDeadlineSeconds = 170;

// A run is invalid when the calibration loop's time moved by more than
// this factor between the start and the end of the run (the host changed
// speed under it), or for the reasons RunServing and RunMineOffline find.
// It is reported all the same: the result line has fixed keys, and a run
// that printed none would fail the whole batch it belongs to, so the
// verdict goes to the stamp and to stderr.
constexpr double kMaxCalibrationDrift = 1.25;

// Ends the process, children first, if the run outlives kDeadlineSeconds.
class Watchdog {
 public:
  Watchdog()
      : thread_([this] {
          std::unique_lock<std::mutex> lock(mu_);
          if (!cv_.wait_for(lock, std::chrono::seconds(kDeadlineSeconds),
                            [this] { return done_; })) {
            std::fprintf(stderr, "perfbench: run exceeded %d s, aborting\n",
                         kDeadlineSeconds);
            perfbench::KillAllChildren();
            _exit(3);
          }
        }) {}
  ~Watchdog() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      done_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool done_ = false;
  std::thread thread_;  // last: starts once the members above exist
};

[[noreturn]] void Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload serve_rw|routed_fanout|"
               "mine_offline --seed N --seconds S --trace 0|1 --bin-dir DIR "
               "--work-dir DIR --trace-path FILE\n");
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  std::string workload;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      options.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      options.seconds = std::stod(value);
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--bin-dir") {
      options.bin_dir = value;
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else if (flag == "--trace-path") {
      options.trace_path = value;
    } else {
      Usage();
    }
  }
  options.spec = perfbench::FindWorkload(workload);
  if (options.spec == nullptr || options.bin_dir.empty() ||
      options.work_dir.empty() || options.seconds <= 0) {
    Usage();
  }

  Watchdog watchdog;

  const double calibration_before = perfbench::CalibrationMs();
  const perfbench::HostSample host_before = perfbench::SampleHost();
  std::filesystem::create_directories(options.work_dir);
  perfbench::Report report = options.spec->count_connections > 0
                                 ? perfbench::RunServing(options)
                                 : perfbench::RunMineOffline(options);
  std::filesystem::remove_all(options.work_dir);
  const double steal =
      perfbench::StealShare(host_before, perfbench::SampleHost());
  const double calibration_after = perfbench::CalibrationMs();
  const double drift = std::max(calibration_after / calibration_before,
                                calibration_before / calibration_after);
  if (report.invalid.empty() && drift > kMaxCalibrationDrift) {
    report.invalid = "the calibration loop went from " +
                     std::to_string(calibration_before) + " ms to " +
                     std::to_string(calibration_after) + " ms";
  }
  report.stamp.Set("valid", JsonValue::Bool(report.invalid.empty()));
  if (!report.invalid.empty()) {
    report.stamp.Set("invalid_because", JsonValue::String(report.invalid));
    std::fprintf(stderr, "perfbench: warning: invalid run: %s\n",
                 report.invalid.c_str());
  }
  report.stamp.Set("steal_share", JsonValue::Double(steal));
  report.stamp.Set("calibration_ms_before",
                   JsonValue::Double(calibration_before));
  report.stamp.Set("calibration_ms_after",
                   JsonValue::Double(calibration_after));

  report.stamp.Set("workload", JsonValue::String(workload));
  report.stamp.Set("seed", JsonValue::Uint(options.seed));
  report.stamp.Set("seconds", JsonValue::Double(options.seconds));
  report.stamp.Set("traced", JsonValue::Bool(options.trace));
  report.stamp.Set("nproc", JsonValue::Uint(sysconf(_SC_NPROCESSORS_ONLN)));
  report.stamp.Set("kernel",
                   JsonValue::String(bbsmine::kernels::ActiveName()));
  report.stamp.Set("spec", perfbench::SpecToJson(*options.spec));
  report.values["client.failed_share"] = report.values["failed_share"];

  for (const std::string& error : report.errors) {
    std::fprintf(stderr, "perfbench: %s\n", error.c_str());
  }
  std::printf("perfbench %s: environment %s\n", workload.c_str(),
              report.stamp.Serialize(0).c_str());
  auto print = [&](const char* kind, const MetricDef& def) {
    auto it = report.values.find(def.name);
    if (it == report.values.end()) return;
    std::printf("perfbench %s: %-10s %-34s %14.6g %s\n", workload.c_str(),
                kind, def.name, it->second, def.unit);
  };
  for (const auto& def : kEndToEnd) print("end-to-end", def);
  for (const auto& def : kInfo) print("detail", def);
  for (const auto& def : kPerLayer) print("layer", def);

  JsonValue metrics = JsonValue::Object();
  auto emit = [&](const MetricDef& def) {
    JsonValue metric = JsonValue::Object();
    metric.Set("value", JsonValue::Double(report.values[def.name]));
    metric.Set("unit", JsonValue::String(def.unit));
    metrics.Set(def.name, std::move(metric));
  };
  if (options.trace) {
    for (const auto& def : kPerLayer) emit(def);
  } else {
    for (const auto& def : kEndToEnd) emit(def);
  }
  JsonValue result = JsonValue::Object();
  result.Set("correct", JsonValue::Bool(report.correct));
  result.Set("attempted", JsonValue::Uint(report.attempted));
  result.Set("failed", JsonValue::Uint(report.failed));
  result.Set("metrics", std::move(metrics));
  std::printf("%s\n", result.Serialize(0).c_str());
  return 0;
}
