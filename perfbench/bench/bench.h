// The repo benchmark: workload definitions, the seeded request
// streams, the process and client plumbing shared by the workloads, and the
// report every run prints. See perfbench/README.md for what each workload
// and metric means.

#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <signal.h>
#include <sys/types.h>

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/bbs_index.h"
#include "obs/json.h"
#include "obs/trace.h"
#include "service/client.h"
#include "storage/transaction_db.h"
#include "util/status.h"

namespace perfbench {

using bbsmine::Itemset;
using bbsmine::Result;
using bbsmine::Status;
using bbsmine::TransactionDatabase;
using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------------------
// Workload definitions. Every rate, connection count and size is a constant
// here, never derived from a measurement, so a faster build sees exactly the
// load its parent saw.
// ---------------------------------------------------------------------------

struct WorkloadSpec {
  const char* name;
  // The Quest database. It is fixed per workload (constant generator seed):
  // the run's --seed drives the request stream, so seed-to-seed spread
  // measures the programs rather than the data.
  uint32_t transactions = 100'000;
  uint32_t items = 1'000;
  double avg_transaction = 10;
  double avg_pattern = 4;
  uint64_t data_seed = 2002;
  // Extra transactions generated with the database and held out: INSERT
  // draws its transactions from them.
  uint32_t insert_pool = 0;
  // The index: m bit-slices, k hashes, transactions per segment (the
  // daemon's default segment capacity).
  uint32_t bits = 1600;
  uint32_t hashes = 4;
  uint64_t segment_capacity = 4096;

  // Set-up is repeated this many times per run; setup_s is the median.
  int setup_reps = 3;
  // Closed-loop COUNTs sent after start-up and before timing (not timed).
  int warmup_counts = 400;

  // Serving workloads: the open-loop phase takes open_share of --seconds,
  // the closed-loop max_ops_per_s phase the rest.
  double open_share = 0.7;
  // Poisson, split evenly over the connections; about a tenth of the
  // closed-loop capacity, so a host that slows down 3x still leaves the
  // daemon far from saturation.
  double count_rps = 0;
  int count_connections = 0;
  double insert_rps = 0;       // Poisson, one connection
  // Poisson COUNTs sent straight to the first shard, past the router, on
  // one connection (routed_fanout): the shard's own COUNT path.
  double shard_count_rps = 0;
  double mine_period_ms = 0;   // fixed period, one connection
  double mine_minsup = 0;
  int mine_top = 20;
  int closed_connections = 2;  // closed-loop COUNT connections
  int daemon_threads = 1;      // bbsmined --threads
  int shards = 0;              // 0 = one bbsmined; N = bbsrouter + N shards
  bool durable = false;        // --durable-dir, --fsync always
  uint64_t checkpoint_every = 0;

  // mine_offline.
  double offline_minsup = 0;
  uint64_t budget_divisor = 0;  // adaptive budget = index slice bytes / this
};

inline constexpr WorkloadSpec kServeRw{
    .name = "serve_rw",
    .insert_pool = 20'000,
    .count_rps = 1000,
    .count_connections = 2,
    .insert_rps = 100,
    .mine_period_ms = 700,
    .mine_minsup = 0.0175,
    .durable = true,
    .checkpoint_every = 450,
};

inline constexpr WorkloadSpec kRoutedFanout{
    .name = "routed_fanout",
    .count_rps = 600,
    .count_connections = 2,
    .shard_count_rps = 200,
    .mine_period_ms = 700,
    .mine_minsup = 0.02,
    .closed_connections = 1,
    .shards = 2,
};

inline constexpr WorkloadSpec kMineOffline{
    .name = "mine_offline",
    .offline_minsup = 0.01,
    .budget_divisor = 4,
};

/// The spec named `name`, or nullptr.
const WorkloadSpec* FindWorkload(const std::string& name);

/// The spec as JSON (echoed into every result's environment stamp).
bbsmine::obs::JsonValue SpecToJson(const WorkloadSpec& spec);

// ---------------------------------------------------------------------------
// Inputs: a pure function of (workload, seed).
// ---------------------------------------------------------------------------

struct Inputs {
  TransactionDatabase base;        // served / mined database
  std::vector<Itemset> insert_pool;
};

/// The workload's database (and held-out INSERT pool).
Inputs GenerateInputs(const WorkloadSpec& spec);

struct TimedItems {
  double due_s = 0;  // offset from the start of the phase
  Itemset items;
};

/// The open-loop request stream of one run.
struct RequestStream {
  std::vector<std::vector<TimedItems>> count;  // one schedule per connection
  std::vector<TimedItems> insert;
  std::vector<TimedItems> shard_count;         // straight to the first shard
  std::vector<double> mine;                    // MINE due times
};

/// Itemsets of 2 or 3 distinct items, each item drawn by the data's own
/// frequencies (a random item of a random transaction).
std::vector<Itemset> DrawItemsets(const TransactionDatabase& db, uint64_t seed,
                                  size_t n);

/// The open-loop stream for a phase of `seconds`. Longer phases extend the
/// same stream.
RequestStream MakeRequestStream(const WorkloadSpec& spec, const Inputs& inputs,
                                uint64_t seed, double seconds);

/// Canonical text form of a stream (for the determinism test).
std::string SerializeStream(const RequestStream& stream);

/// Derives an independent seed for one named stream of a run.
uint64_t SubSeed(uint64_t seed, const char* workload, const char* stream,
                 uint64_t index = 0);

// ---------------------------------------------------------------------------
// Statistics and the report.
// ---------------------------------------------------------------------------

/// Linear-interpolated q-quantile (numpy's default); 0 for an empty input.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

/// Seconds elapsed since `start`.
double SecondsSince(Clock::time_point start);

struct Report {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool correct = true;
  // Why the run measured the host or the generator rather than the
  // programs (empty: the run is valid). An invalid run still reports, and
  // says so in its stamp.
  std::string invalid;
  std::vector<std::string> errors;       // first check failures, for stderr
  std::map<std::string, double> values;  // every metric measured, by name
  bbsmine::obs::JsonValue stamp = bbsmine::obs::JsonValue::Object();

  /// Records a wrong answer: the run is no longer correct.
  void WrongAnswer(const std::string& what);
  /// Records a failed operation (error, timeout, rejection).
  void FailedOp(const std::string& what);
};

struct RunOptions {
  const WorkloadSpec* spec = nullptr;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string bin_dir;   // bbsmined, bbsrouter, bbsmine
  std::string work_dir;  // scratch space inside the checkout
  std::string trace_path;
};

Report RunServing(const RunOptions& options);
Report RunMineOffline(const RunOptions& options);

// ---------------------------------------------------------------------------
// Processes and clients.
// ---------------------------------------------------------------------------

/// A spawned program (bbsmined / bbsrouter / bbsmine) whose stdout and
/// stderr go to a log file. The destructor stops it.
class Child {
 public:
  /// Starts argv[0]; a non-empty `cpus` pins it (and all its threads) to
  /// those CPUs.
  static Result<std::unique_ptr<Child>> Spawn(
      const std::vector<std::string>& argv, const std::string& log_path,
      const std::vector<int>& cpus = {});
  ~Child();
  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;

  /// Waits for "<banner> HOST:PORT" in the log and returns the port.
  Result<uint16_t> WaitForListening(const std::string& banner,
                                    double timeout_s);
  /// Runs to completion (for one-shot tools); returns the exit status.
  Status Wait(double timeout_s);
  /// Peak resident set (VmHWM), in MB.
  double PeakRssMb() const;
  /// Sends `signal` (SIGTERM: a graceful drain), then SIGKILL if it has
  /// not exited in time.
  Status Stop(int signal = SIGTERM);

 private:
  Child(pid_t pid, std::string log_path)
      : pid_(pid), log_path_(std::move(log_path)) {}
  pid_t pid_;
  std::string log_path_;
};

/// Kills every child still running (the watchdog's last resort).
void KillAllChildren();

/// Pins the calling thread (and the threads it creates afterwards) to
/// `cpus`; an empty list means every online CPU.
void PinCallingThread(const std::vector<int>& cpus);

/// With at least kPinnedCpus CPUs, every timed process and thread runs on
/// fixed CPUs, so the scheduler cannot, run to run, place (say) both
/// shards' MINE work on one CPU, or spread one COUNT's thread hand-offs
/// over more CPUs than it needs. Fewer CPUs: nothing is pinned.
inline constexpr int kPinnedCpus = 4;
bool PinProcesses();

/// Sends `request` and returns the response if it is ok:true.
Result<bbsmine::obs::JsonValue> Call(bbsmine::service::ClientSession* session,
                                     const bbsmine::obs::JsonValue& request);

bbsmine::obs::JsonValue VerbRequest(const char* verb);
bbsmine::obs::JsonValue CountRequest(const Itemset& items);
bbsmine::obs::JsonValue InsertRequest(const Itemset& items);
bbsmine::obs::JsonValue MineRequest(double minsup, int top);

/// Polls PING until the endpoint answers.
Status WaitForPing(uint16_t port, double timeout_s);

/// The `latency_us.<verb>` (or cluster.fanout_us) histogram buckets of a
/// STATS report, in PercentileFromLog2Buckets layout.
std::vector<uint64_t> HistogramBuckets(const bbsmine::obs::JsonValue& stats,
                                       const std::string& section,
                                       const std::string& name);
/// p50 of the observations added between two STATS reports.
double DiffP50(const bbsmine::obs::JsonValue& before,
               const bbsmine::obs::JsonValue& after,
               const std::string& section, const std::string& name);
/// A numeric field at a dotted path of a STATS report (0 when absent).
double StatsNumber(const bbsmine::obs::JsonValue& stats,
                   const std::string& dotted_path);

/// The VM's CPU time so far, from the aggregate line of /proc/stat, in
/// clock ticks: `steal` is time the hypervisor gave to someone else while
/// this VM had work to run.
struct HostSample {
  uint64_t steal = 0;
  uint64_t total = 0;
};
HostSample SampleHost();
/// Stolen share of the CPU time between two samples (0 if none passed).
double StealShare(const HostSample& before, const HostSample& after);
/// Median wall time of a fixed CPU-bound loop, in ms: the same work on
/// every build, so a change in it is a change in the host.
double CalibrationMs();

/// Samples /proc/stat every 50 ms on a thread of its own while it lives,
/// so the stolen share of any stretch of the run can be looked up after.
class StealTimeline {
 public:
  StealTimeline();
  ~StealTimeline();
  StealTimeline(const StealTimeline&) = delete;
  StealTimeline& operator=(const StealTimeline&) = delete;

  /// Stolen share of the CPU time from `from` to `to` (widened to the
  /// samples around them).
  double Share(Clock::time_point from, Clock::time_point to) const;

 private:
  struct Sample {
    Clock::time_point at;
    HostSample host;
  };
  mutable std::mutex mu_;
  std::vector<Sample> samples_;
  bool stop_ = false;
  std::condition_variable cv_;
  std::thread thread_;  // last: starts once the members above exist
};

/// The host moves a timed stretch's figure for reasons of its own: a
/// request or window during which the hypervisor ran someone else on this
/// VM's CPUs measures the host. A metric is therefore the median of
/// `values` over the tenth of them (rounded up, at least five) with the
/// smallest `steal` shares, and every value tied with them (on a calm host,
/// where most stretches lost no time, that is most of them); a change in
/// the programs moves every value alike.
double CalmMedian(const std::vector<double>& values,
                  const std::vector<double>& steal);

/// A run is invalid when even the calm quarter of twenty equal windows of
/// its timed phase (for mine_offline, the whole phase) had more than this
/// share of the VM's CPU time stolen.
inline constexpr double kMaxCalmSteal = 0.03;

/// Filesystem of `path`: "tmpfs", "ext4", or its magic number in hex.
std::string FilesystemType(const std::string& path);

/// The BBS config every workload indexes with.
bbsmine::BbsConfig IndexConfig(const WorkloadSpec& spec);

/// Number of transactions in [0, prefix) whose bit is set in `bits`.
uint64_t CountPrefix(const bbsmine::BitVector& bits, uint64_t prefix);

// ---------------------------------------------------------------------------
// Per-layer replays (traced runs): each calls one module's public function
// directly, off the socket, on the workload's own inputs, with one span per
// call under one span per layer.
// ---------------------------------------------------------------------------

/// Runs the replays of the layers the workload exercises and stores their
/// metrics (and each COUNT layer's self time) in `report`; a layer the
/// workload does not reach is not replayed and its metrics read 0.
void ReplayLayers(const RunOptions& options, const Inputs& inputs,
                  const std::vector<Itemset>& queries,
                  const std::vector<Itemset>& inserts, Report* report,
                  bbsmine::obs::Tracer* tracer);

/// Median wall time of BbsIndex::Fold to the width the adaptive miner folds
/// to under `budget_bytes`, in ms.
double ReplayFold(const bbsmine::BbsIndex& index, uint64_t budget_bytes,
                  bbsmine::obs::Tracer* tracer);

/// Writes the run's spans (Chrome trace format) to options.trace_path.
void WriteTrace(const RunOptions& options, const bbsmine::obs::Tracer& tracer,
                Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
