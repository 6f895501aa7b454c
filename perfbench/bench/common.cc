#include <fcntl.h>
#include <sched.h>
#include <signal.h>
#include <sys/statfs.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <mutex>
#include <set>
#include <sstream>
#include <thread>

#include "bench.h"
#include "obs/metrics.h"
#include "service/wire.h"
#include "util/bitvector.h"

namespace perfbench {

namespace obs = bbsmine::obs;
using obs::JsonValue;

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec* spec : {&kServeRw, &kRoutedFanout, &kMineOffline}) {
    if (name == spec->name) return spec;
  }
  return nullptr;
}

JsonValue SpecToJson(const WorkloadSpec& spec) {
  JsonValue j = JsonValue::Object();
  j.Set("transactions", JsonValue::Uint(spec.transactions));
  j.Set("items", JsonValue::Uint(spec.items));
  j.Set("avg_transaction", JsonValue::Double(spec.avg_transaction));
  j.Set("avg_pattern", JsonValue::Double(spec.avg_pattern));
  j.Set("data_seed", JsonValue::Uint(spec.data_seed));
  j.Set("index", JsonValue::String(std::to_string(spec.bits) + " bits x " +
                                   std::to_string(spec.hashes) + " hashes"));
  j.Set("segment_capacity", JsonValue::Uint(spec.segment_capacity));
  j.Set("setup_reps", JsonValue::Int(spec.setup_reps));
  if (spec.offline_minsup > 0) {
    j.Set("minsup", JsonValue::Double(spec.offline_minsup));
    j.Set("budget", JsonValue::String("index slice bytes / " +
                                      std::to_string(spec.budget_divisor)));
    return j;
  }
  j.Set("open_share", JsonValue::Double(spec.open_share));
  j.Set("count_rps", JsonValue::Double(spec.count_rps));
  j.Set("count_connections", JsonValue::Int(spec.count_connections));
  j.Set("insert_rps", JsonValue::Double(spec.insert_rps));
  j.Set("shard_count_rps", JsonValue::Double(spec.shard_count_rps));
  j.Set("mine_period_ms", JsonValue::Double(spec.mine_period_ms));
  j.Set("mine_minsup", JsonValue::Double(spec.mine_minsup));
  j.Set("closed_connections", JsonValue::Int(spec.closed_connections));
  j.Set("daemon_threads", JsonValue::Int(spec.daemon_threads));
  j.Set("shards", JsonValue::Int(spec.shards));
  j.Set("checkpoint_every", JsonValue::Uint(spec.checkpoint_every));
  return j;
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (rank - lo);
}

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

void Report::WrongAnswer(const std::string& what) {
  correct = false;
  ++failed;
  if (errors.size() < 10) errors.push_back("wrong answer: " + what);
}

void Report::FailedOp(const std::string& what) {
  ++failed;
  if (errors.size() < 10) errors.push_back("failed: " + what);
}

// ---------------------------------------------------------------------------
// Children.
// ---------------------------------------------------------------------------

namespace {

std::mutex& ChildrenMutex() {
  static std::mutex mu;
  return mu;
}

std::set<pid_t>& LiveChildren() {
  static std::set<pid_t> pids;
  return pids;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// Waits up to `timeout_s` for `pid` to exit; true when it was reaped.
bool ReapWithin(pid_t pid, double timeout_s, int* wstatus) {
  const auto start = Clock::now();
  for (;;) {
    pid_t done = waitpid(pid, wstatus, WNOHANG);
    if (done == pid || (done < 0 && errno == ECHILD)) return true;
    if (SecondsSince(start) > timeout_s) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

}  // namespace

namespace {

void SetAffinity(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (cpus.empty()) {
    for (long c = 0; c < sysconf(_SC_NPROCESSORS_ONLN); ++c) CPU_SET(c, &set);
  }
  for (int c : cpus) CPU_SET(c, &set);
  sched_setaffinity(0, sizeof(set), &set);
}

}  // namespace

void PinCallingThread(const std::vector<int>& cpus) { SetAffinity(cpus); }

bool PinProcesses() { return sysconf(_SC_NPROCESSORS_ONLN) >= kPinnedCpus; }

void KillAllChildren() {
  std::lock_guard<std::mutex> lock(ChildrenMutex());
  for (pid_t pid : LiveChildren()) {
    kill(pid, SIGKILL);
    waitpid(pid, nullptr, 0);
  }
  LiveChildren().clear();
}

Result<std::unique_ptr<Child>> Child::Spawn(
    const std::vector<std::string>& argv, const std::string& log_path,
    const std::vector<int>& cpus) {
  std::vector<char*> args;
  for (const std::string& arg : argv) {
    args.push_back(const_cast<char*>(arg.c_str()));
  }
  args.push_back(nullptr);
  int log_fd = open(log_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (log_fd < 0) {
    return Status::IoError("cannot open " + log_path + ": " +
                           std::strerror(errno));
  }
  std::lock_guard<std::mutex> lock(ChildrenMutex());
  pid_t pid = fork();
  if (pid < 0) {
    close(log_fd);
    return Status::Internal(std::string("fork: ") + std::strerror(errno));
  }
  if (pid == 0) {
    dup2(log_fd, STDOUT_FILENO);
    dup2(log_fd, STDERR_FILENO);
    int devnull = open("/dev/null", O_RDONLY);
    if (devnull >= 0) dup2(devnull, STDIN_FILENO);
    if (!cpus.empty()) SetAffinity(cpus);
    execv(args[0], args.data());
    std::fprintf(stderr, "exec %s: %s\n", args[0], std::strerror(errno));
    _exit(127);
  }
  close(log_fd);
  LiveChildren().insert(pid);
  return std::unique_ptr<Child>(new Child(pid, log_path));
}

Child::~Child() { (void)Stop(); }

Result<uint16_t> Child::WaitForListening(const std::string& banner,
                                         double timeout_s) {
  const auto start = Clock::now();
  const std::string needle = banner + " listening on ";
  for (;;) {
    const std::string log = ReadFile(log_path_);
    size_t at = log.find(needle);
    if (at != std::string::npos) {
      size_t colon = log.find(':', at + needle.size());
      size_t end = log.find_first_not_of("0123456789", colon + 1);
      if (colon != std::string::npos && end != std::string::npos &&
          end > colon + 1) {
        return static_cast<uint16_t>(
            std::stoul(log.substr(colon + 1, end - colon - 1)));
      }
    }
    int wstatus = 0;
    if (pid_ > 0 && waitpid(pid_, &wstatus, WNOHANG) == pid_) {
      {
        std::lock_guard<std::mutex> lock(ChildrenMutex());
        LiveChildren().erase(pid_);
      }
      pid_ = -1;
      return Status::Internal(banner + " exited before listening: " + log);
    }
    if (SecondsSince(start) > timeout_s) {
      return Status::Unavailable(banner + " did not start: " + log);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

Status Child::Wait(double timeout_s) {
  int wstatus = 0;
  if (!ReapWithin(pid_, timeout_s, &wstatus)) {
    (void)Stop();
    return Status::Unavailable("timed out: " + ReadFile(log_path_));
  }
  {
    std::lock_guard<std::mutex> lock(ChildrenMutex());
    LiveChildren().erase(pid_);
  }
  pid_ = -1;
  if (!WIFEXITED(wstatus) || WEXITSTATUS(wstatus) != 0) {
    return Status::Internal("exited with status " + std::to_string(wstatus) +
                            ": " + ReadFile(log_path_));
  }
  return Status::Ok();
}

double Child::PeakRssMb() const {
  if (pid_ <= 0) return 0;
  std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

Status Child::Stop(int signal) {
  if (pid_ <= 0) return Status::Ok();
  kill(pid_, signal);
  int wstatus = 0;
  bool clean = ReapWithin(pid_, 30, &wstatus);
  if (!clean) {
    kill(pid_, SIGKILL);
    waitpid(pid_, &wstatus, 0);
  }
  {
    std::lock_guard<std::mutex> lock(ChildrenMutex());
    LiveChildren().erase(pid_);
  }
  pid_ = -1;
  if (!clean) return Status::Unavailable("did not stop on signal");
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// Clients and STATS.
// ---------------------------------------------------------------------------

Result<JsonValue> Call(bbsmine::service::ClientSession* session,
                       const JsonValue& request) {
  Result<JsonValue> response = session->Call(request, 30'000);
  if (!response.ok()) return response.status();
  if (!response->at("ok").AsBool()) {
    return Status::Unavailable(response->Serialize(0));
  }
  return response;
}

JsonValue VerbRequest(const char* verb) {
  JsonValue request = JsonValue::Object();
  request.Set("verb", JsonValue::String(verb));
  return request;
}

JsonValue CountRequest(const Itemset& items) {
  JsonValue request = VerbRequest("COUNT");
  request.Set("items", bbsmine::service::ItemsToJson(items));
  return request;
}

JsonValue InsertRequest(const Itemset& items) {
  JsonValue request = VerbRequest("INSERT");
  request.Set("items", bbsmine::service::ItemsToJson(items));
  return request;
}

JsonValue MineRequest(double minsup, int top) {
  JsonValue request = VerbRequest("MINE");
  request.Set("minsup", JsonValue::Double(minsup));
  request.Set("top", JsonValue::Int(top));
  return request;
}

Status WaitForPing(uint16_t port, double timeout_s) {
  const auto start = Clock::now();
  for (;;) {
    bbsmine::service::ClientSession session("127.0.0.1", port);
    Result<JsonValue> pong = session.Call(VerbRequest("PING"), 1000);
    if (pong.ok() && pong->at("ok").AsBool()) return Status::Ok();
    if (SecondsSince(start) > timeout_s) {
      return Status::Unavailable("no PING answer on port " +
                                 std::to_string(port));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

std::vector<uint64_t> HistogramBuckets(const JsonValue& stats,
                                       const std::string& section,
                                       const std::string& name) {
  std::vector<uint64_t> buckets(obs::DepthHistogram::kMaxTrackedDepth + 1, 0);
  const JsonValue& h =
      stats.at("report").at("metrics").at(section).at(name);
  if (h.kind() != JsonValue::Kind::kObject) return buckets;
  buckets[0] = h.at("overflow").AsUint();
  const JsonValue& by_depth = h.at("by_depth");
  for (size_t d = 0; d < by_depth.size() && d + 1 < buckets.size(); ++d) {
    buckets[d + 1] = by_depth.at(d).AsUint();
  }
  return buckets;
}

double DiffP50(const JsonValue& before, const JsonValue& after,
               const std::string& section, const std::string& name) {
  std::vector<uint64_t> a = HistogramBuckets(before, section, name);
  std::vector<uint64_t> b = HistogramBuckets(after, section, name);
  for (size_t i = 0; i < b.size(); ++i) b[i] -= std::min(a[i], b[i]);
  return obs::PercentileFromLog2Buckets(b, 0.5);
}

double StatsNumber(const JsonValue& stats, const std::string& dotted_path) {
  const JsonValue* node = &stats.at("report");
  std::stringstream path(dotted_path);
  std::string key;
  while (std::getline(path, key, '.')) node = &node->at(key);
  return node->is_number() ? node->AsDouble() : 0;
}

HostSample SampleHost() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  HostSample sample;
  // user nice system idle iowait irq softirq steal (guest time is already
  // inside user).
  for (int field = 0; field < 8; ++field) {
    uint64_t ticks = 0;
    if (!(in >> ticks)) break;
    sample.total += ticks;
    if (field == 7) sample.steal = ticks;
  }
  return sample;
}

double StealShare(const HostSample& before, const HostSample& after) {
  const uint64_t total = after.total - before.total;
  return total == 0 ? 0
                    : static_cast<double>(after.steal - before.steal) / total;
}

StealTimeline::StealTimeline()
    : thread_([this] {
        std::unique_lock<std::mutex> lock(mu_);
        do {
          const Sample sample{Clock::now(), SampleHost()};
          samples_.push_back(sample);
        } while (!cv_.wait_for(lock, std::chrono::milliseconds(50),
                               [this] { return stop_; }));
      }) {}

StealTimeline::~StealTimeline() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  thread_.join();
}

double StealTimeline::Share(Clock::time_point from,
                            Clock::time_point to) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (samples_.empty()) return 0;
  size_t first = 0, last = samples_.size() - 1;
  for (size_t i = 0; i < samples_.size(); ++i) {
    if (samples_[i].at <= from) first = i;
    if (samples_[i].at >= to) {
      last = i;
      break;
    }
  }
  return StealShare(samples_[first].host, samples_[last].host);
}

double CalmMedian(const std::vector<double>& values,
                  const std::vector<double>& steal) {
  if (values.empty()) return 0;
  std::vector<double> sorted = steal;
  std::sort(sorted.begin(), sorted.end());
  const size_t take = std::min(
      sorted.size(), std::max<size_t>(5, (sorted.size() + 9) / 10));
  const double limit = sorted[take - 1];
  std::vector<double> calm;
  for (size_t i = 0; i < values.size(); ++i) {
    if (steal[i] <= limit) calm.push_back(values[i]);
  }
  return Median(calm);
}

double CalibrationMs() {
  // A dependent chain of multiply, xor-shift and popcount over 256 KiB
  // (cache-resident), ~10 ms a pass on the reference machine.
  std::vector<uint64_t> words(32 * 1024);
  for (size_t i = 0; i < words.size(); ++i) {
    words[i] = (i + 1) * 0x9e3779b97f4a7c15ull;
  }
  std::vector<double> ms;
  uint64_t acc = 0;
  for (int pass = 0; pass < 7; ++pass) {
    const auto start = Clock::now();
    for (int round = 0; round < 64; ++round) {
      for (uint64_t w : words) {
        acc = (acc ^ w) * 0xbf58476d1ce4e5b9ull;
        acc ^= (acc >> 29) + static_cast<uint64_t>(__builtin_popcountll(acc));
      }
    }
    ms.push_back(SecondsSince(start) * 1e3);
  }
  asm volatile("" : : "r"(acc));  // keep the loop
  return Median(ms);
}

std::string FilesystemType(const std::string& path) {
  struct statfs fs {};
  if (statfs(path.c_str(), &fs) != 0) return "unknown";
  const unsigned long magic = static_cast<unsigned long>(fs.f_type);
  if (magic == 0x01021994) return "tmpfs";
  if (magic == 0xEF53) return "ext4";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%lx", magic);
  return buf;
}

bbsmine::BbsConfig IndexConfig(const WorkloadSpec& spec) {
  bbsmine::BbsConfig config;
  config.num_bits = spec.bits;
  config.num_hashes = spec.hashes;
  return config;
}

uint64_t CountPrefix(const bbsmine::BitVector& bits, uint64_t prefix) {
  prefix = std::min<uint64_t>(prefix, bits.size());
  const auto& words = bits.words();
  uint64_t count = 0;
  const size_t full = prefix / 64;
  for (size_t w = 0; w < full; ++w) count += __builtin_popcountll(words[w]);
  if (prefix % 64 != 0) {
    count += __builtin_popcountll(words[full] &
                                  ((uint64_t{1} << (prefix % 64)) - 1));
  }
  return count;
}

}  // namespace perfbench
