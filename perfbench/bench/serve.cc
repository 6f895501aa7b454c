// serve_rw and routed_fanout: the programs as shipped (bbsmined, and
// bbsrouter in front of bbsmined shards), driven over their sockets by an
// open-loop generator, then a closed-loop capacity phase.

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <numeric>
#include <thread>

#include "baseline/eclat.h"
#include "bench.h"
#include "core/segmented_bbs.h"
#include "service/wire.h"

namespace perfbench {

namespace obs = bbsmine::obs;
using obs::JsonValue;
using bbsmine::service::ClientSession;

namespace {

// Generator lag is how late a send left for reasons on the generator's side
// alone (after its due time and after the previous answer on its
// connection). Isolated hiccups of a couple of ms hit a shared VM as a
// whole, server included; a generator that fell behind sends more than 1 %
// of its requests over 5 ms late (about ten COUNT latencies), and the run
// is invalid: its latencies measure the generator, not the programs.
constexpr double kLateSendS = 0.005;
constexpr double kMaxLateShare = 0.01;

struct Fleet {
  std::vector<std::unique_ptr<Child>> daemons;  // bbsmined processes
  std::unique_ptr<Child> router;
  uint16_t port = 0;                 // where clients connect
  std::vector<uint16_t> daemon_ports;

  double PeakRssMb() const {
    double mb = router ? router->PeakRssMb() : 0;
    for (const auto& d : daemons) mb += d->PeakRssMb();
    return mb;
  }
  // SIGTERM drains (and, durable, checkpoints); SIGKILL discards a set-up
  // repetition without writing a final checkpoint nobody reads.
  Status Stop(int signal = SIGTERM) {
    Status status = Status::Ok();
    if (router) status = router->Stop(signal);
    for (auto& d : daemons) {
      Status stopped = d->Stop(signal);
      if (status.ok()) status = stopped;
    }
    router.reset();
    daemons.clear();
    return status;
  }
};

struct Record {
  size_t index = 0;  // position in its schedule
  double due = 0, sent = 0, done = 0;
  bool ok = false;
  std::string error;
  JsonValue response;
};

double LatencyS(const Record& r) { return r.done - r.due; }

// The timed phase alternates kParts times between a stretch of the open
// loop and a stretch of the closed loop, so that both sample the whole run:
// a spell of interference from outside the benchmark that covers one end
// of the run leaves calm stretches of each. The closed loop's throughput is
// the CalmMedian of the rates of kWindows equal windows (kWindows / kParts
// per stretch); the whole phase is cut into as many equal windows to decide
// whether the run is valid. Open-loop latencies are taken per request
// (CalmLatency).
constexpr int kParts = 5;
constexpr int kWindows = 20;

Clock::time_point At(Clock::time_point t0, double s) {
  return t0 + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(s));
}

// The stolen share of each of kWindows equal windows of `phase_s` from t0.
std::vector<double> WindowSteal(const StealTimeline& timeline,
                                Clock::time_point t0, double phase_s) {
  std::vector<double> steal;
  for (int w = 0; w < kWindows; ++w) {
    steal.push_back(timeline.Share(At(t0, phase_s * w / kWindows),
                                   At(t0, phase_s * (w + 1) / kWindows)));
  }
  return steal;
}

std::vector<double> Collect(const std::vector<Record>& records,
                            double scale) {
  std::vector<double> out;
  out.reserve(records.size());
  for (const Record& r : records) out.push_back(LatencyS(r) * scale);
  return out;
}

// CalmMedian of the latencies (times `scale`) of `records`, each weighed by
// the steal over its own lifetime from its due time (widened to the 50 ms
// samples around it): a burst of interference from outside the benchmark
// moves the requests it overlapped, not the run.
double CalmLatency(const std::vector<Record>& records, Clock::time_point t0,
                   const StealTimeline& timeline, double scale) {
  std::vector<double> latency, steal;
  for (const Record& r : records) {
    latency.push_back(LatencyS(r) * scale);
    steal.push_back(timeline.Share(At(t0, r.due), At(t0, r.done)));
  }
  return CalmMedian(latency, steal);
}

Status SaveSegmented(const WorkloadSpec& spec, const TransactionDatabase& db,
                     const std::string& prefix, double* build_s) {
  Result<bbsmine::SegmentedBbs> index =
      bbsmine::SegmentedBbs::Create(IndexConfig(spec), spec.segment_capacity);
  if (!index.ok()) return index.status();
  const auto start = Clock::now();
  BBSMINE_RETURN_IF_ERROR(index->InsertAll(db));
  *build_s += SecondsSince(start);
  return index->Save(prefix);
}

// The CPU layout (see PinProcesses): the generator takes the last CPU;
// bbsmined two others (serve_rw), or one CPU per shard and one for
// bbsrouter (routed_fanout). Letting both shards share CPUs 0-1 instead
// raised the routed COUNT p50 from ~0.7 ms to ~1.0 ms: the kernel often
// woke both legs of a COUNT on one CPU.
std::vector<int> GeneratorCpus() {
  if (!PinProcesses()) return {};
  return {kPinnedCpus - 1};
}

std::vector<int> DaemonCpus(const WorkloadSpec& spec, int shard) {
  if (!PinProcesses()) return {};
  if (spec.shards == 0) return {0, 1};
  return {shard % (kPinnedCpus - 2)};
}

std::vector<int> RouterCpus() {
  if (!PinProcesses()) return {};
  return {kPinnedCpus - 2};
}

Result<std::unique_ptr<Child>> StartDaemon(const RunOptions& o,
                                           const std::string& name,
                                           std::vector<std::string> extra,
                                           const std::vector<int>& cpus,
                                           uint16_t* port) {
  const WorkloadSpec& spec = *o.spec;
  const std::string prefix = o.work_dir + "/" + name;
  std::vector<std::string> argv = {
      o.bin_dir + "/bbsmined", "--index", prefix + ".seg", "--db",
      prefix + ".db", "--port", "0", "--threads",
      std::to_string(spec.daemon_threads)};
  argv.insert(argv.end(), extra.begin(), extra.end());
  Result<std::unique_ptr<Child>> child =
      Child::Spawn(argv, prefix + ".log", cpus);
  if (!child.ok()) return child.status();
  Result<uint16_t> listening = (*child)->WaitForListening("bbsmined", 60);
  if (!listening.ok()) return listening.status();
  *port = *listening;
  return child;
}

// One complete set-up: inputs, saved index and database, the processes up
// and answering, and the fixed warm-up.
Result<Fleet> SetUp(const RunOptions& o, Inputs* inputs, double* build_s) {
  const WorkloadSpec& spec = *o.spec;
  std::filesystem::remove_all(o.work_dir);
  std::filesystem::create_directories(o.work_dir);
  *inputs = GenerateInputs(spec);
  BBSMINE_RETURN_IF_ERROR(inputs->base.Save(o.work_dir + "/base.db"));
  Fleet fleet;
  *build_s = 0;
  if (spec.shards == 0) {
    BBSMINE_RETURN_IF_ERROR(SaveSegmented(spec, inputs->base,
                                          o.work_dir + "/base.seg", build_s));
    std::vector<std::string> extra;
    if (spec.durable) {
      extra = {"--durable-dir", o.work_dir + "/durable", "--fsync", "always",
               "--checkpoint-every", std::to_string(spec.checkpoint_every)};
    }
    uint16_t port = 0;
    auto daemon = StartDaemon(o, "base", extra, DaemonCpus(spec, 0), &port);
    if (!daemon.ok()) return daemon.status();
    fleet.daemons.push_back(std::move(*daemon));
    fleet.daemon_ports.push_back(port);
    fleet.port = port;
  } else {
    auto split = Child::Spawn(
        {o.bin_dir + "/bbsmine", "split", "--db", o.work_dir + "/base.db",
         "--shards", std::to_string(spec.shards), "--out-prefix",
         o.work_dir + "/shard"},
        o.work_dir + "/split.log");
    if (!split.ok()) return split.status();
    BBSMINE_RETURN_IF_ERROR((*split)->Wait(60));
    std::string shard_list;
    for (int s = 0; s < spec.shards; ++s) {
      const std::string name = "shard." + std::to_string(s);
      Result<TransactionDatabase> part =
          TransactionDatabase::Load(o.work_dir + "/" + name + ".db");
      if (!part.ok()) return part.status();
      BBSMINE_RETURN_IF_ERROR(SaveSegmented(
          spec, *part, o.work_dir + "/" + name + ".seg", build_s));
      uint16_t port = 0;
      auto daemon = StartDaemon(o, name, {}, DaemonCpus(spec, s), &port);
      if (!daemon.ok()) return daemon.status();
      fleet.daemons.push_back(std::move(*daemon));
      fleet.daemon_ports.push_back(port);
      if (!shard_list.empty()) shard_list += ",";
      shard_list += "127.0.0.1:" + std::to_string(port);
    }
    auto router = Child::Spawn({o.bin_dir + "/bbsrouter", "--shards",
                                shard_list, "--port", "0"},
                               o.work_dir + "/router.log", RouterCpus());
    if (!router.ok()) return router.status();
    fleet.router = std::move(*router);
    Result<uint16_t> port = fleet.router->WaitForListening("bbsrouter", 60);
    if (!port.ok()) return port.status();
    fleet.port = *port;
  }
  BBSMINE_RETURN_IF_ERROR(WaitForPing(fleet.port, 30));
  ClientSession session("127.0.0.1", fleet.port);
  for (const Itemset& items :
       DrawItemsets(inputs->base, SubSeed(o.seed, spec.name, "warmup"),
                    spec.warmup_counts)) {
    Result<JsonValue> answer = Call(&session, CountRequest(items));
    if (!answer.ok()) return answer.status();
  }
  return fleet;
}

// Sends requests[i] at t0 + dues[i] on one connection, timing each from
// its due time.
void RunSchedule(uint16_t port, const std::vector<double>& dues,
                 const std::vector<JsonValue>& requests,
                 Clock::time_point t0, obs::Tracer* tracer,
                 const char* span_name, std::vector<Record>* records,
                 std::vector<double>* lags) {
  ClientSession session("127.0.0.1", port);
  double prev_done = 0;
  for (size_t i = 0; i < dues.size(); ++i) {
    std::this_thread::sleep_until(At(t0, dues[i]));
    Record r;
    r.index = i;
    r.due = dues[i];
    r.sent = SecondsSince(t0);
    lags->push_back(r.sent - std::max(r.due, prev_done));
    const double span_start = tracer ? tracer->NowMicros() : 0;
    Result<JsonValue> response = session.Call(requests[i], 30'000);
    r.done = SecondsSince(t0);
    prev_done = r.done;
    if (tracer) {
      tracer->AddComplete(obs::kTraceRequest, span_name, span_start,
                          tracer->NowMicros() - span_start,
                          "\"due_lag_us\": " +
                              std::to_string((r.sent - r.due) * 1e6));
    }
    if (!response.ok()) {
      r.error = response.status().ToString();
    } else if (!response->at("ok").AsBool()) {
      r.error = response->Serialize(0);
    } else {
      r.ok = true;
      r.response = std::move(*response);
    }
    records->push_back(std::move(r));
  }
}

// The timed phase: kParts periods, each an open-loop stretch followed by a
// closed-loop stretch. Times count from the start of the phase.
struct Phase {
  double open_s = 0;    // the open-loop stream's length, all stretches
  double closed_s = 0;  // likewise, the closed loop's
  double Period() const { return (open_s + closed_s) / kParts; }
  // When a request due `due` seconds into the open-loop stream is sent.
  double Send(double due) const {
    const double stretch = open_s / kParts;
    const int part = std::min(kParts - 1, static_cast<int>(due / stretch));
    return due + part * (closed_s / kParts);
  }
  double ClosedStart(int part) const {
    return part * Period() + open_s / kParts;
  }
};

struct OpenLoop {
  std::vector<std::vector<Record>> count;  // per connection
  std::vector<Record> insert, shard_count, mine;
  std::vector<double> lags;
};

// Runs the stream from t0, one thread and connection per lane: the COUNT,
// INSERT and MINE lanes to `port`, the direct shard COUNTs to `shard_port`;
// each request is sent at phase.Send(its due time).
OpenLoop RunOpenLoop(const WorkloadSpec& spec, uint16_t port,
                     uint16_t shard_port, const RequestStream& stream,
                     const Phase& phase, Clock::time_point t0,
                     obs::Tracer* tracer) {
  struct Lane {
    uint16_t port;
    const char* span;
    std::vector<Record>* records;
    std::vector<double> dues;
    std::vector<JsonValue> requests;
    std::vector<double> lags;
  };
  OpenLoop out;
  out.count.resize(stream.count.size());
  std::vector<Lane> lanes;
  auto add_lane = [&](uint16_t to, const char* span,
                      std::vector<Record>* records,
                      const std::vector<TimedItems>& ops, auto make_request) {
    if (ops.empty()) return;
    Lane lane{to, span, records, {}, {}, {}};
    for (const TimedItems& op : ops) {
      lane.dues.push_back(phase.Send(op.due_s));
      lane.requests.push_back(make_request(op.items));
    }
    lanes.push_back(std::move(lane));
  };
  for (size_t c = 0; c < stream.count.size(); ++c) {
    add_lane(port, "client.COUNT", &out.count[c], stream.count[c],
             CountRequest);
  }
  add_lane(port, "client.INSERT", &out.insert, stream.insert, InsertRequest);
  add_lane(shard_port, "client.shard.COUNT", &out.shard_count,
           stream.shard_count, CountRequest);
  if (!stream.mine.empty()) {
    Lane lane{port, "client.MINE", &out.mine, {}, {}, {}};
    for (double due : stream.mine) {
      lane.dues.push_back(phase.Send(due));
      lane.requests.push_back(MineRequest(spec.mine_minsup, spec.mine_top));
    }
    lanes.push_back(std::move(lane));
  }
  std::vector<std::thread> threads;
  for (Lane& lane : lanes) {
    threads.emplace_back([&] {
      RunSchedule(lane.port, lane.dues, lane.requests, t0, tracer, lane.span,
                  lane.records, &lane.lags);
    });
  }
  for (std::thread& t : threads) t.join();
  for (Lane& lane : lanes) {
    out.lags.insert(out.lags.end(), lane.lags.begin(), lane.lags.end());
  }
  return out;
}

struct ClosedLoop {
  std::vector<Record> records;
  std::vector<Itemset> items;  // items of records[i] (by record.index)
  // kWindows equal windows, kWindows / kParts per stretch: start, end (from
  // t0) and completed COUNTs.
  std::vector<double> window_start, window_end, window_done;
};

// `connections` callers sending COUNTs back to back during the phase's
// closed-loop stretches, from t0.
ClosedLoop RunClosedLoop(const WorkloadSpec& spec, const Inputs& inputs,
                         uint16_t port, uint64_t seed, const Phase& phase,
                         Clock::time_point t0, obs::Tracer* tracer) {
  constexpr size_t kPool = 4096;
  const int n = spec.closed_connections;
  const double stretch = phase.closed_s / kParts;
  std::vector<std::vector<Itemset>> pools(n);
  std::vector<std::vector<JsonValue>> requests(n);
  for (int c = 0; c < n; ++c) {
    pools[c] = DrawItemsets(inputs.base, SubSeed(seed, spec.name, "closed", c),
                            kPool);
    for (const Itemset& items : pools[c]) {
      requests[c].push_back(CountRequest(items));
    }
  }
  std::vector<std::vector<Record>> per_thread(n);
  std::vector<std::thread> threads;
  for (int c = 0; c < n; ++c) {
    threads.emplace_back([&, c] {
      ClientSession session("127.0.0.1", port);
      size_t i = 0;
      for (int part = 0; part < kParts; ++part) {
        const double start = phase.ClosedStart(part);
        std::this_thread::sleep_until(At(t0, start));
        while (SecondsSince(t0) < start + stretch) {
          Record r;
          r.index = i++ % kPool;
          r.due = r.sent = SecondsSince(t0);
          const double span_start = tracer ? tracer->NowMicros() : 0;
          Result<JsonValue> response = session.Call(requests[c][r.index],
                                                    30'000);
          r.done = SecondsSince(t0);
          if (tracer) {
            tracer->AddComplete(obs::kTraceRequest, "client.closed.COUNT",
                                span_start, tracer->NowMicros() - span_start);
          }
          if (response.ok() && response->at("ok").AsBool()) {
            r.ok = true;
            r.response = std::move(*response);
          } else {
            r.error = response.ok() ? response->Serialize(0)
                                    : response.status().ToString();
          }
          per_thread[c].push_back(std::move(r));
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  ClosedLoop out;
  constexpr int kStretchWindows = kWindows / kParts;
  const double window_s = stretch / kStretchWindows;
  for (int part = 0; part < kParts; ++part) {
    for (int w = 0; w < kStretchWindows; ++w) {
      out.window_start.push_back(phase.ClosedStart(part) + w * window_s);
      out.window_end.push_back(out.window_start.back() + window_s);
      out.window_done.push_back(0);
    }
  }
  for (int c = 0; c < n; ++c) {
    for (Record& r : per_thread[c]) {
      const auto w = std::upper_bound(out.window_start.begin(),
                                      out.window_start.end(), r.done) -
                     out.window_start.begin() - 1;
      if (w >= 0 && r.done < out.window_end[w]) out.window_done[w] += 1;
      out.items.push_back(pools[c][r.index]);
      r.index = out.records.size();
      out.records.push_back(std::move(r));
    }
  }
  return out;
}

uint64_t Field(const JsonValue& response, const char* key) {
  return response.at(key).is_number() ? response.at(key).AsUint() : 0;
}

// The daemon's MINE answer for `db`: patterns sorted by support desc then
// items asc, truncated to `top`.
struct MineAnswer {
  uint64_t total = 0;
  std::vector<bbsmine::Pattern> top;
};

MineAnswer OracleMine(const TransactionDatabase& db, double minsup, int top) {
  bbsmine::EclatConfig config;
  config.min_support = minsup;
  bbsmine::MiningResult result = bbsmine::MineEclat(db, config);
  std::sort(result.patterns.begin(), result.patterns.end(),
            [](const bbsmine::Pattern& a, const bbsmine::Pattern& b) {
              if (a.support != b.support) return a.support > b.support;
              return a.items < b.items;
            });
  MineAnswer answer;
  answer.total = result.patterns.size();
  if (result.patterns.size() > static_cast<size_t>(top)) {
    result.patterns.resize(top);
  }
  answer.top = std::move(result.patterns);
  return answer;
}

bool SameMine(const JsonValue& response, const MineAnswer& oracle) {
  if (Field(response, "total_frequent") != oracle.total) return false;
  const JsonValue& patterns = response.at("patterns");
  if (patterns.size() != oracle.top.size()) return false;
  for (size_t i = 0; i < patterns.size(); ++i) {
    Result<Itemset> items =
        bbsmine::service::ItemsFromJson(patterns.at(i).at("items"));
    if (!items.ok() || *items != oracle.top[i].items ||
        patterns.at(i).at("support").AsUint() != oracle.top[i].support) {
      return false;
    }
  }
  return true;
}

Result<JsonValue> Stats(uint16_t port) {
  ClientSession session("127.0.0.1", port);
  return Call(&session, VerbRequest("STATS"));
}

double Mean(const std::vector<double>& v) {
  return v.empty() ? 0 : std::accumulate(v.begin(), v.end(), 0.0) / v.size();
}

}  // namespace

Report RunServing(const RunOptions& o) {
  const WorkloadSpec& spec = *o.spec;
  const bool routed = spec.shards > 0;
  Report report;
  obs::Tracer tracer(obs::kTraceDefault | obs::kTraceRequest);
  obs::Tracer* tr = o.trace ? &tracer : nullptr;

  // --- Set-up, repeated; the last fleet serves the measurement. ---
  Inputs inputs;
  Fleet fleet;
  std::vector<double> setup_s, build_s;
  for (int rep = 0; rep < spec.setup_reps; ++rep) {
    if (rep > 0) (void)fleet.Stop(SIGKILL);
    const auto start = Clock::now();
    double build = 0;
    Result<Fleet> up = SetUp(o, &inputs, &build);
    if (!up.ok()) {
      std::fprintf(stderr, "perfbench: set-up failed: %s\n",
                   up.status().ToString().c_str());
      KillAllChildren();
      std::exit(1);
    }
    fleet = std::move(*up);
    setup_s.push_back(SecondsSince(start));
    build_s.push_back(build);
  }
  report.values["setup_s"] = Median(setup_s);
  report.values["core.index_build_s"] = Median(build_s);

  // --- Timed phases. ---
  const double open_s = o.seconds * spec.open_share;
  const double closed_s = o.seconds - open_s;
  const RequestStream stream = MakeRequestStream(spec, inputs, o.seed, open_s);
  std::vector<uint16_t> stats_ports = {fleet.port};
  if (routed) {
    stats_ports.insert(stats_ports.end(), fleet.daemon_ports.begin(),
                       fleet.daemon_ports.end());
  }
  std::vector<JsonValue> before, after;
  for (uint16_t port : stats_ports) {
    Result<JsonValue> s = Stats(port);
    before.push_back(s.ok() ? *s : JsonValue::Object());
  }
  const StealTimeline timeline;
  PinCallingThread(GeneratorCpus());
  const Phase phase{open_s, closed_s};
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(50);
  ClosedLoop closed;
  std::thread closed_loop([&] {
    closed = RunClosedLoop(spec, inputs, fleet.port, o.seed, phase, t0, tr);
  });
  OpenLoop open =
      RunOpenLoop(spec, fleet.port, fleet.daemon_ports[0], stream, phase, t0,
                  tr);
  closed_loop.join();
  const double timed_s = SecondsSince(t0);
  for (uint16_t port : stats_ports) {
    Result<JsonValue> s = Stats(port);
    after.push_back(s.ok() ? *s : JsonValue::Object());
  }
  PinCallingThread({});
  report.values["rss_mb"] = fleet.PeakRssMb();
  if (Status stopped = fleet.Stop(); !stopped.ok()) {
    report.FailedOp("daemon shutdown: " + stopped.ToString());
  }

  // --- Failures and generator lag. ---
  std::vector<const Record*> all;
  for (const auto& conn : open.count) {
    for (const Record& r : conn) all.push_back(&r);
  }
  for (const Record& r : open.insert) all.push_back(&r);
  for (const Record& r : open.shard_count) all.push_back(&r);
  for (const Record& r : open.mine) all.push_back(&r);
  for (const Record& r : closed.records) all.push_back(&r);
  report.attempted = all.size();
  for (const Record* r : all) {
    if (!r->ok) report.FailedOp(r->error);
  }
  size_t late = 0;
  for (double lag : open.lags) late += lag > kLateSendS;
  if (late > kMaxLateShare * open.lags.size()) {
    report.invalid = "the generator fell behind: " + std::to_string(late) +
                     " sends left more than 5 ms late";
  }
  report.stamp.Set("generator_late_sends", JsonValue::Uint(late));

  // --- Answer checks (off the clock). ---
  // The INSERT stream is one connection, so the k-th acknowledged INSERT is
  // transaction base + k: the oracle holds base + acknowledged inserts.
  const uint64_t base_n = inputs.base.size();
  bbsmine::BbsIndex oracle = *bbsmine::BbsIndex::Create(IndexConfig(spec));
  oracle.InsertAll(inputs.base);
  TransactionDatabase grown;
  for (size_t t = 0; t < base_n; ++t) grown.Append(inputs.base.At(t).items);
  for (const Record& r : open.insert) {
    if (!r.ok) continue;
    const Itemset& items = stream.insert[r.index].items;
    oracle.Insert(items);
    grown.Append(items);
    if (Field(r.response, "transactions") != grown.size()) {
      report.WrongAnswer("INSERT acknowledged " +
                         std::to_string(Field(r.response, "transactions")) +
                         " transactions, expected " +
                         std::to_string(grown.size()));
    }
  }
  auto check_count = [&](const Itemset& items, const JsonValue& response) {
    const uint64_t visible = Field(response, "visible_transactions");
    if (visible < base_n || visible > grown.size()) {
      report.WrongAnswer("COUNT saw " + std::to_string(visible) +
                         " transactions");
      return;
    }
    bbsmine::BitVector match;
    oracle.CountItemSet(items, &match);
    const uint64_t expected = CountPrefix(match, visible);
    if (Field(response, "count") != expected) {
      report.WrongAnswer("COUNT " + CountRequest(items).Serialize(0) + " = " +
                         std::to_string(Field(response, "count")) +
                         ", oracle " + std::to_string(expected));
    }
  };
  for (size_t c = 0; c < open.count.size(); ++c) {
    for (const Record& r : open.count[c]) {
      if (r.ok) check_count(stream.count[c][r.index].items, r.response);
    }
  }
  for (const Record& r : closed.records) {
    if (r.ok) check_count(closed.items[r.index], r.response);
  }
  if (!open.shard_count.empty()) {
    // The first shard's part, exactly as `bbsmine split` wrote it.
    Result<TransactionDatabase> part =
        TransactionDatabase::Load(o.work_dir + "/shard.0.db");
    if (!part.ok()) {
      report.WrongAnswer("shard 0 database: " + part.status().ToString());
    } else {
      bbsmine::BbsIndex shard = *bbsmine::BbsIndex::Create(IndexConfig(spec));
      shard.InsertAll(*part);
      for (const Record& r : open.shard_count) {
        if (!r.ok) continue;
        const Itemset& items = stream.shard_count[r.index].items;
        bbsmine::BitVector match;
        shard.CountItemSet(items, &match);
        const uint64_t expected = CountPrefix(match, part->size());
        if (Field(r.response, "visible_transactions") != part->size() ||
            Field(r.response, "count") != expected) {
          report.WrongAnswer("shard COUNT " + CountRequest(items).Serialize(0) +
                             " = " + r.response.Serialize(0) + ", oracle " +
                             std::to_string(expected));
        }
      }
    }
  }
  std::map<uint64_t, MineAnswer> mine_oracles;
  for (const Record& r : open.mine) {
    if (!r.ok) continue;
    const uint64_t n = Field(r.response, "transactions");
    if (n < base_n || n > grown.size()) {
      report.WrongAnswer("MINE over " + std::to_string(n) + " transactions");
      continue;
    }
    if (!mine_oracles.count(n)) {
      TransactionDatabase prefix;
      for (size_t t = 0; t < n; ++t) prefix.Append(grown.At(t).items);
      mine_oracles[n] = OracleMine(prefix, spec.mine_minsup, spec.mine_top);
    }
    if (!SameMine(r.response, mine_oracles[n])) {
      report.WrongAnswer("MINE over " + std::to_string(n) +
                         " transactions differs from Eclat");
    }
  }

  // --- End-to-end metrics. ---
  std::vector<Record> counts;
  for (const auto& conn : open.count) {
    counts.insert(counts.end(), conn.begin(), conn.end());
  }
  // Splits records by whether they were due while a MINE was outstanding
  // (sent, not yet answered).
  auto split_by_mine = [&](const std::vector<Record>& records) {
    std::pair<std::vector<Record>, std::vector<Record>> out;  // during, not
    for (const Record& r : records) {
      const bool during = std::any_of(
          open.mine.begin(), open.mine.end(),
          [&](const Record& m) { return r.due >= m.sent && r.due < m.done; });
      (during ? out.first : out.second).push_back(r);
    }
    return out;
  };
  std::vector<double> closed_latency;
  for (const Record& r : closed.records) {
    closed_latency.push_back((r.done - r.sent) * 1e3);
  }
  const std::vector<double> phase_steal = WindowSteal(timeline, t0, timed_s);
  if (report.invalid.empty() && Quantile(phase_steal, 0.25) > kMaxCalmSteal) {
    report.invalid = "the host stole " +
                     std::to_string(Quantile(phase_steal, 0.25) * 100) +
                     " % of the VM's CPU time in the calm quarter of the "
                     "timed phase";
  }
  auto calm = [&](const std::vector<Record>& records, double scale) {
    return CalmLatency(records, t0, timeline, scale);
  };
  // Requests due during a MINE wait for up to the MINE's whole length, and
  // a longer wait spans more steal: weighed one by one, the calmest would be
  // the shortest. So each MINE is one value here, the median latency
  // (times `scale`) of the `records` due while it was outstanding, weighed
  // by the MINE's own steal.
  auto during_mine = [&](const std::vector<Record>& records, double scale) {
    std::vector<double> medians, steal;
    for (const Record& m : open.mine) {
      std::vector<double> latency;
      for (const Record& r : records) {
        if (r.due >= m.sent && r.due < m.done) {
          latency.push_back(LatencyS(r) * scale);
        }
      }
      if (latency.empty()) continue;
      medians.push_back(Median(latency));
      steal.push_back(timeline.Share(At(t0, m.sent), At(t0, m.done)));
    }
    return CalmMedian(medians, steal);
  };
  const double count_p50_us = calm(counts, 1e6);
  report.values["count_p50_us"] = count_p50_us;
  report.values["mine_p50_ms"] = calm(open.mine, 1e3);
  // A closed-loop window that a MINE overlapped (one due near the end of
  // an open-loop stretch) does not count.
  std::vector<double> rates, rate_steal;
  for (size_t w = 0; w < closed.window_start.size(); ++w) {
    const double from = closed.window_start[w], to = closed.window_end[w];
    if (std::any_of(open.mine.begin(), open.mine.end(), [&](const Record& m) {
          return m.sent < to && m.done > from;
        })) {
      continue;
    }
    rates.push_back(closed.window_done[w] / (to - from));
    rate_steal.push_back(timeline.Share(At(t0, from), At(t0, to)));
  }
  report.values["max_ops_per_s"] = CalmMedian(rates, rate_steal);
  if (routed) {
    // The same COUNTs without the router: what cluster/ adds is the gap
    // between count_p50_us and this.
    report.values["secondary_p50_ms"] = calm(open.shard_count, 1e3);
    report.values["contended_p50_ms"] = during_mine(counts, 1e3);
    report.values["shard_count_p50_us"] =
        report.values["secondary_p50_ms"] * 1e3;
    report.values["count_during_mine_p50_us"] =
        report.values["contended_p50_ms"] * 1e3;
    report.values["closed_count_p50_us"] = Median(closed_latency) * 1e3;
  } else {
    // The INSERTs a MINE stalled are their own metric; the rest measure the
    // write path itself.
    const auto [stalled, free] = split_by_mine(open.insert);
    report.values["secondary_p50_ms"] = calm(free, 1e3);
    report.values["contended_p50_ms"] = during_mine(open.insert, 1e3);
    report.values["insert_p50_us"] = Median(Collect(open.insert, 1e6));
    report.values["insert_outside_mine_p50_us"] =
        report.values["secondary_p50_ms"] * 1e3;
    report.values["insert_during_mine_p50_us"] =
        report.values["contended_p50_ms"] * 1e3;
    report.values["client.insert_during_mine_samples"] =
        static_cast<double>(stalled.size());
  }
  report.values["failed_share"] =
      report.attempted == 0
          ? 0
          : static_cast<double>(report.failed) / report.attempted;

  // --- Environment stamp. ---
  report.stamp.Set("daemon_threads", JsonValue::Int(spec.daemon_threads));
  report.stamp.Set("pinned_cpus", JsonValue::Bool(PinProcesses()));
  if (spec.durable) {
    const std::string fs = FilesystemType(o.work_dir);
    report.stamp.Set("fsync_policy", JsonValue::String("always"));
    report.stamp.Set("durable_dir_fs", JsonValue::String(fs));
    report.stamp.Set("durable_dir_on_tmpfs", JsonValue::Bool(fs == "tmpfs"));
  }
  report.stamp.Set("open_loop_s", JsonValue::Double(open_s));
  report.stamp.Set("closed_loop_s", JsonValue::Double(closed_s));
  report.stamp.Set("alternations", JsonValue::Int(kParts));

  if (!o.trace) return report;

  // --- Per-layer metrics (traced run only). ---
  auto& v = report.values;
  v["client.count_p50_us"] = count_p50_us;
  v["client.count_p99_us"] = Quantile(Collect(counts, 1e6), 0.99);
  v["client.count_samples"] = static_cast<double>(counts.size());
  v["client.insert_p99_us"] = Quantile(Collect(open.insert, 1e6), 0.99);
  v["client.insert_samples"] = static_cast<double>(open.insert.size());
  v["client.mine_p99_ms"] = Quantile(Collect(open.mine, 1e3), 0.99);
  v["client.mine_samples"] = static_cast<double>(open.mine.size());
  std::vector<double> lags_us;
  for (double lag : open.lags) lags_us.push_back(lag * 1e6);
  v["client.generator_lag_p99_us"] = Quantile(lags_us, 0.99);

  const JsonValue& front_before = before[0];
  const JsonValue& front_after = after[0];
  v["service.count_p50_us"] =
      DiffP50(front_before, front_after, "latency_us", "count");
  v["service.mine_p50_ms"] =
      DiffP50(front_before, front_after, "latency_us", "mine") / 1e3;
  v["client.residual_count_us"] = count_p50_us - v["service.count_p50_us"];
  double rejected = 0, count_requests = 0;
  for (size_t i = 0; i < before.size(); ++i) {
    rejected +=
        StatsNumber(after[i], "metrics.counters.rejected_backpressure") -
        StatsNumber(before[i], "metrics.counters.rejected_backpressure");
  }
  count_requests = StatsNumber(front_after, "metrics.counters.requests_count") -
                   StatsNumber(front_before, "metrics.counters.requests_count");
  v["service.rejected_share"] =
      count_requests > 0 ? rejected / count_requests : 0;
  std::vector<double> queue_wait, batch;
  for (const Record& r : counts) {
    if (!r.ok) continue;
    queue_wait.push_back(Field(r.response, "queue_wait_us"));
    batch.push_back(Field(r.response, "batch_size"));
  }
  v["service.queue_wait_p50_us"] = Median(queue_wait);
  v["service.batch_size_mean"] = Mean(batch);
  double mine_busy = 0;
  for (const Record& r : open.mine) mine_busy += r.done - r.sent;
  v["service.mine_lock_share"] = mine_busy / open_s;

  if (routed) {
    double queried = 0, pruned = 0, total = 0, retries = 0;
    for (const Record& r : counts) {
      if (!r.ok) continue;
      const JsonValue& cluster = r.response.at("cluster");
      queried += Field(cluster, "shards_queried");
      pruned += Field(cluster, "shards_pruned");
      total += Field(cluster, "shards_total");
    }
    for (const Record& r : open.mine) {
      if (r.ok) retries += Field(r.response.at("exchange"), "snapshot_retries");
    }
    v["cluster.shards_queried_per_count"] =
        counts.empty() ? 0 : queried / counts.size();
    v["cluster.pruned_share"] = total > 0 ? pruned / total : 0;
    v["cluster.mine_snapshot_retries"] = retries;
    v["cluster.fanout_p50_us"] =
        DiffP50(front_before, front_after, "cluster", "fanout_us");
    std::vector<uint64_t> shard_counts;
    for (size_t i = 1; i < before.size(); ++i) {
      std::vector<uint64_t> a = HistogramBuckets(before[i], "latency_us",
                                                 "count");
      std::vector<uint64_t> b = HistogramBuckets(after[i], "latency_us",
                                                 "count");
      shard_counts.resize(b.size(), 0);
      for (size_t k = 0; k < b.size(); ++k) shard_counts[k] += b[k] - a[k];
    }
    v["cluster.shard_count_p50_us"] =
        bbsmine::obs::PercentileFromLog2Buckets(shard_counts, 0.5);
  } else {
    v["service.insert_p50_us"] =
        DiffP50(front_before, front_after, "latency_us", "insert");
    const double inserts =
        StatsNumber(front_after, "metrics.counters.requests_insert") -
        StatsNumber(front_before, "metrics.counters.requests_insert");
    const double txns =
        StatsNumber(front_after, "metrics.counters.inserted_transactions") -
        StatsNumber(front_before, "metrics.counters.inserted_transactions");
    auto durability = [&](const char* key) {
      return StatsNumber(front_after, std::string("durability.") + key) -
             StatsNumber(front_before, std::string("durability.") + key);
    };
    v["service.wal_bytes_per_txn"] = txns > 0 ? durability("wal_bytes") / txns
                                              : 0;
    v["service.wal_fsyncs_per_insert"] =
        inserts > 0 ? durability("wal_fsyncs") / inserts : 0;
    v["service.checkpoints"] = durability("checkpoints");
  }

  // Replays, off the socket, on this run's own inputs and stream.
  std::vector<Itemset> queries;
  for (const auto& conn : stream.count) {
    for (const TimedItems& op : conn) {
      if (queries.size() < 2000) queries.push_back(op.items);
    }
  }
  std::vector<Itemset> inserts;
  for (const TimedItems& op : stream.insert) inserts.push_back(op.items);
  ReplayLayers(o, inputs, queries, inserts, &report, tr);
  WriteTrace(o, tracer, &report);
  return report;
}

}  // namespace perfbench
