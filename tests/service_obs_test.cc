// Tests for the service observability plane: windowed metrics rotation,
// the relaxed-atomics metrics hot path under concurrency (TSan-covered),
// the flight recorder's seqlock ring, the slow-query log's torn-tail
// healing, and trace-span propagation through the scheduler and Handle().
//
// Windowed-metrics tests drive rotation synthetically: MaybeRotateWindows
// and WindowSectionJson take explicit service-relative timestamps, so a
// test can "age" the daemon by minutes without sleeping.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/segmented_bbs.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "service/flight_recorder.h"
#include "service/metrics.h"
#include "service/scheduler.h"
#include "service/server.h"
#include "service/slow_log.h"
#include "service/snapshot.h"
#include "service/wire.h"
#include "testing/reference.h"
#include "util/status.h"

namespace bbsmine::service {
namespace {

constexpr uint64_t kSecond = 1'000'000;  // µs

BbsConfig SmallConfig() {
  BbsConfig config;
  config.num_bits = 256;
  config.num_hashes = 3;
  return config;
}

struct Fixture {
  TransactionDatabase db;
  SegmentedBbs index;
};

Fixture MakeFixture(uint64_t seed, size_t transactions,
                    uint64_t segment_capacity) {
  Fixture out{bbsmine::testing::RandomDb(seed, transactions, 24, 5.0),
              SegmentedBbs::Create(SmallConfig(), segment_capacity).value()};
  EXPECT_TRUE(out.index.InsertAll(out.db).ok());
  return out;
}

std::string TempPath(const std::string& name) {
  std::string path = (std::filesystem::temp_directory_path() /
                      ("bbsmine_obs_" + name + "_" +
                       std::to_string(::getpid())))
                         .string();
  std::filesystem::remove(path);
  return path;
}

std::vector<std::string> ReadLines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

obs::JsonValue CountRequest(const Itemset& items,
                            const std::string& trace_id = "") {
  obs::JsonValue request = obs::JsonValue::Object();
  request.Set("verb", obs::JsonValue::String("COUNT"));
  request.Set("items", ItemsToJson(items));
  if (!trace_id.empty()) {
    request.Set("trace_id", obs::JsonValue::String(trace_id));
  }
  return request;
}

// ---------------------------------------------------------------------------
// Windowed metrics: rotation, lookback, wraparound, empty windows.

TEST(ServiceMetricsWindowTest, EmptyWindowRendersZeroDeltas) {
  ServiceMetrics metrics;
  obs::JsonValue window = metrics.WindowSectionJson(0);
  EXPECT_DOUBLE_EQ(window.at("interval_seconds").AsDouble(), 10.0);
  EXPECT_EQ(window.at("slots").AsUint(), 12u);
  EXPECT_DOUBLE_EQ(window.at("lookback_seconds").AsDouble(), 60.0);
  const obs::JsonValue& last = window.at("last_60s");
  EXPECT_EQ(last.at("counters").at("requests_total").AsUint(), 0u);
  const obs::JsonValue& count_hist = last.at("latency_us").at("count");
  EXPECT_EQ(count_hist.at("total").AsUint(), 0u);
  EXPECT_DOUBLE_EQ(count_hist.at("p50").AsDouble(), 0.0);
  // Watermark gauges are lifetime-only: deltas of a high-water mark are
  // meaningless, so the window must not render a gauges section.
  EXPECT_FALSE(last.Has("gauges"));
}

TEST(ServiceMetricsWindowTest, YoungServiceWindowCoversSinceStart) {
  ServiceMetrics metrics;
  metrics.Inc(metrics.requests(Verb::kCount), 7);
  metrics.ObserveLog2(metrics.latency(Verb::kCount), 100);
  // 5 s old — younger than the lookback; baseline is service start.
  obs::JsonValue window = metrics.WindowSectionJson(5 * kSecond);
  EXPECT_DOUBLE_EQ(window.at("covered_seconds").AsDouble(), 5.0);
  const obs::JsonValue& last = window.at("last_60s");
  EXPECT_EQ(last.at("counters").at("requests_count").AsUint(), 7u);
  EXPECT_EQ(last.at("latency_us").at("count").at("total").AsUint(), 1u);
}

TEST(ServiceMetricsWindowTest, RotationIsolatesRecentWorkFromOldWork) {
  ServiceMetrics metrics;
  // Minute one: 5 counts, slow (~1 ms) latencies.
  metrics.Inc(metrics.requests(Verb::kCount), 5);
  for (int i = 0; i < 5; ++i) {
    metrics.ObserveLog2(metrics.latency(Verb::kCount), 1000);
  }
  // Rotate through 70 s of service time at the default 10 s interval.
  for (uint64_t t = 10; t <= 70; t += 10) {
    metrics.MaybeRotateWindows(t * kSecond);
  }
  // Minute two: 3 more counts, fast (~64 µs) latencies.
  metrics.Inc(metrics.requests(Verb::kCount), 3);
  for (int i = 0; i < 3; ++i) {
    metrics.ObserveLog2(metrics.latency(Verb::kCount), 64);
  }

  obs::JsonValue window = metrics.WindowSectionJson(75 * kSecond);
  const obs::JsonValue& last = window.at("last_60s");
  // Baseline is the snapshot at t=10s (newest one >= 60 s old), which
  // already contains all of minute one — only minute two's work remains.
  EXPECT_EQ(last.at("counters").at("requests_count").AsUint(), 3u);
  const obs::JsonValue& hist = last.at("latency_us").at("count");
  EXPECT_EQ(hist.at("total").AsUint(), 3u);
  // Recent p50 reflects the fast requests: inside [32, 128), nowhere near
  // the 1 ms bucket of minute one.
  EXPECT_GE(hist.at("p50").AsDouble(), 32.0);
  EXPECT_LT(hist.at("p50").AsDouble(), 128.0);
  // Lifetime view still has all 8.
  uint64_t lifetime = metrics.counter(metrics.requests(Verb::kCount));
  EXPECT_EQ(lifetime, 8u);
}

TEST(ServiceMetricsWindowTest, LongIdleGapFastForwardsInsteadOfSpinning) {
  ServiceMetrics::WindowOptions options;
  options.interval_us = 1000;  // 1 ms intervals, 4 slots
  options.slots = 4;
  ServiceMetrics metrics(options);
  metrics.Inc(metrics.requests_total, 1);
  // A gap worth ~10^9 intervals must not write 10^9 snapshots; the
  // catch-up clamps to one ring-full. (A spin here would hang the test.)
  metrics.MaybeRotateWindows(1'000'000'000'000ull);
  metrics.Inc(metrics.requests_total, 2);
  obs::JsonValue window =
      metrics.WindowSectionJson(1'000'000'000'000ull + 1000);
  // A 4 x 1 ms ring can never hold a snapshot 60 s old, so the baseline
  // falls back to service start and the window reports all 3 increments
  // — over-covering, never dropping. (The default 12 x 10 s shape does
  // span the lookback.)
  EXPECT_EQ(window.at("last_60s").at("counters").at("requests_total")
                .AsUint(),
            3u);
}

TEST(ServiceMetricsWindowTest, RingWraparoundKeepsNewestSnapshots) {
  ServiceMetrics::WindowOptions options;
  options.interval_us = 10 * kSecond;
  options.slots = 12;
  ServiceMetrics metrics(options);
  // Rotate far past one full ring, bumping a counter every interval.
  for (uint64_t t = 10; t <= 400; t += 10) {
    metrics.Inc(metrics.requests_total, 1);
    metrics.MaybeRotateWindows(t * kSecond);
  }
  obs::JsonValue window = metrics.WindowSectionJson(400 * kSecond);
  // Baseline is the t=340s snapshot (34 increments taken); six intervals
  // of one increment each happened since.
  EXPECT_DOUBLE_EQ(window.at("covered_seconds").AsDouble(), 60.0);
  EXPECT_EQ(window.at("last_60s").at("counters").at("requests_total")
                .AsUint(),
            6u);
}

// ---------------------------------------------------------------------------
// Metrics hot path under concurrency. Run under TSan (CI wires this binary
// into the thread-sanitizer job): Inc/ObserveLog2/GaugeMax from many
// threads racing Snapshot/rotation/rendering must be clean and lose no
// increments.

TEST(ServiceMetricsConcurrencyTest, ParallelWritersLoseNothing) {
  ServiceMetrics::WindowOptions options;
  options.interval_us = 100;  // rotate constantly under the readers
  options.slots = 4;
  ServiceMetrics metrics(options);

  constexpr int kWriters = 4;
  constexpr uint64_t kPerWriter = 20'000;
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    uint64_t now = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      now += 150;
      metrics.MaybeRotateWindows(now);
      std::vector<obs::MetricSample> samples = metrics.Snapshot();
      for (const obs::MetricSample& sample : samples) {
        if (sample.kind != obs::MetricKind::kHistogram) continue;
        // The snapshot invariant: total is derived from the buckets, so
        // it can never disagree with them, even mid-race.
        uint64_t sum = 0;
        for (uint64_t b : sample.buckets) sum += b;
        ASSERT_EQ(sum, sample.value) << sample.name;
      }
      obs::JsonValue window = metrics.WindowSectionJson(now);
      ASSERT_TRUE(window.Has("last_60s"));
    }
  });

  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (uint64_t i = 0; i < kPerWriter; ++i) {
        metrics.Inc(metrics.requests(Verb::kCount));
        metrics.ObserveLog2(metrics.latency(Verb::kCount), (i % 1024) + 1);
        metrics.GaugeMax(metrics.queue_depth,
                         static_cast<uint64_t>(w) * kPerWriter + i);
      }
    });
  }
  for (std::thread& t : writers) t.join();
  stop.store(true, std::memory_order_relaxed);
  reader.join();

  EXPECT_EQ(metrics.counter(metrics.requests(Verb::kCount)),
            kWriters * kPerWriter);
  EXPECT_EQ(metrics.counter(metrics.queue_depth),
            static_cast<uint64_t>(kWriters - 1) * kPerWriter + kPerWriter - 1);
  for (const obs::MetricSample& sample : metrics.Snapshot()) {
    if (sample.name == "latency_us.count") {
      EXPECT_EQ(sample.value, kWriters * kPerWriter);
    }
  }
}

// ---------------------------------------------------------------------------
// Flight recorder.

FlightEvent MakeEvent(uint64_t seq) {
  FlightEvent event;
  event.seq = seq;
  event.start_rel_us = seq * 10;
  event.latency_us = seq * 2;  // the cross-field invariant readers check
  event.verb = Verb::kCount;
  event.ok = true;
  std::snprintf(event.trace_id, sizeof(event.trace_id), "t%llu",
                static_cast<unsigned long long>(seq));
  return event;
}

TEST(FlightRingTest, RetainsNewestEventsOldestFirst) {
  FlightRing ring(4);
  for (uint64_t seq = 0; seq < 6; ++seq) ring.Record(MakeEvent(seq));
  EXPECT_EQ(ring.recorded(), 6u);
  std::vector<FlightEvent> events = ring.Read();
  ASSERT_EQ(events.size(), 4u);
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].seq, i + 2);  // 0 and 1 were overwritten
    EXPECT_EQ(std::string(events[i].trace_id),
              std::string("t").append(std::to_string(i + 2)));
  }
  ring.Reset();
  EXPECT_EQ(ring.recorded(), 0u);
  EXPECT_TRUE(ring.Read().empty());
}

TEST(FlightRingTest, ConcurrentReadersNeverSeeTornEvents) {
  FlightRing ring(8);
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    uint64_t seq = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      ring.Record(MakeEvent(seq++));
    }
  });
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      for (int iter = 0; iter < 2000; ++iter) {
        for (const FlightEvent& event : ring.Read()) {
          // Torn reads would break the seq <-> field correlations the
          // writer maintains; the seqlock must filter them out.
          ASSERT_EQ(event.latency_us, event.seq * 2);
          ASSERT_EQ(event.start_rel_us, event.seq * 10);
          ASSERT_EQ(event.verb, Verb::kCount);
          ASSERT_EQ(std::string(event.trace_id),
                    std::string("t").append(std::to_string(event.seq)));
        }
      }
    });
  }
  for (std::thread& t : readers) t.join();
  stop.store(true, std::memory_order_relaxed);
  writer.join();
}

TEST(FlightRecorderTest, DumpCoversActiveAndReleasedRings) {
  FlightRecorder recorder(/*ring_capacity=*/4, /*max_rings=*/8);
  FlightRing* a = recorder.AcquireRing(1);
  FlightRing* b = recorder.AcquireRing(2);
  a->Record(MakeEvent(0));
  b->Record(MakeEvent(1));
  recorder.ReleaseRing(a);  // released rings stay dumpable

  obs::JsonValue dump = recorder.DumpJson(/*now_rel_us=*/12345);
  EXPECT_EQ(dump.at("schema_version").AsInt(), 1);
  EXPECT_EQ(dump.at("kind").AsString(), "bbsmined_flight_recorder");
  EXPECT_EQ(dump.at("ring_capacity").AsUint(), 4u);
  EXPECT_EQ(dump.at("dumped_at_us").AsUint(), 12345u);
  const obs::JsonValue& connections = dump.at("connections");
  ASSERT_EQ(connections.size(), 2u);
  EXPECT_EQ(connections.at(0).at("connection").AsUint(), 1u);
  EXPECT_FALSE(connections.at(0).at("active").AsBool());
  EXPECT_TRUE(connections.at(1).at("active").AsBool());
  const obs::JsonValue& events = connections.at(0).at("events");
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events.at(0).at("trace_id").AsString(), "t0");
  EXPECT_EQ(events.at(0).at("verb").AsString(), "COUNT");
  EXPECT_TRUE(events.at(0).at("ok").AsBool());
}

TEST(FlightRecorderTest, RecyclesOldestReleasedRingUnderPressure) {
  FlightRecorder recorder(/*ring_capacity=*/4, /*max_rings=*/2);
  FlightRing* a = recorder.AcquireRing(1);
  a->Record(MakeEvent(0));
  recorder.ReleaseRing(a);
  FlightRing* b = recorder.AcquireRing(2);
  // At the ring bound, the third connection recycles a's ring — same
  // storage, history wiped.
  FlightRing* c = recorder.AcquireRing(3);
  EXPECT_EQ(c, a);
  EXPECT_EQ(c->recorded(), 0u);
  EXPECT_NE(c, b);
  obs::JsonValue dump = recorder.DumpJson(0);
  ASSERT_EQ(dump.at("connections").size(), 2u);
}

TEST(FlightRecorderTest, CrashDumpIsWellFormedWithoutContention) {
  FlightRecorder recorder(4);
  recorder.AcquireRing(7)->Record(MakeEvent(3));
  obs::JsonValue dump = recorder.DumpJsonForCrash(99);
  EXPECT_EQ(dump.at("kind").AsString(), "bbsmined_flight_recorder");
  ASSERT_EQ(dump.at("connections").size(), 1u);
  EXPECT_EQ(dump.at("connections").at(0).at("events").size(), 1u);
}

// ---------------------------------------------------------------------------
// Slow-query log.

TEST(SlowQueryLogTest, AppendsOneParseableJsonLinePerRecord) {
  std::string path = TempPath("slowlog");
  auto log = SlowQueryLog::Open(path);
  ASSERT_TRUE(log.ok()) << log.status().ToString();

  SlowQueryRecord record;
  record.at_rel_us = 1234;
  record.trace_id = "tr-9";
  record.verb = "COUNT";
  record.latency_us = 15000;
  record.queue_wait_us = 200;
  record.batch_size = 3;
  record.items = 2;
  record.epoch = 5;
  record.slice_words = 64;
  record.backend = "resident";
  record.ok = true;
  (*log)->Append(record);
  record.ok = false;
  record.trace_id = "tr-10";
  (*log)->Append(record);
  EXPECT_EQ((*log)->appended(), 2u);
  log->reset();  // close

  std::vector<std::string> lines = ReadLines(path);
  ASSERT_EQ(lines.size(), 2u);
  Result<obs::JsonValue> first = obs::JsonValue::Parse(lines[0]);
  ASSERT_TRUE(first.ok()) << lines[0];
  EXPECT_EQ(first->at("trace_id").AsString(), "tr-9");
  EXPECT_EQ(first->at("verb").AsString(), "COUNT");
  EXPECT_EQ(first->at("at_us").AsUint(), 1234u);
  EXPECT_EQ(first->at("latency_us").AsUint(), 15000u);
  EXPECT_EQ(first->at("queue_wait_us").AsUint(), 200u);
  EXPECT_EQ(first->at("batch_size").AsUint(), 3u);
  EXPECT_EQ(first->at("items").AsUint(), 2u);
  EXPECT_EQ(first->at("epoch").AsUint(), 5u);
  EXPECT_EQ(first->at("slice_words").AsUint(), 64u);
  EXPECT_EQ(first->at("backend").AsString(), "resident");
  EXPECT_EQ(first->at("outcome").AsString(), "ok");
  Result<obs::JsonValue> second = obs::JsonValue::Parse(lines[1]);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->at("outcome").AsString(), "error");
  std::filesystem::remove(path);
}

TEST(SlowQueryLogTest, ReopenHealsTornFinalLine) {
  std::string path = TempPath("slowlog_torn");
  {
    std::ofstream out(path);
    out << "{\"at_us\":1,\"trace_id\":\"whole\"}\n";
    out << "{\"at_us\":2,\"trace_";  // torn mid-key, no newline
  }
  auto log = SlowQueryLog::Open(path);
  ASSERT_TRUE(log.ok()) << log.status().ToString();
  SlowQueryRecord record;
  record.trace_id = "after-tear";
  record.verb = "PING";
  (*log)->Append(record);
  log->reset();

  std::vector<std::string> lines = ReadLines(path);
  ASSERT_EQ(lines.size(), 3u);
  // The torn line is quarantined on its own line; the record appended
  // after reopen parses cleanly.
  EXPECT_TRUE(obs::JsonValue::Parse(lines[0]).ok());
  EXPECT_FALSE(obs::JsonValue::Parse(lines[1]).ok());
  Result<obs::JsonValue> healed = obs::JsonValue::Parse(lines[2]);
  ASSERT_TRUE(healed.ok()) << lines[2];
  EXPECT_EQ(healed->at("trace_id").AsString(), "after-tear");
  std::filesystem::remove(path);
}

// ---------------------------------------------------------------------------
// Trace propagation: scheduler spans and the request span from Handle().

TEST(SchedulerTraceTest, SampledCountEmitsCorrelatedSpans) {
  Fixture fx = MakeFixture(31, 200, 64);
  auto manager = SnapshotManager::FromIndex(fx.index);
  ASSERT_TRUE(manager.ok());
  ServiceMetrics metrics;
  obs::Tracer tracer(obs::kTraceService);
  CountScheduler scheduler(&*manager, SchedulerOptions{}, &metrics, &tracer);

  CountObs count_obs;
  count_obs.trace_id = "tr-sched";
  count_obs.sampled = true;
  CountResult result;
  ASSERT_TRUE(scheduler.Count({1, 2}, count_obs, &result).ok());
  EXPECT_EQ(result.count, fx.index.CountItemSet({1, 2}));
  EXPECT_GE(result.batch_id, 1u);
  EXPECT_GT(result.slice_words, 0u);

  ASSERT_GT(tracer.event_count(), 0u);
  std::string trace = tracer.ToJsonString();
  EXPECT_NE(trace.find("count.queue_wait"), std::string::npos);
  EXPECT_NE(trace.find("count.batch"), std::string::npos);
  EXPECT_NE(trace.find("count.segment"), std::string::npos);
  EXPECT_NE(trace.find("tr-sched"), std::string::npos);
}

TEST(SchedulerTraceTest, UnsampledCountEmitsNothing) {
  Fixture fx = MakeFixture(32, 100, 64);
  auto manager = SnapshotManager::FromIndex(fx.index);
  ASSERT_TRUE(manager.ok());
  obs::Tracer tracer(obs::kTraceService);
  CountScheduler scheduler(&*manager, SchedulerOptions{}, nullptr, &tracer);
  CountResult result;
  ASSERT_TRUE(scheduler.Count({1}, CountObs{}, &result).ok());
  EXPECT_EQ(tracer.event_count(), 0u);
  // Request attribution is still populated — it feeds the flight
  // recorder and the slow log even when tracing is off.
  EXPECT_GE(result.batch_id, 1u);
  EXPECT_GT(result.slice_words, 0u);
}

// ---------------------------------------------------------------------------
// The plane end to end through BbsService::Handle.

TEST(ServicePlaneTest, HandleWiresTraceSlowLogAndFlightTogether) {
  Fixture fx = MakeFixture(33, 150, 64);
  auto manager = SnapshotManager::FromIndex(fx.index);
  ASSERT_TRUE(manager.ok());

  std::string slow_path = TempPath("slow_e2e");
  auto slow_log = SlowQueryLog::Open(slow_path);
  ASSERT_TRUE(slow_log.ok());
  obs::Tracer tracer(obs::kTraceService);
  FlightRecorder recorder(8);

  ServiceOptions options;
  options.tracer = &tracer;
  options.trace_sample = 1;
  options.slow_log = slow_log->get();
  options.slow_query_us = 0;  // every request is "slow"
  options.flight_recorder = &recorder;
  BbsService service(&*manager, &fx.db, options);

  RequestContext ctx;
  ctx.connection_id = 1;
  ctx.flight = recorder.AcquireRing(1);
  obs::JsonValue response =
      service.Handle(CountRequest({1, 2}, "tr-e2e"), ctx);
  ASSERT_TRUE(response.at("ok").AsBool()) << response.Serialize();
  EXPECT_EQ(response.at("count").AsUint(), fx.index.CountItemSet({1, 2}));
  EXPECT_TRUE(response.Has("queue_wait_us"));

  // Trace: a request span carrying the client's trace_id.
  std::string trace = tracer.ToJsonString();
  EXPECT_NE(trace.find("\"request\""), std::string::npos);
  EXPECT_NE(trace.find("tr-e2e"), std::string::npos);

  // Slow log: one record, same trace_id, full attribution.
  EXPECT_EQ((*slow_log)->appended(), 1u);
  std::vector<std::string> lines = ReadLines(slow_path);
  ASSERT_EQ(lines.size(), 1u);
  Result<obs::JsonValue> record = obs::JsonValue::Parse(lines[0]);
  ASSERT_TRUE(record.ok()) << lines[0];
  EXPECT_EQ(record->at("trace_id").AsString(), "tr-e2e");
  EXPECT_EQ(record->at("verb").AsString(), "COUNT");
  EXPECT_EQ(record->at("items").AsUint(), 2u);
  EXPECT_GT(record->at("slice_words").AsUint(), 0u);
  EXPECT_EQ(record->at("outcome").AsString(), "ok");

  // Flight ring: the same request, recorded.
  std::vector<FlightEvent> events = ctx.flight->Read();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(std::string(events[0].trace_id), "tr-e2e");
  EXPECT_EQ(events[0].verb, Verb::kCount);
  EXPECT_TRUE(events[0].ok);

  // Metrics: the plane's own counters moved.
  obs::JsonValue report = service.BuildStatsReport();
  const obs::JsonValue& counters = report.at("metrics").at("counters");
  EXPECT_EQ(counters.at("slow_queries").AsUint(), 1u);
  EXPECT_EQ(counters.at("traced_requests").AsUint(), 1u);
  std::filesystem::remove(slow_path);
}

TEST(ServicePlaneTest, DumpVerbReturnsRecordedFlightEvents) {
  Fixture fx = MakeFixture(34, 100, 64);
  auto manager = SnapshotManager::FromIndex(fx.index);
  ASSERT_TRUE(manager.ok());
  FlightRecorder recorder(8);
  ServiceOptions options;
  options.flight_recorder = &recorder;
  BbsService service(&*manager, &fx.db, options);

  RequestContext ctx;
  ctx.connection_id = 42;
  ctx.flight = recorder.AcquireRing(42);
  ASSERT_TRUE(service.Handle(CountRequest({3}, "tr-dump"), ctx)
                  .at("ok")
                  .AsBool());

  obs::JsonValue dump_request = obs::JsonValue::Object();
  dump_request.Set("verb", obs::JsonValue::String("DUMP"));
  obs::JsonValue response = service.Handle(dump_request, ctx);
  ASSERT_TRUE(response.at("ok").AsBool()) << response.Serialize();
  const obs::JsonValue& flight = response.at("flight");
  EXPECT_EQ(flight.at("kind").AsString(), "bbsmined_flight_recorder");
  ASSERT_GE(flight.at("connections").size(), 1u);
  EXPECT_NE(flight.Serialize().find("tr-dump"), std::string::npos);
}

TEST(ServicePlaneTest, DumpNamesShardInfoAndPromote) {
  Fixture fx = MakeFixture(36, 60, 64);
  auto manager = SnapshotManager::FromIndex(fx.index);
  ASSERT_TRUE(manager.ok());
  FlightRecorder recorder(8);
  ServiceOptions options;
  options.flight_recorder = &recorder;
  BbsService service(&*manager, &fx.db, options);

  RequestContext ctx;
  ctx.flight = recorder.AcquireRing(7);
  ASSERT_TRUE(service.Handle(VerbRequest(Verb::kShardInfo), ctx)
                  .at("ok")
                  .AsBool());
  obs::JsonValue promote = VerbRequest(Verb::kPromote);
  promote.Set("term", obs::JsonValue::Uint(2));
  ASSERT_TRUE(service.Handle(promote, ctx).at("ok").AsBool());

  obs::JsonValue response = service.Handle(VerbRequest(Verb::kDump), ctx);
  ASSERT_TRUE(response.at("ok").AsBool()) << response.Serialize();
  const obs::JsonValue& events =
      response.at("flight").at("connections").at(0).at("events");
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events.at(0).at("verb").AsString(), "SHARDINFO");
  EXPECT_EQ(events.at(1).at("verb").AsString(), "PROMOTE");
}

TEST(ServicePlaneTest, DumpVerbFailsWithoutFlightRecorder) {
  Fixture fx = MakeFixture(35, 60, 64);
  auto manager = SnapshotManager::FromIndex(fx.index);
  ASSERT_TRUE(manager.ok());
  BbsService service(&*manager, &fx.db, ServiceOptions{});
  obs::JsonValue dump_request = obs::JsonValue::Object();
  dump_request.Set("verb", obs::JsonValue::String("DUMP"));
  obs::JsonValue response = service.Handle(dump_request);
  EXPECT_FALSE(response.at("ok").AsBool());
}

TEST(ServicePlaneTest, StatsReportHasWindowAndLiveGauges) {
  Fixture fx = MakeFixture(36, 80, 64);
  auto manager = SnapshotManager::FromIndex(fx.index);
  ASSERT_TRUE(manager.ok());
  BbsService service(&*manager, &fx.db, ServiceOptions{});
  ASSERT_TRUE(service.Handle(CountRequest({1})).at("ok").AsBool());

  obs::JsonValue report = service.BuildStatsReport();
  ASSERT_TRUE(report.Has("window")) << report.Serialize();
  const obs::JsonValue& window = report.at("window");
  EXPECT_TRUE(window.Has("last_60s"));
  // Younger than the lookback: the recent window equals lifetime.
  EXPECT_EQ(window.at("last_60s").at("counters").at("requests_count")
                .AsUint(),
            1u);
  const obs::JsonValue& gauges = report.at("metrics").at("gauges");
  // Live values sit next to the watermark gauges under distinct names.
  EXPECT_TRUE(gauges.Has("queue_depth"));
  EXPECT_EQ(gauges.at("queue_depth_now").AsUint(), 0u);
  EXPECT_EQ(gauges.at("active_connections_now").AsUint(), 0u);
}

}  // namespace
}  // namespace bbsmine::service
