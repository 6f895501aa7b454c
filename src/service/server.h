// The bbsmined query service: verb handling and the TCP front-end.
//
// Split in two so the protocol logic is testable without sockets:
//
//  * BbsService — the transport-free request handler. One instance owns
//    the snapshot manager's write side, the batch scheduler, the optional
//    transaction database (MINE / exact workloads), and the service
//    metrics. Handle() maps one request document to one response document
//    and is safe to call from any number of threads.
//
//  * SocketServer — accept loop plus one thread per connection, speaking
//    length-prefixed JSON frames (service/wire.h). Stop() performs the
//    graceful drain the daemon's SIGTERM handler relies on: stop
//    accepting, let in-flight requests finish, join every connection.
//
// Concurrency model:
//   COUNT  — admitted into the CountScheduler; snapshot-isolated reads;
//            never blocked by inserts.
//   INSERT — serialized by the service write mutex (index + db must move
//            together) with CHECKPOINT and replication apply; publishes a
//            new epoch; never blocks COUNT or MINE.
//   MINE   — heavyweight, but takes no lock: it pins the database's
//            published prefix [0, n) (TransactionDatabase::Prefix), which
//            appends never move or change, and mines that. Candidates mode
//            scans the prefix [0, at_txn) the same way.
//   STATS / PING — read-only; touch only the metrics and snapshot locks.

#ifndef BBSMINE_SERVICE_SERVER_H_
#define BBSMINE_SERVICE_SERVER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "obs/trace.h"
#include "service/durability.h"
#include "service/flight_recorder.h"
#include "service/metrics.h"
#include "service/scheduler.h"
#include "service/slow_log.h"
#include "service/snapshot.h"
#include "service/verbs.h"
#include "storage/transaction_db.h"
#include "util/socket.h"

namespace bbsmine::service {

class ReplicationSource;
class ReplicationFollower;

/// Replication role of a daemon (docs/CLUSTER.md "Replication & failover").
enum class ServiceRole {
  kStandalone,  ///< no replication configured
  kPrimary,     ///< serves WALSTREAM; accepts INSERT
  kFollower,    ///< tails a primary; INSERT is rejected until promotion
};

const char* ServiceRoleName(ServiceRole role);

struct ServiceOptions {
  SchedulerOptions scheduler;
  /// Patterns returned by MINE when the request has no "top".
  size_t mine_top = 10;
  /// Minimum support used by MINE when the request has no "minsup".
  double default_min_support = 0.003;
  /// When non-null, INSERT is write-ahead logged and the CHECKPOINT verb
  /// is live (see service/durability.h). Owned by the caller; must outlive
  /// the service. Null = the pre-durability in-memory behavior.
  DurabilityManager* durability = nullptr;
  /// The SliceSource backend the daemon loaded its index with (the load
  /// itself happens in the daemon main; this is echoed in STATS).
  IndexBackend index_backend = IndexBackend::kResident;
  /// When enabled, every INSERT batch ends with a CompactColdSegments pass
  /// (service/snapshot.h): sealed segments untouched for `cold_epochs`
  /// publications are folded to `fold_bits` slices. Counts from folded
  /// segments remain upper bounds but are no longer bit-identical to the
  /// full-width index, so this defaults off.
  CompactionPolicy compaction;

  // --- Observability plane (docs/OBSERVABILITY.md). All four hooks are
  // caller-owned, optional, and passive when unset: a null tracer /
  // slow_log / flight_recorder costs one branch per request. ---

  /// Span sink for sampled requests; must outlive the service.
  obs::Tracer* tracer = nullptr;
  /// Sample 1-in-N requests into the tracer (0 = trace nothing). A sampled
  /// request emits a request span plus, for COUNT, queue-wait / batch /
  /// per-segment spans correlated by its trace_id.
  uint64_t trace_sample = 0;
  /// Slow-query sink; requests with latency >= slow_query_us append one
  /// JSON line. Must outlive the service.
  SlowQueryLog* slow_log = nullptr;
  /// Threshold for the slow-query log, microseconds. 0 logs every request
  /// (useful in CI to force a record).
  uint64_t slow_query_us = 0;
  /// Per-connection flight recorder (DUMP verb / shutdown dump). Must
  /// outlive the service.
  FlightRecorder* flight_recorder = nullptr;
  /// Shape of the windowed-metrics ring behind the STATS "window" section.
  ServiceMetrics::WindowOptions stats_windows;

  // --- Replication (docs/CLUSTER.md). All caller-owned and optional. ---

  /// Non-null on a primary serving followers: WALSTREAM connections are
  /// handed to it, and STATS gains the source's replication section.
  ReplicationSource* replication = nullptr;
  /// Non-null on a follower: reported in STATS and stopped on promotion.
  ReplicationFollower* follower = nullptr;
  /// Semi-sync (--repl-ack): INSERT responses wait for the follower's ack
  /// up to `repl_ack_timeout_ms`, then degrade to "replicated": false.
  bool repl_ack = false;
  int repl_ack_timeout_ms = 1'000;
  /// Starting role and fencing term (loaded from `term_file` by the daemon
  /// main before the service is built).
  ServiceRole role = ServiceRole::kStandalone;
  uint64_t term = 1;
  /// When non-empty, PROMOTE persists the accepted term here (write +
  /// atomic rename) so a restarted node keeps its fencing position.
  std::string term_file;
  /// Invoked once per accepted PROMOTE, outside the write mutex. The
  /// daemon wires this to ReplicationFollower::Stop.
  std::function<void()> on_promote;
};

/// Per-request transport context: which connection the request arrived on
/// and that connection's flight-recorder ring (null = no recording).
struct RequestContext {
  FlightRing* flight = nullptr;
  uint64_t connection_id = 0;
};

/// The transport-facing request interface SocketServer serves. BbsService
/// (below) and cluster::RouterService (src/cluster/router.h) both implement
/// it, so one accept loop fronts a single shard and a whole fleet alike.
class RequestHandler {
 public:
  virtual ~RequestHandler() = default;

  /// Maps one request document to one response document. Thread-safe.
  virtual obs::JsonValue Handle(const obs::JsonValue& request,
                                const RequestContext& ctx) = 0;

  virtual ServiceMetrics& metrics() = 0;

  /// Per-connection flight recorder, when the handler keeps one.
  virtual FlightRecorder* flight_recorder() const { return nullptr; }

  /// Lets the transport publish its live connection counter (reported by
  /// STATS next to the watermark gauge). `counter` must outlive the
  /// handler.
  virtual void AttachConnectionCounter(const std::atomic<uint64_t>*) {}

  /// True when `verb` upgrades the connection to a long-lived stream
  /// (a streaming verb of service/verbs.h that this handler can serve).
  /// The transport then calls ServeStream instead of Handle and closes
  /// afterwards.
  virtual bool IsStreamingVerb(Verb) const { return false; }

  /// Serves a streaming verb on the connection's thread until `stop`, the
  /// peer disconnecting, or an error. Only called for verbs IsStreamingVerb
  /// accepted.
  virtual void ServeStream(const obs::JsonValue& /*request*/, int /*fd*/,
                           const std::atomic<bool>& /*stop*/) {}
};

class BbsService : public RequestHandler {
 public:
  /// `index` must outlive the service. `db` may be null (MINE disabled;
  /// INSERT updates only the index).
  BbsService(SnapshotManager* index, TransactionDatabase* db,
             const ServiceOptions& options);

  /// Maps one request to one response. Never throws; protocol errors come
  /// back as {"ok": false, "error": {...}} responses. Thread-safe.
  obs::JsonValue Handle(const obs::JsonValue& request) {
    return Handle(request, RequestContext{});
  }

  /// Same, with transport context (flight-recorder ring, connection id).
  obs::JsonValue Handle(const obs::JsonValue& request,
                        const RequestContext& ctx) override;

  /// The schema-versioned service report (STATS payload, shutdown
  /// artifact).
  obs::JsonValue BuildStatsReport() const;

  /// Stops admitting COUNTs and executes everything already admitted.
  /// After Drain, COUNT answers Unavailable; PING/STATS still work.
  void Drain();

  ServiceMetrics& metrics() override { return metrics_; }
  const ServiceMetrics& metrics() const { return metrics_; }

  FlightRecorder* flight_recorder() const override {
    return options_.flight_recorder;
  }

  /// Lets the transport publish its live connection counter so STATS can
  /// report the current count next to the watermark gauge. `counter` must
  /// outlive the service.
  void AttachConnectionCounter(const std::atomic<uint64_t>* counter) override {
    live_connections_.store(counter, std::memory_order_release);
  }

  /// Microseconds since service start (the timebase of window rotation,
  /// slow-log records, and flight-recorder events).
  uint64_t NowRelMicros() const;

  /// Streaming verbs need a replication source (a durable primary).
  bool IsStreamingVerb(Verb verb) const override;
  void ServeStream(const obs::JsonValue& request, int fd,
                   const std::atomic<bool>& stop) override;

  /// Applies record batches shipped over WALSTREAM: each batch goes
  /// through the same WAL-then-apply path as an INSERT, under the write
  /// mutex. Called from the replication follower's thread.
  Status ApplyReplicated(const std::vector<std::vector<Itemset>>& batches);

  ServiceRole role() const {
    return static_cast<ServiceRole>(role_.load(std::memory_order_relaxed));
  }
  uint64_t term() const { return term_.load(std::memory_order_relaxed); }

 private:
  obs::JsonValue HandlePing();
  obs::JsonValue HandleCount(const obs::JsonValue& request,
                             const CountObs& count_obs, CountResult* out,
                             bool* counted);
  obs::JsonValue HandleInsert(const obs::JsonValue& request);
  obs::JsonValue HandleMine(const obs::JsonValue& request);
  obs::JsonValue HandleStats();
  obs::JsonValue HandleCheckpoint();
  obs::JsonValue HandleDump();
  obs::JsonValue HandleShardInfo();
  obs::JsonValue HandleMineCandidates(const obs::JsonValue& request);
  obs::JsonValue HandlePromote(const obs::JsonValue& request);
  /// The report's "replication" section for this daemon's role (null when
  /// replication is not configured).
  obs::JsonValue BuildReplicationSection() const;

  SnapshotManager* index_;
  TransactionDatabase* db_;
  DurabilityManager* durability_;
  ServiceOptions options_;
  ServiceMetrics metrics_;
  CountScheduler scheduler_;
  // Serializes INSERT, CHECKPOINT, PROMOTE and replication apply; mutable
  // so the const STATS path can take it briefly to read durability
  // counters consistently. MINE never takes it.
  mutable std::mutex write_mu_;
  std::atomic<bool> draining_{false};
  /// Replication role and fencing term; PROMOTE flips them (under
  /// write_mu_ for the transition, atomics so readers never block).
  std::atomic<int> role_;
  std::atomic<uint64_t> term_;
  std::atomic<uint64_t> promotions_{0};
  std::atomic<uint64_t> request_seq_{0};
  std::atomic<const std::atomic<uint64_t>*> live_connections_{nullptr};
  std::chrono::steady_clock::time_point start_;
};

struct SocketServerOptions {
  std::string host = "127.0.0.1";
  /// 0 binds an ephemeral port; read it back with port().
  uint16_t port = 0;
  int backlog = 64;
  /// Poll granularity of the accept/read loops; bounds Stop() latency.
  int poll_interval_ms = 200;
};

class SocketServer {
 public:
  /// `service` must outlive the server.
  SocketServer(RequestHandler* service, const SocketServerOptions& options);
  ~SocketServer();

  SocketServer(const SocketServer&) = delete;
  SocketServer& operator=(const SocketServer&) = delete;

  /// Binds, listens, and spawns the accept loop.
  Status Start();

  /// The bound port (valid after Start).
  uint16_t port() const { return port_; }

  /// Graceful drain: stop accepting, finish in-flight requests, join all
  /// connection threads. Idempotent.
  void Stop();

 private:
  struct Connection {
    std::thread thread;
    std::atomic<bool> done{false};
  };

  void AcceptLoop();
  void ServeConnection(OwnedFd fd, Connection* slot, uint64_t connection_id);
  void ReapFinishedLocked();

  RequestHandler* service_;
  SocketServerOptions options_;
  OwnedFd listener_;
  uint16_t port_ = 0;
  std::atomic<bool> stop_{false};
  std::atomic<uint64_t> open_connections_{0};
  std::atomic<uint64_t> next_connection_id_{0};
  std::thread accept_thread_;
  std::mutex conn_mu_;
  std::list<std::unique_ptr<Connection>> connections_;
};

}  // namespace bbsmine::service

#endif  // BBSMINE_SERVICE_SERVER_H_
