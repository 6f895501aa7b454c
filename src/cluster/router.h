// The bbsrouter request handler: one process fronting N bbsmined shards.
//
// RouterService implements the same RequestHandler interface BbsService
// does, so the daemon's SocketServer serves it unchanged and unmodified
// clients (bbsmine client, bbsbench) talk to a fleet exactly as they talk
// to one daemon. Downstream it speaks the same wire protocol over a
// per-shard pool of persistent ClientSessions.
//
// Verb semantics (docs/CLUSTER.md is the spec):
//   COUNT  — Bloofi-prune shards whose signatures cannot cover the query,
//            fan out to the rest, sum counts in shard order.
//            Bit-identical to a single node over the concatenated data.
//   MINE   — two-round global-τ candidate exchange (cluster/merge.h).
//            Bit-identical patterns, supports, order, and truncation.
//   INSERT — routes to the LAST shard (tail of the transaction-range
//            partition) and ORs the new items' positions into that
//            shard's Bloofi leaf so pruning never goes stale.
//   PING   — fans out (doubling as a health sweep); ok as long as the
//            router itself is up.
//   STATS  — the schema-v1 service report with kind "bbsrouter_service"
//            and a populated cluster section (per-shard detail included).
//   SHARDINFO — answers with the root OR signature and fleet totals, so
//            routers stack (a router is a valid "shard" of a bigger one).
//   CHECKPOINT — fans out to every shard; fails listing the shards that
//            failed.
//   DUMP   — InvalidArgument (per-connection flight recording is a
//            daemon-local concern).
//
// Fan-out: the thread handling a request drives all of its legs itself —
// it writes every leg's request, then poll()s the legs' sockets, so the
// legs overlap without a thread per leg.
//
// Robustness: every fan-out leg runs under a per-leg deadline; idempotent
// legs may hedge (re-issue on another connection after hedge_ms of
// silence — the straggler's socket is abandoned, the at-most-once rules
// from service/client.h still hold because only idempotent verbs hedge).
// When shards stay unreachable the router answers anyway from the
// survivors, with "degraded": true and the missing shard list, unless
// configured to require the full fleet.
//
// Failover: a shard spec may name a warm replica ("host:port/host:port",
// a bbsmined following the primary over WALSTREAM). When the primary
// goes dark the router promotes the replica without operator action.
// Promotion permanently fences the primary, so the trigger is evidence
// the primary is DEAD, never that it is slow: a transport-level failure
// (connect refused/reset, peer closed — the process is provably gone)
// triggers it immediately, while silence (a connect or response timeout)
// only marks the leg failed and leaves promotion to the background
// prober, which requires failover_probe_failures consecutive silent
// probes first. The promotion sequence:
//   1. confirm-probe the primary one last time with SHARDINFO — if it
//      answers at a current term the failover is aborted and the shard
//      marked back up (it was a blip, not a death);
//   2. probe the replica with SHARDINFO (config identity checked — a
//      replica of the wrong fleet is never promoted);
//   3. PROMOTE it at term = shard term + 1 (terms are monotonic per
//      shard; the daemon persists its term and rejects PROMOTE below it);
//   4. swap the shard's active endpoint, drop pooled connections to the
//      dead primary, and rebuild the shard's Bloofi leaf from the
//      replica's signature (replace-or-OR, same rule as RefreshShard).
// The demoted primary is FENCED by its stale term: when it restarts, the
// prober sees term < shard term and refuses to mark it up, so no read or
// write ever reaches a stale primary after promotion. Idempotent legs
// retry on the promoted replica inside the original fan-out deadline;
// INSERT never retries (at-most-once), the next INSERT routes to the new
// primary. A background prober re-probes down shards with jittered
// exponential backoff so recovered or promoted shards rejoin (and their
// leaves refresh) without client traffic — and drives promotion when the
// fleet is idle.

#ifndef BBSMINE_CLUSTER_ROUTER_H_
#define BBSMINE_CLUSTER_ROUTER_H_

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <thread>
#include <vector>

#include "cluster/bloofi_tree.h"
#include "cluster/merge.h"
#include "cluster/shard_map.h"
#include "core/bbs_config.h"
#include "core/bloom_hash.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "service/client.h"
#include "service/metrics.h"
#include "service/server.h"

namespace bbsmine::cluster {

struct RouterOptions {
  /// Per-leg retry/backoff policy (backpressure retries, timeout policy);
  /// timeout_ms inside is ignored — the fan-out deadline governs.
  service::RetryOptions retry;
  /// Total budget per downstream leg, hedge included.
  int fanout_deadline_ms = 5000;
  /// After this many ms of silence an idempotent leg is re-issued on
  /// another connection (0 = no hedging).
  int hedge_ms = 0;
  /// Bloofi pruning (off = every COUNT fans out everywhere; answers are
  /// identical either way — that equivalence is pinned by tests).
  bool prune = true;
  size_t branching = 4;
  /// When false a missing shard turns partial answers into Unavailable
  /// errors instead of degraded responses.
  bool allow_degraded = true;
  /// MINE defaults, mirroring ServiceOptions.
  size_t mine_top = 10;
  double default_min_support = 0.003;
  /// Round-1 "top" sent to shards: must exceed any shard's local frequent
  /// set size or completeness (and thus bit-identity) is lost; the router
  /// verifies shards did not truncate and fails the query if one did.
  uint64_t mine_round1_top = 50'000'000;
  /// Startup handshake patience: per shard, how many connect attempts
  /// spaced connect_backoff_ms apart before Init gives up on it.
  uint32_t connect_retries = 40;
  uint32_t connect_backoff_ms = 250;
  /// Sessions kept pooled per shard.
  size_t pool_size = 8;
  /// Background health-probe cadence (0 disables the prober thread). Up
  /// shards are probed at this interval so a primary that dies with no
  /// client traffic still fails over promptly; consecutive failures back
  /// a down shard's cadence off exponentially (jittered, capped at ~15s)
  /// so a dead shard is not hammered while a freshly recovered one
  /// rejoins within ~a second.
  uint32_t probe_interval_ms = 1000;
  /// Per-probe SHARDINFO budget.
  int probe_timeout_ms = 1000;
  /// Consecutive failed background probes of a SILENT primary (connect or
  /// SHARDINFO timeout — the process may be alive but slow) before the
  /// prober attempts promotion. Transport-level failures (connect refused
  /// or reset: the process is provably gone) fail over immediately and do
  /// not wait for this threshold. Promotion fences the primary
  /// permanently, so a latency blip must never be enough to trigger it.
  uint32_t failover_probe_failures = 3;
  service::ServiceMetrics::WindowOptions stats_windows;
};

class RouterService : public service::RequestHandler {
 public:
  RouterService(ShardMap map, const RouterOptions& options);
  ~RouterService();

  /// The startup handshake: SHARDINFO every shard (with patience — shards
  /// may still be booting), verify all reachable shards share one
  /// BbsConfig, and build the Bloofi tree. Fails when no shard is
  /// reachable or configs diverge; shards that stay unreachable enter
  /// service marked down with an all-ones (never-pruned) signature.
  Status Init();

  obs::JsonValue Handle(const obs::JsonValue& request) {
    return Handle(request, service::RequestContext{});
  }
  obs::JsonValue Handle(const obs::JsonValue& request,
                        const service::RequestContext& ctx) override;

  service::ServiceMetrics& metrics() override { return metrics_; }
  const service::ServiceMetrics& metrics() const { return metrics_; }

  void AttachConnectionCounter(
      const std::atomic<uint64_t>* counter) override {
    live_connections_.store(counter, std::memory_order_release);
  }

  /// The schema-v1 report (STATS payload / shutdown artifact), kind
  /// "bbsrouter_service", cluster section populated.
  obs::JsonValue BuildStatsReport() const;

  /// Stops accepting work: every verb but PING/STATS answers Unavailable.
  void Drain() { draining_.store(true, std::memory_order_relaxed); }

  size_t num_shards() const { return shards_.size(); }
  uint64_t shards_up() const;
  /// Total promotions driven by this router (the cluster.failovers
  /// counter).
  uint64_t failovers() const;
  /// The endpoint shard `idx` currently routes to (primary, or the
  /// replica after a failover).
  ShardEndpoint active_endpoint(size_t idx) const;
  /// Cluster-wide transaction total (cached from the latest responses).
  uint64_t TotalTransactions() const;
  const BbsConfig& shard_config() const { return config_; }

 private:
  /// One downstream exchange outcome.
  struct ShardReply {
    bool has_response = false;
    obs::JsonValue response;
    Status status = Status::Ok();
  };

  struct ShardState {
    ShardEntry entry;
    /// True once the replica has been promoted: the shard's active
    /// endpoint is entry.replica until an operator repairs the map.
    std::atomic<bool> on_replica{false};
    /// The shard's fencing term (max term any PROMOTE or SHARDINFO
    /// reported). An endpoint answering with a smaller term is a stale
    /// demoted primary and is never marked up.
    std::atomic<uint64_t> term{0};
    /// Serializes promotion attempts; try_lock so concurrent failed legs
    /// do not stampede PROMOTE.
    std::mutex failover_mu;
    std::mutex pool_mu;
    std::vector<service::ClientSession> idle;  // guarded by pool_mu
    /// Bumped (under pool_mu) when the active endpoint changes; sessions
    /// checked out under an older generation are dropped instead of
    /// returned, so a pooled socket to a demoted primary can never serve
    /// a post-failover request. The fence only holds because checkout
    /// resolves the endpoint and reads the generation under the same
    /// pool_mu hold, and TryFailover flips on_replica inside the hold
    /// that bumps the generation — endpoint and generation move
    /// atomically with respect to each other.
    uint64_t pool_gen = 0;  // guarded by pool_mu
    /// Consecutive background-probe failures (drives the prober backoff).
    std::atomic<uint32_t> probe_failures{0};
    std::atomic<bool> up{false};
    std::atomic<uint64_t> transactions{0};
    std::atomic<uint64_t> epoch{0};
    std::atomic<uint64_t> requests{0};
    std::atomic<uint64_t> errors{0};
    std::atomic<uint64_t> pruned{0};
    std::atomic<uint64_t> hedged{0};
    /// Bumped (under tree_mu_) every time an INSERT ORs new positions
    /// into this shard's Bloofi leaf. RefreshShard samples it before
    /// fetching SHARDINFO: if it moved by apply time, an acked INSERT
    /// raced the fetch and the snapshot may predate that insert's bits,
    /// so the leaf is ORed instead of replaced (bits are never cleared).
    std::atomic<uint64_t> leaf_version{0};
    // Per-shard downstream latency, log2 µs buckets; slot 0 = overflow
    // (the ServiceMetrics histogram layout).
    std::array<std::atomic<uint64_t>,
               obs::DepthHistogram::kMaxTrackedDepth + 1>
        latency{};
  };

  obs::JsonValue HandlePing();
  obs::JsonValue HandleCount(const obs::JsonValue& request);
  obs::JsonValue HandleInsert(const obs::JsonValue& request);
  /// The two-round global-τ candidate exchange (docs/CLUSTER.md). Round 2
  /// pins each shard to the prefix it mined in round 1 ("at_txn"), so
  /// concurrent INSERTs cannot mix the rounds' data.
  obs::JsonValue HandleMine(const obs::JsonValue& request);
  obs::JsonValue HandleStats();
  obs::JsonValue HandleCheckpoint();
  obs::JsonValue HandleShardInfo();

  /// One downstream leg: a state machine that checks a session out of
  /// its shard's pool, exchanges one request under the fan-out deadline
  /// with backpressure backoff, hedging (idempotent verbs) and failover,
  /// and keeps the shard's health/latency bookkeeping (router.cc).
  struct Leg;

  /// Drives one leg per index in `targets` (request_for(idx) is its
  /// request) from the calling thread: every leg's request is written
  /// first, then one poll() loop serves whichever leg answers or whose
  /// timer (hedge, backoff, deadline) fires. Results land at their shard
  /// index in the returned vector (non-targets stay empty-handed with
  /// has_response == false).
  std::vector<ShardReply> RunLegs(
      const std::vector<size_t>& targets,
      const std::function<const obs::JsonValue&(size_t)>& request_for);

  /// RunLegs for a request's fan-out, timed into cluster.fanout_us.
  std::vector<ShardReply> FanOut(
      const std::vector<size_t>& targets,
      const std::function<const obs::JsonValue&(size_t)>& request_for);

  /// FanOut with the same request for every target.
  std::vector<ShardReply> FanOut(const std::vector<size_t>& targets,
                                 const obs::JsonValue& request) {
    return FanOut(targets, [&request](size_t) -> const obs::JsonValue& {
      return request;
    });
  }

  /// The one-leg case (INSERT to the tail shard, leaf pulls).
  ShardReply CallShard(size_t idx, const obs::JsonValue& request);

  /// The sorted union of the query items' hash positions.
  std::vector<uint32_t> QueryPositions(const Itemset& items) const;

  /// Bloofi-matched shard indices for the query (everything when pruning
  /// is off); records pruned-shard counters.
  std::vector<size_t> MatchShards(const std::vector<uint32_t>& positions);

  /// Promotes shard `idx`'s replica after its primary went dark. First
  /// confirm-probes the primary and aborts (marking the shard back up)
  /// if it answers at a current term — promotion fences the primary
  /// permanently, so it must never race a primary that is merely slow.
  /// Then probes the replica (SHARDINFO: config identity + term sanity),
  /// issues PROMOTE at term + 1, swaps the active endpoint, clears the
  /// pool, rebuilds the Bloofi leaf from the replica's signature, and
  /// marks the shard up. Returns true when the shard ends the call
  /// promoted and up (including when another thread won the race). No-op
  /// for shards without a replica or already failed over.
  bool TryFailover(size_t idx);

  /// The background prober: wakes every probe_interval_ms and SHARDINFO-
  /// probes every shard — up shards as cheap health checks (so a traffic-
  /// less primary death still fails over), down shards with jittered
  /// exponential backoff per shard. Fences stale terms, marks recovered
  /// shards up (leaf refresh included), and drives failover when a
  /// primary stays dark with a warm replica standing by.
  void ProbeLoop();

  /// One background probe of shard `idx`'s active endpoint. A failed
  /// probe marks the shard down (a replica-less dead shard must not
  /// stay "up" in STATS just because no client traffic hit it) and
  /// drives promotion — immediately on a transport-level failure, after
  /// failover_probe_failures consecutive failures on mere silence.
  /// Returns true when the shard came back up.
  bool ProbeShard(size_t idx);

  /// Re-pulls SHARDINFO from shard `idx` and refreshes its Bloofi leaf —
  /// run when a shard transitions down -> up (its content may have moved
  /// while we could not see it). The leaf is fully replaced only when no
  /// INSERT updated it while the fetch was in flight (leaf_version
  /// check); otherwise the fetched signature is ORed in, so a snapshot
  /// that predates a concurrently acked INSERT can never clear that
  /// insert's bits.
  void RefreshShard(size_t idx);

  /// Records a shard's answer to `verb`. A down shard coming back up has
  /// its Bloofi leaf re-pulled unless the answer is itself a SHARDINFO
  /// (kUnknown forces the re-pull).
  void NoteShardSuccess(size_t idx, const obs::JsonValue& response,
                        service::Verb verb);

  /// The endpoint shard routing currently targets (primary, or the
  /// replica once failed over).
  ShardEndpoint ActiveEndpoint(const ShardState& shard) const {
    return shard.on_replica.load(std::memory_order_acquire)
               ? shard.entry.replica
               : shard.entry.primary;
  }

  /// Appends degraded/cluster trailer fields shared by COUNT and MINE.
  void FinishClusterResponse(obs::JsonValue* response, size_t queried,
                             size_t pruned,
                             const std::vector<size_t>& missing);

  ShardMap map_;
  RouterOptions options_;
  service::ServiceMetrics metrics_;
  std::vector<std::unique_ptr<ShardState>> shards_;

  BbsConfig config_;
  bool mine_enabled_ = false;
  /// Set by Init; Positions is thread-safe, so lookups take no lock.
  std::unique_ptr<BloomHashFamily> hash_;

  BloofiTree tree_;
  mutable std::shared_mutex tree_mu_;

  std::atomic<bool> draining_{false};
  std::atomic<const std::atomic<uint64_t>*> live_connections_{nullptr};
  std::chrono::steady_clock::time_point start_;

  // The background prober (started by Init when probe_interval_ms > 0).
  std::thread prober_;
  std::atomic<bool> prober_stop_{false};
  std::mutex prober_mu_;
  std::condition_variable prober_cv_;
};

}  // namespace bbsmine::cluster

#endif  // BBSMINE_CLUSTER_ROUTER_H_
