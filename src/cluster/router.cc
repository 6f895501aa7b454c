#include "cluster/router.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <numeric>
#include <optional>
#include <thread>
#include <utility>

#include <poll.h>

#include "core/mining_types.h"
#include "service/wire.h"

namespace bbsmine::cluster {

namespace {

using obs::JsonValue;
using service::ErrorCodeOf;
using service::ErrorResponse;
using service::IsBackpressure;
using service::ItemsFromJson;
using service::ItemsToJson;
using service::OkResponse;
using service::Verb;
using service::VerbOf;
using service::VerbRequest;

using Clock = std::chrono::steady_clock;

/// Milliseconds from now until `t`, rounded up, never negative (a poll
/// timeout that wakes before a timer would spin).
int MillisUntil(Clock::time_point t) {
  const auto left =
      std::chrono::ceil<std::chrono::milliseconds>(t - Clock::now());
  return static_cast<int>(std::max<int64_t>(0, left.count()));
}

uint64_t MicrosSince(std::chrono::steady_clock::time_point since) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - since)
          .count());
}

uint64_t UintField(const JsonValue& object, const std::string& key) {
  if (object.kind() != JsonValue::Kind::kObject || !object.Has(key)) return 0;
  const JsonValue& v = object.at(key);
  return v.is_number() ? v.AsUint() : 0;
}

std::string JoinIndices(const std::vector<size_t>& indices) {
  std::string joined;
  for (size_t idx : indices) {
    if (!joined.empty()) joined += ", ";
    joined += std::to_string(idx);
  }
  return joined;
}

/// Parses a SHARDINFO "config" object into a BbsConfig (hash-identity
/// fields only).
Result<BbsConfig> ConfigFromShardInfo(const JsonValue& info) {
  if (!info.Has("config") ||
      info.at("config").kind() != JsonValue::Kind::kObject) {
    return Status::InvalidArgument("SHARDINFO response lacks \"config\"");
  }
  const JsonValue& c = info.at("config");
  BbsConfig config;
  config.num_bits = static_cast<uint32_t>(UintField(c, "bits"));
  config.num_hashes = static_cast<uint32_t>(UintField(c, "hashes"));
  config.hash_kind = static_cast<HashKind>(UintField(c, "hash_kind"));
  config.seed = UintField(c, "seed");
  if (config.num_bits == 0 || config.num_hashes == 0) {
    return Status::InvalidArgument("SHARDINFO config is malformed");
  }
  return config;
}

bool SameHashConfig(const BbsConfig& a, const BbsConfig& b) {
  return a.num_bits == b.num_bits && a.num_hashes == b.num_hashes &&
         a.hash_kind == b.hash_kind && a.seed == b.seed;
}

/// Renders a per-shard latency array (ServiceMetrics bucket layout: slot 0
/// = overflow) in the report's {by_depth, overflow, total, p50/95/99}
/// histogram shape.
JsonValue ShardLatencyJson(const std::vector<uint64_t>& buckets) {
  JsonValue h = JsonValue::Object();
  JsonValue by_depth = JsonValue::Array();
  size_t last = 0;
  uint64_t total = buckets[0];
  for (size_t d = 1; d < buckets.size(); ++d) {
    total += buckets[d];
    if (buckets[d] != 0) last = d;
  }
  for (size_t d = 1; d <= last; ++d) {
    by_depth.Append(JsonValue::Uint(buckets[d]));
  }
  h.Set("by_depth", std::move(by_depth));
  h.Set("overflow", JsonValue::Uint(buckets[0]));
  h.Set("total", JsonValue::Uint(total));
  h.Set("p50",
        JsonValue::Double(obs::PercentileFromLog2Buckets(buckets, 0.50)));
  h.Set("p95",
        JsonValue::Double(obs::PercentileFromLog2Buckets(buckets, 0.95)));
  h.Set("p99",
        JsonValue::Double(obs::PercentileFromLog2Buckets(buckets, 0.99)));
  return h;
}

}  // namespace

RouterService::RouterService(ShardMap map, const RouterOptions& options)
    : map_(std::move(map)),
      options_(options),
      metrics_(options.stats_windows),
      start_(std::chrono::steady_clock::now()) {
  shards_.reserve(map_.size());
  for (const ShardEntry& entry : map_.shards) {
    auto shard = std::make_unique<ShardState>();
    shard->entry = entry;
    shards_.push_back(std::move(shard));
  }
}

RouterService::~RouterService() {
  prober_stop_.store(true, std::memory_order_relaxed);
  prober_cv_.notify_all();
  if (prober_.joinable()) prober_.join();
}

Status RouterService::Init() {
  if (shards_.empty()) {
    return Status::InvalidArgument("shard map is empty");
  }
  JsonValue request = VerbRequest(Verb::kShardInfo);

  // Handshake every shard at once, with patience — in a fresh cluster
  // the shards and the router race to their listen sockets. Each round
  // re-asks only the shards that have not answered yet.
  std::vector<JsonValue> infos(shards_.size());
  std::vector<char> reachable(shards_.size(), 0);
  std::vector<size_t> pending(shards_.size());
  std::iota(pending.begin(), pending.end(), size_t{0});
  for (uint32_t attempt = 0;
       attempt <= options_.connect_retries && !pending.empty(); ++attempt) {
    if (attempt > 0) {
      std::this_thread::sleep_for(
          std::chrono::milliseconds(options_.connect_backoff_ms));
    }
    std::vector<ShardReply> replies = RunLegs(
        pending, [&request](size_t) -> const JsonValue& { return request; });
    std::vector<size_t> unanswered;
    for (size_t i : pending) {
      const JsonValue& response = replies[i].response;
      if (replies[i].has_response &&
          response.kind() == JsonValue::Kind::kObject && response.Has("ok") &&
          response.at("ok").AsBool()) {
        infos[i] = std::move(replies[i].response);
        reachable[i] = 1;
      } else {
        unanswered.push_back(i);
      }
    }
    pending = std::move(unanswered);
  }

  // Config identity: pruning and INSERT leaf updates hash queries with the
  // shards' own hash family, so every shard must agree on it.
  bool have_config = false;
  mine_enabled_ = true;
  for (size_t i = 0; i < shards_.size(); ++i) {
    if (!reachable[i]) continue;
    Result<BbsConfig> config = ConfigFromShardInfo(infos[i]);
    if (!config.ok()) return config.status();
    if (!have_config) {
      config_ = *config;
      have_config = true;
    } else if (!SameHashConfig(config_, *config)) {
      return Status::InvalidArgument(
          "shard " + std::to_string(i) + " (" +
          shards_[i]->entry.primary.ToString() +
          ") has a different index config than shard 0; all shards must "
          "share bits/hashes/hash_kind/seed");
    }
    if (infos[i].Has("mine_enabled") &&
        !infos[i].at("mine_enabled").AsBool()) {
      mine_enabled_ = false;
    }
  }
  if (!have_config) {
    return Status::Unavailable(
        "no shard answered the startup handshake; is the fleet up?");
  }
  Result<BloomHashFamily> hash = BloomHashFamily::Create(
      config_.num_bits, config_.num_hashes, config_.hash_kind, config_.seed);
  if (!hash.ok()) return hash.status();
  hash_ = std::make_unique<BloomHashFamily>(std::move(*hash));

  // Leaves: real signatures for reachable shards; all-ones (never pruned,
  // so never wrongly skipped) for shards that stayed dark.
  std::vector<BitVector> leaves;
  leaves.reserve(shards_.size());
  for (size_t i = 0; i < shards_.size(); ++i) {
    if (reachable[i]) {
      Result<BitVector> signature = service::BitsFromHex(
          infos[i].at("signature").AsString(), config_.num_bits);
      if (!signature.ok()) return signature.status();
      leaves.push_back(std::move(*signature));
    } else {
      leaves.push_back(BitVector(config_.num_bits, true));
    }
  }
  {
    std::unique_lock<std::shared_mutex> lock(tree_mu_);
    tree_ = BloofiTree::Build(std::move(leaves), options_.branching);
  }
  for (size_t i = 0; i < shards_.size(); ++i) {
    if (!reachable[i]) continue;
    ShardState& shard = *shards_[i];
    shard.up.store(true, std::memory_order_relaxed);
    shard.transactions.store(UintField(infos[i], "transactions"),
                             std::memory_order_relaxed);
    shard.epoch.store(UintField(infos[i], "epoch"),
                      std::memory_order_relaxed);
    // The shard's fencing term starts at whatever its primary reported
    // (pre-replication daemons omit the field; 0 fences nothing).
    shard.term.store(UintField(infos[i], "term"), std::memory_order_relaxed);
  }
  if (options_.probe_interval_ms > 0) {
    prober_ = std::thread(&RouterService::ProbeLoop, this);
  }
  return Status::Ok();
}

uint64_t RouterService::failovers() const {
  return metrics_.counter(metrics_.failovers);
}

ShardEndpoint RouterService::active_endpoint(size_t idx) const {
  return ActiveEndpoint(*shards_[idx]);
}

uint64_t RouterService::shards_up() const {
  uint64_t up = 0;
  for (const auto& shard : shards_) {
    if (shard->up.load(std::memory_order_relaxed)) ++up;
  }
  return up;
}

uint64_t RouterService::TotalTransactions() const {
  uint64_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->transactions.load(std::memory_order_relaxed);
  }
  return total;
}

obs::JsonValue RouterService::Handle(const obs::JsonValue& request,
                                     const service::RequestContext&) {
  metrics_.Inc(metrics_.requests_total);
  metrics_.MaybeRotateWindows(MicrosSince(start_));
  const Verb verb = VerbOf(request);
  const char* rejection = nullptr;
  switch (verb) {
    case Verb::kUnknown:
      metrics_.Inc(metrics_.errors);
      return service::UnknownVerbResponse(request);
    case Verb::kDump:
      rejection = "DUMP is daemon-local; send it to a shard directly";
      break;
    case Verb::kPromote:
      rejection =
          "PROMOTE is shard-local; the router promotes replicas itself";
      break;
    case Verb::kWalStream:
      rejection = "WALSTREAM is served by a durable primary, not the router";
      break;
    default:
      break;
  }
  if (rejection != nullptr) {
    metrics_.Inc(metrics_.errors);
    return ErrorResponse(verb, Status::InvalidArgument(rejection));
  }
  metrics_.Inc(metrics_.requests(verb));
  const auto begin = std::chrono::steady_clock::now();
  JsonValue response;
  switch (verb) {
    case Verb::kPing:
      response = HandlePing();
      break;
    case Verb::kCount:
      response = HandleCount(request);
      break;
    case Verb::kInsert:
      response = HandleInsert(request);
      break;
    case Verb::kMine:
      response = HandleMine(request);
      break;
    case Verb::kStats:
      response = HandleStats();
      break;
    case Verb::kCheckpoint:
      response = HandleCheckpoint();
      break;
    case Verb::kShardInfo:
      response = HandleShardInfo();
      break;
    default:
      break;  // rejected above
  }
  metrics_.ObserveLog2(metrics_.latency(verb), MicrosSince(begin));
  if (!response.at("ok").AsBool()) metrics_.Inc(metrics_.errors);
  return response;
}

struct RouterService::Leg {
  enum class Phase {
    kConnecting,  ///< fresh connection's handshake under way (POLLOUT)
    kAwaiting,    ///< request written, waiting for the answer (POLLIN)
    kBackoff,     ///< the shard shed load; re-send when the timer fires
    kDone,
  };

  Leg(RouterService* router, size_t idx, const JsonValue* request)
      : router(router),
        shard(*router->shards_[idx]),
        idx(idx),
        request(request),
        verb(VerbOf(*request)),
        idempotent(service::InfoOf(verb).idempotent),
        start(Clock::now()),
        deadline(start +
                 std::chrono::milliseconds(
                     router->options_.fanout_deadline_ms)),
        jitter_state(router->options_.retry.jitter_seed + idx) {
    shard.requests.fetch_add(1, std::memory_order_relaxed);
  }

  /// Checks a session out, arms the attempt timer and starts the
  /// exchange; fails the leg once the deadline has passed.
  void StartAttempt() {
    const auto now = Clock::now();
    attempt_remaining_ms =
        std::chrono::duration_cast<std::chrono::milliseconds>(deadline - now)
            .count();
    if (attempt_remaining_ms <= 0) return Fail();
    {
      // Endpoint and generation are captured under ONE pool_mu hold, and
      // TryFailover flips the active endpoint inside the hold that bumps
      // the generation — so a session built here can never pair the
      // demoted primary's address with the post-failover generation (the
      // TOCTOU that would let a fenced primary serve, and pool into, the
      // promoted shard).
      std::lock_guard<std::mutex> lock(shard.pool_mu);
      session_gen = shard.pool_gen;
      if (!shard.idle.empty()) {
        session.emplace(std::move(shard.idle.back()));
        shard.idle.pop_back();
      } else {
        const ShardEndpoint endpoint = router->ActiveEndpoint(shard);
        session.emplace(endpoint.host, endpoint.port);
      }
    }
    // Hedge arming: the first idempotent attempt waits only hedge_ms; if
    // that fires, the straggler's socket is abandoned and the request is
    // re-issued once with the remaining budget.
    const int hedge_ms = router->options_.hedge_ms;
    hedge_armed = idempotent && !hedged && hedge_ms > 0 &&
                  hedge_ms < attempt_remaining_ms;
    timer = now + std::chrono::milliseconds(hedge_armed ? hedge_ms
                                                        : attempt_remaining_ms);
    if (session->connected()) return Send();
    Status started = session->StartConnect();
    if (!started.ok()) return OnError(started);
    phase = Phase::kConnecting;
  }

  /// kAwaiting: the answer (or EOF / an error) arrived.
  void Receive() {
    Result<JsonValue> response = session->Receive(MillisUntil(timer));
    if (!response.ok()) return OnError(response.status());
    OnResponse(std::move(*response));
  }

  /// The timer fired: backoff over, or the attempt went silent.
  void OnTimer() {
    if (phase == Phase::kBackoff) return StartAttempt();
    const Status silence =
        phase == Phase::kConnecting
            ? Status::Unavailable("connect " + session->host() + ":" +
                                  std::to_string(session->port()) +
                                  " timed out")
            : Status::Unavailable("recv timed out");
    session.reset();  // the stream may still deliver a stale answer
    OnError(silence);
  }

  /// Writes the request; from kConnecting, once the socket turned
  /// writable (connected or refused).
  void Send() {
    Status sent = session->Send(*request, MillisUntil(timer));
    if (!sent.ok()) return OnError(sent);
    phase = Phase::kAwaiting;
  }

  void OnResponse(JsonValue response) {
    const bool backpressured = IsBackpressure(response);
    {
      // The generation check drops sessions checked out before a
      // failover: a pooled socket to the demoted primary must never serve
      // a post-promotion request.
      std::lock_guard<std::mutex> lock(shard.pool_mu);
      if (session->connected() &&
          shard.idle.size() < router->options_.pool_size &&
          shard.pool_gen == session_gen) {
        shard.idle.push_back(std::move(*session));
      }
    }
    session.reset();
    const service::RetryOptions& retry = router->options_.retry;
    if (backpressured && backoff_attempts < retry.retries) {
      failure = Status::Unavailable(
          "fan-out deadline exhausted while the shard shed load "
          "(backpressure)");
      ++backoff_attempts;
      uint64_t sleep_ms =
          service::RetryBackoffMs(retry, backoff_attempts, &jitter_state);
      sleep_ms = std::min<uint64_t>(
          sleep_ms, static_cast<uint64_t>(
                        std::max<int64_t>(0, attempt_remaining_ms - 1)));
      phase = Phase::kBackoff;
      timer = Clock::now() + std::chrono::milliseconds(sleep_ms);
      return;
    }
    reply.has_response = true;
    reply.response = std::move(response);
    shard.latency[obs::Log2Slot(MicrosSince(start))].fetch_add(
        1, std::memory_order_relaxed);
    phase = Phase::kDone;
    router->NoteShardSuccess(idx, reply.response, verb);
  }

  void OnError(const Status& status) {
    if (status.code() == StatusCode::kUnavailable) {
      // Silence: a connect or response timeout. A slow shard is not a
      // dead shard — a MINE can legitimately outlive the fan-out
      // deadline, an INSERT can stall on a slow fsync — and promotion
      // permanently fences the primary (in async replication it also
      // drops every acked-but-unshipped WAL record). So silence only
      // fails this leg: no down-marking, no failover. The background
      // prober owns that call, and only after failover_probe_failures
      // consecutive silent probes.
      if (hedge_armed) {
        hedged = true;
        shard.hedged.fetch_add(1, std::memory_order_relaxed);
        router->metrics_.Inc(router->metrics_.hedged_requests);
        return StartAttempt();
      }
      failure = idempotent
                    ? status
                    : Status::Indeterminate(
                          "response timed out after the request was sent; "
                          "it may or may not have been applied (" +
                          status.message() + ")");
      return Fail();
    }
    // Transport-level failure (connect refused/reset, peer closed): the
    // process is provably gone, not slow. Mark the shard down now, and
    // when a warm replica is standing by, promote it — TryFailover still
    // confirm-probes the primary once before PROMOTE, so a reset blip
    // against a live primary aborts there. Idempotent legs then retry
    // once on the new primary inside the original deadline; INSERT never
    // retries (at-most-once — the caller reconciles, and the NEXT insert
    // routes to the promoted replica).
    failure = status;
    shard.up.store(false, std::memory_order_relaxed);
    if (!failover_retried && router->TryFailover(idx) && idempotent) {
      failover_retried = true;
      return StartAttempt();
    }
    Fail();
  }

  void Fail() {
    // Note what a leg does NOT do: a shard that answered with
    // backpressure is alive (shedding load is not downtime), and one that
    // merely timed out may be alive — neither is flipped down here.
    session.reset();
    shard.errors.fetch_add(1, std::memory_order_relaxed);
    router->metrics_.Inc(router->metrics_.shard_errors);
    reply.status = failure;
    phase = Phase::kDone;
  }

  RouterService* router;
  ShardState& shard;
  const size_t idx;
  const JsonValue* request;
  const Verb verb;
  const bool idempotent;
  const Clock::time_point start;
  const Clock::time_point deadline;

  Phase phase = Phase::kDone;
  /// When the current phase gives up: the hedge or deadline of an
  /// attempt, or the end of a backoff.
  Clock::time_point timer;
  std::optional<service::ClientSession> session;
  uint64_t session_gen = 0;
  int64_t attempt_remaining_ms = 0;
  bool hedge_armed = false;
  bool hedged = false;
  bool failover_retried = false;
  uint32_t backoff_attempts = 0;
  uint64_t jitter_state;
  Status failure = Status::Unavailable("fan-out deadline exhausted");
  ShardReply reply;
};

std::vector<RouterService::ShardReply> RouterService::RunLegs(
    const std::vector<size_t>& targets,
    const std::function<const obs::JsonValue&(size_t)>& request_for) {
  std::vector<std::unique_ptr<Leg>> legs;
  legs.reserve(targets.size());
  for (size_t idx : targets) {
    legs.push_back(std::make_unique<Leg>(this, idx, &request_for(idx)));
    legs.back()->StartAttempt();
  }
  std::vector<pollfd> fds;
  std::vector<Leg*> polled;
  for (;;) {
    fds.clear();
    polled.clear();
    std::optional<Clock::time_point> next_timer;
    for (const auto& leg : legs) {
      if (leg->phase == Leg::Phase::kDone) continue;
      if (!next_timer || leg->timer < *next_timer) next_timer = leg->timer;
      if (leg->phase == Leg::Phase::kBackoff) continue;
      const short events =
          leg->phase == Leg::Phase::kConnecting ? POLLOUT : POLLIN;
      fds.push_back(pollfd{leg->session->fd(), events, 0});
      polled.push_back(leg.get());
    }
    if (!next_timer) break;
    if (::poll(fds.data(), fds.size(), MillisUntil(*next_timer)) < 0) {
      // EINTR (or a transient failure): no leg is known ready; timers
      // still advance, so the loop ends by the deadlines regardless.
      for (pollfd& p : fds) p.revents = 0;
    }
    // Answers first: a leg whose reply and timer are both due keeps the
    // reply. `now` predates the handlers below, so a timer that comes due
    // while one of them blocks (TryFailover's probes, a leaf pull) is
    // checked against a fresh poll before it fires.
    const auto now = Clock::now();
    for (size_t i = 0; i < fds.size(); ++i) {
      if (fds[i].revents == 0) continue;
      if (polled[i]->phase == Leg::Phase::kConnecting) {
        polled[i]->Send();
      } else {
        polled[i]->Receive();
      }
    }
    for (const auto& leg : legs) {
      if (leg->phase != Leg::Phase::kDone && leg->timer <= now) {
        leg->OnTimer();
      }
    }
  }
  std::vector<ShardReply> replies(shards_.size());
  for (const auto& leg : legs) replies[leg->idx] = std::move(leg->reply);
  return replies;
}

std::vector<RouterService::ShardReply> RouterService::FanOut(
    const std::vector<size_t>& targets,
    const std::function<const obs::JsonValue&(size_t)>& request_for) {
  const auto begin = Clock::now();
  std::vector<ShardReply> replies = RunLegs(targets, request_for);
  metrics_.ObserveLog2(metrics_.fanout_latency, MicrosSince(begin));
  return replies;
}

RouterService::ShardReply RouterService::CallShard(
    size_t idx, const obs::JsonValue& request) {
  return std::move(
      RunLegs({idx}, [&request](size_t) -> const JsonValue& {
        return request;
      })[idx]);
}

void RouterService::NoteShardSuccess(size_t idx, const obs::JsonValue& response,
                                     service::Verb verb) {
  ShardState& shard = *shards_[idx];
  if (response.Has("term") && response.at("term").is_number()) {
    // Terms only ratchet up (monotonic fencing); a response can raise the
    // shard's term but never lower it.
    uint64_t term = response.at("term").AsUint();
    uint64_t current = shard.term.load(std::memory_order_relaxed);
    while (term > current &&
           !shard.term.compare_exchange_weak(current, term,
                                             std::memory_order_relaxed)) {
    }
  }
  if (response.Has("epoch") && response.at("epoch").is_number()) {
    shard.epoch.store(response.at("epoch").AsUint(),
                      std::memory_order_relaxed);
  }
  if (response.Has("visible_transactions")) {
    shard.transactions.store(UintField(response, "visible_transactions"),
                             std::memory_order_relaxed);
  } else if (response.Has("transactions") &&
             response.at("transactions").is_number()) {
    shard.transactions.store(response.at("transactions").AsUint(),
                             std::memory_order_relaxed);
  }
  const bool was_up = shard.up.exchange(true, std::memory_order_relaxed);
  if (!was_up && verb != Verb::kShardInfo) {
    // Down -> up transition: the shard may have restarted with recovered
    // (or different) content, so its Bloofi leaf is re-pulled before the
    // stale one can wrongly prune it.
    RefreshShard(idx);
  }
}

void RouterService::RefreshShard(size_t idx) {
  JsonValue request = VerbRequest(Verb::kShardInfo);
  // Sample the leaf version BEFORE the fetch: any INSERT leaf update not
  // counted here was acked by the shard before the request below was even
  // sent, so the signature it answers with already contains those bits.
  const uint64_t version_before =
      shards_[idx]->leaf_version.load(std::memory_order_acquire);
  ShardReply reply = CallShard(idx, request);
  if (!reply.has_response || !reply.response.at("ok").AsBool()) return;
  Result<BitVector> signature = service::BitsFromHex(
      reply.response.at("signature").AsString(), config_.num_bits);
  if (!signature.ok()) return;
  std::unique_lock<std::shared_mutex> lock(tree_mu_);
  if (shards_[idx]->leaf_version.load(std::memory_order_relaxed) ==
      version_before) {
    // No INSERT touched the leaf while the fetch was in flight: a full
    // replace is safe, and lets a restarted shard's leaf shrink back to
    // its actual content.
    tree_.SetLeaf(idx, *signature);
  } else {
    // An INSERT ORed bits in mid-fetch and the snapshot may predate them;
    // replacing would clear bits of acked data and let COUNT wrongly
    // prune. OR the snapshot in instead — stale extra bits only cost a
    // false-positive fan-out leg.
    tree_.OrSignatureIntoLeaf(idx, *signature);
  }
}

bool RouterService::TryFailover(size_t idx) {
  ShardState& shard = *shards_[idx];
  // Before Init has the fleet's config (hash_) there is nothing to check a
  // replica against: a shard dark through the handshake enters service
  // down, and the prober fails it over later.
  if (!shard.entry.has_replica || hash_ == nullptr) return false;
  if (shard.on_replica.load(std::memory_order_acquire)) {
    // Already promoted (possibly by a racing leg): the shard is as failed
    // over as it will get; report whether it is serving.
    return shard.up.load(std::memory_order_relaxed);
  }
  std::unique_lock<std::mutex> lock(shard.failover_mu, std::try_to_lock);
  if (!lock.owns_lock()) {
    // Another thread is mid-promotion; do not stampede PROMOTE. The loser
    // reports failure and lets client-level retries find the new primary.
    return false;
  }
  if (shard.on_replica.load(std::memory_order_relaxed)) {
    return shard.up.load(std::memory_order_relaxed);
  }

  // Confirm the primary is actually dead before fencing it for good:
  // whatever evidence brought us here (a transport error on a request
  // leg, a run of failed background probes) may have been a blip, and a
  // promoted-past primary cannot be un-fenced without an operator. One
  // SHARDINFO answer at a current term aborts the failover and marks the
  // shard back up.
  {
    service::ClientSession confirm(shard.entry.primary.host,
                                   shard.entry.primary.port);
    JsonValue confirm_request = VerbRequest(Verb::kShardInfo);
    Result<JsonValue> alive =
        confirm.Call(confirm_request, options_.probe_timeout_ms);
    if (alive.ok() && alive->kind() == JsonValue::Kind::kObject &&
        alive->Has("ok") && alive->at("ok").AsBool() &&
        UintField(*alive, "term") >=
            shard.term.load(std::memory_order_relaxed)) {
      lock.unlock();
      NoteShardSuccess(idx, *alive, Verb::kUnknown);
      return false;
    }
  }

  // Probe the replica on a fresh connection (the pool belongs to the dead
  // primary).
  const ShardEndpoint replica = shard.entry.replica;
  Result<service::ClientSession> session =
      service::ClientSession::Connect(replica.host, replica.port);
  if (!session.ok()) return false;
  JsonValue info_request = VerbRequest(Verb::kShardInfo);
  Result<JsonValue> info = session->Call(info_request, options_.probe_timeout_ms);
  if (!info.ok() || info->kind() != JsonValue::Kind::kObject ||
      !info->Has("ok") || !info->at("ok").AsBool()) {
    return false;
  }
  // Never promote a replica of the wrong fleet: config identity is the
  // same invariant Init enforces for primaries.
  Result<BbsConfig> config = ConfigFromShardInfo(*info);
  if (!config.ok() || !SameHashConfig(config_, *config)) {
    std::fprintf(stderr,
                 "bbsrouter: shard %zu replica %s has a mismatched index "
                 "config; refusing to promote\n",
                 idx, replica.ToString().c_str());
    return false;
  }

  // PROMOTE at a term strictly above everything seen for this shard; the
  // daemon persists it and will fence any later PROMOTE (or the demoted
  // primary's stale term) below it.
  const uint64_t new_term =
      std::max(shard.term.load(std::memory_order_relaxed),
               UintField(*info, "term")) +
      1;
  JsonValue promote_request = VerbRequest(Verb::kPromote);
  promote_request.Set("term", JsonValue::Uint(new_term));
  Result<JsonValue> promoted =
      session->Call(promote_request, options_.probe_timeout_ms);
  if (!promoted.ok() || promoted->kind() != JsonValue::Kind::kObject ||
      !promoted->Has("ok") || !promoted->at("ok").AsBool()) {
    return false;
  }

  // Commit the failover: raise the fencing term, swap the active
  // endpoint, and invalidate every pooled connection to the old primary.
  // The endpoint flip happens INSIDE the pool_mu hold that bumps the
  // generation: checkout resolves endpoint and generation under the same
  // mutex, so no thread can pair the old endpoint with the new
  // generation (or vice versa).
  shard.term.store(new_term, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> pool_lock(shard.pool_mu);
    shard.idle.clear();
    ++shard.pool_gen;
    shard.on_replica.store(true, std::memory_order_release);
  }
  shard.probe_failures.store(0, std::memory_order_relaxed);
  metrics_.Inc(metrics_.failovers);
  std::fprintf(stderr,
               "bbsrouter: shard %zu failed over to replica %s at term %llu\n",
               idx, replica.ToString().c_str(),
               static_cast<unsigned long long>(new_term));
  lock.unlock();
  // Pull the promoted node's own signature (it may have applied WAL
  // records after the probe above) and mark the shard up — RefreshShard's
  // replace-or-OR rule keeps concurrently acked INSERT bits intact.
  RefreshShard(idx);
  return shard.up.load(std::memory_order_relaxed);
}

void RouterService::ProbeLoop() {
  // Deterministic jitter (tests stay reproducible): an LCG stepped per
  // backoff decision, seeded off the retry jitter seed.
  uint64_t rng = options_.retry.jitter_seed ^ 0x9e3779b97f4a7c15ull;
  std::vector<std::chrono::steady_clock::time_point> next_probe(
      shards_.size(), std::chrono::steady_clock::now());
  std::unique_lock<std::mutex> lock(prober_mu_);
  while (!prober_stop_.load(std::memory_order_relaxed)) {
    prober_cv_.wait_for(
        lock, std::chrono::milliseconds(options_.probe_interval_ms),
        [this] { return prober_stop_.load(std::memory_order_relaxed); });
    if (prober_stop_.load(std::memory_order_relaxed)) break;
    lock.unlock();
    const auto now = std::chrono::steady_clock::now();
    for (size_t i = 0; i < shards_.size(); ++i) {
      ShardState& shard = *shards_[i];
      if (now < next_probe[i]) continue;
      // Up shards are probed too — a primary can die with no client
      // traffic to notice, and failover must not wait for a request. A
      // healthy probe is one SHARDINFO and no leaf work, so the health
      // check costs the fleet almost nothing.
      if (ProbeShard(i)) {
        shard.probe_failures.store(0, std::memory_order_relaxed);
        next_probe[i] = now;
        continue;
      }
      // Jittered exponential backoff, capped around 15s: a shard that
      // stays dead is not hammered, a fresh recovery is noticed within
      // about a second.
      const uint32_t failures =
          shard.probe_failures.fetch_add(1, std::memory_order_relaxed) + 1;
      uint64_t backoff_ms = static_cast<uint64_t>(options_.probe_interval_ms)
                            << std::min(failures, 4u);
      backoff_ms = std::min<uint64_t>(backoff_ms, 15'000);
      rng = rng * 6364136223846793005ull + 1442695040888963407ull;
      const uint64_t jitter = (rng >> 33) % (backoff_ms / 2 + 1);
      next_probe[i] = now + std::chrono::milliseconds(backoff_ms / 2 + jitter);
    }
    lock.lock();
  }
}

bool RouterService::ProbeShard(size_t idx) {
  ShardState& shard = *shards_[idx];
  const ShardEndpoint endpoint = ActiveEndpoint(shard);
  JsonValue request = VerbRequest(Verb::kShardInfo);
  service::ClientSession session(endpoint.host, endpoint.port);
  Result<JsonValue> response = session.Call(request, options_.probe_timeout_ms);
  if (!response.ok() || response->kind() != JsonValue::Kind::kObject ||
      !response->Has("ok") || !response->at("ok").AsBool()) {
    // The active endpoint failed its health check: it is down for
    // routing/STATS purposes even when no replica exists to promote —
    // a replica-less shard that dies with no client traffic must not
    // stay "up" until a real request flips it.
    shard.up.store(false, std::memory_order_relaxed);
    // Promotion policy (it permanently fences the primary): a
    // transport-level failure — connect refused/reset, peer closed; the
    // process is provably gone — drives failover immediately. Mere
    // silence (a connect or SHARDINFO timeout: kUnavailable) may just be
    // a slow or overloaded primary, so it only counts toward
    // failover_probe_failures consecutive failures. ProbeLoop increments
    // probe_failures after this returns false, so the pre-increment load
    // + 1 is the count including this probe.
    const bool transport_failure =
        !response.ok() &&
        response.status().code() != StatusCode::kUnavailable;
    if (transport_failure ||
        shard.probe_failures.load(std::memory_order_relaxed) + 1 >=
            options_.failover_probe_failures) {
      return TryFailover(idx);
    }
    return false;
  }
  // Fencing: an endpoint answering with a term below the shard's is a
  // stale demoted primary (e.g. restarted after the replica took over
  // behind a repaired map). It is never marked up — no read or write
  // reaches it until an operator re-adds it with a fresh term.
  const uint64_t term = UintField(*response, "term");
  if (term < shard.term.load(std::memory_order_relaxed)) {
    shard.up.store(false, std::memory_order_relaxed);
    std::fprintf(stderr,
                 "bbsrouter: shard %zu endpoint %s is fenced (term %llu < "
                 "shard term %llu); leaving it down\n",
                 idx, endpoint.ToString().c_str(),
                 static_cast<unsigned long long>(term),
                 static_cast<unsigned long long>(
                     shard.term.load(std::memory_order_relaxed)));
    return false;
  }
  // A non-SHARDINFO verb name forces NoteShardSuccess's down->up path to
  // re-pull the Bloofi leaf — the shard's content may have moved while it
  // was dark.
  NoteShardSuccess(idx, *response, Verb::kUnknown);
  return true;
}

std::vector<uint32_t> RouterService::QueryPositions(
    const Itemset& items) const {
  std::vector<uint32_t> positions;
  for (ItemId item : items) {
    const std::vector<uint32_t>& p = hash_->Positions(item);
    positions.insert(positions.end(), p.begin(), p.end());
  }
  std::sort(positions.begin(), positions.end());
  positions.erase(std::unique(positions.begin(), positions.end()),
                  positions.end());
  return positions;
}

std::vector<size_t> RouterService::MatchShards(
    const std::vector<uint32_t>& positions) {
  if (!options_.prune) {
    std::vector<size_t> all(shards_.size());
    std::iota(all.begin(), all.end(), size_t{0});
    return all;
  }
  std::vector<size_t> matched;
  {
    std::shared_lock<std::shared_mutex> lock(tree_mu_);
    matched = tree_.Query(positions);
  }
  if (matched.size() < shards_.size()) {
    const uint64_t pruned = shards_.size() - matched.size();
    metrics_.Inc(metrics_.pruned_shard_queries, pruned);
    // Per-shard attribution: walk the complement of the (sorted) match
    // list.
    size_t next = 0;
    for (size_t i = 0; i < shards_.size(); ++i) {
      if (next < matched.size() && matched[next] == i) {
        ++next;
        continue;
      }
      shards_[i]->pruned.fetch_add(1, std::memory_order_relaxed);
    }
  }
  return matched;
}

void RouterService::FinishClusterResponse(obs::JsonValue* response,
                                          size_t queried, size_t pruned,
                                          const std::vector<size_t>& missing) {
  const bool degraded = !missing.empty();
  if (degraded) metrics_.Inc(metrics_.degraded_responses);
  response->Set("degraded", JsonValue::Bool(degraded));
  JsonValue missing_json = JsonValue::Array();
  for (size_t idx : missing) missing_json.Append(JsonValue::Uint(idx));
  response->Set("missing_shards", std::move(missing_json));
  JsonValue cluster = JsonValue::Object();
  cluster.Set("shards_total", JsonValue::Uint(shards_.size()));
  cluster.Set("shards_queried", JsonValue::Uint(queried));
  cluster.Set("shards_pruned", JsonValue::Uint(pruned));
  response->Set("cluster", std::move(cluster));
}

obs::JsonValue RouterService::HandlePing() {
  JsonValue request = VerbRequest(Verb::kPing);
  std::vector<size_t> all(shards_.size());
  std::iota(all.begin(), all.end(), size_t{0});
  std::vector<ShardReply> replies = FanOut(all, request);
  uint64_t epoch = 0;
  std::vector<size_t> missing;
  for (size_t i = 0; i < replies.size(); ++i) {
    if (replies[i].has_response && replies[i].response.at("ok").AsBool()) {
      epoch = std::max(epoch, UintField(replies[i].response, "epoch"));
    } else {
      missing.push_back(i);
      epoch = std::max(epoch,
                       shards_[i]->epoch.load(std::memory_order_relaxed));
    }
  }
  // The router itself is up, so PING succeeds even with shards dark — the
  // degraded trailer carries the bad news.
  JsonValue response = OkResponse(Verb::kPing);
  response.Set("epoch", JsonValue::Uint(epoch));
  FinishClusterResponse(&response, shards_.size(), 0, missing);
  return response;
}

obs::JsonValue RouterService::HandleCount(const obs::JsonValue& request) {
  if (draining_.load(std::memory_order_relaxed)) {
    return ErrorResponse(Verb::kCount,
                         Status::Unavailable("service is draining"));
  }
  Result<Itemset> items = ItemsFromJson(request.at("items"));
  if (!items.ok()) return ErrorResponse(Verb::kCount, items.status());
  const std::vector<uint32_t> positions = QueryPositions(*items);
  const std::vector<size_t> targets = MatchShards(positions);
  const size_t pruned = shards_.size() - targets.size();

  std::vector<ShardReply> replies = FanOut(targets, request);

  // Deterministic shard-order reduction: counts add exactly across a
  // transaction-range partition, so this sum is bit-identical to one node
  // holding the concatenation.
  uint64_t count = 0;
  uint64_t visible = 0;
  uint64_t batch = 0;
  uint64_t queue_wait = 0;
  uint64_t epoch = 0;
  std::vector<size_t> missing;
  for (size_t idx : targets) {
    ShardReply& reply = replies[idx];
    if (!reply.has_response) {
      missing.push_back(idx);
      continue;
    }
    const JsonValue& r = reply.response;
    if (!r.at("ok").AsBool()) {
      if (ErrorCodeOf(r) ==
          StatusCodeName(StatusCode::kInvalidArgument)) {
        return r;  // a malformed query fails the same way everywhere
      }
      missing.push_back(idx);
      continue;
    }
    count += UintField(r, "count");
    visible += UintField(r, "visible_transactions");
    batch += UintField(r, "batch_size");
    queue_wait = std::max(queue_wait, UintField(r, "queue_wait_us"));
    epoch = std::max(epoch, UintField(r, "epoch"));
  }
  // A pruned shard contributes exactly zero matches (its AND-of-slices is
  // the zero vector), but its transactions still count toward the visible
  // denominator; cached totals stand in for the skipped round trip.
  {
    size_t next = 0;
    for (size_t i = 0; i < shards_.size(); ++i) {
      if (next < targets.size() && targets[next] == i) {
        ++next;
        continue;
      }
      visible += shards_[i]->transactions.load(std::memory_order_relaxed);
      epoch = std::max(epoch,
                       shards_[i]->epoch.load(std::memory_order_relaxed));
    }
  }
  if (!missing.empty() && !options_.allow_degraded) {
    return ErrorResponse(
        Verb::kCount, Status::Unavailable("shards unreachable: [" +
                                     JoinIndices(missing) + "]"));
  }
  JsonValue response = OkResponse(Verb::kCount);
  response.Set("items", ItemsToJson(*items));
  response.Set("count", JsonValue::Uint(count));
  response.Set("epoch", JsonValue::Uint(epoch));
  response.Set("visible_transactions", JsonValue::Uint(visible));
  response.Set("batch_size", JsonValue::Uint(batch));
  response.Set("queue_wait_us", JsonValue::Uint(queue_wait));
  FinishClusterResponse(&response, targets.size(), pruned, missing);
  return response;
}

obs::JsonValue RouterService::HandleInsert(const obs::JsonValue& request) {
  if (draining_.load(std::memory_order_relaxed)) {
    return ErrorResponse(Verb::kInsert,
                         Status::Unavailable("service is draining"));
  }
  // The range partition's tail shard takes all new transactions: shard i
  // holding transactions before shard i+1's is the invariant every merge
  // leans on.
  const size_t tail = shards_.size() - 1;
  ShardReply reply = CallShard(tail, request);
  if (!reply.has_response) return ErrorResponse(Verb::kInsert, reply.status);
  if (!reply.response.at("ok").AsBool()) return reply.response;

  // Keep pruning truthful: OR the inserted items' positions into the tail
  // shard's Bloofi leaf before acknowledging, so a COUNT racing this
  // INSERT can never be pruned away from data it should see.
  Itemset inserted;
  if (request.Has("transactions") &&
      request.at("transactions").kind() == JsonValue::Kind::kArray) {
    const JsonValue& txns = request.at("transactions");
    for (size_t i = 0; i < txns.size(); ++i) {
      Result<Itemset> txn = ItemsFromJson(txns.at(i));
      if (txn.ok()) {
        inserted.insert(inserted.end(), txn->begin(), txn->end());
      }
    }
    Canonicalize(&inserted);
  } else if (request.Has("items")) {
    Result<Itemset> txn = ItemsFromJson(request.at("items"));
    if (txn.ok()) inserted = std::move(*txn);
  }
  if (!inserted.empty()) {
    const std::vector<uint32_t> positions = QueryPositions(inserted);
    std::unique_lock<std::shared_mutex> lock(tree_mu_);
    shards_[tail]->leaf_version.fetch_add(1, std::memory_order_release);
    tree_.OrIntoLeaf(tail, positions);
  }

  JsonValue response = reply.response;
  response.Set("shard", JsonValue::Uint(tail));
  // The shard reported its local total; clients of the fleet see the
  // cluster-wide one.
  response.Set("transactions", JsonValue::Uint(TotalTransactions()));
  return response;
}

obs::JsonValue RouterService::HandleMine(const obs::JsonValue& request) {
  if (draining_.load(std::memory_order_relaxed)) {
    return ErrorResponse(Verb::kMine,
                         Status::Unavailable("service is draining"));
  }
  if (!mine_enabled_) {
    return ErrorResponse(Verb::kMine,
                         Status::InvalidArgument(
                             "MINE requires every shard to run with --db"));
  }
  Result<service::MineArgs> args = service::MineArgsFromJson(
      request, {options_.default_min_support, options_.mine_top});
  if (!args.ok()) return ErrorResponse(Verb::kMine, args.status());
  const double min_support = args->min_support;
  const size_t top = args->top;

  // Round 1: every shard mines at the SAME relative minsup (its local
  // τ_i = ceil(minsup·n_i)), untruncated. Pigeonhole guarantees the union
  // of the local frequent sets contains every globally frequent pattern
  // (cluster/merge.h has the argument).
  JsonValue round1_request = VerbRequest(Verb::kMine);
  round1_request.Set("minsup", JsonValue::Double(min_support));
  round1_request.Set("top", JsonValue::Uint(options_.mine_round1_top));
  std::vector<size_t> all(shards_.size());
  std::iota(all.begin(), all.end(), size_t{0});
  std::vector<ShardReply> replies = FanOut(all, round1_request);

  std::vector<ShardMineResult> round1(shards_.size());
  std::vector<size_t> missing;
  for (size_t i = 0; i < shards_.size(); ++i) {
    if (!replies[i].has_response) {
      missing.push_back(i);
      continue;
    }
    const JsonValue& r = replies[i].response;
    if (!r.at("ok").AsBool()) {
      if (ErrorCodeOf(r) ==
          StatusCodeName(StatusCode::kInvalidArgument)) {
        return r;  // e.g. a shard without --db: a config error, not churn
      }
      missing.push_back(i);
      continue;
    }
    const JsonValue& patterns = r.at("patterns");
    if (UintField(r, "total_frequent") != patterns.size()) {
      return ErrorResponse(
          Verb::kMine,
          Status::Internal(
              "shard " + std::to_string(i) +
              " truncated its round-1 result; completeness (and "
              "bit-identity) needs a larger --mine-round1-top"));
    }
    round1[i].reachable = true;
    round1[i].transactions = UintField(r, "transactions");
    for (size_t p = 0; p < patterns.size(); ++p) {
      Result<Itemset> items = ItemsFromJson(patterns.at(p).at("items"));
      if (!items.ok()) return ErrorResponse(Verb::kMine, items.status());
      round1[i].supports[std::move(*items)] =
          UintField(patterns.at(p), "support");
    }
  }
  if (missing.size() == shards_.size()) {
    return ErrorResponse(Verb::kMine,
                         Status::Unavailable("no shard reachable"));
  }
  if (!missing.empty() && !options_.allow_degraded) {
    return ErrorResponse(
        Verb::kMine, Status::Unavailable("shards unreachable: [" +
                                    JoinIndices(missing) + "]"));
  }

  // Global τ over the transactions actually visible (the full total when
  // the fleet is healthy — then bit-identical to the oracle's threshold).
  uint64_t total = 0;
  for (const ShardMineResult& shard : round1) {
    if (shard.reachable) total += shard.transactions;
  }
  const uint64_t tau = AbsoluteThreshold(min_support, total);
  const std::vector<Itemset> candidates = UnionCandidates(round1);

  // Round 2: each shard exact-counts only the candidates it did not
  // already report (its round-1 supports are exact). Shards with nothing
  // missing skip the round entirely.
  std::vector<std::map<Itemset, uint64_t>> round2(shards_.size());
  std::vector<std::vector<Itemset>> needed(shards_.size());
  std::vector<size_t> round2_targets;
  for (size_t i = 0; i < shards_.size(); ++i) {
    if (!round1[i].reachable) continue;
    needed[i] = MissingCandidates(round1[i], candidates);
    if (!needed[i].empty()) round2_targets.push_back(i);
  }
  // Each round-2 leg is pinned to the prefix its shard mined in round 1
  // ("at_txn"), so INSERTs landing between the rounds cannot change what
  // either round read. A shard echoing any other total is an error leg.
  std::vector<JsonValue> round2_requests(shards_.size());
  for (size_t idx : round2_targets) {
    JsonValue candidates_json = JsonValue::Array();
    for (const Itemset& candidate : needed[idx]) {
      candidates_json.Append(ItemsToJson(candidate));
    }
    JsonValue& request = round2_requests[idx];
    request = VerbRequest(Verb::kMine);
    request.Set("candidates", std::move(candidates_json));
    request.Set("at_txn", JsonValue::Uint(round1[idx].transactions));
  }
  std::vector<ShardReply> round2_replies;
  if (!round2_targets.empty()) {  // else no round 2, and no fanout_us sample
    round2_replies = FanOut(
        round2_targets, [&round2_requests](size_t idx) -> const JsonValue& {
          return round2_requests[idx];
        });
  }
  for (size_t idx : round2_targets) {
    const ShardReply& reply = round2_replies[idx];
    if (!reply.has_response || !reply.response.at("ok").AsBool() ||
        UintField(reply.response, "transactions") !=
            round1[idx].transactions) {
      // Round-1 supports still stand; the gap is surfaced as degraded.
      missing.push_back(idx);
      continue;
    }
    const JsonValue& supports = reply.response.at("supports");
    for (size_t c = 0; c < needed[idx].size() && c < supports.size(); ++c) {
      round2[idx][needed[idx][c]] = supports.at(c).AsUint();
    }
  }
  std::sort(missing.begin(), missing.end());
  missing.erase(std::unique(missing.begin(), missing.end()), missing.end());
  if (!missing.empty() && !options_.allow_degraded) {
    return ErrorResponse(
        Verb::kMine, Status::Unavailable("shards unreachable: [" +
                                    JoinIndices(missing) + "]"));
  }

  std::vector<Pattern> merged =
      MergeGlobalPatterns(round1, round2, candidates, tau);
  const size_t total_frequent = merged.size();
  if (merged.size() > top) merged.resize(top);
  JsonValue patterns = JsonValue::Array();
  for (const Pattern& pattern : merged) {
    JsonValue entry = JsonValue::Object();
    entry.Set("items", ItemsToJson(pattern.items));
    entry.Set("support", JsonValue::Uint(pattern.support));
    patterns.Append(std::move(entry));
  }
  JsonValue response = OkResponse(Verb::kMine);
  response.Set("min_support", JsonValue::Double(min_support));
  response.Set("transactions", JsonValue::Uint(total));
  response.Set("total_frequent", JsonValue::Uint(total_frequent));
  response.Set("patterns", std::move(patterns));
  // Exchange diagnostics (additive; the oracle-identity tests compare the
  // daemon fields above).
  JsonValue exchange = JsonValue::Object();
  exchange.Set("tau", JsonValue::Uint(tau));
  exchange.Set("candidates", JsonValue::Uint(candidates.size()));
  exchange.Set("round2_requests", JsonValue::Uint(round2_targets.size()));
  response.Set("exchange", std::move(exchange));
  FinishClusterResponse(&response, shards_.size(), 0, missing);
  return response;
}

obs::JsonValue RouterService::HandleCheckpoint() {
  if (draining_.load(std::memory_order_relaxed)) {
    return ErrorResponse(Verb::kCheckpoint,
                         Status::Unavailable("service is draining"));
  }
  JsonValue request = VerbRequest(Verb::kCheckpoint);
  std::vector<size_t> all(shards_.size());
  std::iota(all.begin(), all.end(), size_t{0});
  std::vector<ShardReply> replies = FanOut(all, request);
  uint64_t epoch = 0;
  uint64_t checkpoints = 0;
  std::vector<size_t> failed;
  for (size_t i = 0; i < replies.size(); ++i) {
    if (!replies[i].has_response ||
        !replies[i].response.at("ok").AsBool()) {
      failed.push_back(i);
      continue;
    }
    epoch = std::max(epoch, UintField(replies[i].response, "epoch"));
    checkpoints += UintField(replies[i].response, "checkpoints");
  }
  if (!failed.empty()) {
    return ErrorResponse(
        Verb::kCheckpoint,
        Status::Unavailable("checkpoint failed on shards: [" +
                            JoinIndices(failed) + "]"));
  }
  JsonValue response = OkResponse(Verb::kCheckpoint);
  response.Set("epoch", JsonValue::Uint(epoch));
  response.Set("transactions", JsonValue::Uint(TotalTransactions()));
  response.Set("checkpoints", JsonValue::Uint(checkpoints));
  return response;
}

obs::JsonValue RouterService::HandleShardInfo() {
  // The fleet's own SHARDINFO: the root OR signature plus totals, so a
  // router is itself a valid shard of a bigger router.
  uint64_t epoch = 0;
  for (const auto& shard : shards_) {
    epoch = std::max(epoch, shard->epoch.load(std::memory_order_relaxed));
  }
  JsonValue config_json = JsonValue::Object();
  config_json.Set("bits", JsonValue::Uint(config_.num_bits));
  config_json.Set("hashes", JsonValue::Uint(config_.num_hashes));
  config_json.Set("hash_kind",
                  JsonValue::Uint(static_cast<uint64_t>(config_.hash_kind)));
  config_json.Set("seed", JsonValue::Uint(config_.seed));
  JsonValue response = OkResponse(Verb::kShardInfo);
  response.Set("epoch", JsonValue::Uint(epoch));
  response.Set("transactions", JsonValue::Uint(TotalTransactions()));
  response.Set("segments", JsonValue::Uint(shards_.size()));
  response.Set("shards", JsonValue::Uint(shards_.size()));
  response.Set("mine_enabled", JsonValue::Bool(mine_enabled_));
  response.Set("config", std::move(config_json));
  response.Set("signature_bits", JsonValue::Uint(config_.num_bits));
  {
    std::shared_lock<std::shared_mutex> lock(tree_mu_);
    response.Set("signature",
                 JsonValue::String(service::BitsToHex(tree_.root_signature())));
  }
  return response;
}

obs::JsonValue RouterService::HandleStats() {
  JsonValue response = OkResponse(Verb::kStats);
  response.Set("report", BuildStatsReport());
  return response;
}

obs::JsonValue RouterService::BuildStatsReport() const {
  service::ServiceReportContext ctx;
  ctx.kind = "bbsrouter_service";
  ctx.cluster_role = "router";
  ctx.uptime_seconds = static_cast<double>(MicrosSince(start_)) / 1e6;
  ctx.transactions = TotalTransactions();
  ctx.segments = shards_.size();
  ctx.draining = draining_.load(std::memory_order_relaxed);
  ctx.mine_enabled = mine_enabled_;
  ctx.index_backend = "none";
  ctx.shards_total = shards_.size();
  ctx.shards_up = shards_up();
  JsonValue shards_json = JsonValue::Array();
  for (size_t i = 0; i < shards_.size(); ++i) {
    const ShardState& shard = *shards_[i];
    ctx.epoch = std::max(ctx.epoch,
                         shard.epoch.load(std::memory_order_relaxed));
    const bool failed_over = shard.on_replica.load(std::memory_order_acquire);
    JsonValue entry = JsonValue::Object();
    entry.Set("shard", JsonValue::Uint(i));
    // "endpoint" stays the address requests actually route to (scrapers
    // predate replicas); primary/replica/active spell the topology out.
    entry.Set("endpoint", JsonValue::String(ActiveEndpoint(shard).ToString()));
    entry.Set("primary", JsonValue::String(shard.entry.primary.ToString()));
    if (shard.entry.has_replica) {
      entry.Set("replica", JsonValue::String(shard.entry.replica.ToString()));
    }
    entry.Set("active",
              JsonValue::String(failed_over ? "replica" : "primary"));
    entry.Set("term",
              JsonValue::Uint(shard.term.load(std::memory_order_relaxed)));
    entry.Set("failed_over", JsonValue::Bool(failed_over));
    entry.Set("up",
              JsonValue::Bool(shard.up.load(std::memory_order_relaxed)));
    entry.Set("transactions",
              JsonValue::Uint(
                  shard.transactions.load(std::memory_order_relaxed)));
    entry.Set("epoch",
              JsonValue::Uint(shard.epoch.load(std::memory_order_relaxed)));
    entry.Set("requests",
              JsonValue::Uint(
                  shard.requests.load(std::memory_order_relaxed)));
    entry.Set("errors",
              JsonValue::Uint(shard.errors.load(std::memory_order_relaxed)));
    entry.Set("pruned_queries",
              JsonValue::Uint(shard.pruned.load(std::memory_order_relaxed)));
    entry.Set("hedged",
              JsonValue::Uint(shard.hedged.load(std::memory_order_relaxed)));
    std::vector<uint64_t> buckets(shard.latency.size());
    for (size_t b = 0; b < shard.latency.size(); ++b) {
      buckets[b] = shard.latency[b].load(std::memory_order_relaxed);
    }
    entry.Set("latency_us", ShardLatencyJson(buckets));
    shards_json.Append(std::move(entry));
  }
  ctx.cluster_shards = std::move(shards_json);
  // The router's replication view: whether any shard has a warm replica,
  // and how many promotions this router has driven.
  {
    bool any_replica = false;
    for (const auto& shard : shards_) {
      if (shard->entry.has_replica) any_replica = true;
    }
    JsonValue replication = JsonValue::Object();
    replication.Set("enabled", JsonValue::Bool(any_replica));
    replication.Set("role", JsonValue::String("router"));
    replication.Set("failovers",
                    JsonValue::Uint(metrics_.counter(metrics_.failovers)));
    ctx.replication = std::move(replication);
  }
  if (const std::atomic<uint64_t>* live =
          live_connections_.load(std::memory_order_acquire);
      live != nullptr) {
    ctx.open_connections = live->load(std::memory_order_relaxed);
  }
  ctx.window_now_us = MicrosSince(start_);
  metrics_.MaybeRotateWindows(ctx.window_now_us);
  return BuildServiceReport(ctx, metrics_);
}

}  // namespace bbsmine::cluster
